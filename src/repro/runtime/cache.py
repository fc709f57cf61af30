"""Content-addressed on-disk cache of simulation results.

A run is fully determined by its :class:`~repro.sim.config.SimConfig`
(which includes the seed), its
:class:`~repro.sim.config.MeasurementConfig`, and the simulator code
itself, so the cache key is a SHA-256 over a canonical JSON encoding of
all three.  Any config field change -- including the seed -- produces a
different key, and editing anything under ``repro/sim`` rotates the
code fingerprint, so stale entries can never be served.

Entries are one JSON file each, sharded by key prefix, written
atomically (temp file + rename) so concurrent writers on the same
machine cannot corrupt each other.  Results round-trip exactly:
``RunResult.from_dict(result.to_dict()) == result``.

Batches stream: :meth:`Experiment.map` writes each point into the cache
*as it completes* (not at sweep end) and records progress in a
:class:`SweepManifest` -- an append-only JSONL ledger addressed by a
hash of the batch's point keys.  An interrupted sweep therefore keeps
everything it finished; re-running the same batch resumes from the
cache, executing only the points that never landed, and the manifest
says exactly which those are.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Union

from ..sim.config import MeasurementConfig, SimConfig
from ..sim.metrics import RunResult

#: Cache format version; bump to invalidate every existing entry.
CACHE_FORMAT = 1

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every source file the cached payload depends on.

    Covers ``repro/sim`` (the engine and routers) and
    ``repro/telemetry`` (cached results embed telemetry summaries, so a
    collector change must rotate the key too).  Computed once per
    process; survives process restarts unchanged as long as the sources
    do, which is exactly the invariant the cache needs.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for subpackage in ("sim", "telemetry"):
            for path in sorted((package_root / subpackage).rglob("*.py")):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def _jsonable(value: Any) -> Any:
    """Make dataclass-dict values canonical-JSON-safe (enums -> values)."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "value") and value.__class__.__module__ != "builtins":
        return value.value  # enum members
    return value


def config_key(
    config: SimConfig,
    measurement: Optional[MeasurementConfig] = None,
    code_version: Optional[str] = None,
) -> str:
    """Stable content hash identifying one simulation run."""
    payload = {
        "format": CACHE_FORMAT,
        "config": _jsonable(asdict(config)),
        "measurement": _jsonable(asdict(measurement or MeasurementConfig())),
        "code": code_version if code_version is not None else code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def sweep_key(keys: Sequence[str]) -> str:
    """Content address of one batch: a hash over its point keys.

    Order-independent (the same set of points is the same sweep however
    the caller enumerated the grid), so a restarted sweep finds its own
    manifest even if the batch was rebuilt in a different order.
    """
    digest = hashlib.sha256()
    for key in sorted(set(keys)):
        digest.update(key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class SweepManifest:
    """Append-only progress ledger of one batch of points.

    Line 1 is the header (sweep key, label, point count); every
    completed point appends a ``{"done": key}`` record the moment its
    result is in the cache; a final ``{"complete": true}`` line marks a
    finished batch.  Appends are line-buffered single writes, so a
    killed process leaves a readable ledger that simply ends early --
    which is the resume story: re-open the manifest, read the done set,
    execute the rest.
    """

    def __init__(self, path: Path, sweep: str, points: int,
                 label: str = "") -> None:
        self.path = path
        self.sweep = sweep
        self.points = points
        self.label = label
        self._done: Set[str] = set()
        self._complete = False
        self._load()

    def _load(self) -> None:
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn trailing write from a killed process
            if "done" in record:
                self._done.add(record["done"])
            elif record.get("complete"):
                self._complete = True

    def start(self) -> "SweepManifest":
        """Write the header if this is a fresh ledger; no-op on resume."""
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._append({
                "format": CACHE_FORMAT,
                "sweep": self.sweep,
                "label": self.label,
                "points": self.points,
            })
        return self

    def _append(self, record: Dict[str, Any]) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def record(self, key: str) -> None:
        """One point's result is in the cache: append its done record."""
        if key not in self._done:
            self._done.add(key)
            self._append({"done": key})

    def complete(self) -> None:
        """Every point landed: append the completion marker."""
        if not self._complete:
            self._complete = True
            self._append({"complete": True, "points": self.points})

    @property
    def done(self) -> Set[str]:
        return set(self._done)

    @property
    def is_complete(self) -> bool:
        return self._complete

    def remaining(self, keys: Iterable[str]) -> List[str]:
        """The subset of ``keys`` this ledger has not seen complete."""
        return [key for key in keys if key not in self._done]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-sim``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sim"


class ResultCache:
    """On-disk :class:`RunResult` store addressed by :func:`config_key`."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (a recorded miss).

        A missing, torn or wrong-shaped entry is a miss all the same:
        the point re-simulates and the atomic :meth:`put` overwrites it.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            result = RunResult.from_dict(data["result"])
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult,
            metadata: Optional[Dict[str, Any]] = None) -> Path:
        """Store ``result`` under ``key`` atomically; returns the path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "metadata": metadata or {},
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def manifest(self, keys: Sequence[str], label: str = "") -> SweepManifest:
        """The progress ledger for the batch addressed by ``keys``.

        Lives under ``manifests/`` next to the entry shards; the same
        batch (same point keys, any order) always maps to the same
        ledger, which is what makes an interrupted sweep resumable.
        """
        sweep = sweep_key(keys)
        path = self.directory / "manifests" / f"{sweep}.jsonl"
        return SweepManifest(path, sweep, len(set(keys)), label=label)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(
            1 for p in self.directory.glob("*/*.json")
            if not p.name.startswith(".tmp-")
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*/*.json"):
                path.unlink()
                removed += 1
            # Progress ledgers describe entries that no longer exist.
            for path in self.directory.glob("manifests/*.jsonl"):
                path.unlink()
        return removed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
