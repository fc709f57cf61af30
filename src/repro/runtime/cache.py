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
from functools import lru_cache
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from ..sim.config import MeasurementConfig, SimConfig
from ..sim.metrics import RunResult

#: Cache format version; bump to invalidate every existing entry.
CACHE_FORMAT = 1

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every source file the cached payload depends on.

    Covers ``repro/sim`` (the engine and routers) and
    ``repro/telemetry`` (cached results embed telemetry summaries, so a
    telemetry change must rotate the key too).  Computed once per
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


#: The canonical JSON encoding every key is a SHA-256 of: sorted keys,
#: no whitespace.  Changing it re-keys every entry ever written.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=64, typed=True)
def _key_frame(
    code: str,
    drain_cycles: int,
    max_cycles: int,
    sample_packets: int,
    warmup_cycles: int,
) -> Tuple[str, str]:
    """The canonical JSON before and after the ``"config"`` value.

    That half of a key -- code version, cache format, measurement --
    is the same for every point of a sweep and every query of a serving
    session, so it is encoded once per distinct set of values.  The
    configs are mutable, so the memo is over the field *values*, never
    the object; ``typed`` because ``1 == 1.0 == True`` hash alike but
    encode differently.
    """
    measurement = {
        "drain_cycles": drain_cycles,
        "max_cycles": max_cycles,
        "sample_packets": sample_packets,
        "warmup_cycles": warmup_cycles,
    }
    return (
        f'{{"code":{_encode(code)},"config":',
        f',"format":{_encode(CACHE_FORMAT)},'
        f'"measurement":{_encode(measurement)}}}',
    )


def config_key(
    config: SimConfig,
    measurement: Optional[MeasurementConfig] = None,
    code_version: Optional[str] = None,
) -> str:
    """Stable content hash identifying one simulation run.

    SHA-256 over the canonical JSON of ``{"code", "config", "format",
    "measurement"}`` with every config and measurement field under its
    own name -- byte for byte what ``json.dumps`` of the two
    ``asdict()`` dumps gives (``tests/runtime/test_cache.py`` keeps that
    recipe as the reference), so keys, cache directories and manifests
    written by any earlier version stay valid.  The fields are read one
    by one; that reference recipe is what checks them: a new
    ``SimConfig`` / ``MeasurementConfig`` field must be read here before
    those tests pass.
    """
    if measurement is None:
        measurement = MeasurementConfig()
    prefix, suffix = _key_frame(
        code_version if code_version is not None else code_fingerprint(),
        measurement.drain_cycles,
        measurement.max_cycles,
        measurement.sample_packets,
        measurement.warmup_cycles,
    )
    fields = {
        "allocator_kind": config.allocator_kind,
        "arbiter_kind": config.arbiter_kind,
        "buffers_per_vc": config.buffers_per_vc,
        "burst_length": config.burst_length,
        "credit_pipeline": config.credit_pipeline,
        "credit_propagation": config.credit_propagation,
        "flit_propagation": config.flit_propagation,
        "injection_fraction": config.injection_fraction,
        "injection_process": config.injection_process,
        "mesh_radix": config.mesh_radix,
        "num_vcs": config.num_vcs,
        "packet_length": config.packet_length,
        "router_kind": config.router_kind.value,
        "routing_function": config.routing_function,
        "seed": config.seed,
        "speculation_priority": config.speculation_priority,
        "stepper": config.stepper,
        "telemetry": (
            None if config.telemetry is None else asdict(config.telemetry)
        ),
        "topology": config.topology,
        "traffic_pattern": config.traffic_pattern,
        "va_extra_cycles": config.va_extra_cycles,
    }
    canonical = prefix + _encode(fields) + suffix
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

    Line 1 is the header (sweep key, point count); every
    completed point appends a ``{"done": key}`` record the moment its
    result is in the cache; a final ``{"complete": true}`` line marks a
    finished batch.  Appends are line-buffered single writes, so a
    killed process leaves a readable ledger that simply ends early --
    which is the resume story: re-open the manifest, read the done set,
    execute the rest.
    """

    def __init__(self, path: Path, sweep: str, points: int) -> None:
        self.path = path
        self.sweep = sweep
        self.points = points
        self._done: Set[str] = set()
        self._complete = False
        #: Whether the ledger file already holds records (so :meth:`start`
        #: writes no header and needs no second look at the disk).
        self._started = False
        #: Whether its last line lacks a newline -- an append torn by a
        #: killed process, which the next append must not run on from.
        self._torn = False
        self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError:
            return
        self._started = bool(text)
        self._torn = self._started and not text.endswith("\n")
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a torn write from a killed process
            if not isinstance(record, dict):
                continue  # valid JSON, but no record this ledger writes
            done = record.get("done")
            if isinstance(done, str):
                self._done.add(done)
            elif record.get("complete"):
                self._complete = True

    def start(self) -> "SweepManifest":
        """Write the header if this is a fresh ledger; no-op on resume."""
        if not self._started:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._append({
                "format": CACHE_FORMAT,
                "sweep": self.sweep,
                "points": self.points,
            })
        return self

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._torn:
            line = "\n" + line
            self._torn = False
        with open(self.path, "a") as handle:
            handle.write(line)
        self._started = True

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


#: Decoded hits one :class:`ResultCache` keeps in memory (see
#: :meth:`ResultCache.get`).  A decoded entry is ~1.4 KiB, ~90 KiB when
#: it carries an 8x8 telemetry summary, so the read-through tops out at
#: 0.4 MiB of plain entries (23 MiB of telemetry ones, which a sweep's
#: own result list references anyway); a full one is simply emptied.
_READ_THROUGH_ENTRIES = 256


class ResultCache:
    """On-disk :class:`RunResult` store addressed by :func:`config_key`."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self._decoded: Dict[str, RunResult] = {}

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (a recorded miss).

        A missing, torn or wrong-shaped entry is a miss all the same:
        the point re-simulates and the atomic :meth:`put` overwrites it.

        A hit comes back stamped ``source="cached"`` -- the stamp is set
        on the decoded entry, so no caller copies the result to set it.
        Entries are content-addressed and never change once written, so
        a decoded hit is kept in memory and the next ``get`` of that key
        costs no disk read and returns the same object: it is shared, so
        treat it as read-only.  Only hits are kept
        -- never "this key is absent" -- so an entry that lands later,
        from this process or any other, is seen by the very next
        ``get``.  :meth:`put` and :meth:`clear` drop what they replace.
        The estimator's background refiner ``put``s on this instance
        while the caller's thread ``get``s: each touches ``_decoded``
        with one dict operation at a time, which the interpreter lock
        makes atomic, and the worst interleaving (a ``get`` storing the
        entry a concurrent ``put`` just rewrote) stores a result equal
        to the new one, so no lock is taken.
        """
        result = self._decoded.get(key)
        if result is None:
            try:
                # _path(key), spelled as a string: the pathlib join
                # cost more than the failed open() of a miss.
                with open(
                    f"{self.directory}/{key[:2]}/{key}.json", "rb"
                ) as handle:
                    entry = json.loads(handle.read())["result"]
                # Provenance is stamped once, here: every caller answers
                # a replayed entry as "cached".
                entry["source"] = "cached"
                result = RunResult.from_dict(entry)
            except (OSError, ValueError, LookupError, TypeError,
                    AttributeError):
                self.misses += 1
                return None
            if len(self._decoded) >= _READ_THROUGH_ENTRIES:
                self._decoded.clear()
            self._decoded[key] = result
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
        self._decoded.pop(key, None)
        return path

    def manifest(self, keys: Sequence[str]) -> SweepManifest:
        """The progress ledger for the batch addressed by ``keys``.

        Lives under ``manifests/`` next to the entry shards; the same
        batch (same point keys, any order) always maps to the same
        ledger, which is what makes an interrupted sweep resumable.
        """
        sweep = sweep_key(keys)
        path = self.directory / "manifests" / f"{sweep}.jsonl"
        return SweepManifest(path, sweep, len(set(keys)))

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
        self._decoded.clear()
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
