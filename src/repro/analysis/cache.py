"""Content-addressed on-disk cache of per-module analysis findings.

Mirrors the result-cache shape from :mod:`repro.runtime.cache`: one
JSON file per entry, sharded by key prefix, written atomically (temp
file + rename) so concurrent runs cannot corrupt each other.

Two kinds of entry share the store:

* **per-module** -- the raw (pre-suppression) findings
  every checker's ``check_file`` produced for one module, keyed on the
  module's content fingerprint, the whole-project index signature, and
  the rule-set fingerprint;
* **project** -- the combined ``finalize`` findings of one analysis
  run, keyed on the sorted set of module fingerprints plus the same
  index/rule-set components.

The index signature hashes *indexed facts* (class shapes, call edges,
domains), not source bytes, so a comment-only edit re-analyzes exactly
one module: its own fingerprint rotates, every other module's key is
unchanged.  Editing anything under ``repro/analysis`` rotates the
rule-set fingerprint and with it every key, so a checker change can
never serve stale findings -- the same invariant
:func:`repro.runtime.cache.code_fingerprint` gives the result cache.

Suppression filtering and SUP001/SUP002 are *not* cached: they are recomputed from the raw findings on every run, so a
warm run is byte-for-byte identical to a cold one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .core import Finding

#: Analysis-cache format version; bump to invalidate every entry.
ANALYSIS_CACHE_FORMAT = 1

_ruleset_fingerprint: Optional[str] = None


def ruleset_fingerprint() -> str:
    """Hash of every source file the cached findings depend on.

    Covers the whole ``repro.analysis`` package -- core, index, driver,
    and every checker -- because a finding is a function of all of
    them.  Computed once per process.
    """
    global _ruleset_fingerprint
    if _ruleset_fingerprint is None:
        package_root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(path.read_bytes())
        _ruleset_fingerprint = digest.hexdigest()
    return _ruleset_fingerprint


def _key(payload: Dict[str, object]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def module_key(module_fingerprint: str, index_signature: str,
               ruleset: Optional[str] = None) -> str:
    """Content address of one module's ``check_file`` findings."""
    return _key({
        "format": ANALYSIS_CACHE_FORMAT,
        "kind": "module",
        "module": module_fingerprint,
        "index": index_signature,
        "ruleset": ruleset if ruleset is not None else ruleset_fingerprint(),
    })


def project_key(module_fingerprints: Sequence[str], index_signature: str,
                ruleset: Optional[str] = None) -> str:
    """Content address of one run's combined ``finalize`` findings.

    Order-independent over the module set: the same tree analyzed from
    a different argument order hits the same entry.
    """
    return _key({
        "format": ANALYSIS_CACHE_FORMAT,
        "kind": "project",
        "modules": sorted(set(module_fingerprints)),
        "index": index_signature,
        "ruleset": ruleset if ruleset is not None else ruleset_fingerprint(),
    })


def default_analysis_cache_dir() -> Path:
    """``$REPRO_ANALYSIS_CACHE_DIR``, else ``./.analysis-cache``."""
    env = os.environ.get("REPRO_ANALYSIS_CACHE_DIR")
    if env:
        return Path(env)
    return Path(".analysis-cache")


class AnalysisCache:
    """On-disk raw-finding store addressed by :func:`module_key` /
    :func:`project_key`."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = (
            Path(directory) if directory else default_analysis_cache_dir()
        )
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[List[Finding]]:
        """The cached findings for ``key``, or None (a recorded miss)."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            findings = [Finding(**entry) for entry in data["findings"]]
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def put(self, key: str, findings: Sequence[Finding]) -> Path:
        """Store ``findings`` under ``key`` atomically; returns the path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": ANALYSIS_CACHE_FORMAT,
            "key": key,
            "findings": [finding.to_dict() for finding in findings],
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
        return removed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
