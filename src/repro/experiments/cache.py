"""Content-addressed on-disk cache for simulation results.

Every simulation cell in the experiment harness is a pure function of

``(SystemConfig, policy name, seed, warmup, duration, system kind, kwargs,
fault plan, workload spec)``

so its :class:`~repro.model.metrics.SystemResults` can be cached on disk and
reused across runs, scales that share cells, processes, and (with a shared
directory) machines.  The cache is *content addressed*: the key is a SHA-256
hash over the canonical JSON serialization of all the run inputs, so any
single-field change — a different think time, seed, warmup, policy,
mechanism parameter, fault or arrival process — produces a different key.
The config, fault plan and workload spec are encoded by
:mod:`repro.codec`, which covers every dataclass field by construction and
writes float fields as floats, so two of them that are equal as
dataclasses always produce the same key regardless of how they were
constructed (``think_time=350`` and ``think_time=350.0`` share a key).

Robustness properties:

* **Versioned entries.** Each entry embeds ``entry_version`` (and the
  key hash itself); entries written by an incompatible version, or whose
  stored key disagrees with their filename, are treated as misses and
  silently rewritten.
* **Atomic writes.** Entries are written to a unique temp file in the
  destination directory and published with :func:`os.replace`, so readers
  never observe a half-written entry and concurrent writers of the same
  key cannot corrupt it (last writer wins with identical content).
* **Graceful degradation.** Corrupt, truncated, unreadable, or malformed
  entries are never fatal — they count as misses (see
  :attr:`CacheStats.errors`) and are replaced on the next write.

Typical use goes through the execution backend
(:mod:`repro.experiments.parallel`) or the CLI flags ``--cache-dir`` /
``--no-cache``; direct use::

    cache = ResultCache(default_cache_dir())
    key = cache_key(config, "LERT", seed=1, warmup=500.0, duration=2000.0)
    hit = cache.get(key)           # None on miss
    cache.put(key, results)        # atomic
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig
from repro.model.metrics import SystemResults
from repro.codec import to_dict
from repro.model.serialization import results_from_dict, results_to_dict
from repro.workloads.spec import WorkloadSpec

#: Version of the cache-entry layout *and* the key derivation.  Bumping it
#: invalidates every existing entry (old entries become misses).
CACHE_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """The default on-disk cache root.

    ``$REPRO_CACHE_DIR`` when set, otherwise ``~/.cache/repro/results``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "results"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable float repr.

    Two payloads that are equal as Python objects serialize to the same
    string regardless of dict insertion order, which makes hashes of the
    output content addresses.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(
    config: SystemConfig,
    policy: str,
    *,
    seed: int,
    warmup: float,
    duration: float,
    system_kind: str = "standard",
    system_kwargs: Sequence[Tuple[str, Any]] = (),
    faults: Optional[FaultPlan] = None,
    workload: Optional[WorkloadSpec] = None,
) -> str:
    """Content address of one simulation run.

    The key is the SHA-256 hex digest of the canonical JSON serialization
    of every input that determines the run's output.  ``system_kind`` and
    ``system_kwargs`` name the mechanisms the run switches on (a row of
    :data:`~repro.experiments.parallel.SYSTEM_KINDS`: stale load
    information, updates, CPU speeds, ...) and their parameters, so
    mechanism runs never collide with standard ones.  A non-``None``
    *faults* plan is folded into the key (so a faulted run can never be
    answered from a faultless entry); ``None`` leaves the payload — and
    therefore every pre-faults key — unchanged.  *workload* behaves the same way: a
    non-``None`` spec (callers normalize the closed default to ``None``
    first) is folded in, and ``None`` preserves every pre-workload key.
    """
    payload: Dict[str, Any] = {
        "cache_version": CACHE_VERSION,
        "config": to_dict(config),
        "policy": policy,
        "seed": seed,
        "warmup": warmup,
        "duration": duration,
        "system_kind": system_kind,
        "system_kwargs": {name: value for name, value in system_kwargs},
    }
    if faults is not None:
        # Added only when present: existing cache entries stay addressable.
        payload["faults"] = to_dict(faults)
    if workload is not None:
        # Same rule as faults: only open workloads alter the key.
        payload["workload"] = to_dict(workload)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.errors} errors"
        )


class ResultCache:
    """Content-addressed store of :class:`SystemResults`, one file per key.

    Entries live at ``root/<key[:2]>/<key>.json`` (two-level sharding keeps
    directories small).  All failure modes degrade to cache misses.
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        *,
        version: int = CACHE_VERSION,
    ) -> None:
        self.root = pathlib.Path(root)
        self.version = version
        self.stats = CacheStats()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> pathlib.Path:
        """Where the entry for *key* lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SystemResults]:
        """The cached result for *key*, or ``None`` on any kind of miss."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.stats.misses += 1
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("entry is not a JSON object")
            if data.get("entry_version") != self.version:
                raise ValueError("entry version mismatch")
            if data.get("key") != key:
                raise ValueError("entry key mismatch")
            result = results_from_dict(data["result"])
        except Exception:
            # Corrupt / stale / truncated entry: a miss, never fatal.  The
            # entry stays on disk and is overwritten by the next put().
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result: SystemResults) -> None:
        """Store *result* under *key* atomically (temp file + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "entry_version": self.version,
            "key": key,
            "result": results_to_dict(result),
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, version={self.version})"


__all__ = [
    "CACHE_VERSION",
    "CACHE_DIR_ENV",
    "CacheStats",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "default_cache_dir",
]
