"""Content-addressed, crash-safe cache of per-seed sweep results.

The :class:`ResultCache` is the one checkpoint store for sweeps: a
*directory* of independent entries, one per computed cell, addressed by
what was computed rather than when:

    key = sha256(canonical JSON of scenario-config fingerprint,
                 scheme fingerprint, seed, code fingerprint)

The code fingerprint (:func:`~repro.experiments.persistence.code_fingerprint`,
a digest of the equation/algorithm registries and lint rule set) is part
of the address, so results computed by a build implementing different
formulas simply never collide with the current build's — stale entries
are unreachable rather than dangerous.

Entries are written atomically (tmp + fsync + rename via
:mod:`repro.atomicio`) with an embedded payload checksum.  A torn or
bit-flipped entry is detected at read time, moved to a ``corrupt/``
sidecar directory (evidence is never deleted) and transparently
recomputed.  ``tsajs run --cache DIR`` therefore resumes any previously
computed cell across runs, machines sharing the directory, and code
revisions — with byte-identical rendered output and RNG ledgers between
cold and warm runs, which ``tests/test_result_cache.py`` pins.

The cache satisfies the runner's
:class:`~repro.sim.runner.SeedJournal` protocol, so it plugs into
:func:`~repro.sim.runner.run_schemes` as its ``journal``.  Drivers whose
cells are not plain (config, scheduler) pairs address entries with
:func:`digest_key` and read and write them with :meth:`ResultCache.get`
and :meth:`ResultCache.put`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.atomicio import (
    atomic_write_json,
    canonical_json,
    payload_checksum,
    read_bytes,
    sha256_hex,
)
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.experiments.persistence import (
    _fingerprint,
    _metrics_from_dict,
    code_fingerprint,
)
from repro.obs.recorder import get_recorder
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SolutionMetrics

__all__ = ["ResultCache", "cell_key", "code_fingerprint", "digest_key"]

#: Version stamped into every cache entry.
CACHE_FORMAT_VERSION = 1


def cell_key(
    config: SimulationConfig,
    scheduler: Scheduler,
    seed: int,
    code: Optional[str] = None,
) -> str:
    """Content address of one (config, scheme, seed, build) cell.

    Full (untruncated) SHA-256 hex of the canonical-JSON cell identity.
    ``code`` defaults to the current build's
    :func:`~repro.experiments.persistence.code_fingerprint`.
    """
    return next(_cell_keys(config, (scheduler,), seed, code))


def _cell_keys(
    config: SimulationConfig,
    schedulers: Sequence[Scheduler],
    seed: int,
    code: Optional[str] = None,
) -> Iterator[str]:
    """:func:`cell_key` of each scheduler's cell of one seed, in order.

    The canonical JSON of a cell payload sorts its keys ``code`` <
    ``config`` < ``scheduler`` < ``seed``, so the text around the
    scheduler is encoded once per seed and each key splices one
    scheduler's canonical JSON into it: the bytes :func:`_address` would
    hash for the whole payload.  Keys are derived lazily, so a lookup
    that misses early derives no more.
    """
    if code is None:
        code = code_fingerprint()
    head = (
        f'{{"code":{canonical_json(code)},'
        f'"config":{canonical_json(_fingerprint(config))},"scheduler":'
    )
    tail = f',"seed":{canonical_json(seed)}}}'
    for scheduler in schedulers:
        text = head + canonical_json(_fingerprint(scheduler)) + tail
        yield sha256_hex(text.encode("utf-8"))


def digest_key(digest: str, scheme: str, seed: int) -> str:
    """Content address of one (sweep digest, scheme, seed, build) cell.

    For drivers whose cells are not a plain (config, scheduler) pair
    (fault-injected repairs, sharded-vs-global solves): ``digest`` is a
    :func:`~repro.experiments.persistence.sweep_digest` folding in the
    driver's extra knobs.  The build is the current
    :func:`~repro.experiments.persistence.code_fingerprint`.
    """
    payload = {
        "digest": digest,
        "scheme": scheme,
        "seed": seed,
        "code": code_fingerprint(),
    }
    return _address(payload)


def _address(payload: Dict[str, Any]) -> str:
    """Full SHA-256 hex of a payload's canonical JSON."""
    return sha256_hex(canonical_json(payload).encode("utf-8"))


class ResultCache:
    """Directory-backed content-addressed store of per-cell metrics.

    Layout: ``root/<key[:2]>/<key>.json`` (two-level sharding keeps any
    one directory small on large sweeps) plus ``root/corrupt/`` holding
    quarantined entries.  Entries are immutable: a key fully determines
    its content, so concurrent writers racing on the same key atomically
    replace one valid entry with an identical one.
    """

    def __init__(self, root: Union[str, Path], resume: bool = True) -> None:
        """``resume=False`` makes every lookup a miss (``--no-resume``):
        the sweep recomputes everything and overwrites the entries, which
        is non-destructive because entries are content-addressed and
        immutable."""
        self.root = Path(root)
        self.resume = resume
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)

    # --- key/path plumbing --------------------------------------------------

    def _entry_file(self, key: str) -> str:
        """The entry's path as a string: a read builds no ``Path``."""
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}.json"

    def _entry_path(self, key: str) -> Path:
        return Path(self._entry_file(key))

    def _corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def __len__(self) -> int:
        """Number of (valid-looking) entry files currently stored."""
        count = 0
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == "corrupt":
                continue
            count += len([p for p in sorted(shard.iterdir()) if p.suffix == ".json"])
        return count

    # --- single-cell API ----------------------------------------------------

    def get(self, key: str) -> Optional[SolutionMetrics]:
        """The cached metrics under ``key``, or ``None``.

        Always ``None`` when the cache was opened with ``resume=False``.
        A present-but-unreadable entry (torn write, bit rot, checksum
        mismatch) is quarantined to ``corrupt/`` and reported as a miss,
        so the caller recomputes it — corruption costs wall time, never
        correctness.
        """
        if not self.resume:
            return None
        path = self._entry_file(key)
        rec = get_recorder()
        try:
            metrics = self._read_entry(path, key)
        except (FileNotFoundError, NotADirectoryError):
            # Never written, or quarantined by another process sharing
            # the directory: either way a plain miss.
            return None
        except ConfigurationError as exc:
            self._quarantine(Path(path))
            if rec.enabled:
                rec.event("cache.entry_quarantined", key=key, error=str(exc))
                rec.count("cache.quarantined")
            return None
        return metrics

    def put(self, key: str, metrics: SolutionMetrics) -> None:
        """Durably store one cell's metrics (atomic, checksummed)."""
        payload_metrics = dataclasses.asdict(metrics)
        atomic_write_json(
            self._entry_path(key),
            {
                "format_version": CACHE_FORMAT_VERSION,
                "key": key,
                "metrics": payload_metrics,
                "checksum": payload_checksum(payload_metrics),
            },
        )
        rec = get_recorder()
        if rec.enabled:
            rec.count("cache.writes")

    def _read_entry(self, path: str, key: str) -> SolutionMetrics:
        try:
            payload = json.loads(read_bytes(path))
        except (FileNotFoundError, NotADirectoryError):
            raise
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"unreadable cache entry {key}.json: {exc}"
            )
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"cache entry {key}.json must hold a JSON object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("format_version")
        if version != CACHE_FORMAT_VERSION:
            raise ConfigurationError(
                f"cache entry {key}.json has format_version {version!r}, "
                f"expected {CACHE_FORMAT_VERSION}"
            )
        if payload.get("key") != key:
            raise ConfigurationError(
                f"cache entry {key}.json claims key {payload.get('key')!r}"
            )
        metrics_field = payload.get("metrics")
        if payload.get("checksum") != payload_checksum(metrics_field):
            raise ConfigurationError(
                f"cache entry {key}.json failed its integrity check "
                "(torn write or corrupted storage)"
            )
        if not isinstance(metrics_field, dict):
            raise ConfigurationError(
                f"cache entry {key}.json metrics must be an object"
            )
        return _metrics_from_dict(metrics_field)

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry into ``corrupt/``, keeping every specimen."""
        corrupt = self._corrupt_dir()
        corrupt.mkdir(parents=True, exist_ok=True)
        destination = corrupt / path.name
        suffix = 0
        while destination.exists():
            suffix += 1
            destination = corrupt / f"{path.name}.{suffix}"
        try:
            os.replace(path, destination)
        except OSError:
            # Lost a race with another process quarantining the same
            # entry; the live path is gone either way.
            pass

    def corrupt_entries(self) -> List[Path]:
        """Quarantined entry files (diagnostics; sorted for determinism)."""
        corrupt = self._corrupt_dir()
        if not corrupt.is_dir():
            return []
        return sorted(corrupt.iterdir())

    # --- SeedJournal protocol (used by repro.sim.runner) --------------------

    def lookup_seed(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        seed: int,
    ) -> Optional[List[SolutionMetrics]]:
        """Per-scheme metrics for a completed seed, or ``None`` if any
        scheme's cell is missing (partial hits stay misses so the seed's
        work unit recomputes as a whole)."""
        rec = get_recorder()
        out: List[SolutionMetrics] = []
        for key in _cell_keys(config, schedulers, seed):
            metrics = self.get(key)
            if metrics is None:
                if rec.enabled:
                    rec.count("cache.misses")
                return None
            out.append(metrics)
        if rec.enabled:
            rec.count("cache.hits")
        return out

    def record_seed(
        self,
        config: SimulationConfig,
        schedulers: Sequence[Scheduler],
        seed: int,
        metrics: Sequence[SolutionMetrics],
    ) -> None:
        """Store every scheme's metrics for one completed seed."""
        if len(schedulers) != len(metrics):
            raise ConfigurationError(
                f"record_seed got {len(metrics)} metrics for "
                f"{len(schedulers)} schedulers (seed {seed})"
            )
        for key, entry in zip(_cell_keys(config, schedulers, seed), metrics):
            self.put(key, entry)
