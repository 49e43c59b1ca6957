"""Shared warm-cache tier: one persistent store for every campaign artefact.

PR 3 made place-and-route artifacts persistent
(:class:`~repro.pnr.artifacts.FlowArtifactStore`); golden traces and
static defeat maps stayed memoized *in process only*
(:mod:`repro.faults.cache` / :mod:`repro.analysis.layout`), so every new
process — every service worker, every CI job, every benchmark — rebuilt
them from scratch.  This module unifies all three under one directory:

.. code-block:: text

    <root>/flow/<aa>/<key>.pkl      place-and-route implementations
    <root>/golden/<aa>/<key>.pkl    golden traces (+ overlay-free program)
    <root>/defeat-map/<aa>/<key>.pkl  static defeat maps
    <root>/fault-list/<aa>/<key>.pkl  enumerated injectable-bit lists

* :class:`~repro.pnr.artifacts.PersistentStore` — the namespaced pickle
  store every namespace shares: atomic writes, version-checked payloads,
  corrupt entries evicted as misses, and a size-bounded LRU budget over
  the whole root (re-exported here with its :class:`TierStats`).
* :class:`SharedCacheTier` — the facade the service (and, through the
  process-wide *active tier*, the campaign cache and the layout
  analyzer) reads and writes.  Every ``.pkl`` under the root, flow
  artifacts included, counts against ``max_bytes`` and the
  least-recently-*used* files go first (reads refresh mtimes).

Artefact keys chain on the implementation fingerprint
(:func:`repro.faults.cache.implementation_fingerprint`), so two
campaigns over bit-identical implementations share entries while any
bitstream change forms new ones.  Identity of the simulated *content*
is therefore exact; the stores never serve a stale artefact.

The **active tier** is an explicit, process-wide hook: the campaign
cache and ``defeat_map_for`` consult :func:`active_tier` on an
in-memory miss and write through on a compute.  It is off by default
(plain library use keeps the PR 1-6 behaviour bit for bit); the service
activates it, and ``REPRO_CACHE_TIER=<dir>`` activates it for ad-hoc
CLI runs.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..pnr.artifacts import (DEFAULT_MAX_BYTES, FlowArtifactStore,
                             PersistentStore)
from ..pnr.artifacts import TIER_VERSION, TierStats  # noqa: F401

#: Namespaces managed by the tier (also the subdirectory names).
GOLDEN_NAMESPACE = "golden"
DEFEAT_MAP_NAMESPACE = "defeat-map"
FAULT_LIST_NAMESPACE = "fault-list"
SHARD_NAMESPACE = "shard-verdicts"


def _stimulus_digest(stimulus_key: Tuple) -> str:
    """Stable digest of a :func:`repro.faults.cache.stimulus_key` tuple.

    The key is built from sorted (name, int/tuple-of-int) pairs, whose
    ``repr`` is deterministic across processes and hash seeds.
    """
    return hashlib.sha1(repr(stimulus_key).encode()).hexdigest()


class SharedCacheTier:
    """The unified persistent artefact tier of the campaign service."""

    def __init__(self, root: Union[str, Path],
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self._store = PersistentStore(root, max_bytes)
        self.root = self._store.root
        self.stats = self._store.stats
        #: place-and-route implementations, under this tier's budget
        self.flow_store = FlowArtifactStore(self._store)

    @property
    def max_bytes(self) -> int:
        return self._store.max_bytes

    @max_bytes.setter
    def max_bytes(self, value: int) -> None:
        self._store.max_bytes = value

    def total_bytes(self) -> int:
        return self._store.total_bytes()

    def enforce_budget(self) -> int:
        return self._store.enforce_budget()

    # ------------------------------------------------------------------
    def golden_key(self, fingerprint: str, stimulus_key: Tuple) -> str:
        return f"{fingerprint}-{_stimulus_digest(stimulus_key)}"

    def load_golden(self, fingerprint: str, stimulus_key: Tuple
                    ) -> Optional[Tuple[object, object]]:
        """The persisted ``(golden trace, overlay-free program)`` pair."""
        payload = self._store.load(
            GOLDEN_NAMESPACE, self.golden_key(fingerprint, stimulus_key))
        if payload is None:
            self.stats.bump("golden_misses")
            return None
        self.stats.bump("golden_hits")
        return payload

    def store_golden(self, fingerprint: str, stimulus_key: Tuple,
                     trace: object, program: object) -> bool:
        ok = self._store.store(
            GOLDEN_NAMESPACE, self.golden_key(fingerprint, stimulus_key),
            (trace, program))
        if ok:
            self.stats.bump("golden_stores")
        return ok

    # ------------------------------------------------------------------
    def defeat_map_key(self, fingerprint: str, mode: str) -> str:
        # "cols1" names the columnar DefeatMap layout: maps pickled in an
        # older layout sit under other keys and read as plain misses.
        return f"{fingerprint}-{mode}-cols1"

    def load_defeat_map(self, fingerprint: str, mode: str):
        payload = self._store.load(DEFEAT_MAP_NAMESPACE,
                                   self.defeat_map_key(fingerprint, mode))
        if payload is None:
            self.stats.bump("defeat_map_misses")
            return None
        self.stats.bump("defeat_map_hits")
        return payload

    def store_defeat_map(self, fingerprint: str, mode: str,
                         defeat_map: object) -> bool:
        ok = self._store.store(DEFEAT_MAP_NAMESPACE,
                               self.defeat_map_key(fingerprint, mode),
                               defeat_map)
        if ok:
            self.stats.bump("defeat_map_stores")
        return ok

    # ------------------------------------------------------------------
    def fault_list_key(self, fingerprint: str, mode: str) -> str:
        return f"{fingerprint}-{mode}"

    def load_fault_list(self, fingerprint: str, mode: str):
        """The persisted enumerated fault list (injectable bits) of a design.

        Enumerating the injectable configuration bits walks every used
        routing node's candidate PIPs — by far the largest
        fault-count-independent cost of a warm campaign — yet the result
        is pure data fully determined by ``(fingerprint, mode)``.
        """
        payload = self._store.load(FAULT_LIST_NAMESPACE,
                                   self.fault_list_key(fingerprint, mode))
        if payload is None:
            self.stats.bump("fault_list_misses")
            return None
        self.stats.bump("fault_list_hits")
        return payload

    def store_fault_list(self, fingerprint: str, mode: str,
                         fault_list: object) -> bool:
        ok = self._store.store(FAULT_LIST_NAMESPACE,
                               self.fault_list_key(fingerprint, mode),
                               fault_list)
        if ok:
            self.stats.bump("fault_list_stores")
        return ok

    # ------------------------------------------------------------------
    def load_shard_verdicts(self, key: str) -> Optional[object]:
        """A persisted shard checkpoint (completed shard's verdicts).

        Keys are built by the sharded backend from the campaign's
        content digest plus the shard schedule position, so a checkpoint
        can only ever resume the exact task slice it was computed from.
        """
        payload = self._store.load(SHARD_NAMESPACE, key)
        if payload is None:
            self.stats.bump("shard_misses")
            return None
        self.stats.bump("shard_hits")
        return payload

    def store_shard_verdicts(self, key: str, payload: object) -> bool:
        ok = self._store.store(SHARD_NAMESPACE, key, payload)
        if ok:
            self.stats.bump("shard_stores")
        return ok

    def summary(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "max_bytes": self.max_bytes,
            "total_bytes": self.total_bytes(),
            "hit_rate": round(self.stats.hit_rate(), 4),
            "stats": self.stats.as_dict(),
        }


# ----------------------------------------------------------------------
# Process-wide active tier
# ----------------------------------------------------------------------
TierLike = Union[None, str, Path, SharedCacheTier]

_ACTIVE_TIER: Optional[SharedCacheTier] = None
_ENV_CHECKED = False

#: Environment knob: point it at a directory to activate a shared tier
#: for plain CLI/benchmark runs without touching any call site.
TIER_ENV_VAR = "REPRO_CACHE_TIER"


def resolve_tier(tier: TierLike) -> Optional[SharedCacheTier]:
    """Normalize a ``cache_tier=`` knob (``None`` stays ``None``)."""
    if tier is None:
        return None
    if isinstance(tier, SharedCacheTier):
        return tier
    return SharedCacheTier(tier)


def activate_tier(tier: TierLike) -> Optional[SharedCacheTier]:
    """Install *tier* as the process-wide read-through/write-through tier."""
    global _ACTIVE_TIER, _ENV_CHECKED
    _ACTIVE_TIER = resolve_tier(tier)
    _ENV_CHECKED = True
    return _ACTIVE_TIER


def deactivate_tier() -> None:
    """Remove the active tier (also disables the env-var fallback probe)."""
    activate_tier(None)


def active_tier() -> Optional[SharedCacheTier]:
    """The process-wide tier, if one was activated (or set via env)."""
    global _ACTIVE_TIER, _ENV_CHECKED
    if _ACTIVE_TIER is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        root = os.environ.get(TIER_ENV_VAR)
        if root:
            _ACTIVE_TIER = SharedCacheTier(root)
    return _ACTIVE_TIER
