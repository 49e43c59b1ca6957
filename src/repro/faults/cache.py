"""Golden-trace and fault-effect caching for repeated campaigns.

The paper's experiments (Tables 3/4, the ablations, the figures and the
partition sweeps) repeatedly run campaigns over the *same* implemented
designs.  Everything campaign-invariant is a pure function of the
implementation (and, for golden traces, of the stimulus), so this module
memoizes it behind an implementation *fingerprint*:

* the :class:`~repro.sim.compile.CompiledDesign` (levelization),
* the fault lists per selection mode,
* the golden traces per stimulus (with the overlay-free gate program),
* the compiled bit-parallel lane program
  (:class:`~repro.sim.bitparallel.VectorProgram`),
* its numpy-compiled wrapper with accumulated shard plans
  (:class:`~repro.sim.npkernel.NumpyProgram`),
* the modelled effect per bit, stored as columns
  (:class:`~repro.faults.models.EffectColumns`),
* the fault cones per seed-net set.

The fingerprint hashes the configuration-memory contents plus the design and
device identity, so two :class:`~repro.pnr.flow.Implementation` objects with
identical bitstreams share one cache entry, while re-implementing (different
placement seed, floorplan, device) forms a new one.  A small LRU bounds the
number of retained designs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from ..pnr.flow import Implementation
from ..sim.bitparallel import VectorProgram, compile_vector_program
from ..sim.compile import CompiledDesign, FaultCone
from ..sim.simulator import SimulationTrace, Simulator
from .models import EffectColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fault_list import FaultList

#: Number of implementations kept in the global cache.
MAX_ENTRIES = 8

#: Golden traces retained per implementation (they record every net value
#: per cycle, by far the heaviest cached artefact; distinct stimuli beyond
#: this evict least-recently-used).
MAX_GOLDEN_PER_ENTRY = 4


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters, one pair per cached artefact kind."""

    compiled_hits: int = 0
    compiled_misses: int = 0
    golden_hits: int = 0
    golden_misses: int = 0
    vector_program_hits: int = 0
    vector_program_misses: int = 0
    numpy_program_hits: int = 0
    numpy_program_misses: int = 0
    effect_hits: int = 0
    effect_misses: int = 0
    fault_list_hits: int = 0
    fault_list_misses: int = 0
    cone_hits: int = 0
    cone_misses: int = 0
    defeat_map_hits: int = 0
    defeat_map_misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


def stimulus_key(stimulus: Sequence[Dict[str, int]]) -> Tuple:
    """A hashable identity for a stimulus stream.

    Input values may be integers or explicit bit lists (see
    :meth:`Simulator._apply_inputs`); both are normalized to hashables.
    """
    def freeze(value):
        if isinstance(value, (list, tuple)):
            return tuple(value)
        return value

    return tuple(
        tuple(sorted((name, freeze(value)) for name, value in cycle.items()))
        for cycle in stimulus)


def implementation_fingerprint(implementation: Implementation) -> str:
    """Content hash identifying one implemented design."""
    digest = hashlib.sha1()
    digest.update(implementation.design.name.encode())
    digest.update(implementation.device.spec.name.encode())
    digest.update(str(implementation.layout.total_bits).encode())
    digest.update(bytes(implementation.bitstream.bits))
    return digest.hexdigest()


class CampaignCacheEntry:
    """Everything campaign-invariant known about one implementation."""

    def __init__(self, fingerprint: str,
                 implementation: Implementation) -> None:
        self.fingerprint = fingerprint
        #: kept weak so a cached entry does not pin a heavyweight
        #: implementation alive on its own
        self._implementation = weakref.ref(implementation)
        #: guards the golden-trace LRU — entries are shared between the
        #: service's asyncio.to_thread workers.  Memo inserts stay
        #: unlocked: a lost race there only recomputes, never corrupts.
        self._lock = threading.Lock()
        self._compiled: Optional[CompiledDesign] = None
        self._vector_program: Optional[VectorProgram] = None
        self._numpy_program = None
        self._fault_lists: Dict[str, "FaultList"] = {}
        #: stimulus key -> (golden trace, overlay-free gate program);
        #: LRU-bounded, the traces dominate the cache's memory
        self._golden: "OrderedDict[Tuple, Tuple[SimulationTrace, object]]" \
            = OrderedDict()
        #: modelled effects per bit (and per multi-bit cluster); campaign
        #: contexts read and fill it (see ``CampaignContext.injections_for``)
        self.effects = EffectColumns()
        self._cones: Dict[Tuple[int, ...], FaultCone] = {}
        #: fault-list mode -> static defeat map (repro.analysis.layout)
        self._defeat_maps: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def compiled_design(self, stats: CacheStats) -> CompiledDesign:
        if self._compiled is None:
            implementation = self._implementation()
            if implementation is None:
                raise RuntimeError("cached implementation was garbage "
                                   "collected")
            stats.compiled_misses += 1
            self._compiled = CompiledDesign(implementation.design)
        else:
            stats.compiled_hits += 1
        return self._compiled

    def vector_program(self, compiled: CompiledDesign,
                       stats: CacheStats) -> VectorProgram:
        """The memoized bit-parallel lane program of this implementation."""
        if self._vector_program is None or \
                self._vector_program.design is not compiled:
            stats.vector_program_misses += 1
            self._vector_program = compile_vector_program(compiled)
        else:
            stats.vector_program_hits += 1
        return self._vector_program

    def numpy_program(self, compiled: CompiledDesign, stats: CacheStats):
        """The memoized numpy-compiled lane program (plans and all).

        Wraps :meth:`vector_program`, so the two memos share one compiled
        entry list; the wrapper additionally accumulates shard plans and
        broadcast artefacts across campaigns (see
        :class:`repro.sim.npkernel.NumpyProgram`).
        """
        from ..sim.npkernel import compile_numpy_program

        if self._numpy_program is None or \
                self._numpy_program.design is not compiled:
            stats.numpy_program_misses += 1
            self._numpy_program = compile_numpy_program(
                self.vector_program(compiled, stats))
        else:
            stats.numpy_program_hits += 1
        return self._numpy_program

    def fault_list(self, mode: str, stats: CacheStats) -> "FaultList":
        if mode not in self._fault_lists:
            from .fault_list import FaultListManager

            implementation = self._implementation()
            if implementation is None:
                raise RuntimeError("cached implementation was garbage "
                                   "collected")
            # As with golden traces below, an in-memory miss (counted
            # either way) may be served by the persistent tier: the list
            # is pure data fully determined by (fingerprint, mode), and
            # enumerating it walks every used routing node's candidate
            # PIPs — the largest fault-count-independent cost of a warm
            # campaign.
            stats.fault_list_misses += 1
            from ..service.tier import active_tier

            tier = active_tier()
            fault_list = tier.load_fault_list(self.fingerprint, mode) \
                if tier is not None else None
            if fault_list is None:
                fault_list = FaultListManager(implementation).build(mode)
                if tier is not None:
                    tier.store_fault_list(self.fingerprint, mode,
                                          fault_list)
            self._fault_lists[mode] = fault_list
        else:
            stats.fault_list_hits += 1
        return self._fault_lists[mode]

    def golden(self, compiled: CompiledDesign,
               stimulus: Sequence[Dict[str, int]], stats: CacheStats
               ) -> Tuple[SimulationTrace, object]:
        key = stimulus_key(stimulus)
        with self._lock:
            cached = self._golden.get(key)
            if cached is not None:
                stats.golden_hits += 1
                self._golden.move_to_end(key)
                return cached
        # An in-memory miss (counted as such either way) may still be
        # served by the persistent tier, when one is active: traces
        # and gate programs are pure data keyed by the implementation
        # fingerprint, so an entry written by any earlier process is
        # exactly what this simulation would produce.  The compute runs
        # outside the lock — two workers racing the same stimulus
        # duplicate work, never corrupt the LRU.
        stats.golden_misses += 1
        from ..service.tier import active_tier

        tier = active_tier()
        pair = tier.load_golden(self.fingerprint, key) \
            if tier is not None else None
        if pair is None:
            simulator = Simulator(compiled)
            pair = (simulator.run(list(stimulus), record_nets=True),
                    simulator.program)
            if tier is not None:
                tier.store_golden(self.fingerprint, key, *pair)
        with self._lock:
            self._golden[key] = pair
            self._golden.move_to_end(key)
            while len(self._golden) > MAX_GOLDEN_PER_ENTRY:
                self._golden.popitem(last=False)
        return pair

    def defeat_map(self, mode: str, build, stats: CacheStats):
        """The memoized static defeat map (see :mod:`repro.analysis.layout`).

        *build* is a zero-argument factory, called once per fault-list
        mode; like the modeler that fills :attr:`effects` it comes from
        the caller so this entry never holds the implementation strongly.
        """
        defeat_map = self._defeat_maps.get(mode)
        if defeat_map is None:
            stats.defeat_map_misses += 1
            defeat_map = build()
            self._defeat_maps[mode] = defeat_map
        else:
            stats.defeat_map_hits += 1
        return defeat_map

    def cone(self, seed_nets: Sequence[int], compiled: CompiledDesign,
             stats: CacheStats) -> FaultCone:
        key = tuple(seed_nets)
        cone = self._cones.get(key)
        if cone is None:
            stats.cone_misses += 1
            cone = compiled.fault_cone(seed_nets)
            self._cones[key] = cone
        else:
            stats.cone_hits += 1
        return cone


class CampaignCache:
    """LRU cache of :class:`CampaignCacheEntry` keyed by fingerprint."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CampaignCacheEntry]" = OrderedDict()
        #: the process-wide instance is shared between the service's
        #: worker threads; every structural _entries mutation holds this
        self._lock = threading.Lock()

    @staticmethod
    def fingerprint_of(implementation: Implementation) -> str:
        # Recomputed on every lookup (hashing the bitstream is a few
        # hundred microseconds, campaigns are hundreds of milliseconds):
        # a caller that mutates the bitstream between campaigns must get a
        # fresh cache entry, never stale memoized effects.
        return implementation_fingerprint(implementation)

    def entry_for(self, implementation: Implementation) -> CampaignCacheEntry:
        fingerprint = self.fingerprint_of(implementation)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = CampaignCacheEntry(fingerprint, implementation)
                self._entries[fingerprint] = entry
            elif entry._implementation() is None:
                # Entries are keyed by content: a bit-identical
                # implementation takes over the entry of a collected one.
                entry._implementation = weakref.ref(implementation)
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > MAX_ENTRIES:
                self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide cache shared by every campaign context.
_GLOBAL_CACHE = CampaignCache()


def get_cache() -> CampaignCache:
    """The process-wide campaign cache."""
    return _GLOBAL_CACHE


def clear_cache() -> None:
    """Drop every cached artefact and reset the hit/miss statistics."""
    _GLOBAL_CACHE.clear()


def cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the process-wide cache."""
    return _GLOBAL_CACHE.stats.as_dict()
