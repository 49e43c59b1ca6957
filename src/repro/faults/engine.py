"""Campaign execution engine: pluggable backends over columnar records.

A fault-injection campaign is a batch workload: an immutable golden
reference (the fault-free device), a list of independent upsets, and one
verdict per upset.  This module keeps both sides of that workload as
columns, never as one object per upset:

* :class:`Injections` — the campaign's injections: per injection its slot
  in the modelled-effect memo (:class:`~repro.faults.models.EffectColumns`),
  its primary bit and, under a multi-bit upset model, its bit cluster;
* :class:`VerdictColumns` — the outcome per injection: its effect row
  (:data:`~repro.faults.models.EFFECT_ROWS`), a wrong-answer byte and the
  first mismatching cycle (``-1`` for none);
* :class:`CampaignContext` — the shared immutable context (implementation,
  compiled design, stimulus, golden trace) plus memoized derived artefacts,
  read through the process-wide :mod:`repro.faults.cache`;
* :class:`ExecutionBackend` — the strategy interface, with four
  implementations:

  - :class:`SerialBackend` — one injection at a time, the seed semantics
    and the oracle every other backend is checked against;
  - :class:`VectorBackend` and :class:`NumpyBackend` — one lane driver
    (:class:`LaneBackend`) that gives each distinct effect slot one lane,
    packs the lanes *across* fan-out cones into ``lane_width`` shards
    under a union cone, and demuxes each lane's outcome to every
    injection of its slot.  They differ only in the PPSFP-style sweep
    that simulates a shard: Python big-int lanes
    (:mod:`repro.sim.bitparallel`) or the lane program compiled into
    vectorized numpy sweeps (:mod:`repro.sim.npkernel`);
  - :class:`ShardedBackend` — the campaign service's executor: splits the
    injections into the deterministic :func:`~repro.faults.seeds.split_shards`
    schedule and runs each shard through a *vectorized* backend inside a
    forked ``concurrent.futures`` worker process, so process-level
    sharding and the numpy kernel stack multiplicatively.  A shard travels
    to its worker as its bit slice and comes back as verdict columns.

Every backend must produce bit-identical verdict columns for the same
sampled fault list — the equivalence is enforced by the test suite.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import logging
import os
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..pnr.flow import Implementation
from ..sim import npkernel
from ..sim.bitparallel import (VectorProgram, VectorResult,
                               broadcast_inputs, broadcast_trace,
                               simulate_lanes)
from ..sim.compile import CompiledDesign, FaultCone
from ..sim.golden import compare_traces
from ..sim.overlay import FaultOverlay
from ..sim.simulator import SimulationTrace, Simulator
from .cache import CacheStats, CampaignCacheEntry, get_cache
from .injector import FaultResult
from .models import EFFECT_ROWS, EffectColumns, FaultEffect, FaultModeler
from .seeds import split_shards
from .upsets import SingleBitInjections, merged_effect

#: ``progress(done, total)`` callback signature shared by the engine API.
ProgressCallback = Callable[[int, int], None]

#: How often (in completed faults) the progress callback fires.
PROGRESS_INTERVAL = 250

#: ``EFFECTFUL[row]`` is 1 for the :data:`EFFECT_ROWS` that change the
#: design (the injections a backend has to simulate).
EFFECTFUL = bytes(row.has_effect for row in EFFECT_ROWS)

LOGGER = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class Injections:
    """A campaign's injections as columns: what every backend evaluates.

    ``slots[i]`` is injection *i*'s slot in ``effects`` (the modelled
    effect of its bit, or the merged effect of its cluster) and
    ``bits[i]`` its primary bit.  Under a multi-bit upset model
    ``clusters[i]`` is the whole bit tuple the injection flips; it is
    ``None`` when every injection flips one bit.
    """

    effects: EffectColumns
    slots: array
    bits: array
    clusters: Optional[List[Tuple[int, ...]]] = None

    def __len__(self) -> int:
        return len(self.slots)

    def slice(self, start: int, stop: int) -> "Injections":
        return Injections(
            self.effects, self.slots[start:stop], self.bits[start:stop],
            self.clusters[start:stop] if self.clusters is not None
            else None)


@dataclasses.dataclass(frozen=True, slots=True)
class VerdictColumns:
    """Verdicts of a run of injections, one column entry per injection.

    ``rows`` holds :data:`~repro.faults.models.EFFECT_ROWS` indices,
    ``wrong`` one byte per injection (1: a wrong answer) and
    ``first_mismatch`` the first cycle an output differed (``-1``:
    none).  This is what a sharded worker sends back and what a shard
    checkpoint stores.
    """

    rows: array
    wrong: bytearray
    first_mismatch: array

    @classmethod
    def for_injections(cls, injections: Injections) -> "VerdictColumns":
        """Blank verdicts (no wrong answer yet) for *injections*."""
        effect_rows = injections.effects.rows
        count = len(injections.slots)
        return cls(array("B", [effect_rows[slot]
                               for slot in injections.slots]),
                   bytearray(count), array("i", [-1]) * count)

    def __len__(self) -> int:
        return len(self.rows)

    def is_consistent(self) -> bool:
        return len(self.wrong) == len(self.first_mismatch) == len(self.rows)

    def record(self, index: int, first_mismatch: Optional[int]) -> None:
        """Set injection *index*'s outcome from its first mismatch."""
        if first_mismatch is not None:
            self.wrong[index] = 1
            self.first_mismatch[index] = first_mismatch

    def paste(self, start: int, other: "VerdictColumns") -> None:
        """Copy *other* into positions ``start .. start + len(other)``."""
        stop = start + len(other)
        self.rows[start:stop] = other.rows
        self.wrong[start:stop] = other.wrong
        self.first_mismatch[start:stop] = other.first_mismatch


class CampaignContext:
    """Shared, read-only context of one campaign plus memoized artefacts.

    Golden traces, fault effects, fault cones and lane programs are read
    through (and stored into) the implementation's entry in the
    process-wide campaign cache (:mod:`repro.faults.cache`).
    """

    def __init__(self, implementation: Implementation,
                 stimulus: Optional[Sequence[Dict[str, int]]] = None,
                 skip_cycles: int = 0,
                 output_ports: Optional[Sequence[str]] = None) -> None:
        cache = get_cache()
        self.implementation = implementation
        self.cache_entry: CampaignCacheEntry = cache.entry_for(implementation)
        self.stats: CacheStats = cache.stats
        #: content digest of the exact injections this campaign hands to
        #: its backend (set by ``run_campaign``); checkpoint-capable
        #: backends persist completed shards under it so an interrupted
        #: campaign resumes instead of recomputing.  ``None`` disables
        #: checkpointing.
        self.checkpoint_key: Optional[str] = None
        self.compiled: CompiledDesign = \
            self.cache_entry.compiled_design(self.stats)
        #: the modelled-effect memo the injections index
        self.effects: EffectColumns = self.cache_entry.effects
        self.stimulus = list(stimulus) if stimulus is not None else []
        self.skip_cycles = skip_cycles
        self.output_ports = list(output_ports) if output_ports else None
        self._modeler: Optional[FaultModeler] = None
        self._golden: Optional[SimulationTrace] = None
        self._base_program: object = None
        self._vector_program: Optional[VectorProgram] = None
        self._numpy_program: Optional["npkernel.NumpyProgram"] = None

    # ------------------------------------------------------------------
    @property
    def modeler(self) -> FaultModeler:
        if self._modeler is None:
            self._modeler = FaultModeler(self.implementation, self.compiled)
        return self._modeler

    def prepare(self) -> None:
        """Force the golden trace and base program into existence."""
        if self._golden is None:
            self._golden, self._base_program = self.cache_entry.golden(
                self.compiled, self.stimulus, self.stats)

    @property
    def golden(self) -> SimulationTrace:
        self.prepare()
        return self._golden

    @property
    def base_program(self) -> object:
        """The overlay-free gate program shared by every faulty run."""
        self.prepare()
        return self._base_program

    @property
    def vector_program(self) -> VectorProgram:
        """The compiled bit-parallel lane program of this design."""
        if self._vector_program is None:
            self._vector_program = self.cache_entry.vector_program(
                self.compiled, self.stats)
        return self._vector_program

    @property
    def numpy_program(self) -> "npkernel.NumpyProgram":
        """The numpy-compiled lane program, with its accumulated plans."""
        if self._numpy_program is None:
            self._numpy_program = self.cache_entry.numpy_program(
                self.compiled, self.stats)
        return self._numpy_program

    # ------------------------------------------------------------------
    def effect_slot(self, bit: int) -> int:
        """The :attr:`effects` slot of *bit*, modelling it on a miss."""
        effects = self.effects
        slot = effects.slot_of(bit)
        if slot is None:
            self.stats.effect_misses += 1
            slot = effects.add(bit, self.modeler.effect_of_bit(bit))
        else:
            self.stats.effect_hits += 1
        return slot

    def effect_of_bit(self, bit: int) -> FaultEffect:
        """A :class:`FaultEffect` view of *bit*'s memoized effect."""
        return self.effects.effect(self.effect_slot(bit))

    def tasks_for_groups(self, groups: Sequence[Sequence[int]]
                         ) -> Injections:
        """Model a list of injections (one bit tuple each) into columns.

        Single-bit groups index the per-bit effects, so the ``single``
        upset model stays bit-identical to the seed campaign; multi-bit
        groups carry their cluster and index the merged effect of its
        bits (:func:`repro.faults.upsets.merged_effect`).  A
        :class:`~repro.faults.upsets.SingleBitInjections` view hands over
        its bit column as it is.
        """
        if isinstance(groups, SingleBitInjections):
            return self.injections_for(groups.bits)
        bits = array("q", [group[0] for group in groups])
        clusters: Optional[List[Tuple[int, ...]]] = None
        if any(len(group) != 1 for group in groups):
            clusters = [tuple(group) for group in groups]
        return self.injections_for(bits, clusters)

    def injections_for(self, bits: Sequence[int],
                       clusters: Optional[Sequence[Tuple[int, ...]]] = None
                       ) -> Injections:
        """Model injections given as columns (see :class:`Injections`)."""
        effects = self.effects
        # Samples beyond the population size repeat bits; resolving each
        # distinct bit once keeps huge-scale modelling linear in the
        # number of *distinct* bits.
        seen: Dict[int, int] = {}

        def slot_of(bit: int) -> int:
            slot = seen.get(bit)
            if slot is None:
                slot = seen[bit] = self.effect_slot(bit)
            return slot

        cluster_list = list(clusters) if clusters is not None else None
        if cluster_list is None:
            slots = array("i", [slot_of(bit) for bit in bits])
        else:
            slots = array("i")
            for cluster in cluster_list:
                constituents = [slot_of(bit) for bit in cluster]
                if len(cluster) == 1:
                    slots.append(constituents[0])
                    continue
                slot = effects.slot_of(cluster)
                if slot is None:
                    slot = effects.add(cluster, merged_effect(
                        cluster, [effects.effect(constituent)
                                  for constituent in constituents],
                        self.compiled))
                slots.append(slot)
        return Injections(effects, slots, array("q", bits), cluster_list)

    def cone_for_nets(self,
                      seed_nets: Sequence[int]) -> Optional[FaultCone]:
        """Memoized fan-out cone of a seed-net set.

        Serves both per-fault cones and the per-shard union cones of the
        lane driver: repeated campaigns produce the same shards, so
        union cones hit the cache like any other cone.
        """
        if not seed_nets:
            return None
        return self.cache_entry.cone(seed_nets, self.compiled, self.stats)

    # ------------------------------------------------------------------
    def first_mismatch(self, overlay: FaultOverlay) -> Optional[int]:
        """Simulate one overlay; the first cycle an output differs."""
        cone = self.cone_for_nets(overlay.seed_nets)
        simulator = Simulator(self.compiled, overlay,
                              base_program=self.base_program)
        if cone is not None:
            trace = simulator.run(self.stimulus, golden=self.golden,
                                  cone=cone)
        else:
            trace = simulator.run(self.stimulus)
        return compare_traces(trace, self.golden, ports=self.output_ports,
                              skip_cycles=self.skip_cycles
                              ).first_mismatch_cycle

    def evaluate(self, effect: FaultEffect) -> FaultResult:
        """Evaluate one modelled effect against the golden reference."""
        has_effect = effect.has_effect
        first = self.first_mismatch(effect.overlay) if has_effect else None
        return FaultResult(
            bit=effect.bit,
            resource_kind=effect.resource[0],
            category=effect.category,
            has_effect=has_effect,
            wrong_answer=first is not None,
            first_mismatch_cycle=first,
            detail=effect.detail,
        )


class ExecutionBackend(abc.ABC):
    """Strategy interface: evaluate injections within a campaign context."""

    #: registry name, also used in reports
    name: str = "abstract"

    @abc.abstractmethod
    def run(self, context: CampaignContext, injections: Injections,
            progress: Optional[ProgressCallback] = None
            ) -> VerdictColumns:
        """Evaluate *injections*, returning verdicts in injection order."""

    @staticmethod
    def _advance(progress: Optional[ProgressCallback], done: int,
                 count: int, total: int) -> int:
        """Account *count* more settled injections; the new done count.

        Fires the callback at every multiple of ``PROGRESS_INTERVAL``
        passed, exactly as a per-injection tick would.
        """
        settled = done + count
        if progress is not None:
            for tick in range(done // PROGRESS_INTERVAL + 1,
                              settled // PROGRESS_INTERVAL + 1):
                progress(tick * PROGRESS_INTERVAL, total)
        return settled


class SerialBackend(ExecutionBackend):
    """One fault at a time — the seed campaign loop, factored out."""

    name = "serial"

    def run(self, context: CampaignContext, injections: Injections,
            progress: Optional[ProgressCallback] = None
            ) -> VerdictColumns:
        context.prepare()
        verdicts = VerdictColumns.for_injections(injections)
        overlays = injections.effects.overlays
        total = len(injections)
        for index, slot in enumerate(injections.slots):
            if EFFECTFUL[verdicts.rows[index]]:
                verdicts.record(index,
                                context.first_mismatch(overlays[slot]))
            self._advance(progress, index, 1, total)
        return verdicts


#: ``sweep(overlays, passes, cone, plan_key)``: one lane executor's
#: simulation of one packed shard (see :meth:`LaneBackend._sweeper`).
ShardSweep = Callable[[List[FaultOverlay], int, Optional[FaultCone],
                       Tuple[object, ...]], VectorResult]

#: A packed lane: ``(passes, seed nets, cluster, effect slot)``.
_Lane = Tuple[int, Tuple[int, ...], Tuple[int, ...], int]


class LaneBackend(ExecutionBackend):
    """The lane driver: dedup, cross-cone packing and demux of a campaign.

    Both lane executors compile the same
    :class:`~repro.sim.bitparallel.VectorProgram`; this driver decides
    what each sweep simulates, and a subclass only supplies the sweep:

    * identical injections are evaluated **once**: injections sharing an
      effect slot flip the same bit cluster, one representative lane
      simulates, and every duplicate receives its outcome (a
      10^6-injection campaign over a ~10^4-bit fault list collapses to
      the unique-bit population);
    * lanes pack **across** cones: effectful slots are only split by
      whether they have a cone at all, sorted by pass count, then seed
      nets (so neighbouring lanes share fan-out), then cluster, and cut
      into ``lane_width`` chunks; each shard simulates the union cone of
      its members at their highest pass count.  Simulating a lane under
      a superset cone (or extra settle passes) cannot change its outcome
      (nets outside a lane's own cone carry golden values), so packing
      trades no accuracy for near-full lanes.

    Verdicts are bit-identical to :class:`SerialBackend` (enforced by
    the test suite).  ``last_run_stats`` reports the shard schedule and
    lane utilization (lanes over each shard's :meth:`_capacity`) of the
    most recent :meth:`run` for the benchmark harness.
    """

    #: lanes per shard when the constructor is given none
    default_lane_width: int

    def __init__(self, lane_width: Optional[int] = None) -> None:
        if lane_width is None:
            lane_width = self.default_lane_width
        if lane_width < 1:
            raise ValueError("lane_width must be at least 1")
        self.lane_width = lane_width
        self.last_run_stats: Dict[str, object] = {}

    @abc.abstractmethod
    def _sweeper(self, context: CampaignContext) -> ShardSweep:
        """This executor's shard sweep over *context*, for one run."""

    @abc.abstractmethod
    def _capacity(self, lanes: int) -> int:
        """Lanes a sweep of a *lanes*-lane shard actually simulates."""

    def run(self, context: CampaignContext, injections: Injections,
            progress: Optional[ProgressCallback] = None
            ) -> VerdictColumns:
        context.prepare()
        sweep = self._sweeper(context)
        effects = injections.effects
        verdicts = VerdictColumns.for_injections(injections)
        total = len(injections)

        # Injections sharing a slot are the same physical fault; simulate
        # one lane per slot and count how many injections it settles.
        multiplicity = collections.Counter(injections.slots)
        # Lanes are decorated (passes, seeds, cluster, slot) so the sort
        # and the per-shard pass maximum reuse one required_passes() call
        # per overlay; the cluster is unique, so `slot` never decides.
        groups: Dict[bool, List[_Lane]] = {}
        silent = 0
        for slot, count in multiplicity.items():
            if not EFFECTFUL[effects.rows[slot]]:
                silent += count
                continue
            overlay = effects.overlays[slot]
            key = effects.keys[slot]
            groups.setdefault(bool(overlay.seed_nets), []).append(
                (overlay.required_passes(), tuple(sorted(overlay.seed_nets)),
                 key if isinstance(key, tuple) else (key,), slot))
        done = self._advance(progress, 0, silent, total)

        outcome: Dict[int, int] = {}
        shard_stats: List[Dict[str, object]] = []
        packed = 0
        capacity_total = 0
        peak = 0.0
        width = self.lane_width
        for coned in sorted(groups):
            members = groups[coned]
            # A shard settles every lane with the worst member's pass
            # count, so lanes pack in pass-count order first: chunks
            # stay (mostly) pass-homogeneous without fragmenting shards.
            # The seed-net sort below it keeps neighbouring lanes in
            # overlapping fan-out, which keeps union cones tight.
            members.sort()
            for start in range(0, len(members), width):
                shard = members[start:start + width]
                overlays = [effects.overlays[lane[3]] for lane in shard]
                passes = shard[-1][0]
                cone = None
                if coned:
                    cone = context.cone_for_nets(sorted(
                        {net for overlay in overlays
                         for net in overlay.seed_nets}))
                plan_key = ((id(cone) if cone is not None else None,)
                            + tuple(lane[2] for lane in shard))
                result = sweep(overlays, passes, cone, plan_key)
                settled = 0
                for lane, first in zip(shard, result.first_mismatch):
                    if first is not None:
                        outcome[lane[3]] = first
                    settled += multiplicity[lane[3]]
                done = self._advance(progress, done, settled, total)
                lanes = len(shard)
                capacity = self._capacity(lanes)
                packed += lanes
                capacity_total += capacity
                peak = max(peak, lanes / capacity)
                shard_stats.append({
                    "lanes": lanes,
                    "capacity": capacity,
                    "passes": passes,
                    "coned": coned,
                    "cone_gates": len(cone.gate_indices)
                    if cone is not None else len(context.compiled.gates),
                    "cycles_simulated": result.cycles_simulated,
                })
        if outcome:
            get = outcome.get
            for index, slot in enumerate(injections.slots):
                verdicts.record(index, get(slot))
        self.last_run_stats = {
            "lane_width": width,
            "shards": shard_stats,
            "packed_faults": packed,
            "unique_faults": len(multiplicity),
            "demuxed_faults": total,
            "peak_lane_utilization": peak,
            "mean_lane_utilization": (packed / capacity_total)
            if capacity_total else 0.0,
        }
        return verdicts


class VectorBackend(LaneBackend):
    """Lane driver over the big-int :mod:`repro.sim.bitparallel` kernel.

    Each net and mask plane is one Python integer ``lane_width`` bits
    wide, so every sweep simulates ``lane_width`` lanes (ghost lanes
    replay the golden circuit); the sweep interprets the lane program
    one entry per gate and retires early once every lane is wrong.
    """

    name = "vector"
    default_lane_width = 256

    def _capacity(self, lanes: int) -> int:
        return self.lane_width

    def _sweeper(self, context: CampaignContext) -> ShardSweep:
        program = context.vector_program
        width = self.lane_width
        all_mask = (1 << width) - 1
        # Built once per run: every shard shares the stimulus broadcast
        # and, for coned shards, the golden broadcast.
        inputs = broadcast_inputs(context.compiled, context.stimulus,
                                  all_mask)
        reseed: Optional[List[Tuple[List[int], List[int]]]] = None

        def sweep(overlays: List[FaultOverlay], passes: int,
                  cone: Optional[FaultCone],
                  plan_key: Tuple[object, ...]) -> VectorResult:
            nonlocal reseed
            if cone is not None and reseed is None:
                reseed = broadcast_trace(context.golden, all_mask)
            return simulate_lanes(
                program, overlays, context.stimulus, context.golden,
                passes=passes, skip_cycles=context.skip_cycles,
                ports=context.output_ports, cone=cone, width=width,
                reseed=reseed if cone is not None else None, inputs=inputs)

        return sweep


class NumpyBackend(LaneBackend):
    """Lane driver over the numpy-compiled :mod:`repro.sim.npkernel`.

    The lane program compiles into fused array operations over
    ``uint64`` lane words, with shard plans memoized per program, so a
    sweep simulates its lanes rounded up to whole 64-lane words.  The
    4096-lane default keeps the sweep count low; wider shards stop
    paying off because their union cones grow.
    """

    name = "numpy"
    default_lane_width = 4096

    def _capacity(self, lanes: int) -> int:
        return ((lanes + 63) // 64) * 64

    def _sweeper(self, context: CampaignContext) -> ShardSweep:
        program = context.numpy_program

        def sweep(overlays: List[FaultOverlay], passes: int,
                  cone: Optional[FaultCone],
                  plan_key: Tuple[object, ...]) -> VectorResult:
            return program.simulate_shard(
                overlays, context.stimulus, context.golden, passes=passes,
                skip_cycles=context.skip_cycles,
                ports=context.output_ports, cone=cone, plan_key=plan_key)

        return sweep


# ----------------------------------------------------------------------
# Sharded backend: the campaign service's executor.  Workers are forked
# and inherit the parent's campaign context; each runs a *vectorized*
# inner backend over its slice of the injections, so process parallelism
# and lane packing stack.
class CampaignWorkerError(RuntimeError):
    """A sharded campaign worker process died mid-campaign.

    Raised instead of the raw ``BrokenProcessPool`` so the service can
    fail the owning job with an actionable message (which backend, how
    many tasks in flight) rather than hanging or surfacing a bare pool
    error.
    """


_WORKER_CONTEXT: Optional[CampaignContext] = None
_SHARD_INNER: Optional[ExecutionBackend] = None


def _init_shard_worker(context: CampaignContext, inner_spec: str) -> None:
    global _WORKER_CONTEXT, _SHARD_INNER
    _WORKER_CONTEXT = context
    _SHARD_INNER = resolve_backend(inner_spec)
    context.prepare()


def _run_task_shard(shard_index: int,
                    shard: Tuple[array, Optional[List[Tuple[int, ...]]]]
                    ) -> VerdictColumns:
    """Evaluate one shard, given as its ``(bits, clusters)`` slice.

    The worker models the bits itself: it inherited the parent's effect
    memo through the fork, so every lookup hits.
    """
    context = _WORKER_CONTEXT
    assert context is not None and _SHARD_INNER is not None, \
        "sharded worker used before initialization"
    from ..service import chaos

    chaos.on_shard_start(shard_index)
    return _evaluate_shard_locally(_SHARD_INNER, context,
                                   context.injections_for(*shard))


def _evaluate_shard_locally(inner: ExecutionBackend,
                            context: CampaignContext,
                            shard: Injections) -> VerdictColumns:
    return inner.run(context, shard)


class _ShardCheckpoints:
    """Parent-side shard-checkpoint view of one campaign's injections.

    Checkpoint identity chains three things: the campaign's content
    digest (``CampaignContext.checkpoint_key``, covering implementation,
    sampling and workload), the shard *schedule* (injection count and
    shard count — a rerun with a different worker count simply misses),
    and the shard's position.  Payloads additionally carry their own
    ``[start, stop)`` range and are validated against the expected slice
    before reuse, so a checkpoint can never resume foreign work.

    Keys end in ``KEY_SUFFIX``, which names the payload layout: a
    checkpoint written in an earlier layout sits under another key and
    is a plain miss.
    """

    #: verdict columns (:class:`VerdictColumns`) per shard
    KEY_SUFFIX = "columns"

    def __init__(self, tier: object, campaign_key: str, num_tasks: int,
                 num_shards: int) -> None:
        self.tier = tier
        self.prefix = f"{campaign_key}-{num_tasks}-{num_shards}"
        self.hits = 0
        self.stores = 0

    def _key(self, shard_index: int) -> str:
        return f"{self.prefix}-{shard_index}-{self.KEY_SUFFIX}"

    def load(self, shard_index: int, start: int,
             stop: int) -> Optional[VerdictColumns]:
        payload = self.tier.load_shard_verdicts(self._key(shard_index))
        if not isinstance(payload, dict) \
                or payload.get("start") != start \
                or payload.get("stop") != stop:
            return None
        verdicts = payload.get("verdicts")
        if not isinstance(verdicts, VerdictColumns) \
                or len(verdicts) != stop - start \
                or not verdicts.is_consistent():
            return None
        self.hits += 1
        return verdicts

    def store(self, shard_index: int, start: int, stop: int,
              verdicts: VerdictColumns) -> None:
        ok = self.tier.store_shard_verdicts(
            self._key(shard_index),
            {"start": start, "stop": stop, "verdicts": verdicts})
        if ok:
            self.stores += 1
            from ..service import chaos

            chaos.on_shard_checkpointed(self.stores)


class ShardedBackend(ExecutionBackend):
    """Shard the injections across worker processes running a vector kernel.

    The shard schedule is :func:`~repro.faults.seeds.split_shards` —
    contiguous, non-overlapping, covering — so any worker can re-derive
    its slice from ``(len(injections), shards, index)`` and the sharding
    is reproducible independent of pool scheduling.  A shard travels as
    its bit slice and returns :class:`VerdictColumns`, pasted at the
    shard's offset, making the result order (and every campaign
    aggregate) bit-identical to the serial backend regardless of which
    worker finishes first.

    ``inner`` names the per-worker backend (default: ``numpy``) — each
    worker holds the compiled design once and sweeps its whole shard
    through the vectorized kernel, so saturated lane sweeps stack with
    process parallelism instead of replacing it.

    Workers are forked, so they inherit the campaign context (cache
    entry, golden trace, effect memo) instead of receiving it pickled.
    Small campaigns (below ``min_tasks``, default 1000) skip the pool
    entirely and run the inner backend inline, because pool spin-up
    dominates them; so do campaigns on a platform without the ``fork``
    start method.  This is visible in reports as
    ``sharded:inline-fallback``.

    **Supervision and crash-safety.**  Shards are submitted as individual
    futures and supervised: a shard whose worker dies (the pool breaks)
    is retried up to ``max_shard_retries`` times with exponential backoff
    plus deterministic jitter, respawning the executor each round.  A
    shard that keeps failing degrades *inline* through the backend chain
    ``inner → numpy → vector → serial`` (every step is bit-identical, so
    degradation changes provenance, never results); only when even the
    serial path fails does the campaign abort with
    :class:`CampaignWorkerError`.  When the campaign context carries a
    ``checkpoint_key`` and a shared cache tier is active, every completed
    shard's verdicts are persisted as a checkpoint and an interrupted
    campaign's rerun reloads them instead of recomputing — the resume
    path of the campaign service.  All of it is recorded in
    ``last_run_stats`` (``retries``, ``degradations``,
    ``checkpoint_hits``/``checkpoint_stores``), which the pipeline
    surfaces as volatile report provenance.

    ``REPRO_SHARD_WORKERS`` / ``REPRO_SHARD_MIN_TASKS`` /
    ``REPRO_SHARD_RETRIES`` override the construction defaults from the
    environment — chiefly so chaos tests and the service can pin a
    deterministic shard schedule without threading knobs through every
    layer.
    """

    name = "sharded"

    #: degradation order after the configured inner backend fails
    DEGRADATION_CHAIN = ("numpy", "vector", "serial")

    def __init__(self, workers: Optional[int] = None,
                 inner: Optional[str] = None,
                 shards_per_worker: int = 2,
                 min_tasks: Optional[int] = None,
                 max_shard_retries: Optional[int] = None,
                 retry_backoff_s: float = 0.25) -> None:
        if workers is None and os.environ.get("REPRO_SHARD_WORKERS"):
            workers = int(os.environ["REPRO_SHARD_WORKERS"])
        if min_tasks is None:
            min_tasks = int(os.environ.get("REPRO_SHARD_MIN_TASKS", "1000"))
        if max_shard_retries is None:
            max_shard_retries = int(os.environ.get("REPRO_SHARD_RETRIES",
                                                   "2"))
        self.workers = workers
        self.inner = inner
        self.shards_per_worker = max(1, shards_per_worker)
        self.min_tasks = min_tasks
        self.max_shard_retries = max(0, max_shard_retries)
        self.retry_backoff_s = max(0.0, retry_backoff_s)
        self.last_run_stats: Dict[str, object] = {}

    def inner_spec(self) -> str:
        return self.inner if self.inner is not None else "numpy"

    def _worker_count(self, num_tasks: int) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        return max(1, min(os.cpu_count() or 1, num_tasks))

    # ------------------------------------------------------------------
    def _degradation_chain(self, inner_spec: str) -> List[str]:
        chain = [inner_spec]
        for fallback in self.DEGRADATION_CHAIN:
            if fallback not in chain:
                chain.append(fallback)
        return chain

    def _checkpoints_for(self, context: CampaignContext, num_tasks: int,
                         num_shards: int) -> Optional[_ShardCheckpoints]:
        key = getattr(context, "checkpoint_key", None)
        if key is None or not num_tasks:
            return None
        from ..service.tier import active_tier

        tier = active_tier()
        if tier is None:
            return None
        return _ShardCheckpoints(tier, key, num_tasks, num_shards)

    def _degrade_shard(self, context: CampaignContext,
                       shard: Injections, shard_index: int,
                       inner_spec: str,
                       degradations: List[Dict[str, object]],
                       cause: Exception) -> VerdictColumns:
        """Evaluate a repeatedly-failing shard inline, degrading backends.

        Runs in the parent process — whatever killed the workers (an OOM
        kill, a poisoned kernel, chaos) cannot break the pool again from
        here, and each chain step is bit-identical by the engine's
        equivalence contract.
        """
        reason = f"{type(cause).__name__}: {cause}"
        last: Exception = cause
        for candidate in self._degradation_chain(inner_spec):
            try:
                backend = resolve_backend(candidate)
                verdicts = _evaluate_shard_locally(backend, context, shard)
            except Exception as exc:
                last = exc
                continue
            degradations.append({
                "shard": shard_index, "from": inner_spec,
                "to": f"inline:{backend.name}", "reason": reason})
            LOGGER.warning(
                "sharded backend: shard %d exhausted %d retries (%s); "
                "degraded to inline %s", shard_index,
                self.max_shard_retries, reason, backend.name)
            return verdicts
        raise CampaignWorkerError(
            f"shard {shard_index} failed after {self.max_shard_retries} "
            f"retries and every degradation fallback "
            f"({' -> '.join(self._degradation_chain(inner_spec))}); "
            f"last error: {type(last).__name__}: {last}") from last

    # ------------------------------------------------------------------
    def run(self, context: CampaignContext, injections: Injections,
            progress: Optional[ProgressCallback] = None
            ) -> VerdictColumns:
        import multiprocessing
        import time as _time
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        from .seeds import substream

        total = len(injections)
        workers = self._worker_count(total)
        degradations: List[Dict[str, object]] = []
        inner = resolve_backend(self.inner_spec())
        if not total or workers == 1 or total < self.min_tasks \
                or "fork" not in multiprocessing.get_all_start_methods():
            # Degrading must stay visible in reports (benchmarks attribute
            # faults/sec to the backend name).
            self.name = "sharded:inline-fallback"
            stats: Dict[str, object] = {
                "workers": 1, "shards": 1, "inner": inner.name,
                "inline": True, "retries": 0,
                "checkpoint_hits": 0, "checkpoint_stores": 0,
                "degradations": degradations,
            }
            # The inline path is one shard of the trivial one-shard
            # schedule, checkpointed like any other so even small service
            # campaigns resume instead of recomputing.
            checkpoints = self._checkpoints_for(context, total, 1)
            if checkpoints is not None:
                cached = checkpoints.load(0, 0, total)
                if cached is not None:
                    stats["checkpoint_hits"] = 1
                    self.last_run_stats = stats
                    return cached
            verdicts = inner.run(context, injections, progress)
            if checkpoints is not None and len(verdicts) == total:
                checkpoints.store(0, 0, total, verdicts)
                stats["checkpoint_stores"] = checkpoints.stores
            self.last_run_stats = stats
            return verdicts
        self.name = ShardedBackend.name

        # Compute the golden reference before the pool starts so the
        # forked workers inherit it instead of each re-simulating it.
        context.prepare()

        ranges = split_shards(total, workers * self.shards_per_worker)
        descriptors = [(index, start, stop)
                       for index, (start, stop) in enumerate(ranges)
                       if stop > start]
        checkpoints = self._checkpoints_for(context, total, len(ranges))

        verdicts = VerdictColumns.for_injections(injections)
        bits = injections.bits
        clusters = injections.clusters
        done = 0

        def place(start: int, shard_verdicts: VerdictColumns) -> None:
            nonlocal done
            verdicts.paste(start, shard_verdicts)
            done = self._advance(progress, done, len(shard_verdicts), total)

        pending: List[Tuple[int, int, int]] = []
        for index, start, stop in descriptors:
            cached = checkpoints.load(index, start, stop) \
                if checkpoints is not None else None
            if cached is not None:
                place(start, cached)
            else:
                pending.append((index, start, stop))

        retries = 0
        attempts: Dict[int, int] = {}
        # Jitter decorrelates retry rounds without breaking determinism:
        # the stream is a labeled substream of the task count, so a rerun
        # sleeps the same schedule.
        jitter = substream(total, "shard-retry-jitter")
        executor: Optional[ProcessPoolExecutor] = None
        try:
            while pending:
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_init_shard_worker,
                        initargs=(context, inner.name))
                futures = {
                    executor.submit(_run_task_shard, index, (
                        bits[start:stop], clusters[start:stop]
                        if clusters is not None else None)):
                    (index, start, stop)
                    for index, start, stop in pending}
                pending = []
                failed: List[Tuple[Tuple[int, int, int], Exception]] = []
                broken = False
                for future in as_completed(futures):
                    descriptor = futures[future]
                    try:
                        shard_verdicts = future.result()
                    except Exception as exc:
                        failed.append((descriptor, exc))
                        broken = broken or isinstance(exc,
                                                      BrokenProcessPool)
                        continue
                    index, start, stop = descriptor
                    place(start, shard_verdicts)
                    if checkpoints is not None:
                        checkpoints.store(index, start, stop,
                                          shard_verdicts)
                for (index, start, stop), exc in failed:
                    count = attempts.get(index, 0) + 1
                    attempts[index] = count
                    if count <= self.max_shard_retries:
                        retries += 1
                        pending.append((index, start, stop))
                    else:
                        shard_verdicts = self._degrade_shard(
                            context, injections.slice(start, stop), index,
                            inner.name, degradations, exc)
                        place(start, shard_verdicts)
                        if checkpoints is not None:
                            checkpoints.store(index, start, stop,
                                              shard_verdicts)
                if broken and executor is not None:
                    # A broken pool can run nothing more; dead-worker
                    # respawn is a fresh executor on the next round.
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = None
                if pending and failed:
                    backoff = self.retry_backoff_s * (
                        2 ** (max(attempts.values()) - 1))
                    _time.sleep(min(2.0, backoff) * (0.5 + jitter.random()))
        finally:
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
        self.last_run_stats = {
            "workers": workers,
            "shards": len(descriptors),
            "shard_sizes": [stop - start for start, stop in ranges],
            "inner": inner.name,
            "inline": False,
            "retries": retries,
            "checkpoint_hits": checkpoints.hits
            if checkpoints is not None else 0,
            "checkpoint_stores": checkpoints.stores
            if checkpoints is not None else 0,
            "degradations": degradations,
        }
        return verdicts


#: Registry of backend names accepted by the ``backend=`` knob.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    VectorBackend.name: VectorBackend,
    NumpyBackend.name: NumpyBackend,
    ShardedBackend.name: ShardedBackend,
}

#: The backend names, for CLI ``choices=``.
BACKEND_CHOICES = tuple(BACKENDS)

BackendLike = Union[None, str, ExecutionBackend]


def resolve_backend(backend: BackendLike = None) -> ExecutionBackend:
    """Normalize the ``backend=`` knob into an :class:`ExecutionBackend`.

    Accepts ``None`` (serial, the seed semantics), a registry name, a
    backend class or a ready instance.
    """
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, type) and issubclass(backend, ExecutionBackend):
        return backend()
    if isinstance(backend, str):
        key = backend.strip().lower()
        if key in BACKENDS:
            return BACKENDS[key]()
        raise ValueError(f"unknown campaign backend {backend!r}; choose "
                         f"from {list(BACKEND_CHOICES)}")
    raise TypeError(f"backend must be None, a name or an ExecutionBackend, "
                    f"got {type(backend).__name__}")
