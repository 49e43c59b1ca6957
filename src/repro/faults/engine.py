"""Campaign execution engine: pluggable backends over pure fault units.

A fault-injection campaign is a batch workload: an immutable golden
reference (the fault-free device), a list of independent single-bit upsets,
and one verdict per upset.  This module splits that workload into pure,
picklable units and executes them behind interchangeable backends:

* :class:`FaultTask` — one sampled configuration bit together with its
  modelled :class:`~repro.faults.models.FaultEffect`;
* :class:`FaultVerdict` — the classified outcome of evaluating one task;
* :class:`CampaignContext` — the shared immutable context (implementation,
  compiled design, stimulus, golden trace) plus memoized derived artefacts,
  optionally backed by the process-wide :mod:`repro.faults.cache`;
* :class:`ExecutionBackend` — the strategy interface, with four
  implementations:

  - :class:`SerialBackend` — one task at a time, the seed semantics and
    the oracle every other backend is checked against;
  - :class:`VectorBackend` — packs whole fault shards into the bit lanes of
    Python big integers and simulates them in one PPSFP-style sweep
    through the :mod:`repro.sim.bitparallel` kernel;
  - :class:`NumpyBackend` — compiles the lane program into vectorized
    numpy sweeps (:mod:`repro.sim.npkernel`) and packs lanes *across*
    cones under one union cone, so shards run near-full instead of
    fragmenting per fault group;
  - :class:`ShardedBackend` — the campaign service's executor: splits the
    task list into the deterministic :func:`~repro.faults.seeds.split_shards`
    schedule and runs each shard through a *vectorized* backend inside a
    ``concurrent.futures`` worker process, so process-level sharding and
    the numpy kernel stack multiplicatively.

Every backend must produce bit-identical campaign aggregates for the same
sampled fault list — the equivalence is enforced by the test suite.
"""

from __future__ import annotations

import abc
import dataclasses
import logging
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..pnr.flow import Implementation
from ..sim import npkernel
from ..sim.bitparallel import (VectorProgram, broadcast_inputs,
                               broadcast_trace, compile_vector_program,
                               simulate_lanes)
from ..sim.compile import CompiledDesign, FaultCone
from ..sim.golden import compare_traces
from ..sim.simulator import SimulationTrace, Simulator
from .cache import CacheStats, CampaignCacheEntry
from .injector import FaultResult
from .models import FaultEffect, FaultModeler
from .seeds import split_shards

#: ``progress(done, total)`` callback signature shared by the engine API.
ProgressCallback = Callable[[int, int], None]

#: How often (in completed faults) the progress callback fires.
PROGRESS_INTERVAL = 250

LOGGER = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True, slots=True)
class FaultTask:
    """One unit of campaign work: an injection and its modelled effect.

    ``bit`` is the primary sampled bit (the seed semantics); under a
    multi-bit :mod:`~repro.faults.upsets` model ``bits`` carries the whole
    cluster flipped by this injection and ``effect`` is their merged
    overlay.  An empty ``bits`` means a classic single-bit task.
    """

    index: int
    bit: int
    effect: FaultEffect
    #: full injection cluster (debugging/provenance; empty for single-bit)
    bits: Tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True, slots=True)
class FaultVerdict:
    """The classified outcome of one evaluated fault task."""

    index: int
    bit: int
    resource_kind: str
    category: str
    has_effect: bool
    wrong_answer: bool
    first_mismatch_cycle: Optional[int]
    detail: str = ""

    def to_result(self) -> FaultResult:
        """The campaign-level record (backward-compatible surface)."""
        return FaultResult(
            bit=self.bit,
            resource_kind=self.resource_kind,
            category=self.category,
            has_effect=self.has_effect,
            wrong_answer=self.wrong_answer,
            first_mismatch_cycle=self.first_mismatch_cycle,
            detail=self.detail,
        )


class CampaignContext:
    """Shared, read-only context of one campaign plus memoized artefacts.

    When *cache_entry* is provided, golden traces, fault effects and fault
    cones are read through (and stored into) the process-wide campaign
    cache; otherwise the context keeps private memos for the duration of
    the campaign.
    """

    def __init__(self, implementation: Implementation,
                 compiled: Optional[CompiledDesign] = None,
                 stimulus: Optional[Sequence[Dict[str, int]]] = None,
                 skip_cycles: int = 0,
                 output_ports: Optional[Sequence[str]] = None,
                 cache_entry: Optional[CampaignCacheEntry] = None,
                 stats: Optional[CacheStats] = None) -> None:
        self.implementation = implementation
        self.cache_entry = cache_entry
        self.stats = stats if stats is not None else CacheStats()
        #: content digest of the exact task list this campaign hands to
        #: its backend (set by ``run_campaign``); checkpoint-capable
        #: backends persist completed shards under it so an interrupted
        #: campaign resumes instead of recomputing.  ``None`` disables
        #: checkpointing.
        self.checkpoint_key: Optional[str] = None
        if compiled is None:
            if cache_entry is not None:
                compiled = cache_entry.compiled_design(self.stats)
            else:
                compiled = CompiledDesign(implementation.design)
        elif cache_entry is not None:
            compiled = cache_entry.compiled_design(self.stats, compiled)
        self.compiled = compiled
        self.stimulus = list(stimulus) if stimulus is not None else []
        self.skip_cycles = skip_cycles
        self.output_ports = list(output_ports) if output_ports else None
        self._modeler: Optional[FaultModeler] = None
        self._golden: Optional[SimulationTrace] = None
        self._base_program = None
        self._vector_program: Optional[VectorProgram] = None
        self._numpy_program: Optional["npkernel.NumpyProgram"] = None
        self._local_cones: Dict[Tuple[int, ...], FaultCone] = {}

    # ------------------------------------------------------------------
    @property
    def modeler(self) -> FaultModeler:
        if self._modeler is None:
            self._modeler = FaultModeler(self.implementation, self.compiled)
        return self._modeler

    def detached(self) -> "CampaignContext":
        """A picklable clone without the process-wide cache attached.

        Cache entries hold weak references (unpicklable), so worker
        processes created under the ``spawn`` start method receive this
        detached copy; the golden trace and base program travel with it.
        """
        clone = CampaignContext(
            self.implementation, compiled=self.compiled,
            stimulus=self.stimulus, skip_cycles=self.skip_cycles,
            output_ports=self.output_ports)
        self._ensure_golden()
        clone._golden = self._golden
        clone._base_program = self._base_program
        clone._vector_program = self._vector_program
        return clone

    def prepare(self) -> None:
        """Force the golden trace and base program into existence."""
        self._ensure_golden()

    def _ensure_golden(self) -> None:
        if self._golden is not None:
            return
        if self.cache_entry is not None:
            self._golden, self._base_program = self.cache_entry.golden(
                self.compiled, self.stimulus, self.stats)
        else:
            simulator = Simulator(self.compiled)
            self._golden = simulator.run(self.stimulus, record_nets=True)
            self._base_program = simulator.program

    @property
    def golden(self) -> SimulationTrace:
        self._ensure_golden()
        return self._golden

    @property
    def base_program(self) -> object:
        """The overlay-free gate program shared by every faulty run."""
        self._ensure_golden()
        return self._base_program

    @property
    def vector_program(self) -> VectorProgram:
        """The compiled bit-parallel lane program of this design."""
        if self._vector_program is None:
            if self.cache_entry is not None:
                self._vector_program = self.cache_entry.vector_program(
                    self.compiled, self.stats)
            else:
                self._vector_program = compile_vector_program(self.compiled)
        return self._vector_program

    @property
    def numpy_program(self) -> "npkernel.NumpyProgram":
        """The numpy-compiled lane program (plans memoized per campaign)."""
        if self._numpy_program is None:
            if self.cache_entry is not None:
                self._numpy_program = self.cache_entry.numpy_program(
                    self.compiled, self.stats)
            else:
                self._numpy_program = npkernel.compile_numpy_program(
                    self.vector_program)
        return self._numpy_program

    # ------------------------------------------------------------------
    def effect_of_bit(self, bit: int) -> FaultEffect:
        if self.cache_entry is not None:
            return self.cache_entry.effect_of_bit(bit, self.modeler,
                                                  self.stats)
        return self.modeler.effect_of_bit(bit)

    def tasks_for(self, fault_bits: Sequence[int]) -> List[FaultTask]:
        """Model every sampled bit into an executable task list."""
        return [FaultTask(index, bit, self.effect_of_bit(bit))
                for index, bit in enumerate(fault_bits)]

    def tasks_for_groups(self, groups: Sequence[Sequence[int]]
                         ) -> List[FaultTask]:
        """Model a list of injections (one bit tuple each) into tasks.

        Single-bit groups produce tasks equal to :meth:`tasks_for`'s
        (same cached effects, same contents, empty ``bits``), so the
        ``single`` upset model stays bit-identical to the seed campaign;
        multi-bit groups carry their cluster in ``bits`` and merge the
        per-bit effects through
        :func:`repro.faults.upsets.merged_effect`.
        """
        from .upsets import merged_effect

        # Samples beyond the population size repeat bits; memoizing the
        # effect lookup locally keeps huge-scale task modelling linear in
        # the number of *distinct* bits.
        effects: Dict[int, FaultEffect] = {}

        def effect_of(bit: int) -> FaultEffect:
            effect = effects.get(bit)
            if effect is None:
                effect = effects[bit] = self.effect_of_bit(bit)
            return effect

        tasks: List[FaultTask] = []
        for index, group in enumerate(groups):
            bits = tuple(group)
            if len(bits) == 1:
                tasks.append(FaultTask(index, bits[0], effect_of(bits[0])))
            else:
                effect = merged_effect(
                    bits, [effect_of(bit) for bit in bits],
                    self.compiled)
                tasks.append(FaultTask(index, bits[0], effect, bits=bits))
        return tasks

    def cone_for(self, effect: FaultEffect) -> Optional[FaultCone]:
        return self.cone_for_nets(effect.overlay.seed_nets)

    def cone_for_nets(self,
                      seed_nets: Sequence[int]) -> Optional[FaultCone]:
        """Memoized fan-out cone of a seed-net set.

        Serves both per-fault cones and the per-shard union cones of the
        vector backend: repeated campaigns produce the same shards, so
        union cones hit the cache like any other cone.
        """
        if not seed_nets:
            return None
        if self.cache_entry is not None:
            return self.cache_entry.cone(seed_nets, self.compiled,
                                         self.stats)
        key = tuple(seed_nets)
        cone = self._local_cones.get(key)
        if cone is None:
            self.stats.cone_misses += 1
            cone = self.compiled.fault_cone(seed_nets)
            self._local_cones[key] = cone
        else:
            self.stats.cone_hits += 1
        return cone

    # ------------------------------------------------------------------
    def evaluate(self, task: FaultTask) -> FaultVerdict:
        """Evaluate one task against the golden reference."""
        effect = task.effect
        resource_kind = effect.resource[0]
        if not effect.has_effect:
            return FaultVerdict(
                index=task.index,
                bit=task.bit,
                resource_kind=resource_kind,
                category=effect.category,
                has_effect=False,
                wrong_answer=False,
                first_mismatch_cycle=None,
                detail=effect.detail,
            )
        cone = self.cone_for(effect)
        simulator = Simulator(self.compiled, effect.overlay,
                              base_program=self.base_program)
        if cone is not None:
            trace = simulator.run(self.stimulus, golden=self.golden,
                                  cone=cone)
        else:
            trace = simulator.run(self.stimulus)
        comparison = compare_traces(trace, self.golden,
                                    ports=self.output_ports,
                                    skip_cycles=self.skip_cycles)
        return FaultVerdict(
            index=task.index,
            bit=task.bit,
            resource_kind=resource_kind,
            category=effect.category,
            has_effect=True,
            wrong_answer=comparison.wrong_answer,
            first_mismatch_cycle=comparison.first_mismatch_cycle,
            detail=effect.detail,
        )


class ExecutionBackend(abc.ABC):
    """Strategy interface: evaluate a task list within a campaign context."""

    #: registry name, also used in reports
    name: str = "abstract"

    @abc.abstractmethod
    def run(self, context: CampaignContext, tasks: Sequence[FaultTask],
            progress: Optional[ProgressCallback] = None
            ) -> List[FaultVerdict]:
        """Evaluate *tasks*, returning verdicts in task order."""

    @staticmethod
    def _tick(progress: Optional[ProgressCallback], done: int,
              total: int) -> None:
        if progress is not None and done % PROGRESS_INTERVAL == 0:
            progress(done, total)


class SerialBackend(ExecutionBackend):
    """One fault at a time — the seed campaign loop, factored out."""

    name = "serial"

    def run(self, context: CampaignContext, tasks: Sequence[FaultTask],
            progress: Optional[ProgressCallback] = None
            ) -> List[FaultVerdict]:
        context.prepare()
        verdicts: List[FaultVerdict] = []
        total = len(tasks)
        for done, task in enumerate(tasks, start=1):
            verdicts.append(context.evaluate(task))
            self._tick(progress, done, total)
        return verdicts


class VectorBackend(ExecutionBackend):
    """Bit-parallel (PPSFP-style) shard evaluation over integer lanes.

    Effectful tasks are grouped by the two shard invariants that must be
    homogeneous for bit-identical results — the number of combinational
    settle passes and whether a fault cone exists — then packed
    ``lane_width`` faults at a time into the big-int lanes of the
    :mod:`repro.sim.bitparallel` kernel.  One sweep over the levelized
    lane program simulates the whole shard against the cached golden
    trace; per-lane output divergence masks are demuxed back into
    :class:`FaultVerdict`\\ s, and a lane-retirement mask stops the sweep
    early once every lane of the shard has produced a wrong answer.

    ``last_run_stats`` records shard sizes and lane utilization of the
    most recent :meth:`run`, so benchmarks can report how full the lanes
    actually were.
    """

    name = "vector"

    def __init__(self, lane_width: int = 256) -> None:
        if lane_width < 1:
            raise ValueError("lane_width must be at least 1")
        self.lane_width = lane_width
        self.last_run_stats: Dict[str, object] = {}

    def run(self, context: CampaignContext, tasks: Sequence[FaultTask],
            progress: Optional[ProgressCallback] = None
            ) -> List[FaultVerdict]:
        context.prepare()
        program = context.vector_program
        total = len(tasks)
        done = 0
        verdicts: List[Optional[FaultVerdict]] = [None] * total

        groups: Dict[Tuple[int, bool], List[FaultTask]] = {}
        for task in tasks:
            overlay = task.effect.overlay
            if not task.effect.has_effect:
                verdicts[task.index] = context.evaluate(task)
                done += 1
                self._tick(progress, done, total)
                continue
            key = (overlay.required_passes(), bool(overlay.seed_nets))
            groups.setdefault(key, []).append(task)

        width = self.lane_width
        reseed = None
        inputs = None
        if groups:
            # Built once per campaign: every shard shares the stimulus
            # broadcast (and, for coned shards, the golden broadcast).
            inputs = broadcast_inputs(context.compiled, context.stimulus,
                                      (1 << width) - 1)
        shard_stats: List[Dict[str, object]] = []
        for (passes, coned), group in groups.items():
            for start in range(0, len(group), width):
                shard = group[start:start + width]
                overlays = [task.effect.overlay for task in shard]
                cone = None
                if coned:
                    seeds = sorted({net for overlay in overlays
                                    for net in overlay.seed_nets})
                    cone = context.cone_for_nets(seeds)
                    if reseed is None:
                        reseed = broadcast_trace(context.golden,
                                                 (1 << width) - 1)
                result = simulate_lanes(
                    program, overlays, context.stimulus, context.golden,
                    passes=passes, skip_cycles=context.skip_cycles,
                    ports=context.output_ports, cone=cone, width=width,
                    reseed=reseed if coned else None, inputs=inputs)
                for task, outcome in zip(shard, result.outcomes):
                    effect = task.effect
                    verdicts[task.index] = FaultVerdict(
                        index=task.index,
                        bit=task.bit,
                        resource_kind=effect.resource[0],
                        category=effect.category,
                        has_effect=True,
                        wrong_answer=outcome.wrong_answer,
                        first_mismatch_cycle=outcome.first_mismatch_cycle,
                        detail=effect.detail,
                    )
                    done += 1
                    self._tick(progress, done, total)
                shard_stats.append({
                    "lanes": len(shard),
                    "passes": passes,
                    "coned": coned,
                    "cone_gates": len(cone.gate_indices)
                    if cone is not None else len(program.entries),
                    "cycles_simulated": result.cycles_simulated,
                })
        used = sum(stat["lanes"] for stat in shard_stats)
        self.last_run_stats = {
            "lane_width": width,
            "shards": shard_stats,
            "packed_faults": used,
            "peak_lane_utilization": max(
                (stat["lanes"] / width for stat in shard_stats),
                default=0.0),
            "mean_lane_utilization": (used / (len(shard_stats) * width))
            if shard_stats else 0.0,
        }
        return [verdict for verdict in verdicts if verdict is not None]


class NumpyBackend(ExecutionBackend):
    """Numpy-compiled PPSFP sweeps with cross-cone lane packing.

    Three things distinguish this from :class:`VectorBackend`:

    * shards evaluate through :mod:`repro.sim.npkernel` — the lane
      program compiled into fused array operations instead of a Python
      loop interpreting one entry per gate;
    * identical injections are evaluated **once**: tasks are deduplicated
      by their flipped-bit cluster, one representative lane simulates,
      and every duplicate receives a re-indexed copy of its verdict (a
      10^6-injection campaign over a ~10^4-bit fault list collapses to
      the unique-bit population);
    * lanes pack **across** cones: effectful faults are only split by
      whether they have a cone at all, sorted by seed nets so
      neighbouring lanes share fan-out, and each shard simulates the
      union cone at the maximum pass count of its members.  Simulating a
      lane under a superset cone (or extra settle passes) cannot change
      its outcome — nets outside a lane's own cone carry golden values —
      so packing trades no accuracy for near-full lanes.

    Verdicts are bit-identical to :class:`SerialBackend` (enforced by the
    test suite).

    ``last_run_stats`` reports shard sizes and lane utilization (lanes
    over word-quantized capacity, i.e. ``ceil(lanes/64)*64``) of the most
    recent :meth:`run` for the benchmark harness.
    """

    name = "numpy"

    def __init__(self, lane_width: int = 1024) -> None:
        if lane_width < 1:
            raise ValueError("lane_width must be at least 1")
        self.lane_width = lane_width
        self.last_run_stats: Dict[str, object] = {}

    def run(self, context: CampaignContext, tasks: Sequence[FaultTask],
            progress: Optional[ProgressCallback] = None
            ) -> List[FaultVerdict]:
        context.prepare()
        program = context.numpy_program
        total = len(tasks)
        done = 0
        verdicts: List[Optional[FaultVerdict]] = [None] * total

        # Injections flipping the same bit cluster are the same physical
        # fault; evaluate one representative per cluster.
        unique: Dict[Tuple[int, ...], List[FaultTask]] = {}
        for task in tasks:
            unique.setdefault(task.bits or (task.bit,), []).append(task)

        def settle(rep_verdict: FaultVerdict,
                   bucket: List[FaultTask]) -> None:
            nonlocal done
            r = rep_verdict
            for task in bucket:
                verdicts[task.index] = r if task.index == r.index \
                    else FaultVerdict(
                        index=task.index, bit=r.bit,
                        resource_kind=r.resource_kind, category=r.category,
                        has_effect=r.has_effect, wrong_answer=r.wrong_answer,
                        first_mismatch_cycle=r.first_mismatch_cycle,
                        detail=r.detail)
                done += 1
                self._tick(progress, done, total)

        # Members are decorated (passes, seeds, key, rep) so the sort and
        # the per-shard pass maximum reuse one required_passes() call per
        # overlay; `key` is unique, so `rep` never gets compared.
        groups: Dict[bool, List[Tuple[int, Tuple[int, ...],
                                      Tuple[int, ...], FaultTask]]] = {}
        for key, bucket in unique.items():
            rep = bucket[0]
            if not rep.effect.has_effect:
                settle(context.evaluate(rep), bucket)
                continue
            overlay = rep.effect.overlay
            coned = bool(overlay.seed_nets)
            groups.setdefault(coned, []).append(
                (overlay.required_passes(), tuple(sorted(overlay.seed_nets)),
                 key, rep))

        shard_stats: List[Dict[str, object]] = []
        packed = 0
        capacity_total = 0
        for coned in sorted(groups):
            members = groups[coned]
            # A shard settles every lane with the worst member's pass
            # count, so lanes pack in pass-count order first — chunks
            # stay (mostly) pass-homogeneous without fragmenting shards.
            # The seed-net sort below it keeps neighbouring lanes in
            # overlapping fan-out, which keeps union cones tight.
            members.sort()
            for start in range(0, len(members), self.lane_width):
                shard = members[start:start + self.lane_width]
                overlays = [rep.effect.overlay
                            for _p, _s, _key, rep in shard]
                passes = shard[-1][0]
                cone = None
                if coned:
                    seeds = sorted({net for overlay in overlays
                                    for net in overlay.seed_nets})
                    cone = context.cone_for_nets(seeds)
                plan_key = ((id(cone) if cone is not None else None,)
                            + tuple(key for _p, _s, key, _rep in shard))
                result = program.simulate_shard(
                    overlays, context.stimulus, context.golden,
                    passes=passes, skip_cycles=context.skip_cycles,
                    ports=context.output_ports, cone=cone,
                    plan_key=plan_key)
                for (_p, _s, key, rep), outcome in zip(shard,
                                                       result.outcomes):
                    effect = rep.effect
                    settle(FaultVerdict(
                        index=rep.index,
                        bit=rep.bit,
                        resource_kind=effect.resource[0],
                        category=effect.category,
                        has_effect=True,
                        wrong_answer=outcome.wrong_answer,
                        first_mismatch_cycle=outcome.first_mismatch_cycle,
                        detail=effect.detail,
                    ), unique[key])
                lanes = len(shard)
                capacity = ((lanes + 63) // 64) * 64
                packed += lanes
                capacity_total += capacity
                shard_stats.append({
                    "lanes": lanes,
                    "capacity": capacity,
                    "passes": passes,
                    "coned": coned,
                    "cone_gates": len(cone.gate_indices)
                    if cone is not None
                    else len(program.program.entries),
                    "cycles_simulated": result.cycles_simulated,
                })
        self.last_run_stats = {
            "lane_width": self.lane_width,
            "shards": shard_stats,
            "packed_faults": packed,
            "unique_faults": len(unique),
            "demuxed_faults": total,
            "peak_lane_utilization": max(
                (stat["lanes"] / stat["capacity"]
                 for stat in shard_stats), default=0.0),
            "mean_lane_utilization": (packed / capacity_total)
            if capacity_total else 0.0,
        }
        return [verdict for verdict in verdicts if verdict is not None]


# ----------------------------------------------------------------------
# Sharded backend: the campaign service's executor.  Workers are primed
# through a fork-inherited (or, under spawn, pickled) context; each runs
# a *vectorized* inner backend over its slice of the task list, so
# process parallelism and lane packing stack.
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
                    shard: List[FaultTask]) -> List[FaultVerdict]:
    context = _WORKER_CONTEXT
    assert context is not None and _SHARD_INNER is not None, \
        "sharded worker used before initialization"
    from ..service import chaos

    chaos.on_shard_start(shard_index)
    return _evaluate_shard_locally(_SHARD_INNER, context, shard)


def _evaluate_shard_locally(inner: ExecutionBackend,
                            context: CampaignContext,
                            shard: Sequence[FaultTask]
                            ) -> List[FaultVerdict]:
    # Inner backends place verdicts by task index into a list sized to
    # the tasks they were handed, so a shard must be locally re-indexed
    # before the run and its verdicts restored to global indices after.
    local = [dataclasses.replace(task, index=position)
             for position, task in enumerate(shard)]
    verdicts = inner.run(context, local)
    return [dataclasses.replace(verdict, index=shard[verdict.index].index)
            for verdict in verdicts]


class _ShardCheckpoints:
    """Parent-side shard-checkpoint view of one campaign's task list.

    Checkpoint identity chains three things: the campaign's content
    digest (``CampaignContext.checkpoint_key``, covering implementation,
    sampling and workload), the shard *schedule* (task count and shard
    count — a rerun with a different worker count simply misses), and
    the shard's position.  Payloads additionally carry their own
    ``[start, stop)`` range and are validated against the expected slice
    before reuse, so a checkpoint can never resume foreign work.
    """

    def __init__(self, tier: object, campaign_key: str, num_tasks: int,
                 num_shards: int) -> None:
        self.tier = tier
        self.prefix = f"{campaign_key}-{num_tasks}-{num_shards}"
        self.hits = 0
        self.stores = 0

    def _key(self, shard_index: int) -> str:
        return f"{self.prefix}-{shard_index}"

    def load(self, shard_index: int, start: int,
             stop: int) -> Optional[List[FaultVerdict]]:
        payload = self.tier.load_shard_verdicts(self._key(shard_index))
        if not isinstance(payload, dict) \
                or payload.get("start") != start \
                or payload.get("stop") != stop:
            return None
        verdicts = payload.get("verdicts")
        if not isinstance(verdicts, list) \
                or len(verdicts) != stop - start \
                or any(not isinstance(verdict, FaultVerdict)
                       for verdict in verdicts):
            return None
        self.hits += 1
        return verdicts

    def store(self, shard_index: int, start: int, stop: int,
              verdicts: Sequence[FaultVerdict]) -> None:
        ok = self.tier.store_shard_verdicts(
            self._key(shard_index),
            {"start": start, "stop": stop, "verdicts": list(verdicts)})
        if ok:
            self.stores += 1
            from ..service import chaos

            chaos.on_shard_checkpointed(self.stores)


class ShardedBackend(ExecutionBackend):
    """Shard the task list across worker processes running a vector kernel.

    The shard schedule is :func:`~repro.faults.seeds.split_shards` —
    contiguous, non-overlapping, covering — so any worker can re-derive
    its slice from ``(len(tasks), shards, index)`` and the sharding is
    reproducible independent of pool scheduling.  Verdicts are placed by
    their task index, making the result order (and every campaign
    aggregate) bit-identical to the serial backend regardless of which
    worker finishes first.

    ``inner`` names the per-worker backend (default: ``numpy``) — each
    worker holds the compiled design once and sweeps its whole shard
    through the vectorized kernel, so saturated lane sweeps stack with
    process parallelism instead of replacing it.

    Small campaigns (below ``min_tasks``, default 1000) skip the pool
    entirely and run the inner backend inline, because pool spin-up and
    context pickling dominate them; this is visible in reports as
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
                       shard: Sequence[FaultTask], shard_index: int,
                       inner_spec: str,
                       degradations: List[Dict[str, object]],
                       cause: Exception) -> List[FaultVerdict]:
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
    def run(self, context: CampaignContext, tasks: Sequence[FaultTask],
            progress: Optional[ProgressCallback] = None
            ) -> List[FaultVerdict]:
        import multiprocessing
        import time as _time
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        from .seeds import substream

        workers = self._worker_count(len(tasks))
        degradations: List[Dict[str, object]] = []
        inner = resolve_backend(self.inner_spec())
        if not tasks or workers == 1 or len(tasks) < self.min_tasks:
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
            checkpoints = self._checkpoints_for(context, len(tasks), 1)
            if checkpoints is not None:
                cached = checkpoints.load(0, 0, len(tasks))
                if cached is not None:
                    stats["checkpoint_hits"] = 1
                    self.last_run_stats = stats
                    return list(cached)
            verdicts = inner.run(context, tasks, progress)
            if checkpoints is not None and len(verdicts) == len(tasks):
                checkpoints.store(0, 0, len(tasks), verdicts)
                stats["checkpoint_stores"] = checkpoints.stores
            self.last_run_stats = stats
            return verdicts
        self.name = ShardedBackend.name

        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:
            mp_context = multiprocessing.get_context()

        # Compute the golden reference before the pool starts so workers
        # inherit it (fork) or receive it pickled (spawn) instead of each
        # re-simulating it.  Under spawn the context must not carry the
        # process-wide cache entry (weak references are unpicklable).
        context.prepare()
        worker_context = context
        if mp_context.get_start_method() != "fork":
            worker_context = context.detached()

        task_list = list(tasks)
        ranges = split_shards(len(task_list),
                              workers * self.shards_per_worker)
        descriptors = [(index, start, stop)
                       for index, (start, stop) in enumerate(ranges)
                       if stop > start]
        checkpoints = self._checkpoints_for(context, len(task_list),
                                            len(ranges))

        verdicts: List[Optional[FaultVerdict]] = [None] * len(task_list)
        total = len(task_list)
        done = 0

        def place(shard_verdicts: Sequence[FaultVerdict]) -> None:
            nonlocal done
            for verdict in shard_verdicts:
                verdicts[verdict.index] = verdict
                done += 1
                self._tick(progress, done, total)

        pending: List[Tuple[int, int, int]] = []
        for index, start, stop in descriptors:
            cached = checkpoints.load(index, start, stop) \
                if checkpoints is not None else None
            if cached is not None:
                place(cached)
            else:
                pending.append((index, start, stop))

        retries = 0
        attempts: Dict[int, int] = {}
        # Jitter decorrelates retry rounds without breaking determinism:
        # the stream is a labeled substream of the task count, so a rerun
        # sleeps the same schedule.
        jitter = substream(len(task_list), "shard-retry-jitter")
        executor: Optional[ProcessPoolExecutor] = None
        try:
            while pending:
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=workers, mp_context=mp_context,
                        initializer=_init_shard_worker,
                        initargs=(worker_context, inner.name))
                futures = {
                    executor.submit(_run_task_shard, index,
                                    task_list[start:stop]):
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
                    place(shard_verdicts)
                    if checkpoints is not None:
                        index, start, stop = descriptor
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
                            context, task_list[start:stop], index,
                            inner.name, degradations, exc)
                        place(shard_verdicts)
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
        return [verdict for verdict in verdicts if verdict is not None]


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
