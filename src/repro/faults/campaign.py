"""Fault-injection campaigns: the experiment of the paper's Tables 3 and 4.

A campaign takes one implemented design, builds its fault list, samples a
configurable number of bits, evaluates them through a pluggable execution
backend (see :mod:`repro.faults.engine`) and aggregates the results: the
fraction of upsets producing wrong answers (Table 3) and the breakdown of
error-causing upsets by effect category (Table 4).

``run_campaign`` keeps its historical signature; the ``backend=`` knob
selects the execution strategy (``"serial"`` — the seed semantics and the
default, ``"vector"`` — whole fault shards packed into big-int lanes and
swept bit-parallel through :mod:`repro.sim.bitparallel`, ``"numpy"`` —
the same lane sweep compiled to vectorized ``uint64`` array kernels with
cross-cone packing through :mod:`repro.sim.npkernel`, ``"sharded"`` —
shards of the task list run through a vectorized backend in worker
processes) and ``use_cache=`` controls the golden-trace / fault-effect
cache (:mod:`repro.faults.cache`).  All backends produce
bit-identical aggregates for the same seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Dict, List, Optional, Sequence

from ..pnr.flow import Implementation
from ..sim.compile import CompiledDesign
from ..sim.vectors import campaign_workload, stimulus_from_samples, \
    tmr_stimulus_from_samples
from . import categories
from .cache import get_cache
from .engine import (BackendLike, CampaignContext, FaultTask, FaultVerdict,
                     ProgressCallback, resolve_backend)
from .fault_list import FaultListManager
from .injector import FaultResult
from .upsets import UpsetModelLike, resolve_upset_model

#: Campaign prefilter modes: ``"none"`` evaluates every sampled injection;
#: ``"static"`` synthesizes the verdicts of injections whose every bit the
#: layout analyzer (:mod:`repro.analysis.layout`) proved silent, so the
#: backends only simulate faults that can possibly change an output.
PREFILTER_CHOICES = ("none", "static")


@dataclasses.dataclass
class CampaignConfig:
    """Parameters of one fault-injection campaign."""

    #: number of upsets to inject (the paper injects ~10% of the relevant
    #: bits; ``None`` means "sample_fraction of the fault list")
    num_faults: Optional[int] = None
    #: fraction of the fault list to sample when ``num_faults`` is None
    sample_fraction: float = 0.10
    #: random seed for fault sampling (publication year by default)
    seed: int = 2005
    #: workload length in clock cycles
    workload_cycles: int = 12
    #: workload seed (same stream for every design of an experiment)
    workload_seed: int = 2005
    #: fault list selection mode (see :mod:`repro.faults.fault_list`)
    fault_list_mode: str = "design"
    #: cycles ignored at the start of the comparison
    skip_cycles: int = 0
    #: how many bits one injection flips (see :mod:`repro.faults.upsets`):
    #: ``"single"`` (seed semantics), ``"mbu[:k]"`` (adjacent multi-bit
    #: clusters) or ``"accumulate[:k]"`` (upsets accrue between scrubs)
    upset_model: UpsetModelLike = "single"
    #: ``"static"`` skips provably-silent bits via the layout analyzer's
    #: defeat map; verdicts and aggregates stay bit-identical to ``"none"``
    prefilter: str = "none"


@dataclasses.dataclass
class CategoryCount:
    """Occurrences of one effect category within a campaign."""

    injected: int = 0
    wrong: int = 0


@dataclasses.dataclass
class CampaignResult:
    """Aggregated outcome of one campaign (one row of Table 3)."""

    design: str
    mode: str
    fault_list_size: int
    injected: int
    wrong_answers: int
    results: List[FaultResult]
    by_category: Dict[str, CategoryCount]
    duration_seconds: float
    #: name of the execution backend that evaluated the campaign
    backend: str = "serial"
    #: parameterized name of the upset model that built the injections
    upset_model: str = "single"
    #: fault-sampling seed of the campaign (provenance for reports)
    seed: int = 2005
    #: prefilter mode the campaign ran under (``"none"`` / ``"static"``)
    prefilter: str = "none"
    #: injections skipped as provably silent (verdicts synthesized)
    skipped_silent: int = 0

    @property
    def simulated(self) -> int:
        """Injections actually evaluated by the execution backend."""
        return self.injected - self.skipped_silent

    @property
    def wrong_answer_percent(self) -> float:
        if not self.injected:
            return 0.0
        return 100.0 * self.wrong_answers / self.injected

    @property
    def faults_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.injected / self.duration_seconds

    def effect_table(self) -> Dict[str, int]:
        """Error-causing upsets per category (one column of Table 4)."""
        return {category: count.wrong
                for category, count in self.by_category.items()}

    def summary_row(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "injected": self.injected,
            "wrong": self.wrong_answers,
            "wrong_percent": round(self.wrong_answer_percent, 2),
        }


def _synthesized_silent_verdict(task: FaultTask) -> FaultVerdict:
    """The verdict a provably-silent injection would simulate to.

    Matches :meth:`~repro.faults.engine.CampaignContext.evaluate` exactly:
    the category/resource/detail surface comes from the modelled effect,
    and a fault whose taint never reaches an output can neither produce a
    wrong answer nor a first mismatch cycle.
    """
    effect = task.effect
    return FaultVerdict(
        index=task.index,
        bit=task.bit,
        resource_kind=effect.resource[0],
        category=effect.category,
        has_effect=effect.has_effect,
        wrong_answer=False,
        first_mismatch_cycle=None,
        detail=effect.detail,
    )


def _checkpoint_key(implementation: Implementation,
                    config: CampaignConfig,
                    context, model, num_groups: int,
                    stimulus: Optional[Sequence[Dict[str, int]]],
                    fault_bits: Optional[Sequence[int]]) -> str:
    """Content digest identifying a campaign for shard checkpointing.

    Two campaigns share shard checkpoints only when this digest matches —
    it must therefore cover everything that can change a verdict: the
    implemented bitstream, the upset model and its sampling seed, the
    fault-list mode, the comparison window, the prefilter (which changes
    the *task list* the backend sees) and any explicitly supplied
    stimulus or bit list.  Deliberately excluded: the backend (all
    backends are bit-identical) and delivery knobs like timeouts.
    """
    from .cache import implementation_fingerprint

    if context.cache_entry is not None:
        fingerprint = context.cache_entry.fingerprint
    else:
        fingerprint = implementation_fingerprint(implementation)
    digest = hashlib.sha256()
    parts = [
        fingerprint,
        model.describe(),
        str(config.seed),
        config.fault_list_mode,
        str(config.skip_cycles),
        config.prefilter,
        str(num_groups),
        str(config.workload_cycles),
        str(config.workload_seed),
    ]
    if stimulus is not None:
        parts.append(repr([sorted(cycle.items()) for cycle in stimulus]))
    if fault_bits is not None:
        parts.append(repr(tuple(fault_bits)))
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def default_stimulus(implementation: Implementation,
                     config: CampaignConfig) -> List[Dict[str, int]]:
    """Build the campaign workload for a design.

    TMR designs expose triplicated data inputs (``DIN_tr0`` ...); the same
    sample stream is applied to all three copies, as the three domains share
    the external signal in the paper's setup.  Ports are scanned in sorted
    order and the *first* sorted data port (or first ``_tr0`` port) drives
    the workload — deliberately replacing the seed's insertion-order
    dependent pick, which could land on an arbitrary late port for
    multi-input designs.
    """
    ports = implementation.design.ports
    data_ports = sorted(name for name in ports
                        if ports[name].direction.value == "input"
                        and not name.upper().startswith("CLK"))
    if not data_ports:
        return [{} for _ in range(config.workload_cycles)]
    tmr_style = any(name.endswith("_tr0") for name in data_ports)
    base_port = None
    width = 0
    if tmr_style:
        for name in data_ports:
            if name.endswith("_tr0"):
                base_port = name[:-4]
                width = ports[name].width
                break
    if base_port is None:
        base_port = data_ports[0]
        width = ports[base_port].width
    samples = campaign_workload(width, config.workload_cycles,
                                config.workload_seed)
    if tmr_style:
        return tmr_stimulus_from_samples(samples, base_port)
    return stimulus_from_samples(samples, base_port)


def run_campaign(implementation: Implementation,
                 config: Optional[CampaignConfig] = None,
                 compiled: Optional[CompiledDesign] = None,
                 stimulus: Optional[Sequence[Dict[str, int]]] = None,
                 fault_bits: Optional[Sequence[int]] = None,
                 progress: Optional[ProgressCallback] = None,
                 backend: BackendLike = None,
                 use_cache: bool = True,
                 defeat_map=None) -> CampaignResult:
    """Run one fault-injection campaign on an implemented design.

    *defeat_map* optionally supplies a prebuilt static defeat map
    (:class:`repro.analysis.layout.DefeatMap`) for the ``"static"``
    prefilter; without one the map is built (or read from the campaign
    cache) on first use.
    """
    config = config if config is not None else CampaignConfig()
    engine = resolve_backend(backend)
    model = resolve_upset_model(config.upset_model)
    start = time.time()

    # Remember the last verdict count the backend reported so the final
    # 100% tick (below) fires exactly once per campaign.
    reported = [0]
    if progress is not None:
        caller_progress = progress

        def progress(done: int, total: int) -> None:
            reported[0] = done
            caller_progress(done, total)

    cache_entry = get_cache().entry_for(implementation) if use_cache else None
    if use_cache:
        stats = get_cache().stats
    else:
        stats = None
    context = CampaignContext(
        implementation, compiled=compiled,
        stimulus=list(stimulus) if stimulus is not None
        else default_stimulus(implementation, config),
        skip_cycles=config.skip_cycles,
        cache_entry=cache_entry, stats=stats)

    if cache_entry is not None:
        fault_list = cache_entry.fault_list(config.fault_list_mode,
                                            context.stats)
    else:
        fault_list = FaultListManager(implementation).build(
            config.fault_list_mode)
    if fault_bits is None:
        count = config.num_faults if config.num_faults is not None else \
            max(1, int(len(fault_list) * config.sample_fraction))
        groups = model.injections(
            fault_list, count, config.seed,
            total_bits=implementation.layout.total_bits)
    else:
        # An explicit bit list bypasses the model's sampling but keeps
        # the historical one-bit-per-injection semantics.
        groups = [(bit,) for bit in fault_bits]

    if config.prefilter not in PREFILTER_CHOICES:
        raise ValueError(f"unknown campaign prefilter "
                         f"{config.prefilter!r}; choose from "
                         f"{PREFILTER_CHOICES}")
    # Arm shard-level checkpointing: sharding backends persist completed
    # shards under this key (when a cache tier is active) so interrupted
    # campaigns resume instead of recomputing.
    context.checkpoint_key = _checkpoint_key(
        implementation, config, context, model, len(groups),
        stimulus, fault_bits)
    skipped_silent = 0
    if config.prefilter == "static" and groups:
        if defeat_map is None:
            from ..analysis.layout import defeat_map_for

            defeat_map = defeat_map_for(
                implementation, mode=config.fault_list_mode,
                compiled=context.compiled, modeler=context.modeler,
                effect_lookup=context.effect_of_bit, use_cache=use_cache)
        # Split the injections *before* modeling them into tasks: silent
        # single-bit injections synthesize their verdicts straight from
        # the map's predictions (which carry the effect's verdict
        # surface), so the campaign never touches their fault models.
        live_groups: List[tuple] = []      # (original index, bit tuple)
        silent_groups: List[tuple] = []
        for index, group in enumerate(groups):
            bits = tuple(group)
            # A multi-bit injection is skippable only when *every* bit of
            # the cluster is proved silent: taint closures are unions, so
            # the merged overlay's closure misses the outputs too.
            if all(defeat_map.is_silent(bit) for bit in bits):
                silent_groups.append((index, bits))
            else:
                live_groups.append((index, bits))
        skipped_silent = len(silent_groups)
        # Backends index scratch arrays by task.index, so the live subset
        # is modeled with dense indices; verdicts are mapped back to the
        # original injection indices before aggregation.
        live_tasks = context.tasks_for_groups(
            [bits for _index, bits in live_groups])
        live_verdicts = engine.run(context, live_tasks, progress)
        verdicts = [
            dataclasses.replace(verdict, index=index)
            for (index, _bits), verdict in zip(live_groups, live_verdicts)]
        for index, bits in silent_groups:
            if len(bits) == 1:
                prediction = defeat_map.predictions[bits[0]]
                verdicts.append(FaultVerdict(
                    index=index, bit=bits[0],
                    resource_kind=prediction.resource_kind,
                    category=prediction.category,
                    has_effect=prediction.has_effect,
                    wrong_answer=False, first_mismatch_cycle=None,
                    detail=prediction.detail))
            else:
                # Multi-bit clusters need the merged effect's category /
                # detail surface; per-bit effects are cache-backed.
                task = context.tasks_for_groups([bits])[0]
                verdicts.append(dataclasses.replace(
                    _synthesized_silent_verdict(task), index=index))
        verdicts.sort(key=lambda verdict: verdict.index)
    else:
        tasks = context.tasks_for_groups(groups)
        verdicts = engine.run(context, tasks, progress)

    # Backends only tick the callback every PROGRESS_INTERVAL tasks, so a
    # small campaign would otherwise finish without ever reporting; status
    # consumers (the service's job progress) rely on the final 100% tick.
    # Campaigns whose last backend tick already reported every verdict
    # (task counts that are exact interval multiples) must not tick twice.
    if progress is not None and reported[0] != len(verdicts):
        progress(len(verdicts), len(verdicts))

    results: List[FaultResult] = []
    by_category: Dict[str, CategoryCount] = {
        category: CategoryCount() for category in categories.TABLE4_ORDER}
    wrong_answers = 0
    for verdict in verdicts:
        results.append(verdict.to_result())
        bucket = by_category.setdefault(verdict.category, CategoryCount())
        bucket.injected += 1
        if verdict.wrong_answer:
            bucket.wrong += 1
            wrong_answers += 1

    return CampaignResult(
        design=implementation.design.name,
        mode=config.fault_list_mode,
        fault_list_size=len(fault_list),
        injected=len(results),
        wrong_answers=wrong_answers,
        results=results,
        by_category=by_category,
        duration_seconds=time.time() - start,
        backend=engine.name,
        upset_model=model.describe(),
        seed=config.seed,
        prefilter=config.prefilter,
        skipped_silent=skipped_silent,
    )


def run_campaigns(implementations: Dict[str, Implementation],
                  config: Optional[CampaignConfig] = None,
                  progress: Optional[ProgressCallback] = None,
                  backend: BackendLike = None,
                  use_cache: bool = True) -> Dict[str, CampaignResult]:
    """Run the same campaign over several designs (the five filter versions)."""
    engine = resolve_backend(backend)
    results: Dict[str, CampaignResult] = {}
    for name, implementation in implementations.items():
        results[name] = run_campaign(implementation, config,
                                     progress=progress, backend=engine,
                                     use_cache=use_cache)
    return results
