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
shards of the injections run through a vectorized backend in worker
processes).  Golden traces, fault lists and fault effects are memoized
in the process-wide campaign cache (:mod:`repro.faults.cache`).  All
backends produce bit-identical aggregates for the same seed.  The per-injection records
are columns; ``CampaignResult.results`` is a read-only view that builds
each record on access (:class:`~repro.faults.injector.FaultRecords`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Dict, List, Optional, Sequence

from ..pnr.flow import Implementation
from ..sim.vectors import campaign_workload, stimulus_from_samples, \
    tmr_stimulus_from_samples
from . import categories
from .engine import (BackendLike, CampaignContext, ProgressCallback,
                     resolve_backend)
from .injector import FaultRecords, FaultResult
from .models import EFFECT_ROWS
from .upsets import (SingleBitInjections, UpsetModelLike,
                     resolve_upset_model)


#: share of the fault list a campaign samples when it names no count: the
#: paper injects about 10% of the relevant bits
SAMPLE_FRACTION = 0.10


@dataclasses.dataclass
class CampaignConfig:
    """Parameters of one fault-injection campaign."""

    #: number of upsets to inject; ``None`` means ``SAMPLE_FRACTION`` of
    #: the fault list
    num_faults: Optional[int] = None
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
    #: per-injection records, a read-only lazy view over columns
    #: (:class:`~repro.faults.injector.FaultRecords`)
    results: Sequence[FaultResult]
    by_category: Dict[str, CategoryCount]
    duration_seconds: float
    #: name of the execution backend that evaluated the campaign
    backend: str = "serial"
    #: parameterized name of the upset model that built the injections
    upset_model: str = "single"
    #: fault-sampling seed of the campaign (provenance for reports)
    seed: int = 2005

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


def _checkpoint_key(config: CampaignConfig,
                    context, model, num_groups: int,
                    stimulus: Optional[Sequence[Dict[str, int]]],
                    fault_bits: Optional[Sequence[int]]) -> str:
    """Content digest identifying a campaign for shard checkpointing.

    Two campaigns share shard checkpoints only when this digest matches —
    it must therefore cover everything that can change a verdict: the
    implemented bitstream, the upset model and its sampling seed, the
    fault-list mode, the comparison window and any explicitly supplied
    stimulus or bit list.  Deliberately excluded: the backend (all
    backends are bit-identical) and delivery knobs like timeouts.
    """
    digest = hashlib.sha256()
    parts = [
        context.cache_entry.fingerprint,
        model.describe(),
        str(config.seed),
        config.fault_list_mode,
        str(config.skip_cycles),
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
                 stimulus: Optional[Sequence[Dict[str, int]]] = None,
                 fault_bits: Optional[Sequence[int]] = None,
                 progress: Optional[ProgressCallback] = None,
                 backend: BackendLike = None) -> CampaignResult:
    """Run one fault-injection campaign on an implemented design."""
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

    context = CampaignContext(
        implementation,
        stimulus=list(stimulus) if stimulus is not None
        else default_stimulus(implementation, config),
        skip_cycles=config.skip_cycles)
    fault_list = context.cache_entry.fault_list(config.fault_list_mode,
                                                context.stats)
    if fault_bits is None:
        count = config.num_faults if config.num_faults is not None else \
            max(1, int(len(fault_list) * SAMPLE_FRACTION))
        groups = model.injections(
            fault_list, count, config.seed,
            total_bits=implementation.layout.total_bits)
    else:
        # An explicit bit list bypasses the model's sampling but keeps
        # the historical one-bit-per-injection semantics.
        groups = SingleBitInjections(list(fault_bits))

    # Arm shard-level checkpointing: sharding backends persist completed
    # shards under this key (when a cache tier is active) so interrupted
    # campaigns resume instead of recomputing.
    context.checkpoint_key = _checkpoint_key(
        config, context, model, len(groups),
        stimulus, fault_bits)
    injections = context.tasks_for_groups(groups)
    verdicts = engine.run(context, injections, progress)
    details = [injections.effects.details[slot]
               for slot in injections.slots]

    records = FaultRecords(injections.bits, verdicts.rows, details,
                           verdicts.wrong, verdicts.first_mismatch)
    # Backends only tick the callback every PROGRESS_INTERVAL injections,
    # so a small campaign would otherwise finish without ever reporting;
    # status consumers (the service's job progress) rely on the final
    # 100% tick.  Campaigns whose last backend tick already reported
    # every verdict (counts that are exact interval multiples) must not
    # tick twice.
    if progress is not None and reported[0] != len(records):
        progress(len(records), len(records))

    injected_by_row = [0] * len(EFFECT_ROWS)
    wrong_by_row = [0] * len(EFFECT_ROWS)
    for row, wrong in zip(records.rows, records.wrong):
        injected_by_row[row] += 1
        wrong_by_row[row] += wrong
    by_category: Dict[str, CategoryCount] = {
        category: CategoryCount() for category in categories.TABLE4_ORDER}
    for row, injected in enumerate(injected_by_row):
        if injected:
            bucket = by_category.setdefault(EFFECT_ROWS[row].category,
                                            CategoryCount())
            bucket.injected += injected
            bucket.wrong += wrong_by_row[row]

    return CampaignResult(
        design=implementation.design.name,
        mode=config.fault_list_mode,
        fault_list_size=len(fault_list),
        injected=len(records),
        wrong_answers=sum(wrong_by_row),
        results=records,
        by_category=by_category,
        duration_seconds=time.time() - start,
        backend=engine.name,
        upset_model=model.describe(),
        seed=config.seed,
    )
