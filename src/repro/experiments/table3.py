"""Experiment driver for Table 3: fault-injection campaign results.

``python -m repro.experiments.table3 --scale fast`` implements the five
filter versions, runs one bitstream fault-injection campaign per version and
prints the wrong-answer percentages next to the paper's, together with the
headline improvement factor of the medium partition over plain TMR.

The driver is a thin wrapper over the ``table3-fir`` scenario of the
pipeline engine (``python -m repro run table3-fir`` is the equivalent
surface); :func:`run_table3` keeps its historical signature for callers
that pre-build the suite or the implementations.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from ..faults import CampaignConfig, CampaignResult, table3_report
from ..faults.engine import BackendLike
from ..pnr import Implementation
from ..pnr.artifacts import StoreLike
from .cli import experiment_parser
from .designs import DESIGN_ORDER, PAPER_TABLE3_PERCENT, DesignSuite

# Re-exported for backward compatibility (historically defined here).


def campaign_config_for(suite: DesignSuite,
                        num_faults: Optional[int] = None,
                        fault_list_mode: str = "design",
                        seed: int = 2005,
                        upset_model: str = "single",
                        prefilter: str = "none") -> CampaignConfig:
    return CampaignConfig(
        num_faults=num_faults if num_faults is not None
        else suite.scale.campaign_faults,
        workload_cycles=suite.scale.workload_cycles,
        fault_list_mode=fault_list_mode,
        seed=seed,
        upset_model=upset_model,
        prefilter=prefilter,
    )


def run_table3(suite: Optional[DesignSuite] = None,
               implementations: Optional[Dict[str, Implementation]] = None,
               scale: str = "fast", num_faults: Optional[int] = None,
               fault_list_mode: str = "design",
               progress: bool = False,
               backend: BackendLike = None,
               jobs: int = 1,
               flow_cache: StoreLike = None,
               upset_model: str = "single",
               prefilter: str = "none") -> Dict[str, CampaignResult]:
    """Run the Table 3 campaigns and return one result per design.

    *backend* selects the campaign execution backend (``"serial"``, the
    bit-parallel ``"vector"``, the numpy-compiled ``"numpy"`` or the
    process-parallel ``"sharded"``); every
    backend yields identical results.  *upset_model* selects how many bits
    one injection flips (``"single"``, ``"mbu[:k]"``, ``"accumulate[:k]"``
    — see :mod:`repro.faults.upsets`).  *prefilter* (``"static"``) lets
    the layout analyzer skip provably-silent bits; *jobs* and
    *flow_cache* speed up the implementation step (parallel
    place-and-route, persistent flow artifacts).  None of these knobs
    changes any campaign number.
    """
    from ..pipeline import PipelineContext, pipeline_for

    ctx = PipelineContext(
        scenario_id="table3-fir",
        scale=scale,
        designs=DESIGN_ORDER,
        backend=backend if backend is not None else "serial",
        upset_model=upset_model,
        fault_list_mode=fault_list_mode,
        num_faults=num_faults,
        prefilter=prefilter,
        jobs=jobs,
        flow_cache=flow_cache,
        progress=progress,
    )
    ctx.suite = suite
    ctx.implementations = implementations
    if implementations is not None:
        ctx.designs = [name for name in DESIGN_ORDER
                       if name in implementations]
    pipeline_for(("build", "implement", "campaign")).run(ctx)
    return ctx.campaigns


def summarize(results: Dict[str, CampaignResult]) -> Dict[str, object]:
    """Headline quantities derived from the campaigns."""
    from ..pipeline import table3_summary

    return table3_summary(results)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = experiment_parser(__doc__, faults=True, upset_model=True,
                               prefilter=True)
    parser.add_argument("--fault-list", default="design",
                        choices=("design", "extended", "programmed"),
                        help="fault-list selection mode")
    arguments = parser.parse_args(argv)

    if arguments.json:
        # Machine-readable runs emit the pipeline reporter's uniform
        # schema (scenario id, seed, backend, upset model, tool versions)
        # instead of the historical ad-hoc payload.  The stable variant
        # (timings and cache counters scrubbed) keeps the output
        # byte-reproducible across processes; ``python -m repro run``
        # emits the raw report when those counters are wanted.
        from ..pipeline import stable_report
        from ..scenarios import run_scenario

        report = run_scenario(
            "table3-fir", scale=arguments.scale,
            backend=arguments.backend, upset_model=arguments.upset_model,
            num_faults=arguments.faults,
            prefilter=arguments.prefilter,
            fault_list_mode=arguments.fault_list,
            jobs=arguments.jobs, flow_cache=arguments.flow_cache,
            progress=True)
        print(json.dumps(stable_report(report), indent=2, default=str,
                         sort_keys=True))
        return 0

    results = run_table3(scale=arguments.scale, num_faults=arguments.faults,
                         fault_list_mode=arguments.fault_list, progress=True,
                         backend=arguments.backend, jobs=arguments.jobs,
                         flow_cache=arguments.flow_cache,
                         upset_model=arguments.upset_model,
                         prefilter=arguments.prefilter)
    print(table3_report(results, order=[n for n in DESIGN_ORDER
                                        if n in results],
                        paper_reference=PAPER_TABLE3_PERCENT))
    derived = summarize(results)
    if "improvement_p1_to_p2" in derived:
        print(f"\nImprovement TMR_p1 -> TMR_p2: "
              f"{derived['improvement_p1_to_p2']}x "
              f"(paper: ~4.1x)")
    if "best_tmr_partition" in derived:
        print(f"Best TMR partition: {derived['best_tmr_partition']} "
              f"(paper: TMR_p2)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
