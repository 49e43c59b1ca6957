"""Reproduce the paper's experiment on a reduced filter: Tables 2, 3 and 4.

Runs the ``table4-fir`` scenario through the pipeline engine: build the
five filter versions, implement each on the device model, run one
bitstream fault-injection campaign per version and print the three tables
next to the paper's reference numbers — followed by the pipeline's own
stage/cache report.

Run with ``python examples/fir_fault_injection_campaign.py [scale]
[backend] [jobs]`` where *scale* is ``smoke`` (default, about a minute),
``tiny`` (seconds), ``fast`` or ``paper``, *backend* selects the campaign
execution engine (``serial``, the bit-parallel ``vector`` — the default,
the numpy-compiled ``numpy``, or the process-parallel ``sharded``), and
*jobs* implements the five filter versions in that many parallel worker
processes; every backend produces identical results.  Set
the ``REPRO_FLOW_CACHE`` environment variable to a directory to persist
the place-and-route artifacts — a second run then skips implementation
entirely.  ``python -m repro run table4-fir`` is the equivalent CLI.
"""

import os
import sys

from repro import run_scenario
from repro.analysis import format_resource_table, resource_table
from repro.experiments import DESIGN_ORDER, PAPER_TABLE3_PERCENT
from repro.faults import table3_report, table4_report
from repro.pipeline import PipelineContext, pipeline_for
from repro.scenarios import resolve_scenario


def main(scale: str = "smoke", backend: str = "vector",
         jobs: int = 1) -> None:
    flow_cache = os.environ.get("REPRO_FLOW_CACHE")
    print(f"running scenario 'table4-fir' at scale {scale!r} "
          f"(backend {backend!r}, jobs={jobs}, "
          f"flow cache {flow_cache or 'off'}) ...")

    # Drive the stages through an explicit context so the full
    # CampaignResult objects stay available for the paper-style reports.
    scenario = resolve_scenario("table4-fir", scale=scale, backend=backend)
    ctx = PipelineContext(scenario, jobs=jobs, flow_cache=flow_cache)
    report = pipeline_for(scenario.stages).run(ctx)

    print(f"  filter: {ctx.suite.spec.taps} taps, "
          f"{ctx.suite.spec.data_width}-bit samples, "
          f"coefficients {ctx.suite.spec.coefficients}")
    for name in DESIGN_ORDER:
        summary = ctx.implementations[name].summary()
        print(f"  {name:10s}: {summary['slices']:4d} slices, "
              f"{summary['routed_nets']:5d} nets, "
              f"{summary['fmax_mhz']:5.1f} MHz")

    print("\n" + format_resource_table(
        resource_table(ctx.implementations, order=DESIGN_ORDER)))

    for name in DESIGN_ORDER:
        campaign = ctx.campaigns[name]
        print(f"  {name:10s}: {campaign.wrong_answer_percent:6.2f}% "
              f"wrong answers "
              f"(paper: {PAPER_TABLE3_PERCENT[name]:6.2f}%)  "
              f"[{campaign.faults_per_second:7.0f} faults/s]")

    print("\n" + table3_report(ctx.campaigns, order=DESIGN_ORDER,
                               paper_reference=PAPER_TABLE3_PERCENT))
    print("\n" + table4_report(ctx.campaigns, order=DESIGN_ORDER))

    derived = report["derived"]["table3"]
    print(f"\nbest TMR partition measured: "
          f"{derived.get('best_tmr_partition')} (paper: TMR_p2)")
    print(f"improvement TMR_p1 -> TMR_p2: "
          f"{derived.get('improvement_p1_to_p2')}x (paper: ~4.1x)")

    # Repeated runs are where the caches pay off: re-run the whole
    # scenario and let the stage records show what was reused.
    rerun = run_scenario("table4-fir", scale=scale, backend=backend,
                         jobs=jobs, flow_cache=flow_cache)
    print("\nwarm re-run stage report:")
    for stage in rerun["stages"]:
        cache = ", ".join(f"{key}={value}"
                          for key, value in stage["cache"].items()
                          if value) or "no cached artefacts touched"
        print(f"  {stage['name']:10s} {stage['seconds']:7.2f}s  {cache}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "smoke",
         sys.argv[2] if len(sys.argv) > 2 else "vector",
         int(sys.argv[3]) if len(sys.argv) > 3 else 1)
