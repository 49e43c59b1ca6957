"""Experiment driver for Table 2: area, bitstream composition, performance.

Running ``python -m repro.experiments.table2 --scale fast`` builds the five
filter versions, implements each on its device profile and prints the
Table 2 analogue next to the paper's reference numbers.  The driver is a
thin wrapper over the ``table2-fir`` scenario of the pipeline engine
(``python -m repro run table2-fir`` is the equivalent surface).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from ..pnr import Implementation
from ..pnr.artifacts import StoreLike
from .cli import experiment_parser
from .designs import DESIGN_ORDER, DesignSuite

# Re-exported for backward compatibility (historically defined here).


def run_table2(suite: Optional[DesignSuite] = None,
               implementations: Optional[Dict[str, Implementation]] = None,
               scale: str = "fast", jobs: int = 1,
               flow_cache: StoreLike = None
               ) -> Dict[str, Dict[str, object]]:
    """Compute the Table 2 analogue; returns one dict per design."""
    from ..pipeline import PipelineContext, pipeline_for, resources_analysis

    ctx = PipelineContext(
        scenario_id="table2-fir",
        scale=scale,
        designs=DESIGN_ORDER,
        jobs=jobs,
        flow_cache=flow_cache,
    )
    ctx.suite = suite
    ctx.implementations = implementations
    if implementations is not None:
        # Pre-built implementations are all the analysis needs — keep the
        # historical fast path that never builds the suite.
        ctx.designs = [name for name in DESIGN_ORDER
                       if name in implementations]
    else:
        pipeline_for(("build", "implement")).run(ctx)
    return resources_analysis(ctx)


def format_report(table: Dict[str, Dict[str, object]]) -> str:
    from ..faults.report import format_table

    rows = []
    for name in DESIGN_ORDER:
        if name not in table:
            continue
        entry = table[name]
        rows.append([
            name, entry["slices"], entry["routing_bits"], entry["lut_bits"],
            entry["ff_bits"], f"{entry['routing_fraction'] * 100:.1f}%",
            f"{entry['fmax_mhz']:.0f}",
            f"x{entry['area_overhead_vs_standard']:.2f}",
            entry["paper_slices"] if entry["paper_slices"] else "-",
            f"{entry['paper_fmax_mhz']:.0f}" if entry["paper_fmax_mhz"]
            else "-",
        ])
    return format_table(
        ["Design", "Slices", "Routing bits", "LUT bits", "FF bits",
         "Routing share", "Fmax (MHz)", "Area vs std",
         "Paper slices", "Paper Fmax"],
        rows, "Table 2 — resources and performance (measured vs paper)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = experiment_parser(__doc__, backend_default=None)
    arguments = parser.parse_args(argv)

    if arguments.json:
        from ..pipeline import stable_report
        from ..scenarios import run_scenario

        report = run_scenario("table2-fir", scale=arguments.scale,
                              jobs=arguments.jobs,
                              flow_cache=arguments.flow_cache)
        print(json.dumps(stable_report(report), indent=2, default=str,
                         sort_keys=True))
        return 0

    table = run_table2(scale=arguments.scale, jobs=arguments.jobs,
                       flow_cache=arguments.flow_cache)
    print(format_report(table))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
