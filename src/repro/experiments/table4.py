"""Experiment driver for Table 4: classification of error-causing upsets.

The campaigns of Table 3 already classify every injected upset by its effect
(LUT / MUX / Initialization / Open / Bridge / Input-Antenna / Conflict /
Others); this driver aggregates the error-causing ones per design version,
which is the paper's Table 4.  ``python -m repro run table4-fir`` is the
equivalent pipeline surface.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from ..faults import CampaignResult, table4_report
from ..faults.engine import BackendLike
from ..pnr import Implementation
from .cli import experiment_parser
from .designs import DESIGN_ORDER, PAPER_TABLE4, DesignSuite
from .table3 import run_table3


def run_table4(results: Optional[Dict[str, CampaignResult]] = None,
               suite: Optional[DesignSuite] = None,
               implementations: Optional[Dict[str, Implementation]] = None,
               scale: str = "fast", num_faults: Optional[int] = None,
               backend: BackendLike = None) -> Dict[str, Dict[str, int]]:
    """Return the per-design effect breakdown of error-causing upsets.

    *backend* selects the campaign execution backend (``"serial"``, the
    bit-parallel ``"vector"``, the numpy-compiled ``"numpy"`` or the
    process-parallel ``"sharded"``).
    """
    if results is None:
        results = run_table3(suite=suite, implementations=implementations,
                             scale=scale, num_faults=num_faults,
                             backend=backend)
    table: Dict[str, Dict[str, int]] = {}
    for name, result in results.items():
        table[name] = result.effect_table()
    return table


def derived_claims(results: Dict[str, CampaignResult]) -> Dict[str, object]:
    """The qualitative claims the paper draws from Table 4."""
    from ..pipeline import table4_claims

    return table4_claims(results)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = experiment_parser(__doc__, faults=True, upset_model=True,
                               prefilter=True)
    arguments = parser.parse_args(argv)

    if arguments.json:
        from ..pipeline import stable_report
        from ..scenarios import run_scenario

        report = run_scenario(
            "table4-fir", scale=arguments.scale,
            backend=arguments.backend, upset_model=arguments.upset_model,
            num_faults=arguments.faults, prefilter=arguments.prefilter,
            jobs=arguments.jobs,
            flow_cache=arguments.flow_cache, progress=True)
        print(json.dumps(stable_report(report), indent=2, default=str,
                         sort_keys=True))
        return 0

    results = run_table3(scale=arguments.scale, num_faults=arguments.faults,
                         progress=True, backend=arguments.backend,
                         jobs=arguments.jobs,
                         flow_cache=arguments.flow_cache,
                         upset_model=arguments.upset_model,
                         prefilter=arguments.prefilter)
    print(table4_report(results, order=[n for n in DESIGN_ORDER
                                        if n in results]))
    claims = derived_claims(results)
    print("\nLUT upsets able to defeat TMR:",
          "yes" if claims["lut_upsets_defeat_tmr"] else
          "no (matches the paper)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
