"""Benchmark reproducing Table 4: classification of error-causing upsets.

Paper claims checked:

* routing-related effects (Open / Bridge / Conflict / Antenna / Others)
  dominate the error-causing upsets in every TMR version;
* LUT upsets essentially never defeat the TMR (in the paper: never; in our
  model the single-LUT output voters are the only possible exception, see
  EXPERIMENTS.md);
* the total number of error-causing upsets follows the Table 3 ordering
  (TMR_p3_nv worst, the voted partitions best).
"""

from repro.analysis import routing_effect_share
from repro.experiments import DESIGN_ORDER, PAPER_TABLE4
from repro.faults import categories, table4_report


def test_table4_effect_classification(benchmark, campaigns):
    table = benchmark.pedantic(
        lambda: {name: result.effect_table()
                 for name, result in campaigns.items()},
        rounds=1, iterations=1)
    benchmark.extra_info["table4_measured"] = table
    benchmark.extra_info["table4_paper"] = PAPER_TABLE4
    benchmark.extra_info["report"] = table4_report(campaigns,
                                                   order=DESIGN_ORDER)

    # Routing effects dominate the error-causing upsets of the TMR versions
    # whenever there are any errors at all.
    for name in ("TMR_p3_nv", "standard"):
        share = routing_effect_share(campaigns[name])
        assert share > 0.5, (name, share)

    # LUT upsets do not defeat TMR (allow at most a stray output-voter hit).
    for name in ("TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv"):
        lut_wrong = table[name].get(categories.LUT, 0)
        total_wrong = max(1, sum(table[name].values()))
        assert lut_wrong <= max(1, 0.1 * total_wrong), (name, table[name])

    # The unprotected filter shows every class of routing effect.
    standard = table["standard"]
    assert standard[categories.OPEN] > 0
    assert standard[categories.BRIDGE] + standard[categories.CONFLICT] > 0

    # Total error-causing upsets follow the Table 3 ordering.
    totals = {name: sum(table[name].values()) for name in DESIGN_ORDER}
    assert totals["standard"] > totals["TMR_p3_nv"] >= totals["TMR_p2"]
