"""Benchmarks reproducing the structural content of Figures 1-4.

The paper's figures are schematics; what can be regenerated is the structure
they describe: the plain TMR scheme (Figure 1), the voted register with
refresh (Figure 2), the partitioned scheme in which a cross-domain upset is
blocked by a voter barrier (Figure 3) and the three partitioned filter
architectures (Figure 4).
"""

from repro.experiments import (figure1_summary, figure2_summary,
                               figure3_summary, figure4_summary)


def test_figure1_plain_tmr_scheme(benchmark, design_suite):
    summary = benchmark.pedantic(lambda: figure1_summary(design_suite),
                                 rounds=1, iterations=1)
    benchmark.extra_info["figure1"] = summary
    assert summary["domains"] == 3
    assert summary["inputs_triplicated"]
    assert summary["single_voted_output"]
    assert summary["domains_isolated_outside_voters"]
    assert summary["output_voters"] == design_suite.spec.output_width


def test_figure2_voted_register(benchmark):
    summary = benchmark.pedantic(figure2_summary, rounds=1, iterations=1)
    benchmark.extra_info["figure2"] = summary
    # One flip-flop and one voter per bit per domain, triplicated clocks.
    assert summary["voters_per_bit_per_domain"]
    assert summary["clocks_triplicated"]
    assert summary["domain_outputs_agree"]


def test_figure3_partition_blocks_crossing_upset(benchmark, design_suite):
    summary = benchmark.pedantic(lambda: figure3_summary(design_suite),
                                 rounds=1, iterations=1)
    benchmark.extra_info["figure3"] = summary
    assert summary["regions_increase_with_partitioning"]
    # More voter regions -> smaller probability that two shorted signals of
    # different domains share a region (the analytical form of Figure 3).
    assert summary["TMR_p1"]["same_region_collision_probability"] < \
        summary["TMR_p3"]["same_region_collision_probability"]


def test_figure4_filter_architectures(benchmark, design_suite):
    summary = benchmark.pedantic(lambda: figure4_summary(design_suite),
                                 rounds=1, iterations=1)
    benchmark.extra_info["figure4"] = summary

    inventory = summary["component_inventory"]
    assert inventory["multipliers"] == design_suite.spec.taps
    assert inventory["adders"] == design_suite.spec.taps - 1
    assert inventory["registers"] == design_suite.spec.taps - 1

    # Figure 4a/4b/4c: strictly decreasing voter usage from the maximum to
    # the minimum partition, and no barrier voters at all in the minimum one.
    assert summary["TMR_p1"]["voter_luts"] > summary["TMR_p2"]["voter_luts"] \
        > summary["TMR_p3"]["voter_luts"] > summary["TMR_p3_nv"]["voter_luts"]
    assert summary["TMR_p3"]["voters_by_role"]["barrier"] == 0
    assert summary["TMR_p3_nv"]["voters_by_role"]["register"] == 0
    # The medium partition votes exactly the adder outputs (one multiplier +
    # one adder per voted block).
    expected_blocks = inventory["adders"] + inventory["registers"]
    assert summary["TMR_p2"]["voted_blocks"] == expected_blocks
