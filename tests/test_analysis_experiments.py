"""Tests for the analysis reports, optimizer and experiment drivers."""

import pytest

from repro.analysis import (area_overhead, best_partition,
                            format_resource_table,
                            improvement_factor, performance_degradation,
                            resource_row, resource_table,
                            routing_effect_share)
from repro.core import EveryKth, NoPartition, pareto_front, sweep_partitions
from repro.experiments import (DESIGN_ORDER, PAPER_TABLE3_PERCENT, SCALES,
                               build_design_suite,
                               figure2_summary, fir_spec_for, run_figures,
                               scale_by_name, tmr_configs)
from repro.faults import CampaignConfig, run_campaign


class TestResourceAnalysis:
    def test_resource_row_fields(self, tiny_fir_implementation):
        row = resource_row("standard", tiny_fir_implementation)
        assert row.total_bits == row.routing_bits + row.lut_bits + row.ff_bits
        assert 0.5 < row.routing_fraction < 1.0
        assert row.as_dict()["design"] == "standard"

    def test_resource_table_and_overheads(self, tiny_fir_implementation,
                                          tiny_tmr_implementation):
        implementations = {"standard": tiny_fir_implementation,
                           "TMR_p2": tiny_tmr_implementation}
        rows = resource_table(implementations,
                              order=["standard", "TMR_p2"])
        overhead = area_overhead(rows, "standard")
        assert overhead["standard"] == 1.0
        assert overhead["TMR_p2"] > 2.0
        slowdown = performance_degradation(rows, "standard")
        assert slowdown["TMR_p2"] <= 1.05
        assert "Table 2" in format_resource_table(rows)
        with pytest.raises(KeyError):
            area_overhead(rows, "missing")


class TestRobustnessAnalysis:
    @pytest.fixture(scope="class")
    def campaigns(self, tiny_fir_implementation, tiny_tmr_implementation):
        config = CampaignConfig(num_faults=120, workload_cycles=8)
        return {
            "standard": run_campaign(tiny_fir_implementation, config),
            "TMR_p2": run_campaign(tiny_tmr_implementation, config),
        }

    def test_tmr_better_than_unprotected(self, campaigns):
        assert campaigns["TMR_p2"].wrong_answer_percent < \
            campaigns["standard"].wrong_answer_percent

    def test_improvement_and_best(self, campaigns):
        factor = improvement_factor(campaigns, "standard", "TMR_p2")
        assert factor > 1
        assert best_partition(campaigns) == "TMR_p2"

    def test_routing_effect_share(self, campaigns):
        share = routing_effect_share(campaigns["standard"])
        assert 0.0 <= share <= 1.0


class TestOptimizer:
    def test_sweep_orders_candidates(self, tiny_fir):
        netlist, _spec, top, _components = tiny_fir
        sweep = sweep_partitions(netlist, top,
                                 strategies=[NoPartition(), EveryKth(2),
                                             EveryKth(1)])
        assert len(sweep.candidates) == 3
        # more voters -> lower analytical defeat probability
        by_voters = sorted(sweep.candidates, key=lambda c: c.voter_area_luts)
        assert by_voters[0].defeat_probability >= \
            by_voters[-1].defeat_probability
        assert sweep.best in sweep.candidates
        table = sweep.table()
        assert len(table) == 3 and "defeat_probability" in table[0]

    def test_voter_cost_weight_changes_choice(self, tiny_fir):
        netlist, _spec, top, _components = tiny_fir
        cheap = sweep_partitions(netlist, top,
                                 strategies=[NoPartition(), EveryKth(1)],
                                 voter_cost_weight=1.0)
        assert cheap.best.strategy.name == "min"

    def test_pareto_front(self, tiny_fir):
        netlist, _spec, top, _components = tiny_fir
        sweep = sweep_partitions(netlist, top,
                                 strategies=[NoPartition(), EveryKth(2),
                                             EveryKth(1)])
        front = pareto_front(sweep.candidates)
        assert front
        assert all(candidate in sweep.candidates for candidate in front)


class TestExperimentScaffolding:
    def test_scales_defined(self):
        assert set(SCALES) == {"paper", "fast", "smoke", "tiny", "huge"}
        assert scale_by_name("paper").taps == 11
        assert scale_by_name("huge").campaign_faults == 1_000_000
        with pytest.raises(KeyError):
            scale_by_name("gigantic")

    def test_fir_spec_for_paper_scale(self):
        spec = fir_spec_for(scale_by_name("paper"))
        assert spec.taps == 11 and spec.data_width == 9

    def test_tmr_configs_cover_paper_versions(self):
        configs = tmr_configs()
        assert set(configs) == {"TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv"}
        assert configs["TMR_p3_nv"].vote_registers is False
        assert set(DESIGN_ORDER) == set(configs) | {"standard"}

    def test_paper_reference_numbers(self):
        assert PAPER_TABLE3_PERCENT["TMR_p2"] == pytest.approx(0.98)
        assert PAPER_TABLE3_PERCENT["standard"] > 90

    def test_build_design_suite_smoke(self):
        suite = build_design_suite("smoke")
        assert set(suite.flat) == set(DESIGN_ORDER)
        assert set(suite.tmr) == set(tmr_configs())
        standard_luts = sum(
            v for k, v in suite.flat["standard"].count_primitives().items()
            if k.startswith("LUT"))
        tmr_luts = sum(
            v for k, v in suite.flat["TMR_p1"].count_primitives().items()
            if k.startswith("LUT"))
        assert tmr_luts > 3 * standard_luts

    def test_figures_summaries(self):
        suite = build_design_suite("smoke")
        summary = run_figures(suite)
        assert summary["figure1"]["inputs_triplicated"]
        assert summary["figure1"]["domains_isolated_outside_voters"]
        assert summary["figure2"]["voters_per_bit_per_domain"]
        assert summary["figure2"]["domain_outputs_agree"]
        assert summary["figure3"]["regions_increase_with_partitioning"]
        inventory = summary["figure4"]["component_inventory"]
        assert inventory["multipliers"] == suite.spec.taps

    def test_figure2_is_self_contained(self):
        summary = figure2_summary()
        assert summary["flip_flops"] == 12
        assert summary["voters"] == 12
