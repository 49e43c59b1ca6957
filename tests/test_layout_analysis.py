"""Tests for the layout-aware defeat analyzer and the voter-region fix.

Covers the PR's acceptance properties:

* the voter-region regression (a registered design without intermediate
  voters must decompose into flip-flop/primary-input regions instead of
  one lumped region 0, and undomained nets must never leak into the
  region sizes);
* critical-path voter depth monotonicity across the paper's partitions;
* soundness of the static classification — every bit predicted silent
  measures ``wrong_answers == 0`` under the serial backend, and every
  measured wrong-answer bit was predicted defeat-capable.
"""

import gc
import hashlib
import json
import random

import pytest

from repro.analysis.layout import (CORRECTABLE, DEFEAT, SILENT,
                                   LayoutAnalyzer, defeat_map_for,
                                   layout_robustness,
                                   prediction_vs_campaign)
from repro.core import compute_voter_regions, estimate_robustness
from repro.core.optimizer import _estimate_extra_levels
from repro.faults import CampaignConfig, FaultListManager, run_campaign
from repro.fpga.config import KIND_LUT_BIT, KIND_SLICE_CFG

from oracles.flood import FloodAnalyzer


@pytest.fixture(scope="module")
def tmr_defeat_map(tiny_tmr_implementation):
    return defeat_map_for(tiny_tmr_implementation)


@pytest.fixture(scope="module")
def standard_defeat_map(tiny_fir_implementation):
    return defeat_map_for(tiny_fir_implementation)


class TestVoterRegionFix:
    def test_registered_unvoted_design_is_not_one_region(self,
                                                         tiny_tmr_suite):
        """The regression the seed code had: TMR_p3_nv has no in-domain
        voter outputs, so every net landed in one shared region 0 (a
        single region).  The fixed analysis seeds flip-flop outputs and
        disjoint primary-input cones separately."""
        report = compute_voter_regions(tiny_tmr_suite["p3_nv"].definition)
        assert report.num_regions >= 3
        assert any(label.startswith("ff:")
                   for label in report.region_seeds.values())
        assert any(label.startswith("input:")
                   for label in report.region_seeds.values())

    def test_undomained_nets_never_leak(self, tiny_tmr_suite):
        for result in tiny_tmr_suite.values():
            definition = result.definition
            report = compute_voter_regions(definition)
            for net_name in report.net_regions:
                net = definition.nets[net_name]
                assert net.properties.get("domain") == 0, net_name
            assert sum(report.region_sizes.values()) == \
                len(report.net_regions)

    def test_every_region_has_a_seed_label(self, tiny_tmr_suite):
        report = compute_voter_regions(tiny_tmr_suite["p2"].definition)
        assert set(report.region_seeds) == set(report.region_sizes)

    def test_regions_are_domain_symmetric(self, tiny_tmr_suite):
        """The three domains are structurally identical, so the region
        decomposition (count and size multiset) must match per domain."""
        definition = tiny_tmr_suite["p2"].definition
        reports = [compute_voter_regions(definition, domain)
                   for domain in range(3)]
        sizes = [sorted(report.region_sizes.values()) for report in reports]
        assert sizes[0] == sizes[1] == sizes[2]


class TestCriticalPathVoterDepth:
    def test_monotone_across_partitions(self, tiny_tmr_suite):
        levels = {name: _estimate_extra_levels(result)
                  for name, result in tiny_tmr_suite.items()}
        assert levels["p1"] >= levels["p2"] >= levels["p3"] \
            >= levels["p3_nv"] >= 1
        # The maximum partition stacks strictly more voters on the
        # critical path than the minimum one.
        assert levels["p1"] > levels["p3_nv"]

    def test_minimum_partition_counts_only_output_voter(self,
                                                        tiny_tmr_suite):
        # No intermediate voters and no voted registers: the only voter
        # level on any path is the final output voter.
        assert _estimate_extra_levels(tiny_tmr_suite["p3_nv"]) == 1

    def test_sweep_reports_path_depth_not_block_count(self, tiny_fir):
        from repro.core import sweep_partitions

        netlist, _spec, top, _components = tiny_fir
        sweep = sweep_partitions(netlist, top)
        by_name = {candidate.strategy.describe(): candidate
                   for candidate in sweep.candidates}
        assert by_name["max"].extra_logic_levels >= \
            by_name["min"].extra_logic_levels >= 1


class TestLayoutAnalyzer:
    def test_map_covers_the_fault_list(self, tiny_tmr_implementation,
                                       tmr_defeat_map):
        fault_list = FaultListManager(tiny_tmr_implementation).build()
        assert len(tmr_defeat_map) == len(set(fault_list.bits))
        counts = tmr_defeat_map.counts()
        assert sum(counts.values()) == len(tmr_defeat_map)
        assert counts[SILENT] > 0 and counts[DEFEAT] > 0

    def test_unprotected_design_has_no_correctable_bits(
            self, standard_defeat_map):
        # Without voters nothing can be out-voted: every effectful,
        # observable upset of the unprotected filter is defeat-capable.
        counts = standard_defeat_map.counts()
        assert counts[CORRECTABLE] == 0
        assert counts[DEFEAT] > 0

    def test_silent_bits_simulate_silent(self, tiny_tmr_implementation,
                                         tmr_defeat_map):
        """Soundness of the map's silent class: bits predicted silent
        must produce wrong_answers == 0 under the serial backend.  Every
        effectful silent bit (the ones whose overlay is not empty) is
        checked, plus a deterministic sample of the no-effect ones."""
        silent = frozenset(tmr_defeat_map.bits_of_class(SILENT))
        effectful = [bit for bit in sorted(silent)
                     if tmr_defeat_map.predictions[bit].has_effect][:200]
        sampled = random.Random(7).sample(
            sorted(silent), min(100, len(silent)))
        bits = sorted(set(effectful) | set(sampled))
        config = CampaignConfig(workload_cycles=8)
        result = run_campaign(tiny_tmr_implementation, config,
                              fault_bits=bits, backend="serial")
        assert result.wrong_answers == 0
        assert all(entry.first_mismatch_cycle is None
                   for entry in result.results)

    def test_defeat_capable_covers_measured_wrong_bits(
            self, tiny_tmr_implementation, tmr_defeat_map):
        config = CampaignConfig(num_faults=250, workload_cycles=8)
        result = run_campaign(tiny_tmr_implementation, config,
                              backend="vector")
        wrong_bits = {entry.bit for entry in result.results
                      if entry.wrong_answer}
        assert wrong_bits, "campaign found no wrong answers to validate"
        assert wrong_bits <= tmr_defeat_map.defeat_capable_bits()
        validation = prediction_vs_campaign(tmr_defeat_map, result.results)
        assert validation["superset_holds"]
        assert validation["silent_sound"]

    def test_unprotected_wrong_bits_are_covered_too(
            self, tiny_fir_implementation, standard_defeat_map):
        config = CampaignConfig(num_faults=200, workload_cycles=8)
        result = run_campaign(tiny_fir_implementation, config,
                              backend="vector")
        wrong_bits = {entry.bit for entry in result.results
                      if entry.wrong_answer}
        assert wrong_bits
        assert wrong_bits <= standard_defeat_map.defeat_capable_bits()

    def test_cross_domain_bits_span_two_domains(self, tmr_defeat_map):
        crossing = tmr_defeat_map.cross_domain_bits()
        assert crossing
        for bit in crossing[:50]:
            assert len(tmr_defeat_map.predictions[bit].domains) >= 2
        assert 0.0 <= tmr_defeat_map.defeat_probability() <= 1.0

    def test_layout_robustness_replaces_uniform_proxy(
            self, tiny_tmr_implementation, tmr_defeat_map):
        layout_estimate = estimate_robustness(
            tiny_tmr_implementation.design,
            implementation=tiny_tmr_implementation)
        # Passing a definition the implementation does not implement is
        # rejected instead of silently analyzed.
        from repro.netlist import Netlist

        other = Netlist("other").get_library("work").add_definition("other")
        with pytest.raises(ValueError, match="implements"):
            estimate_robustness(other,
                                implementation=tiny_tmr_implementation)
        direct = layout_robustness(tiny_tmr_implementation,
                                   defeat_map=tmr_defeat_map)
        assert layout_estimate.cross_domain_defeat_probability == \
            pytest.approx(tmr_defeat_map.defeat_probability())
        assert direct.num_regions >= 3
        assert direct.voter_count > 0

    def test_map_is_memoized_per_implementation(self,
                                                tiny_tmr_implementation,
                                                tmr_defeat_map):
        again = defeat_map_for(tiny_tmr_implementation)
        assert again is tmr_defeat_map


class TestVectorizedAnalyzer:
    """The vectorized map build is prediction-identical to the flood.

    The closure/bitmask fast path rewrote the per-bit classification
    loop; these tests pin it to the original per-net flood propagation:
    the same prediction for every bit (classification, category,
    domains, barriers, reach, detail) and therefore the same per-class
    counts — so every prediction and robustness number is unchanged by
    the optimization.
    """

    def _assert_equivalent(self, implementation):
        flood = FloodAnalyzer(implementation).build_map()
        vectorized = LayoutAnalyzer(implementation).build_map()
        assert vectorized.predictions == flood.predictions
        assert vectorized.counts() == flood.counts()
        for cls in (SILENT, CORRECTABLE, DEFEAT):
            assert vectorized.counts()[cls] == flood.counts()[cls]
        for defeat_map in (flood, vectorized):
            self._assert_aggregates_match_predictions(defeat_map)

    @staticmethod
    def _assert_aggregates_match_predictions(defeat_map):
        """The column tallies equal the per-prediction definitions."""
        predictions = dict(defeat_map.predictions)
        assert predictions == defeat_map.predictions == predictions
        assert len(predictions) == len(defeat_map.predictions)
        counts = {cls: 0 for cls in (SILENT, CORRECTABLE, DEFEAT)}
        by_category = {}
        for prediction in predictions.values():
            counts[prediction.classification] += 1
            bucket = by_category.setdefault(
                prediction.category,
                {cls: 0 for cls in (SILENT, CORRECTABLE, DEFEAT)})
            bucket[prediction.classification] += 1
        crossing = sorted(bit for bit, prediction in predictions.items()
                          if len(prediction.domains) >= 2)
        defeats = sum(1 for bit in crossing
                      if predictions[bit].classification == DEFEAT)
        probability = defeats / len(crossing) if crossing else 0.0
        assert defeat_map.counts() == counts
        assert defeat_map.cross_domain_bits() == crossing
        assert defeat_map.defeat_probability() == probability
        for cls in (SILENT, CORRECTABLE, DEFEAT):
            assert defeat_map.bits_of_class(cls) == sorted(
                bit for bit, prediction in predictions.items()
                if prediction.classification == cls)
        summary = defeat_map.summary()
        assert summary == {
            "design": defeat_map.design,
            "fault_list_mode": defeat_map.mode,
            "bits": len(predictions),
            "classes": counts,
            "by_category": by_category,
            "cross_domain_bits": len(crossing),
            "layout_defeat_probability": round(probability, 5),
        }
        # Report key order follows the first bit of each category.
        assert list(summary["by_category"]) == list(by_category)
        absent = max(predictions) + 1
        assert defeat_map.is_silent(absent) is False
        assert defeat_map.classification_of(absent) is None
        for bit, prediction in list(predictions.items())[:500]:
            assert defeat_map.is_silent(bit) == prediction.is_silent
            assert defeat_map.classification_of(bit) == \
                prediction.classification

    def test_tmr_map_matches_flood(self, tiny_tmr_implementation):
        self._assert_equivalent(tiny_tmr_implementation)

    def test_unprotected_map_matches_flood(self, tiny_fir_implementation):
        self._assert_equivalent(tiny_fir_implementation)

    @pytest.mark.parametrize("design", ["standard", "TMR"])
    def test_logic_bits_classify_like_the_flood(
            self, design, tiny_fir_implementation, tiny_tmr_implementation):
        # classify_bit reads the modeler's override rows, the path the
        # map build takes for every LUT and slice-configuration bit.
        implementation = tiny_fir_implementation if design == "standard" \
            else tiny_tmr_implementation
        analyzer = LayoutAnalyzer(implementation)
        flood = FloodAnalyzer(implementation)
        resource_of = implementation.layout.resource_of
        bits = [bit for bit in FaultListManager(implementation).build().bits
                if resource_of(bit)[0] in (KIND_LUT_BIT, KIND_SLICE_CFG)]
        kinds = {resource_of(bit)[0] for bit in bits}
        assert kinds == {KIND_LUT_BIT, KIND_SLICE_CFG}
        effectful = 0
        for bit in bits:
            prediction = analyzer.classify_bit(bit)
            assert prediction == flood.classify_bit(bit), bit
            effectful += prediction.has_effect
        assert 0 < effectful < len(bits)

    def test_unvoted_map_matches_flood(self, tiny_fir, tiny_tmr_suite):
        # The no-voter worst case exercises the antenna/LUT buckets with
        # no correctable class at all.
        from repro.fpga import device_by_name
        from repro.netlist import flatten
        from repro.pnr import implement

        netlist, _spec, _top, _components = tiny_fir
        flat = flatten(netlist, tiny_tmr_suite["p3_nv"].definition,
                       flat_name="fir_tiny_p3_nv_vec")
        implementation = implement(flat, device_by_name("XC2S50E"),
                                   anneal_moves_per_slice=2)
        self._assert_equivalent(implementation)


class TestColumnarMap:
    def test_build_keeps_no_per_bit_objects(self, tiny_tmr_implementation):
        """Timing-free work counter: a map holds columns, not one
        garbage-collected object per bit, so building one grows the
        tracked heap by far fewer objects than it has bits."""
        fault_list = FaultListManager(tiny_tmr_implementation).build()
        # Warm the implementation's own lazily built layout tables.
        LayoutAnalyzer(tiny_tmr_implementation).build_map(fault_list)
        gc.collect()
        before = len(gc.get_objects())
        analyzer = LayoutAnalyzer(tiny_tmr_implementation)
        defeat_map = analyzer.build_map(fault_list)
        del analyzer
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown < 0.1 * len(defeat_map), \
            f"{grown} tracked objects for {len(defeat_map)} bits"

    def test_predictions_view_is_read_only(self, tmr_defeat_map):
        from collections.abc import Mapping

        predictions = tmr_defeat_map.predictions
        assert isinstance(predictions, Mapping)
        assert len(predictions) == len(tmr_defeat_map)
        bit = next(iter(predictions))
        assert bit in predictions and predictions[bit].bit == bit
        assert max(predictions) + 1 not in predictions
        with pytest.raises(TypeError):
            predictions[bit] = predictions[bit]


#: sha256 of the ``prediction-vs-campaign`` report at ``tiny`` scale: its
#: stable ``designs`` and ``derived`` sections with every ``backend`` key
#: removed, dumped with sorted keys.  Recorded with the vector and numpy
#: backends before the campaign prefilter was deleted; the same recipe
#: pins the benchmark's reference digests.
PREDICTION_REPORT_DIGEST = \
    "6325182a9a4ba1e5859306713570f0e85f5ce8528e5178193eadedebf2b0ba73"


def _without_backend(value):
    if isinstance(value, dict):
        return {key: _without_backend(item) for key, item in value.items()
                if key != "backend"}
    if isinstance(value, list):
        return [_without_backend(item) for item in value]
    return value


class TestScenarioSurface:
    @pytest.mark.parametrize("backend", ["vector", "numpy"])
    def test_prediction_report_digest_is_pinned(self, backend):
        from repro.pipeline import stable_report
        from repro.scenarios import run_scenario

        stable = stable_report(run_scenario(
            "prediction-vs-campaign", scale="tiny", backend=backend))
        body = _without_backend({"designs": stable["designs"],
                                 "derived": stable["derived"]})
        text = json.dumps(body, sort_keys=True, default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            PREDICTION_REPORT_DIGEST

    def test_new_scenarios_registered(self):
        from repro.scenarios import SCENARIOS

        assert "defeat-map-fir" in SCENARIOS
        assert "prediction-vs-campaign" in SCENARIOS
        scenario = SCENARIOS["prediction-vs-campaign"]
        assert "prediction_vs_campaign" in scenario.analyses

    def test_analyses_registered(self):
        from repro.pipeline import ANALYSES

        assert "defeat_map" in ANALYSES
        assert "prediction_vs_campaign" in ANALYSES
