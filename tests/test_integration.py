"""Integration tests of the paper's central mechanism.

These tests exercise the claim behind Figures 1 and 3 end to end: a routing
upset confined to one TMR domain is always masked; an upset coupling two
domains defeats the TMR exactly when both corrupted signals live in the same
voter region, and partitioning the logic with voters blocks it.
"""

import pytest

from repro.core import check_domain_isolation
from repro.faults import CampaignConfig, categories, run_campaign
from repro.netlist import flatten
from repro.sim import (BLEND_SHORT, CompiledDesign, FaultOverlay,
                       Simulator, SourceOverride, compare_traces,
                       random_samples, tmr_stimulus_from_samples)

from oracles.behaviour import fir_reference


def _compiled_variant(tiny_fir, tiny_tmr_suite, name, flat_name):
    netlist, spec, _top, _components = tiny_fir
    flat = flatten(netlist, tiny_tmr_suite[name].definition,
                   flat_name=flat_name)
    return spec, flat, CompiledDesign(flat)


def _nets_of_block_and_domain(compiled, block_keyword, domain):
    """Indices of nets driven by cells of one component copy in one domain."""
    nets = []
    for gate in compiled.gates:
        properties = gate.instance.properties
        if properties.get("domain") != domain:
            continue
        if block_keyword not in gate.instance.name:
            continue
        if properties.get("voter"):
            continue
        nets.append(gate.output_net)
    return nets


def _cross_domain_bridge_overlay(compiled, net_a, net_b):
    """Short two nets: both sides read an unknown whenever they disagree."""
    overlay = FaultOverlay()
    blend_ab = SourceOverride.blend_of(net_a, net_b, BLEND_SHORT)
    overlay.net_overrides[net_a] = blend_ab
    overlay.net_overrides[net_b] = SourceOverride.blend_of(net_b, net_a,
                                                           BLEND_SHORT)
    overlay.seed_nets = [net_a, net_b]
    overlay.comb_passes = 3
    return overlay


class TestVoterBarrierMechanism:
    """Upset "b" of Figure 1/3: a short between two redundant domains."""

    def _run(self, spec, compiled, overlay):
        samples = random_samples(12, spec.data_width, seed=77)
        stimulus = tmr_stimulus_from_samples(samples)
        golden = Simulator(compiled).run(stimulus)
        faulty = Simulator(compiled, overlay).run(stimulus)
        return compare_traces(faulty, golden), golden, samples

    def test_same_region_cross_domain_short_defeats_unpartitioned_tmr(
            self, tiny_fir, tiny_tmr_suite):
        # Short a multiplier-internal signal of domain 0 against an
        # adder-internal signal of domain 1: two *different* signals, so the
        # wired-AND corrupts both domains, and with no voter barriers both
        # corruptions reach the final voter.
        spec, _flat, compiled = _compiled_variant(
            tiny_fir, tiny_tmr_suite, "p3_nv", "int_p3nv")
        nets_domain0 = _nets_of_block_and_domain(compiled, "mult_1", 0)
        nets_domain1 = _nets_of_block_and_domain(compiled, "add_1", 1)
        assert nets_domain0 and nets_domain1
        overlay = _cross_domain_bridge_overlay(compiled, nets_domain0[0],
                                               nets_domain1[0])
        comparison, _golden, _samples = self._run(spec, compiled, overlay)
        assert comparison.wrong_answer, \
            "a cross-domain short inside one voter region must defeat " \
            "minimum-partition TMR"

    def test_voter_barrier_blocks_cross_domain_short(self, tiny_fir,
                                                     tiny_tmr_suite):
        """The same short is masked when the two corrupted signals live in
        different voter regions (maximum partition): Figure 3's upset "b"."""
        spec, _flat, compiled = _compiled_variant(
            tiny_fir, tiny_tmr_suite, "p1", "int_p1")
        nets_domain0 = _nets_of_block_and_domain(compiled, "mult_1", 0)
        nets_domain1 = _nets_of_block_and_domain(compiled, "add_1", 1)
        assert nets_domain0 and nets_domain1
        overlay = _cross_domain_bridge_overlay(compiled, nets_domain0[0],
                                               nets_domain1[0])
        comparison, _golden, _samples = self._run(spec, compiled, overlay)
        assert not comparison.wrong_answer, \
            "voter barriers must mask a short whose two victims are in " \
            "different voter regions"

    def test_single_domain_short_always_masked(self, tiny_fir,
                                               tiny_tmr_suite):
        """Upset "a" of Figure 1: both shorted signals in the same domain."""
        spec, _flat, compiled = _compiled_variant(
            tiny_fir, tiny_tmr_suite, "p3", "int_p3_single")
        nets_domain0 = _nets_of_block_and_domain(compiled, "mult_1", 0)
        other_domain0 = _nets_of_block_and_domain(compiled, "add_1", 0)
        assert nets_domain0 and other_domain0
        overlay = _cross_domain_bridge_overlay(compiled, nets_domain0[0],
                                               other_domain0[0])
        comparison, _golden, _samples = self._run(spec, compiled, overlay)
        assert not comparison.wrong_answer

    def test_tmr_still_correct_without_faults(self, tiny_fir,
                                              tiny_tmr_suite):
        netlist, spec, _top, _components = tiny_fir
        for name in ("p1", "p2"):
            flat = netlist.find_definition(f"int_{name}") \
                if netlist.find_definition(f"int_{name}") is not None \
                else flatten(netlist, tiny_tmr_suite[name].definition,
                             flat_name=f"int_check_{name}")
            compiled = CompiledDesign(flat)
            samples = random_samples(10, spec.data_width, seed=13)
            trace = Simulator(compiled).run(
                tmr_stimulus_from_samples(samples))
            assert trace.output_ints("DOUT") == fir_reference(spec, samples)


class TestImplementedCampaignOrdering:
    """End-to-end (placed and routed) sanity of the Table 3 ordering on the
    tiny configuration: TMR protects, unvoted registers protect less."""

    @pytest.fixture(scope="class")
    def campaign_results(self, tiny_fir, tiny_tmr_suite,
                         tiny_fir_implementation):
        from repro.fpga import device_by_name
        from repro.pnr import implement

        netlist, _spec, _top, _components = tiny_fir
        config = CampaignConfig(num_faults=500, workload_cycles=10, seed=21)
        results = {"standard": run_campaign(tiny_fir_implementation, config)}
        for name in ("p2", "p3_nv"):
            flat = flatten(netlist, tiny_tmr_suite[name].definition,
                           flat_name=f"campaign_{name}")
            implementation = implement(flat, device_by_name("XC2S50E"),
                                       anneal_moves_per_slice=2)
            results[name] = run_campaign(implementation, config)
        return results

    def test_tmr_reduces_wrong_answers(self, campaign_results):
        assert campaign_results["p2"].wrong_answer_percent < \
            campaign_results["standard"].wrong_answer_percent / 3

    def test_unvoted_registers_not_better_than_voted_partition(
            self, campaign_results):
        assert campaign_results["p2"].wrong_answer_percent <= \
            campaign_results["p3_nv"].wrong_answer_percent + 0.5

    def test_lut_upsets_never_defeat_tmr(self, campaign_results):
        for name in ("p2", "p3_nv"):
            lut_bucket = campaign_results[name].by_category.get(
                categories.LUT)
            assert lut_bucket is None or lut_bucket.wrong == 0

    def test_domain_isolation_preserved_after_flatten(self, tiny_fir,
                                                      tiny_tmr_suite):
        netlist, _spec, _top, _components = tiny_fir
        result = tiny_tmr_suite["p2"]
        report = check_domain_isolation(result.definition)
        assert report.ok
