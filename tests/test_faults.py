"""Tests for fault models, fault lists, injection and campaigns."""

import pytest

from repro.faults import (CampaignConfig, CampaignContext,
                          FaultListManager, FaultModeler, categories,
                          format_table, run_campaign,
                          table3_report, table4_report)
from repro.fpga import lut_bit, pip_resource, slice_cfg
from repro.sim import CompiledDesign, stimulus_from_samples, random_samples

from oracles.campaign import effect_of_bit, evaluate


@pytest.fixture(scope="module")
def implementation(tiny_fir_implementation):
    return tiny_fir_implementation


@pytest.fixture(scope="module")
def compiled(implementation):
    return CompiledDesign(implementation.design)


@pytest.fixture(scope="module")
def modeler(implementation, compiled):
    return FaultModeler(implementation, compiled)


@pytest.fixture(scope="module")
def fault_lists(implementation):
    manager = FaultListManager(implementation)
    return {mode: manager.build(mode)
            for mode in ("design", "extended", "programmed")}


class TestFaultList:
    def test_modes_are_nested_supersets(self, fault_lists):
        design = set(fault_lists["design"].bits)
        extended = set(fault_lists["extended"].bits)
        programmed = set(fault_lists["programmed"].bits)
        assert design <= extended
        assert len(programmed) < len(design)

    def test_no_duplicates(self, fault_lists):
        for fault_list in fault_lists.values():
            assert len(fault_list.bits) == len(set(fault_list.bits))

    def test_composition_accounts_for_all_bits(self, fault_lists):
        fault_list = fault_lists["design"]
        assert sum(fault_list.composition.values()) == len(fault_list)
        assert fault_list.composition["routing"] > \
            fault_list.composition["lut"]

    def test_design_list_matches_table2_accounting(self, implementation,
                                                   fault_lists):
        stats = implementation.resources.stats
        assert len(fault_lists["design"]) == stats.total

    def test_sampling_is_deterministic(self, fault_lists):
        fault_list = fault_lists["design"]
        assert fault_list.sample(50, seed=1) == fault_list.sample(50, seed=1)
        assert fault_list.sample(50, seed=1) != fault_list.sample(50, seed=2)
        assert fault_list.sample(len(fault_list)) == fault_list.bits
        # Monte-Carlo draws beyond the population cover every bit once and
        # extend with a reproducible with-replacement tail (huge scale).
        oversample = fault_list.sample(len(fault_list) + 20, seed=3)
        assert len(oversample) == len(fault_list) + 20
        assert oversample[:len(fault_list)] == fault_list.bits
        assert set(oversample[len(fault_list):]) <= set(fault_list.bits)
        assert oversample == fault_list.sample(len(fault_list) + 20, seed=3)

    def test_unknown_mode_rejected(self, implementation):
        with pytest.raises(ValueError):
            FaultListManager(implementation).build("bogus")


class TestFaultModels:
    def test_lut_bit_fault(self, implementation, modeler, compiled):
        site = implementation.resources.lut_sites[0]
        resource = lut_bit(site.x, site.y, site.slot, 0)
        bit = implementation.layout.bit_of(resource)
        effect = modeler.effect_of_bit(bit)
        assert effect.category == categories.LUT
        assert effect.has_effect
        gate_index = compiled.gate_index_by_name[site.cell]
        assert gate_index in effect.overlay.lut_init_overrides

    def test_lut_unused_region_has_no_effect(self, implementation, modeler):
        site = next(s for s in implementation.resources.lut_sites
                    if s.logical_inputs < 4)
        resource = lut_bit(site.x, site.y, site.slot, 15)
        effect = modeler.effect_of_bit(
            implementation.layout.bit_of(resource))
        assert effect.category == categories.LUT
        assert not effect.has_effect

    def test_unused_lut_site_has_no_effect(self, implementation, modeler):
        used = {(s.x, s.y, s.slot)
                for s in implementation.resources.lut_sites}
        device = implementation.device
        free = next((x, y, slot) for x in range(device.columns)
                    for y in range(device.rows) for slot in ("F", "G")
                    if (x, y, slot) not in used)
        effect = modeler.effect_of_bit(
            implementation.layout.bit_of(lut_bit(*free, 0)))
        assert not effect.has_effect

    def test_ff_init_fault(self, implementation, modeler):
        site = implementation.resources.ff_sites[0]
        suffix = "X" if site.slot == "FFX" else "Y"
        resource = slice_cfg(site.x, site.y, f"FF{suffix}_INIT")
        effect = modeler.effect_of_bit(
            implementation.layout.bit_of(resource))
        assert effect.category == categories.INITIALIZATION
        assert effect.has_effect
        assert effect.overlay.ff_init_overrides

    def test_open_fault_on_used_pip(self, implementation, modeler):
        pip = next(iter(implementation.resources.used_pips))
        effect = modeler.effect_of_bit(
            implementation.layout.bit_of(pip_resource(pip)))
        assert effect.category == categories.OPEN
        assert effect.has_effect

    def test_every_design_bit_classifies(self, implementation, modeler,
                                         fault_lists):
        sample = fault_lists["design"].sample(150, seed=7)
        for bit in sample:
            effect = modeler.effect_of_bit(bit)
            assert effect.category in categories.TABLE4_ORDER

    def test_routing_categories_present(self, implementation, modeler,
                                        fault_lists):
        sample = fault_lists["design"].sample(600, seed=3)
        seen = {modeler.effect_of_bit(bit).category for bit in sample}
        assert categories.OPEN in seen
        assert categories.BRIDGE in seen or categories.CONFLICT in seen


class TestInjector:
    def test_injection_produces_wrong_answers(self, implementation,
                                              fault_lists):
        samples = random_samples(10, 4, seed=11)
        context = CampaignContext(implementation,
                                  stimulus_from_samples(samples))
        wrong = 0
        for bit in fault_lists["programmed"].sample(60, seed=5):
            result = evaluate(context, effect_of_bit(context, bit))
            wrong += result.wrong_answer
        assert wrong > 0

    def test_silent_fault_reports_no_mismatch(self, implementation):
        samples = random_samples(6, 4, seed=12)
        context = CampaignContext(implementation,
                                  stimulus_from_samples(samples))
        site = next(s for s in implementation.resources.lut_sites
                    if s.logical_inputs < 4)
        bit = implementation.layout.bit_of(
            lut_bit(site.x, site.y, site.slot, 15))
        result = evaluate(context, effect_of_bit(context, bit))
        assert not result.has_effect and not result.wrong_answer


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self, implementation):
        config = CampaignConfig(num_faults=150, workload_cycles=8, seed=3)
        return run_campaign(implementation, config)

    def test_campaign_counts_consistent(self, campaign):
        assert campaign.injected == 150
        assert campaign.wrong_answers == sum(
            1 for r in campaign.results if r.wrong_answer)
        assert 0 <= campaign.wrong_answer_percent <= 100
        by_category_total = sum(c.injected
                                for c in campaign.by_category.values())
        assert by_category_total == campaign.injected

    def test_unprotected_filter_is_vulnerable(self, campaign):
        assert campaign.wrong_answer_percent > 10

    def test_effect_table_only_counts_wrong(self, campaign):
        table = campaign.effect_table()
        assert sum(table.values()) == campaign.wrong_answers

    def test_reports_render(self, campaign):
        results = {"standard": campaign}
        assert "standard" in table3_report(results)
        assert "Open" in table4_report(results)
        assert format_table(["a"], [[1]])

    def test_campaign_reproducible(self, implementation):
        config = CampaignConfig(num_faults=40, workload_cycles=6, seed=9)
        first = run_campaign(implementation, config)
        second = run_campaign(implementation, config)
        assert first.wrong_answers == second.wrong_answers
        assert [r.bit for r in first.results] == \
            [r.bit for r in second.results]
