"""Tests for the upset-model axis (single / mbu / accumulate).

The satellite requirements: multi-bit fault lists are deterministic under
a fixed seed and sampled without replacement, and the ``single`` model
stays bit-identical to the seed campaign across every engine backend.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults import (AccumulatedUpset, CampaignConfig, FaultList,
                          MultiBitUpset, SingleUpset, UpsetModel,
                          merged_effect, resolve_upset_model, run_campaign)
from repro.faults.engine import CampaignContext
from repro.fpga.config import lut_bit

from oracles.campaign import effect_of_bit


@pytest.fixture()
def fault_list():
    return FaultList("design", bits=list(range(0, 600, 3)), composition={})


class TestResolveUpsetModel:
    def test_default_is_single(self):
        assert isinstance(resolve_upset_model(None), SingleUpset)
        assert resolve_upset_model(None).describe() == "single"

    def test_names_and_parameters(self):
        assert isinstance(resolve_upset_model("single"), SingleUpset)
        model = resolve_upset_model("mbu:3")
        assert isinstance(model, MultiBitUpset) and model.size == 3
        model = resolve_upset_model("accumulate:8")
        assert isinstance(model, AccumulatedUpset) and model.interval == 8
        assert resolve_upset_model("mbu").size == 2
        assert resolve_upset_model("accumulate").interval == 4

    def test_aliases_instances_and_classes(self):
        assert isinstance(resolve_upset_model("mcu:2"), MultiBitUpset)
        assert isinstance(resolve_upset_model("scrub"), AccumulatedUpset)
        instance = MultiBitUpset(5)
        assert resolve_upset_model(instance) is instance
        assert isinstance(resolve_upset_model(SingleUpset), SingleUpset)

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown upset model"):
            resolve_upset_model("massive")
        with pytest.raises(ValueError, match="integer"):
            resolve_upset_model("mbu:lots")
        with pytest.raises(ValueError, match="no parameter"):
            resolve_upset_model("single:2")
        with pytest.raises(TypeError):
            resolve_upset_model(3.14)
        with pytest.raises(ValueError):
            MultiBitUpset(0)
        with pytest.raises(ValueError):
            AccumulatedUpset(0)


class TestInjectionSampling:
    def test_single_matches_seed_sampling(self, fault_list):
        groups = SingleUpset().injections(fault_list, 40, seed=7)
        assert groups == [(bit,) for bit in fault_list.sample(40, 7)]

    def test_single_view_is_a_read_only_sequence(self, fault_list):
        groups = SingleUpset().injections(fault_list, 40, seed=7)
        bits = fault_list.sample(40, 7)
        assert len(groups) == 40
        assert groups[3] == (bits[3],) and groups[-1] == (bits[-1],)
        assert groups[5:9] == [(bit,) for bit in bits[5:9]]
        assert list(groups) == [(bit,) for bit in bits]
        with pytest.raises(TypeError):
            groups[0] = (1,)

    def test_deterministic_under_fixed_seed(self, fault_list):
        for model in (SingleUpset(), MultiBitUpset(3), AccumulatedUpset(5)):
            first = model.injections(fault_list, 50, seed=11, total_bits=600)
            second = model.injections(fault_list, 50, seed=11,
                                      total_bits=600)
            assert first == second
            other = model.injections(fault_list, 50, seed=12, total_bits=600)
            assert first != other

    def test_sampled_without_replacement(self, fault_list):
        for model in (SingleUpset(), MultiBitUpset(2), AccumulatedUpset(4)):
            groups = model.injections(fault_list, 60, seed=3,
                                      total_bits=600)
            primaries = [group[0] for group in groups] \
                if not isinstance(model, AccumulatedUpset) \
                else [bit for group in groups for bit in group]
            assert len(primaries) == len(set(primaries))

    def test_mbu_clusters_are_contiguous(self, fault_list):
        model = MultiBitUpset(3)
        for group in model.injections(fault_list, 40, seed=5,
                                      total_bits=600):
            assert 1 <= len(group) <= 3
            ordered = sorted(group)
            # a physical strike flips a contiguous window of cells
            assert ordered == list(range(ordered[0], ordered[-1] + 1))
            assert group[0] in ordered

    def test_mbu_stays_contiguous_at_address_space_top(self):
        narrow = FaultList("design", bits=[9], composition={})
        assert MultiBitUpset(2).injections(narrow, 1, seed=1,
                                           total_bits=10) == [(9, 8)]
        # size 3 at the edge grows downward without holes (9,8,7 — not
        # the reflected-with-a-gap 9,?,7 pattern)
        assert MultiBitUpset(3).injections(narrow, 1, seed=1,
                                           total_bits=10) == [(9, 8, 7)]
        # a one-bit address space cannot grow at all
        assert MultiBitUpset(4).injections(narrow, 1, seed=1,
                                           total_bits=10) == [(9, 8, 7, 6)]

    def test_accumulate_partitions_the_sample(self, fault_list):
        model = AccumulatedUpset(4)
        groups = model.injections(fault_list, 42, seed=9)
        flattened = [bit for group in groups for bit in group]
        assert flattened == fault_list.sample(42, 9)
        assert [len(group) for group in groups] == [4] * 10 + [2]

    def test_custom_model_plugs_in(self, fault_list,
                                   tiny_fir_implementation):
        class EveryOther(UpsetModel):
            name = "every-other"

            def injections(self, fault_list, count, seed, total_bits=None):
                sample = fault_list.sample(count, seed)
                return [tuple(sample[i:i + 2])
                        for i in range(0, len(sample), 2)]

        config = CampaignConfig(num_faults=12, workload_cycles=6,
                                upset_model=EveryOther())
        result = run_campaign(tiny_fir_implementation, config)
        assert result.injected == 6
        assert result.upset_model == "every-other"


class TestMergedEffect:
    def test_lut_flips_compose_by_xor(self, tiny_fir_implementation):
        implementation = tiny_fir_implementation
        context = CampaignContext(implementation)
        site = implementation.resources.lut_sites[0]
        layout = implementation.layout
        bits = [layout.bit_of(lut_bit(site.x, site.y, site.slot, table_bit))
                for table_bit in range(2)]
        effects = [effect_of_bit(context, bit) for bit in bits]
        merged = merged_effect(tuple(bits), effects, context.compiled)
        (gate_index,) = set(effects[0].overlay.lut_init_overrides) \
            | set(effects[1].overlay.lut_init_overrides)
        base = context.compiled.gates[gate_index].init
        assert merged.overlay.lut_init_overrides[gate_index] == base ^ 0b11
        assert merged.category == effects[0].category
        assert "2-bit upset" in merged.detail

    def test_single_constituent_passes_through(self, tiny_fir_implementation):
        context = CampaignContext(tiny_fir_implementation)
        effect = effect_of_bit(context, 0)
        assert merged_effect((0,), [effect], context.compiled) is effect

    def test_seed_nets_union_and_passes(self, tiny_fir_implementation):
        context = CampaignContext(tiny_fir_implementation)
        fault_list = context.cache_entry.fault_list("design",
                                                    context.stats) \
            if context.cache_entry else None
        # Any two distinct effectful bits will do.
        from repro.faults import FaultListManager

        bits = FaultListManager(tiny_fir_implementation).build("design").bits
        effectful = []
        for bit in bits:
            effect = effect_of_bit(context, bit)
            if effect.has_effect and effect.overlay.seed_nets:
                effectful.append((bit, effect))
            if len(effectful) == 2:
                break
        (bit_a, effect_a), (bit_b, effect_b) = effectful
        merged = merged_effect((bit_a, bit_b), [effect_a, effect_b],
                               context.compiled)
        assert set(merged.overlay.seed_nets) == \
            set(effect_a.overlay.seed_nets) | set(effect_b.overlay.seed_nets)
        assert merged.overlay.comb_passes == max(
            effect_a.overlay.comb_passes, effect_b.overlay.comb_passes)


class TestCampaignIntegration:
    """End-to-end campaigns under every model, across engine backends."""

    BACKENDS = ("serial", "vector")

    def _results(self, implementation, model, backend, num_faults=50):
        config = CampaignConfig(num_faults=num_faults, workload_cycles=6,
                                upset_model=model)
        result = run_campaign(implementation, config, backend=backend)
        return result, [dataclasses.asdict(r) for r in result.results]

    def test_single_bit_identical_to_seed_semantics(
            self, tiny_tmr_implementation):
        """``single`` must reproduce the historical explicit-bit path."""
        config = CampaignConfig(num_faults=50, workload_cycles=6)
        from repro.faults import FaultListManager

        fault_list = FaultListManager(tiny_tmr_implementation).build(
            "design")
        explicit = run_campaign(
            tiny_tmr_implementation, config,
            fault_bits=fault_list.sample(50, config.seed))
        for backend in self.BACKENDS:
            modeled, rows = self._results(tiny_tmr_implementation,
                                          "single", backend)
            assert rows == [dataclasses.asdict(r)
                            for r in explicit.results]
            assert modeled.wrong_answers == explicit.wrong_answers
            assert modeled.upset_model == "single"

    def test_single_view_models_like_tuple_groups(
            self, tiny_tmr_implementation):
        """The view's bit column is modelled as its ``(bit,)`` groups."""
        from repro.faults import FaultListManager

        fault_list = FaultListManager(tiny_tmr_implementation).build(
            "design")
        context = CampaignContext(tiny_tmr_implementation)
        view = SingleUpset().injections(fault_list, 50, seed=5)
        from_view = context.tasks_for_groups(view)
        from_tuples = context.tasks_for_groups(list(view))
        assert from_view.clusters is None and from_tuples.clusters is None
        assert list(from_view.bits) == list(from_tuples.bits)
        assert list(from_view.slots) == list(from_tuples.slots)

    @pytest.mark.parametrize("model", ("mbu:2", "accumulate:4"))
    def test_multi_bit_backends_agree(self, tiny_tmr_implementation, model):
        reference, reference_rows = self._results(tiny_tmr_implementation,
                                                  model, "serial")
        result, rows = self._results(tiny_tmr_implementation, model,
                                     "vector")
        assert rows == reference_rows
        assert result.wrong_answers == reference.wrong_answers

    def test_multi_bit_deterministic_and_seed_stable(
            self, tiny_fir_implementation):
        first, first_rows = self._results(tiny_fir_implementation, "mbu:2",
                                          "vector")
        second, second_rows = self._results(tiny_fir_implementation,
                                            "mbu:2", "vector")
        assert first_rows == second_rows
        config = CampaignConfig(num_faults=50, workload_cycles=6,
                                upset_model="mbu:2", seed=99)
        other = run_campaign(tiny_fir_implementation, config,
                             backend="vector")
        assert [r.bit for r in other.results] != \
            [r["bit"] for r in first_rows]

    def test_accumulate_groups_count(self, tiny_fir_implementation):
        config = CampaignConfig(num_faults=50, workload_cycles=6,
                                upset_model="accumulate:8")
        result = run_campaign(tiny_fir_implementation, config)
        assert result.injected == 7  # ceil(50 / 8)
        assert result.upset_model == "accumulate:8"
        assert result.seed == config.seed

    def test_denser_upsets_do_not_reduce_vulnerability(
            self, tiny_fir_implementation):
        """Accumulated upsets can only hurt: per-injection wrong-answer
        probability under accumulation >= the single-bit one."""
        single = run_campaign(
            tiny_fir_implementation,
            CampaignConfig(num_faults=60, workload_cycles=6),
            backend="vector")
        accumulated = run_campaign(
            tiny_fir_implementation,
            CampaignConfig(num_faults=60, workload_cycles=6,
                           upset_model="accumulate:6"),
            backend="vector")
        assert accumulated.wrong_answer_percent >= \
            single.wrong_answer_percent
