"""Tests for the TMR engine: triplication, voters, partitions (Figures 1-3)."""

import pytest

from repro.core import (DOMAIN_PROPERTY, NUM_DOMAINS, AllComponents,
                        ByComponentType, EveryKth, NoPartition, TMRConfig,
                        apply_tmr, build_voted_register,
                        check_domain_isolation, component_topological_order,
                        compute_voter_regions, estimate_robustness,
                        insert_majority_voter, is_register_component,
                        is_voter, register_components, voter_instances)
from repro.netlist import Netlist, flatten
from repro.sim import (CompiledDesign, Simulator, random_samples,
                       tmr_stimulus_from_samples)

from oracles.behaviour import fir_reference
from oracles.validate import validate_definition


class TestPartitionStrategies:
    def test_all_components_excludes_registers(self, tiny_fir):
        _netlist, _spec, top, components = tiny_fir
        selected = AllComponents().select(top)
        assert set(components.multipliers) <= selected
        assert set(components.adders) <= selected
        assert not (set(components.registers) & selected)

    def test_by_component_type(self, tiny_fir):
        _netlist, _spec, top, components = tiny_fir
        selected = ByComponentType(("adder",)).select(top)
        assert selected == set(components.adders)

    def test_no_partition_empty(self, tiny_fir):
        _netlist, _spec, top, _components = tiny_fir
        assert NoPartition().select(top) == set()

    def test_every_kth_granularity(self, tiny_fir):
        _netlist, _spec, top, _components = tiny_fir
        all_count = len(EveryKth(1).select(top))
        half_count = len(EveryKth(2).select(top))
        assert all_count > half_count >= 1
        assert all_count == len(AllComponents().select(top))
        with pytest.raises(ValueError):
            EveryKth(0)

    def test_component_topological_order(self, tiny_fir):
        _netlist, _spec, top, components = tiny_fir
        order = [inst.name for inst in component_topological_order(top)]
        assert set(order) == set(top.instances)
        # the multiplier of tap 0 feeds the first adder
        assert order.index(components.multipliers[0]) < \
            order.index(components.adders[0])

    def test_is_register_component(self, tiny_fir):
        _netlist, _spec, top, components = tiny_fir
        assert is_register_component(top.instances[components.registers[0]])
        assert not is_register_component(
            top.instances[components.multipliers[0]])
        assert len(register_components(top)) == len(components.registers)


class TestVoters:
    def test_insert_majority_voter_structure(self, netlist, cells, builder):
        nets = [builder.wire(f"in{i}") for i in range(3)]
        out = builder.wire("out")
        voter = insert_majority_voter(builder.definition, nets, out,
                                      cell_library=cells, domain=1,
                                      voted_net="sig")
        assert is_voter(voter)
        assert voter.reference.name == "LUT3"
        assert voter.properties[DOMAIN_PROPERTY] == 1
        assert voter_instances(builder.definition) == [voter]

    def test_insert_majority_voter_needs_three_inputs(self, netlist, cells,
                                                      builder):
        nets = [builder.wire("a"), builder.wire("b")]
        with pytest.raises(Exception):
            insert_majority_voter(builder.definition, nets,
                                  builder.wire("o"), cell_library=cells)

    def test_voted_register_macro(self):
        netlist = Netlist("vr")
        macro = build_voted_register(netlist, 3)
        counts = macro.count_primitives()
        assert counts["FD"] == 9          # 3 bits x 3 domains
        assert counts["LUT3"] == 9        # 3 voters per bit
        assert {"D_tr0", "C_tr1", "Q_tr2"} <= set(macro.ports)
        # reuse by name
        assert build_voted_register(netlist, 3) is macro

    def test_voted_register_masks_flip_flop_upset(self):
        netlist = Netlist("vr2")
        macro = build_voted_register(netlist, 2)
        netlist.set_top(macro)
        flat = flatten(netlist, macro)
        compiled = CompiledDesign(flat)
        # Corrupt one domain's flip-flop initial state: outputs still agree
        # with the uncorrupted value after the first load.
        from repro.sim import FaultOverlay

        overlay = FaultOverlay(ff_init_overrides={0: 1})
        stimulus = [{f"D_tr{d}": 0 for d in range(3)} for _ in range(2)]
        trace = Simulator(compiled, overlay).run(stimulus)
        for domain in range(3):
            assert trace.outputs[0][f"Q_tr{domain}"] == [0, 0]


class TestApplyTMR:
    def test_triplication_counts(self, tiny_fir, tiny_tmr_suite):
        _netlist, _spec, top, _components = tiny_fir
        result = tiny_tmr_suite["p3"]
        non_voter = [inst for inst in result.definition.instances.values()
                     if not is_voter(inst)]
        assert len(non_voter) == NUM_DOMAINS * len(top.instances)

    def test_input_ports_triplicated(self, tiny_tmr_suite):
        definition = tiny_tmr_suite["p3"].definition
        for domain in range(NUM_DOMAINS):
            assert f"DIN_tr{domain}" in definition.ports
            assert f"CLK_tr{domain}" in definition.ports
        assert "DOUT" in definition.ports

    def test_voter_counts_ordering(self, tiny_tmr_suite):
        p1 = tiny_tmr_suite["p1"].voter_count
        p2 = tiny_tmr_suite["p2"].voter_count
        p3 = tiny_tmr_suite["p3"].voter_count
        p3_nv = tiny_tmr_suite["p3_nv"].voter_count
        assert p1 > p2 > p3 > p3_nv
        # p3_nv has only the final output voters
        assert p3_nv == tiny_tmr_suite["p3_nv"].voters_by_role["output"]

    def test_intermediate_voters_triplicated(self, tiny_tmr_suite):
        result = tiny_tmr_suite["p2"]
        barrier_voters = [inst for inst in voter_instances(result.definition)
                          if inst.properties.get("voter") == "barrier"]
        assert len(barrier_voters) % NUM_DOMAINS == 0
        assert all(v.properties.get(DOMAIN_PROPERTY) is not None
                   for v in barrier_voters)

    def test_output_voter_single_per_bit(self, tiny_fir, tiny_tmr_suite):
        _netlist, spec, _top, _components = tiny_fir
        for result in tiny_tmr_suite.values():
            assert result.voters_by_role["output"] == spec.output_width

    def test_domain_isolation(self, tiny_tmr_suite):
        for name, result in tiny_tmr_suite.items():
            report = check_domain_isolation(result.definition)
            assert report.ok, f"{name}: {report.violations[:3]}"

    def test_flattened_tmr_is_valid(self, tiny_fir, tiny_tmr_suite):
        netlist, _spec, _top, _components = tiny_fir
        flat = flatten(netlist, tiny_tmr_suite["p1"].definition,
                       flat_name="p1_valid_check")
        assert validate_definition(flat).ok

    def test_tmr_functional_equivalence(self, tiny_fir, tiny_tmr_suite):
        netlist, spec, _top, _components = tiny_fir
        samples = random_samples(16, spec.data_width, seed=4)
        reference = fir_reference(spec, samples)
        for name, result in tiny_tmr_suite.items():
            flat = flatten(netlist, result.definition,
                           flat_name=f"func_{name}")
            compiled = CompiledDesign(flat)
            trace = Simulator(compiled).run(
                tmr_stimulus_from_samples(samples))
            assert trace.output_ints("DOUT") == reference, name

    def test_single_domain_lut_fault_is_masked(self, tiny_fir,
                                               tiny_tmr_suite):
        """Figure 1 upset "a": a fault confined to one domain is out-voted."""
        from repro.sim import FaultOverlay

        netlist, spec, _top, _components = tiny_fir
        flat = flatten(netlist, tiny_tmr_suite["p3"].definition,
                       flat_name="masked_check")
        compiled = CompiledDesign(flat)
        samples = random_samples(10, spec.data_width, seed=5)
        stimulus = tmr_stimulus_from_samples(samples)
        golden = Simulator(compiled).run(stimulus)

        # Corrupt one LUT that belongs to domain 0.
        victim = next(gate for gate in compiled.gates
                      if gate.instance.properties.get("domain") == 0
                      and gate.kind == 0 and gate.num_inputs >= 2)
        overlay = FaultOverlay(lut_init_overrides={victim.index:
                                                   victim.init ^ 0xFFFF})
        faulty = Simulator(compiled, overlay).run(stimulus)
        assert faulty.output_ints("DOUT") == golden.output_ints("DOUT")

    def test_unprotected_lut_fault_not_masked(self, tiny_fir,
                                              tiny_fir_compiled):
        from repro.sim import FaultOverlay

        _netlist, spec, _top, _components = tiny_fir
        samples = random_samples(10, spec.data_width, seed=5)
        from repro.sim import stimulus_from_samples

        stimulus = stimulus_from_samples(samples)
        golden = Simulator(tiny_fir_compiled).run(stimulus)
        victim = next(gate for gate in tiny_fir_compiled.gates
                      if gate.kind == 0 and gate.num_inputs >= 2)
        overlay = FaultOverlay(lut_init_overrides={victim.index:
                                                   victim.init ^ 0xF})
        faulty = Simulator(tiny_fir_compiled, overlay).run(stimulus)
        assert faulty.output_ints("DOUT") != golden.output_ints("DOUT")

    def test_tmr_config_describe(self):
        config = TMRConfig(partition=AllComponents(), vote_registers=False)
        description = config.describe()
        assert "max" in description and "unvoted-regs" in description

    def test_duplicate_tmr_name_rejected(self, tiny_fir):
        netlist, _spec, top, _components = tiny_fir
        with pytest.raises(Exception):
            apply_tmr(netlist, top, TMRConfig(name_suffix="_t_p1"))


class TestAnalysis:
    def test_voter_regions_increase_with_partitioning(self, tiny_tmr_suite):
        regions = {name: compute_voter_regions(result.definition).num_regions
                   for name, result in tiny_tmr_suite.items()}
        assert regions["p1"] > regions["p2"] > regions["p3_nv"]

    def test_defeat_probability_decreases_with_partitioning(self,
                                                            tiny_tmr_suite):
        probabilities = {
            name: estimate_robustness(result.definition)
            .cross_domain_defeat_probability
            for name, result in tiny_tmr_suite.items()}
        assert probabilities["p1"] < probabilities["p2"] \
            < probabilities["p3"] < probabilities["p3_nv"]
        # The registered pipeline still cuts the unvoted version into
        # regions (flip-flop outputs seed their own), so the probability is
        # high but no longer the degenerate single-region 1.0.
        assert probabilities["p3_nv"] < 1.0

    def test_isolation_flags_illegal_cross_domain_net(self, tiny_fir,
                                                      tiny_tmr_suite):
        netlist, _spec, _top, _components = tiny_fir
        result = tiny_tmr_suite["p2"]
        definition = result.definition
        # Create an artificial cross-domain short: connect a domain-0 net to
        # a domain-1 LUT input.
        domain0_net = next(net for net in definition.nets.values()
                           if net.properties.get("domain") == 0
                           and net.drivers())
        victim = next(inst for inst in definition.instances.values()
                      if inst.properties.get("domain") == 1
                      and not is_voter(inst))
        input_port = next(port for port in victim.reference.ports.values()
                          if port.is_input)
        spare_pin = victim.pin(input_port.name, 0)
        original_net = spare_pin.net
        domain0_net.connect(spare_pin)
        report = check_domain_isolation(definition)
        assert not report.ok
        # restore
        if original_net is not None:
            original_net.connect(spare_pin)
        else:
            domain0_net.disconnect(spare_pin)
