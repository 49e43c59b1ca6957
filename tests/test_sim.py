"""Tests for the compiled design, simulator, overlays and golden comparison."""

import pytest

from repro.cells import INIT_AND2, INIT_XOR2, logic
from repro.netlist import Netlist, NetlistBuilder
from repro.sim import (BLEND_WIRED_AND, BLEND_WIRED_OR, CompiledDesign,
                       FaultOverlay, SimulationTrace,
                       Simulator, SourceOverride,
                       campaign_workload, compare_traces,
                       random_samples,
                       stimulus_from_samples, tmr_stimulus_from_samples)
from repro.techmap import GateBuilder
from repro.cells.library import shared_cell_library


@pytest.fixture()
def registered_xor():
    """A tiny registered design: Q <= A xor (A and B)."""
    netlist = Netlist("t")
    builder = NetlistBuilder.new_module(netlist, "dut", "work",
                                        shared_cell_library())
    gates = GateBuilder(builder)
    clk = builder.input("CLK", 1)[0]
    a = builder.input("A", 1)[0]
    b = builder.input("B", 1)[0]
    q = builder.output("Q", 1)[0]
    comb = gates.xor2(a, gates.and2(a, b))
    builder.instantiate("FD", "state", C=clk, D=comb, Q=q)
    return CompiledDesign(builder.finish(set_top=True))


class TestCompiledDesign:
    def test_ports_and_nets_indexed(self, registered_xor):
        assert "A" in registered_xor.inputs
        assert "Q" in registered_xor.outputs
        assert registered_xor.num_nets == len(
            registered_xor.definition.nets)

    def test_clock_net_identified(self, registered_xor):
        clock_names = [registered_xor.net_names[i]
                       for i in registered_xor.clock_nets]
        assert clock_names == ["CLK"]

    def test_gate_and_ff_tables(self, registered_xor):
        assert len(registered_xor.flip_flops) == 1
        assert len(registered_xor.gates) == 2
        assert registered_xor.flip_flops[0].cell == "FD"

    def test_rejects_hierarchical_netlist(self, tiny_fir):
        _netlist, _spec, top, _components = tiny_fir
        with pytest.raises(Exception):
            CompiledDesign(top)

    def test_fault_cone_includes_driver_and_downstream(self, registered_xor):
        and_gate = next(g for g in registered_xor.gates
                        if g.init == INIT_AND2)
        cone = registered_xor.fault_cone([and_gate.output_net])
        assert and_gate.index in cone.gate_indices
        xor_gate = next(g for g in registered_xor.gates
                        if g.init == INIT_XOR2)
        assert xor_gate.index in cone.gate_indices
        assert registered_xor.flip_flops[0].index in cone.ff_indices

    def test_fault_cone_of_ff_output(self, registered_xor):
        q_net = registered_xor.flip_flops[0].q_net
        cone = registered_xor.fault_cone([q_net])
        assert registered_xor.flip_flops[0].index in cone.ff_indices


class TestSimulator:
    def test_register_delays_by_one_cycle(self, registered_xor):
        stimulus = [{"A": 1, "B": 0}, {"A": 0, "B": 0}, {"A": 0, "B": 0}]
        trace = Simulator(registered_xor).run(stimulus)
        assert trace.output_ints("Q", signed=False) == [0, 1, 0]

    def test_record_nets_and_ff_states(self, registered_xor):
        trace = Simulator(registered_xor).run([{"A": 1, "B": 1}] * 2,
                                              record_nets=True)
        assert trace.net_values is not None and len(trace.net_values) == 2
        assert trace.ff_states is not None

    def test_cone_simulation_matches_full(self, tiny_fir, tiny_fir_compiled):
        _netlist, spec, _top, _components = tiny_fir
        samples = random_samples(12, spec.data_width, seed=1)
        stimulus = stimulus_from_samples(samples)
        golden = Simulator(tiny_fir_compiled).run(stimulus, record_nets=True)

        victim = next(g for g in tiny_fir_compiled.gates if g.kind == 0)
        overlay = FaultOverlay(lut_init_overrides={victim.index:
                                                   victim.init ^ 0x3},
                               seed_nets=[victim.output_net])
        full = Simulator(tiny_fir_compiled, overlay).run(stimulus)
        cone = tiny_fir_compiled.fault_cone(overlay.seed_nets)
        fast = Simulator(tiny_fir_compiled, overlay).run(
            stimulus, golden=golden, cone=cone)
        assert full.outputs == fast.outputs

    def test_cone_requires_recorded_golden(self, registered_xor):
        golden = Simulator(registered_xor).run([{"A": 0, "B": 0}])
        cone = registered_xor.fault_cone([0])
        with pytest.raises(ValueError):
            Simulator(registered_xor).run([{"A": 0, "B": 0}], golden=golden,
                                          cone=cone)

    def test_unknown_inputs_propagate(self, registered_xor):
        trace = Simulator(registered_xor).run([{"A": [logic.UNKNOWN],
                                                "B": [1]}])
        # Q is still the initial 0 in cycle 0 regardless of the unknown.
        assert trace.outputs[0]["Q"] == [0]


class TestOverlays:
    def test_source_override_constant_and_net(self):
        values = [0, 1, logic.UNKNOWN]
        assert SourceOverride.constant(1).resolve(values) == 1
        assert SourceOverride.floating().resolve(values) == logic.UNKNOWN
        assert SourceOverride.net(1).resolve(values) == 1

    def test_source_override_blends(self):
        values = [1, 0, 1]
        assert SourceOverride.blend_of(0, 2, BLEND_WIRED_AND).resolve(
            values) == 1
        assert SourceOverride.blend_of(0, 1, BLEND_WIRED_AND).resolve(
            values) == 0
        assert SourceOverride.blend_of(1, 0, BLEND_WIRED_OR).resolve(
            values) == 1

    def test_overlay_is_empty_and_passes(self):
        overlay = FaultOverlay()
        assert overlay.is_empty()
        assert overlay.required_passes() == 1
        overlay.net_overrides[0] = SourceOverride.constant(0)
        assert not overlay.is_empty()
        assert overlay.required_passes() >= 3

    def test_gate_pin_override_changes_result(self, registered_xor):
        and_gate = next(g for g in registered_xor.gates
                        if g.init == INIT_AND2)
        overlay = FaultOverlay(gate_pin_overrides={
            (and_gate.index, 1): SourceOverride.constant(1)})
        stimulus = [{"A": 1, "B": 0}, {"A": 1, "B": 0}]
        clean = Simulator(registered_xor).run(stimulus)
        faulty = Simulator(registered_xor, overlay).run(stimulus)
        assert clean.outputs != faulty.outputs

    def test_ff_init_override(self, registered_xor):
        overlay = FaultOverlay(ff_init_overrides={0: 1})
        trace = Simulator(registered_xor, overlay).run([{"A": 0, "B": 0}])
        assert trace.outputs[0]["Q"] == [1]

    def test_output_pin_override(self, registered_xor):
        overlay = FaultOverlay(output_pin_overrides={
            ("Q", 0): SourceOverride.constant(1)})
        trace = Simulator(registered_xor, overlay).run([{"A": 0, "B": 0}])
        assert trace.outputs[0]["Q"] == [1]


class TestGoldenComparison:
    def _trace(self, values):
        return SimulationTrace([{"Q": [v]} for v in values])

    def test_identical_traces_match(self):
        result = compare_traces(self._trace([0, 1]), self._trace([0, 1]))
        assert not result.wrong_answer
        assert result.first_mismatch_cycle is None

    def test_mismatch_detected(self):
        result = compare_traces(self._trace([0, 1, 1]),
                                self._trace([0, 0, 1]))
        assert result.wrong_answer
        assert result.first_mismatch_cycle == 1
        assert result.mismatching_cycles == 1

    def test_unknown_dut_output_counts_as_wrong(self):
        result = compare_traces(self._trace([logic.UNKNOWN]),
                                self._trace([1]))
        assert result.wrong_answer

    def test_unknown_golden_output_ignored(self):
        result = compare_traces(self._trace([0]),
                                self._trace([logic.UNKNOWN]))
        assert not result.wrong_answer

    def test_skip_cycles(self):
        result = compare_traces(self._trace([1, 1]), self._trace([0, 1]),
                                skip_cycles=1)
        assert not result.wrong_answer

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_traces(self._trace([0]), self._trace([0, 1]))

    def test_trace_matches_reference(self, tiny_fir, tiny_fir_compiled):
        from oracles.behaviour import fir_reference, trace_matches_reference

        _netlist, spec, _top, _components = tiny_fir
        samples = random_samples(8, spec.data_width, seed=2)
        trace = Simulator(tiny_fir_compiled).run(stimulus_from_samples(samples))
        assert trace_matches_reference(trace, "DOUT",
                                       fir_reference(spec, samples))


class TestVectors:
    def test_random_samples_deterministic_and_in_range(self):
        first = random_samples(50, 6, seed=3)
        second = random_samples(50, 6, seed=3)
        assert first == second
        assert all(-32 <= value < 32 for value in first)

    def test_stimulus_wrappers(self):
        plain = stimulus_from_samples([1, 2], port="DIN")
        assert plain == [{"DIN": 1}, {"DIN": 2}]
        tmr = tmr_stimulus_from_samples([3], port="DIN")
        assert tmr == [{"DIN_tr0": 3, "DIN_tr1": 3, "DIN_tr2": 3}]

    def test_campaign_workload_starts_with_impulse(self):
        workload = campaign_workload(6, 5)
        assert workload[0] == 31
        assert len(workload) == 5
        with pytest.raises(ValueError):
            campaign_workload(6, 0)
