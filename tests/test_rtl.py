"""Tests for the structural RTL generators against behavioural references."""

import pytest

from repro.netlist import Netlist, flatten
from repro.rtl import (FirSpec, build_fir, constant_multiplier,
                       min_output_width, register_bank, ripple_carry_adder,
                       up_counter)
from repro.sim import (CompiledDesign, Simulator, random_samples,
                       stimulus_from_samples)

from oracles.behaviour import counter_reference, fir_reference
from oracles.validate import validate_definition


def _wrap_signed(value, width):
    mask = (1 << width) - 1
    value &= mask
    return value - (1 << width) if value & (1 << (width - 1)) else value


def _combinational_eval(netlist, definition, inputs, output):
    flat = flatten(netlist, definition,
                   flat_name=f"{definition.name}_flat_{len(netlist.libraries['flat'].definitions) if 'flat' in netlist.libraries else 0}")
    compiled = CompiledDesign(flat)
    trace = Simulator(compiled).run([inputs])
    return trace.output_ints(output)[0]


class TestArith:
    @pytest.mark.parametrize("width", [3, 5, 8])
    def test_adder_exhaustive_small_or_sampled(self, width):
        netlist = Netlist("t")
        adder = ripple_carry_adder(netlist, width)
        netlist.set_top(adder)
        flat = flatten(netlist, adder)
        compiled = CompiledDesign(flat)
        simulator = Simulator(compiled)
        values = range(-(1 << (width - 1)), 1 << (width - 1)) if width <= 4 \
            else random_samples(12, width, seed=width)
        for a in values:
            for b in (0, 1, -1, 3, -(1 << (width - 1))):
                trace = simulator.run([{"A": a, "B": b}])
                assert trace.output_ints("S")[0] == _wrap_signed(a + b, width)

    def test_adder_carry_out(self):
        netlist = Netlist("t")
        adder = ripple_carry_adder(netlist, 4, with_carry_out=True)
        netlist.set_top(adder)
        compiled = CompiledDesign(flatten(netlist, adder))
        trace = Simulator(compiled).run([{"A": 0b1111, "B": 0b0001}])
        assert trace.outputs[0]["CO"][0] == 1

    @pytest.mark.parametrize("coefficient", [0, 1, -1, 6, -9, 73, 120, -120])
    def test_constant_multiplier(self, coefficient):
        netlist = Netlist("t")
        width_in, width_out = 5, 13
        mult = constant_multiplier(netlist, coefficient, width_in, width_out)
        netlist.set_top(mult)
        compiled = CompiledDesign(flatten(netlist, mult))
        simulator = Simulator(compiled)
        for a in range(-16, 16, 3):
            trace = simulator.run([{"A": a}])
            assert trace.output_ints("P")[0] == \
                _wrap_signed(coefficient * a, width_out), \
                f"coefficient={coefficient}, a={a}"

    def test_multiplier_definition_reuse(self):
        netlist = Netlist("t")
        first = constant_multiplier(netlist, 6, 4, 8)
        second = constant_multiplier(netlist, 6, 4, 8)
        assert first is second

    def test_min_output_width(self):
        # The paper's filter: 9-bit data, gain 300 -> 18 bits needed.
        assert min_output_width(FirSpec.paper().coefficients, 9) <= 18
        assert min_output_width((1,), 4) == 4
        assert min_output_width((0,), 4) == 4


class TestRegisters:
    def test_register_bank_delays_by_one_cycle(self):
        netlist = Netlist("t")
        reg = register_bank(netlist, 4)
        netlist.set_top(reg)
        compiled = CompiledDesign(flatten(netlist, reg))
        samples = [3, -5, 7, 0]
        trace = Simulator(compiled).run([{"D": s} for s in samples])
        outputs = trace.output_ints("Q")
        assert outputs[0] == 0            # initial register state
        assert outputs[1:] == samples[:-1]

    def test_register_bank_with_enable(self):
        netlist = Netlist("t")
        reg = register_bank(netlist, 3, with_enable=True, with_reset=True)
        netlist.set_top(reg)
        compiled = CompiledDesign(flatten(netlist, reg))
        stimulus = [
            {"D": 3, "CE": 1, "R": 0},
            {"D": 2, "CE": 0, "R": 0},   # hold
            {"D": 1, "CE": 1, "R": 1},   # synchronous reset
            {"D": 1, "CE": 1, "R": 0},
        ]
        outputs = Simulator(compiled).run(stimulus).output_ints("Q",
                                                                signed=False)
        assert outputs == [0, 3, 3, 0]

class TestCounter:
    def test_up_counter_counts_and_wraps(self):
        netlist = Netlist("t")
        counter = up_counter(netlist, 3)
        netlist.set_top(counter)
        compiled = CompiledDesign(flatten(netlist, counter))
        cycles = 10
        stimulus = [{"R": 0, "CE": 1} for _ in range(cycles)]
        outputs = Simulator(compiled).run(stimulus).output_ints("Q",
                                                                signed=False)
        assert outputs == counter_reference(3, cycles)

    def test_up_counter_reset_and_enable(self):
        netlist = Netlist("t")
        counter = up_counter(netlist, 4)
        netlist.set_top(counter)
        compiled = CompiledDesign(flatten(netlist, counter))
        enable = [1, 1, 0, 1, 1, 1]
        reset = [0, 0, 0, 0, 1, 0]
        stimulus = [{"R": r, "CE": e} for e, r in zip(enable, reset)]
        outputs = Simulator(compiled).run(stimulus).output_ints("Q",
                                                                signed=False)
        assert outputs == counter_reference(4, len(enable), enable, reset)


class TestFir:
    def test_paper_spec_constants(self):
        spec = FirSpec.paper()
        assert spec.taps == 11
        assert spec.data_width == 9
        assert spec.output_width == 18
        assert spec.coefficients[:6] == (1, -1, -9, 6, 73, 120)
        assert spec.coefficients == tuple(reversed(spec.coefficients))

    def test_component_inventory_matches_paper(self, tiny_fir):
        _netlist, spec, _top, components = tiny_fir
        assert len(components.registers) == spec.taps - 1
        assert len(components.multipliers) == spec.taps
        assert len(components.adders) == spec.taps - 1

    def test_paper_inventory_counts(self):
        spec = FirSpec.paper()
        # "eleven dedicated 9-bit multipliers, ten 18-bit adders and ten
        #  9-bit registers"
        # (one multiplier per tap; taps - 1 adders and delay registers)
        assert spec.taps == 11

    def test_fir_matches_reference(self, tiny_fir, tiny_fir_compiled):
        _netlist, spec, _top, _components = tiny_fir
        samples = random_samples(24, spec.data_width, seed=9)
        trace = Simulator(tiny_fir_compiled).run(stimulus_from_samples(samples))
        assert trace.output_ints("DOUT") == fir_reference(spec, samples)

    def test_fir_impulse_response_reads_coefficients(self, tiny_fir,
                                                     tiny_fir_compiled):
        _netlist, spec, _top, _components = tiny_fir
        amplitude = 1
        samples = [amplitude] + [0] * (spec.taps + 1)
        trace = Simulator(tiny_fir_compiled).run(stimulus_from_samples(samples))
        outputs = trace.output_ints("DOUT")
        assert outputs[:spec.taps] == [c * amplitude
                                       for c in spec.coefficients]

    def test_fir_flat_is_valid(self, tiny_fir_flat):
        assert validate_definition(tiny_fir_flat).ok

    def test_scaled_spec_rejects_bad_width(self):
        with pytest.raises(ValueError):
            FirSpec(coefficients=(120, 120), data_width=9, output_width=8)

    def test_duplicate_design_name_rejected(self, tiny_fir):
        netlist, spec, _top, _components = tiny_fir
        with pytest.raises(Exception):
            build_fir(netlist, spec)

    def test_single_tap_filter(self):
        netlist = Netlist("t")
        spec = FirSpec(coefficients=(3,), data_width=4, output_width=7,
                       name="single")
        top, components = build_fir(netlist, spec)
        assert not components.adders and not components.registers
        compiled = CompiledDesign(flatten(netlist, top))
        samples = [1, -2, 5]
        trace = Simulator(compiled).run(stimulus_from_samples(samples))
        assert trace.output_ints("DOUT") == [3, -6, 15]
