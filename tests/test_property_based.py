"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.cells import init_from_function, logic
from repro.cells.lut import INIT_MAJ3
from repro.netlist import Netlist, flatten
from repro.rtl import (FirSpec, build_fir, constant_multiplier,
                       min_output_width, ripple_carry_adder)
from repro.sim import CompiledDesign, Simulator, stimulus_from_samples

from oracles.behaviour import fir_reference
from oracles.evaluate import majority, truth_table

logic_values = st.sampled_from([logic.ZERO, logic.ONE, logic.UNKNOWN])
known_values = st.sampled_from([0, 1])


class TestLogicProperties:
    @given(a=logic_values, b=logic_values)
    def test_and_or_commutative(self, a, b):
        assert logic.and_(a, b) == logic.and_(b, a)
        assert logic.or_(a, b) == logic.or_(b, a)

    @given(a=logic_values)
    def test_not_involution(self, a):
        assert logic.not_(logic.not_(a)) == a

    @given(a=logic_values, b=logic_values, c=logic_values)
    def test_majority_symmetry(self, a, b, c):
        reference = majority(a, b, c)
        assert majority(b, a, c) == reference
        assert majority(c, b, a) == reference

    @given(a=known_values, b=known_values)
    def test_majority_masks_any_single_error(self, a, b):
        """The defining TMR property: one corrupted domain never changes the
        vote when the other two agree."""
        for corrupted in (0, 1, logic.UNKNOWN):
            assert majority(a, a, corrupted) == a
            assert majority(a, corrupted, a) == a
            assert majority(corrupted, a, a) == a

    @given(value=st.integers(min_value=-512, max_value=511),
           width=st.integers(min_value=2, max_value=12))
    def test_int_bits_round_trip(self, value, width):
        bits = logic.int_to_bits(value, width)
        assert len(bits) == width
        unsigned = logic.bits_to_int(bits)
        assert unsigned == value % (1 << width)

    @given(inputs=st.lists(known_values, min_size=3, max_size=3))
    def test_lut_majority_equals_reference(self, inputs):
        assert logic.lut_eval(INIT_MAJ3, inputs, 3) == \
            majority(*inputs)


class TestLutInitProperties:
    @given(table=st.lists(known_values, min_size=4, max_size=4))
    def test_truth_table_round_trip(self, table):
        init = sum(bit << position for position, bit in enumerate(table))
        assert truth_table(init, 2) == table

    @given(a=known_values, b=known_values, c=known_values)
    def test_init_from_function_agrees_with_function(self, a, b, c):
        function = lambda x, y, z: (x & y) ^ z
        init = init_from_function(function, 3)
        address = a | (b << 1) | (c << 2)
        assert (init >> address) & 1 == function(a, b, c)


class TestArithmeticProperties:
    @settings(max_examples=25, deadline=None)
    @given(width=st.integers(min_value=3, max_value=7),
           a=st.integers(min_value=-64, max_value=63),
           b=st.integers(min_value=-64, max_value=63))
    def test_adder_matches_modular_arithmetic(self, width, a, b):
        mask = (1 << width) - 1
        a &= mask
        b &= mask
        netlist = Netlist("prop")
        adder = ripple_carry_adder(netlist, width)
        netlist.set_top(adder)
        compiled = CompiledDesign(flatten(netlist, adder))
        trace = Simulator(compiled).run([{"A": a, "B": b}])
        result = trace.output_ints("S", signed=False)[0]
        assert result == (a + b) & mask

    @settings(max_examples=20, deadline=None)
    @given(coefficient=st.integers(min_value=-20, max_value=20),
           value=st.integers(min_value=-8, max_value=7))
    def test_constant_multiplier_matches_python(self, coefficient, value):
        netlist = Netlist("prop")
        width_out = max(10, abs(coefficient).bit_length() + 5)
        mult = constant_multiplier(netlist, coefficient, 4, width_out)
        netlist.set_top(mult)
        compiled = CompiledDesign(flatten(netlist, mult))
        trace = Simulator(compiled).run([{"A": value}])
        assert trace.output_ints("P")[0] == coefficient * value

    @settings(max_examples=10, deadline=None)
    @given(taps=st.integers(min_value=1, max_value=5),
           data_width=st.integers(min_value=3, max_value=6),
           seed=st.integers(min_value=0, max_value=1000))
    def test_fir_always_matches_reference(self, taps, data_width, seed):
        import random

        spec = FirSpec.scaled(taps, data_width, name=f"fir_prop_{taps}_{data_width}")
        netlist = Netlist("prop")
        top, _components = build_fir(netlist, spec)
        compiled = CompiledDesign(flatten(netlist, top))
        generator = random.Random(seed)
        samples = [generator.randint(-(1 << (data_width - 1)),
                                     (1 << (data_width - 1)) - 1)
                   for _ in range(8)]
        trace = Simulator(compiled).run(stimulus_from_samples(samples))
        assert trace.output_ints("DOUT") == fir_reference(spec, samples)

    @given(data_width=st.integers(min_value=2, max_value=12),
           coefficients=st.lists(st.integers(min_value=-128, max_value=128),
                                 min_size=1, max_size=12))
    def test_min_output_width_is_sufficient(self, data_width, coefficients):
        width = min_output_width(coefficients, data_width)
        total_gain = sum(abs(c) for c in coefficients)
        # Both signed extremes of the accumulated output must fit.
        most_negative = -total_gain * (1 << (data_width - 1))
        most_positive = total_gain * ((1 << (data_width - 1)) - 1)
        assert most_negative >= -(1 << (width - 1))
        assert most_positive <= (1 << (width - 1)) - 1


class TestNetlistProperties:
    @settings(max_examples=20, deadline=None)
    @given(width=st.integers(min_value=1, max_value=10))
    def test_flatten_preserves_primitive_counts(self, width):
        netlist = Netlist("prop")
        adder = ripple_carry_adder(netlist, width)
        netlist.set_top(adder)
        flat = flatten(netlist, adder)
        assert flat.count_primitives() == adder.count_primitives()

    @settings(max_examples=15, deadline=None)
    @given(width=st.integers(min_value=2, max_value=8))
    def test_compiled_design_net_indices_bijective(self, width):
        netlist = Netlist("prop")
        adder = ripple_carry_adder(netlist, width)
        netlist.set_top(adder)
        flat = flatten(netlist, adder)
        compiled = CompiledDesign(flat)
        assert len(compiled.net_index) == compiled.num_nets
        assert sorted(compiled.net_index.values()) == \
            list(range(compiled.num_nets))
