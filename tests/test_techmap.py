"""Tests for gate construction and LUT merging."""

import pytest

from repro.cells import INIT_AND2
from repro.cells.lut import lut_init_of
from repro.netlist import NetlistBuilder
from repro.sim import CompiledDesign, Simulator
from repro.techmap import GateBuilder, merge_luts, remove_buffer_luts

from oracles.validate import validate_definition


def _simulate_single_output(definition, inputs):
    compiled = CompiledDesign(definition)
    trace = Simulator(compiled).run([inputs])
    return trace.outputs[0]["Y"][0]


def _gate_module(netlist, cells, build):
    """Create a module with inputs A,B,C and output Y built by *build*."""
    builder = NetlistBuilder.new_module(netlist, "gates", "work", cells)
    gates = GateBuilder(builder)
    a = builder.input("A", 1)[0]
    b = builder.input("B", 1)[0]
    c = builder.input("C", 1)[0]
    y = builder.output("Y", 1)[0]
    build(gates, builder, a, b, c, y)
    return builder.finish()


class TestGateBuilder:
    @pytest.mark.parametrize("gate,function", [
        ("and2", lambda a, b: a & b),
        ("xor2", lambda a, b: a ^ b),
    ])
    def test_two_input_gates(self, netlist, cells, gate, function):
        module = _gate_module(
            netlist, cells,
            lambda gates, builder, a, b, c, y:
            getattr(gates, gate)(a, b, y))
        for a_value in (0, 1):
            for b_value in (0, 1):
                result = _simulate_single_output(
                    module, {"A": a_value, "B": b_value, "C": 0})
                assert result == function(a_value, b_value)

    def test_majority3(self, netlist, cells):
        module = _gate_module(
            netlist, cells,
            lambda gates, builder, a, b, c, y: gates.majority3(a, b, c, y))
        for address in range(8):
            bits = {"A": address & 1, "B": (address >> 1) & 1,
                    "C": (address >> 2) & 1}
            expected = 1 if sum(bits.values()) >= 2 else 0
            assert _simulate_single_output(module, bits) == expected

    def test_full_adder(self, netlist, cells):
        builder = NetlistBuilder.new_module(netlist, "fa", "work", cells)
        gates = GateBuilder(builder)
        a = builder.input("A", 1)[0]
        b = builder.input("B", 1)[0]
        c = builder.input("C", 1)[0]
        s = builder.output("S", 1)[0]
        co = builder.output("CO", 1)[0]
        total, carry = gates.full_adder(a, b, c)
        gates.buf(total, s)
        gates.buf(carry, co)
        module = builder.finish()
        compiled = CompiledDesign(module)
        for address in range(8):
            bits = {"A": address & 1, "B": (address >> 1) & 1,
                    "C": (address >> 2) & 1}
            trace = Simulator(compiled).run([bits])
            value = trace.outputs[0]["S"][0] + 2 * trace.outputs[0]["CO"][0]
            assert value == sum(bits.values())

    def test_lut_rejects_bad_arity(self, netlist, cells):
        builder = NetlistBuilder.new_module(netlist, "bad", "work", cells)
        gates = GateBuilder(builder)
        nets = builder.bus("n", 5)
        with pytest.raises(Exception):
            gates.lut(0, nets)


class TestMapper:
    def test_merge_reduces_lut_count_preserving_function(self, netlist,
                                                         cells):
        module = _gate_module(
            netlist, cells,
            lambda gates, builder, a, b, c, y:
            gates.xor2(gates.and2(a, b), c, y))
        truth_before = {}
        for address in range(8):
            bits = {"A": address & 1, "B": (address >> 1) & 1,
                    "C": (address >> 2) & 1}
            truth_before[address] = _simulate_single_output(module, bits)

        report = merge_luts(module)
        assert report.merges >= 1
        assert report.luts_after < report.luts_before

        for address in range(8):
            bits = {"A": address & 1, "B": (address >> 1) & 1,
                    "C": (address >> 2) & 1}
            assert _simulate_single_output(module, bits) == \
                truth_before[address]

    def test_merge_respects_fanout(self, netlist, cells):
        # The AND output also feeds a second LUT: it must not be absorbed.
        def build(gates, builder, a, b, c, y):
            shared = gates.and2(a, b)
            gates.xor2(shared, c, y)
            z = builder.output("Z", 1)[0]
            gates.xor2(shared, c, z)

        module = _gate_module(netlist, cells, build)
        before = sum(1 for i in module.instances.values()
                     if i.reference.name.startswith("LUT"))
        merge_luts(module)
        after = sum(1 for i in module.instances.values()
                    if i.reference.name.startswith("LUT"))
        # Only buffers disappear in the worst case; the shared AND survives.
        assert any(lut_init_of(i) == INIT_AND2
                   for i in module.instances.values()
                   if i.reference.name == "LUT2")
        assert after <= before

    def test_merge_does_not_cross_domains(self, netlist, cells):
        def build(gates, builder, a, b, c, y):
            first = gates.and2(a, b)
            second = gates.xor2(first, c, y)

        module = _gate_module(netlist, cells, build)
        for instance in module.instances.values():
            if lut_init_of(instance) == INIT_AND2:
                instance.properties["domain"] = 0
            else:
                instance.properties["domain"] = 1
        report = merge_luts(module)
        assert report.merges == 0

    def test_merge_keeps_voters(self, netlist, cells):
        def build(gates, builder, a, b, c, y):
            voter = gates.majority3(a, b, c)
            gates.inv(voter, y)

        module = _gate_module(netlist, cells, build)
        for instance in module.instances.values():
            if instance.reference.name == "LUT3":
                instance.properties["voter"] = "barrier"
        report = merge_luts(module)
        assert report.merges == 0

    def test_remove_buffer_luts(self, netlist, cells):
        def build(gates, builder, a, b, c, y):
            gates.buf(gates.and2(a, b), y)

        module = _gate_module(netlist, cells, build)
        removed = remove_buffer_luts(module)
        assert removed == 1
        assert validate_definition(module).ok
        assert _simulate_single_output(module, {"A": 1, "B": 1, "C": 0}) == 1
