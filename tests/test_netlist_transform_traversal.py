"""Tests for netlist traversal and flattening, and for the
structural-validation oracle the other tests check netlists with."""

import pytest

from repro.cells import INIT_AND2, INIT_XOR2
from repro.netlist import (NetlistBuilder, NetlistError,
                           flatten,
                           topological_levels, topological_order)
from repro.cells.library import shared_cell_library
from repro.techmap import GateBuilder

from oracles.validate import (multiply_driven_nets, undriven_nets,
                              validate_definition)


def _two_level_module(netlist, name="mod"):
    builder = NetlistBuilder.new_module(netlist, name, "work",
                                        shared_cell_library())
    gates = GateBuilder(builder)
    a = builder.input("A", 1)[0]
    b = builder.input("B", 1)[0]
    c = builder.input("C", 1)[0]
    y = builder.output("Y", 1)[0]
    ab = gates.and2(a, b)
    gates.xor2(ab, c, y)
    return builder.finish()


class TestTraversal:
    def test_topological_levels_order(self, netlist):
        module = _two_level_module(netlist)
        levels = topological_levels(module)
        names_by_level = [[i.reference.name for i in level]
                          for level in levels]
        assert names_by_level[0] == ["LUT2"]
        assert names_by_level[1] == ["LUT2"]

    def test_topological_order_respects_dependencies(self, netlist):
        module = _two_level_module(netlist)
        order = topological_order(module)
        positions = {inst.name: index for index, inst in enumerate(order)}
        and_gate = [i for i in module.instances.values()
                    if i.properties.get("INIT") == INIT_AND2][0]
        xor_gate = [i for i in module.instances.values()
                    if i.properties.get("INIT") == INIT_XOR2][0]
        assert positions[and_gate.name] < positions[xor_gate.name]

    def test_combinational_loop_detection(self, netlist, cells):
        builder = NetlistBuilder.new_module(netlist, "loop", "work", cells)
        gates = GateBuilder(builder)
        a = builder.wire("a")
        b = gates.inv(a)
        gates.inv(b, a)  # closes a combinational loop
        with pytest.raises(NetlistError):
            topological_levels(builder.definition)

    def test_undriven_and_multiply_driven(self, netlist, cells):
        builder = NetlistBuilder.new_module(netlist, "bad", "work", cells)
        gates = GateBuilder(builder)
        floating = builder.wire("floating")
        out = builder.output("Y", 1)[0]
        gates.inv(floating, out)
        assert undriven_nets(builder.definition)
        other = builder.wire("contested")
        gates.inv(out, other)
        gates.inv(floating, other)
        assert multiply_driven_nets(builder.definition)


class TestFlatten:
    def test_flatten_counts(self, tiny_fir, tiny_fir_flat):
        _netlist, _spec, top, _components = tiny_fir
        hierarchical_counts = top.count_primitives()
        flat_counts = tiny_fir_flat.count_primitives()
        assert hierarchical_counts == flat_counts
        assert all(inst.is_primitive
                   for inst in tiny_fir_flat.instances.values())

    def test_flatten_port_preservation(self, tiny_fir, tiny_fir_flat):
        _netlist, _spec, top, _components = tiny_fir
        assert set(tiny_fir_flat.ports) == set(top.ports)
        for name, port in top.ports.items():
            assert tiny_fir_flat.ports[name].width == port.width

    def test_flatten_is_valid(self, tiny_fir_flat):
        report = validate_definition(tiny_fir_flat)
        assert report.ok, str(report)

    def test_flatten_propagates_component_property(self, tiny_fir,
                                                   tiny_fir_flat):
        flat_props = {inst.properties.get("component")
                      for inst in tiny_fir_flat.instances.values()}
        assert "adder" in flat_props
        assert "multiplier" in flat_props

    def test_flatten_twice_raises_on_same_name(self, tiny_fir):
        netlist, _spec, top, _components = tiny_fir
        with pytest.raises(NetlistError):
            flatten(netlist, top, flat_name="fir_tiny_flat")


class TestValidation:
    def test_clean_module_passes(self, netlist):
        module = _two_level_module(netlist)
        report = validate_definition(module)
        assert report.ok
        assert not report.errors

    def test_undriven_output_detected(self, netlist, cells):
        from repro.netlist.ir import Direction

        builder = NetlistBuilder.new_module(netlist, "noout", "work", cells)
        builder.definition.add_port("Y", Direction.OUTPUT)
        report = validate_definition(builder.definition)
        assert any(issue.kind == "undriven-output"
                   for issue in report.errors)

    def test_raise_if_errors(self, netlist, cells):
        builder = NetlistBuilder.new_module(netlist, "bad2", "work", cells)
        gates = GateBuilder(builder)
        out = builder.output("Y", 1)[0]
        gates.inv(builder.wire("undriven_input"), out)
        report = validate_definition(builder.definition)
        with pytest.raises(NetlistError):
            report.raise_if_errors()
