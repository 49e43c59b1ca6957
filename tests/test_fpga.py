"""Tests for the FPGA device model, routing fabric and configuration layout."""

import pytest

from repro.fpga import (LUT_BITS, SLICE_CFG_BITS, ConfigLayout, ConfigMemory,
                        DeviceSpec, device_by_name,
                        incoming_wires, ipin, lut_bit, node_tile, opin,
                        pad_input, pad_output, pip_resource, pips_into_tile,
                        slice_cfg, smallest_device_for, wire)
from repro.fpga.config import TILE_LOGIC_BITS
from repro.fpga.routing import opin_wire_indices, pip_tile

from oracles.routing import downhill


@pytest.fixture(scope="module")
def tiny():
    return device_by_name("TINY")


@pytest.fixture(scope="module")
def layout(tiny):
    return ConfigLayout(tiny)


class TestDevice:
    def test_profiles_exist(self):
        for name in ("XC2S200E", "XC2S600E", "XC2S50E", "XC2S15E", "TINY"):
            device = device_by_name(name)
            assert device.spec.name == name
        with pytest.raises(KeyError):
            device_by_name("XCMISSING")

    def test_paper_profile_geometry(self):
        device = device_by_name("XC2S200E")
        # the paper: an array of 28 x 42 slices, frames of 576 bits
        assert device.spec.num_slices == 28 * 42
        assert device.spec.frame_bits == 576

    def test_bounds_and_neighbors(self, tiny):
        assert tiny.in_bounds(0, 0)
        assert not tiny.in_bounds(-1, 0)
        assert not tiny.in_bounds(tiny.columns, 0)
        assert tiny.neighbor(0, 0, "E") == (1, 0)
        assert tiny.neighbor(0, 0, "W") is None
        assert tiny.wire_exists(0, 0, "N")
        assert not tiny.wire_exists(0, 0, "S")

    def test_perimeter_and_pads(self, tiny):
        perimeter = tiny.perimeter_tiles()
        assert len(set(perimeter)) == len(perimeter)
        expected_tiles = 2 * tiny.columns + 2 * (tiny.rows - 2)
        assert len(perimeter) == expected_tiles
        assert tiny.num_pads == expected_tiles * tiny.spec.pads_per_tile
        corner_pads = tiny.pads_at(0, 0)
        assert len(corner_pads) == tiny.spec.pads_per_tile

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec("bad", columns=1, rows=5)
        with pytest.raises(ValueError):
            DeviceSpec("bad", columns=5, rows=5, wires_per_direction=1)

    def test_smallest_device_for(self):
        small = smallest_device_for(num_luts=50, num_ffs=10)
        large = smallest_device_for(num_luts=4000, num_ffs=500)
        assert small.spec.num_tiles < large.spec.num_tiles


class TestRoutingFabric:
    def test_incoming_wires_interior_tile(self, tiny):
        arriving = incoming_wires(tiny, 2, 2)
        assert len(arriving) == 4 * tiny.spec.wires_per_direction
        # every arriving wire terminates here
        assert all(tiny.neighbor(x, y, direction) == (2, 2)
                   for _kind, x, y, direction, _index in arriving)

    def test_opin_downhill_reaches_wires_and_local_pins(self, tiny):
        neighbors = downhill(tiny, opin(2, 2, "X"))
        kinds = {node[0] for node in neighbors}
        assert "wire" in kinds and "ipin" in kinds
        wire_targets = [node for node in neighbors if node[0] == "wire"]
        assert all(node[1] == 2 and node[2] == 2 for node in wire_targets)

    def test_wire_downhill_no_uturn(self, tiny):
        neighbors = downhill(tiny, wire(1, 2, "E", 3))
        for node in neighbors:
            if node[0] == "wire":
                assert node[:3] == ("wire", 2, 2)
                assert node[3] != "W"   # no U-turn back towards (1, 2)

    def test_sink_nodes_have_no_downhill(self, tiny):
        assert downhill(tiny, ipin(2, 2, "F1")) == []
        assert downhill(tiny, pad_input(0)) == []

    def test_pad_output_drives_fabric(self, tiny):
        neighbors = downhill(tiny, pad_output(0))
        assert any(node[0] == "wire" for node in neighbors)

    def test_pips_into_tile_destinations_local(self, tiny):
        pips = pips_into_tile(tiny, 2, 2)
        assert pips
        assert len(set(pips)) == len(pips)    # canonical list has no dupes
        for source, destination in pips:
            assert node_tile(tiny, destination) == (2, 2)

    def test_downhill_consistent_with_pip_enumeration(self, tiny):
        """Every edge the router can take must own a configuration bit."""
        destination_tiles = {}
        for x, y in tiny.tiles():
            destination_tiles[(x, y)] = set(pips_into_tile(tiny, x, y))
        for node in (opin(2, 2, "X"), wire(1, 2, "E", 5), wire(2, 2, "N", 0),
                     pad_output(0)):
            for neighbor in downhill(tiny, node):
                tile = node_tile(tiny, neighbor)
                assert (node, neighbor) in destination_tiles[tile], \
                    f"PIP {node} -> {neighbor} has no configuration bit"

    def test_opin_wire_indices_width(self, tiny):
        for pin in ("X", "Y", "XQ", "YQ"):
            indices = opin_wire_indices(tiny, pin)
            assert len(indices) == 4
            assert all(0 <= i < tiny.spec.wires_per_direction
                       for i in indices)

    def test_pip_tile(self, tiny):
        assert pip_tile(tiny, (opin(1, 1, "X"), wire(1, 1, "E", 0))) == (1, 1)


class TestConfigLayout:
    def test_total_bits_positive_and_routing_dominates(self, tiny, layout):
        assert layout.total_bits > 0
        routing_bits = layout.total_bits \
            - TILE_LOGIC_BITS * tiny.spec.num_tiles
        assert routing_bits / layout.total_bits > 0.75

    def test_bit_resource_round_trip_logic(self, tiny, layout):
        resource = lut_bit(1, 1, "G", 7)
        bit = layout.bit_of(resource)
        assert layout.resource_of(bit) == resource
        cfg = slice_cfg(2, 3, "FFX_DMUX")
        assert layout.resource_of(layout.bit_of(cfg)) == cfg

    def test_bit_resource_round_trip_pips(self, tiny, layout):
        pips = pips_into_tile(tiny, 2, 2)
        for pip in (pips[0], pips[len(pips) // 2], pips[-1]):
            resource = pip_resource(pip)
            assert layout.resource_of(layout.bit_of(resource)) == resource

    def test_every_bit_decodes(self, tiny, layout):
        # exhaustively decode one tile's bit range: the LUT F bits open
        # it, its own PIPs close it
        base = layout.bit_of(lut_bit(1, 1, "F", 0))
        tile_bits = TILE_LOGIC_BITS + len(pips_into_tile(tiny, 1, 1))
        for offset in range(tile_bits):
            resource = layout.resource_of(base + offset)
            if resource[0] == "pip":
                assert node_tile(tiny, resource[2]) == (1, 1)
            else:
                assert resource[1] == 1 and resource[2] == 1

    def test_out_of_range_rejected(self, layout):
        with pytest.raises(IndexError):
            layout.resource_of(layout.total_bits)
        with pytest.raises(KeyError):
            layout.bit_of(("pip", ("opin", 0, 0, "X"),
                           ("wire", 3, 3, "E", 0)))

    def test_tile_logic_bits_constant(self):
        assert TILE_LOGIC_BITS == 2 * LUT_BITS + len(SLICE_CFG_BITS)


class TestConfigMemory:
    def test_set_bits_resources_and_copy(self, layout):
        memory = ConfigMemory(layout)
        resource = lut_bit(0, 0, "F", 3)
        memory.set_resource(resource)
        memory.set_bit(10)
        copy = memory.copy()
        memory.set_bit(10, 0)
        assert memory.programmed_bits() == [layout.bit_of(resource)]
        assert copy.programmed_bits() == sorted([layout.bit_of(resource), 10])
