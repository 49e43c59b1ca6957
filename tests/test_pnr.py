"""Tests for packing, placement, routing, timing and the implement flow."""

import pytest

from repro.faults.models import FaultModeler
from repro.fpga import device_by_name
from repro.fpga.device import FF_PAIRED_LUT
from repro.netlist import flatten
from repro.pnr import Floorplan, estimate_timing, pack, place
from repro.pnr.route import extract_routing_problem
from repro.sim import CompiledDesign


def _path_to(tree, sink):
    """Nodes from a route tree's source to *sink* (inclusive)."""
    path = [sink]
    while path[-1] in tree.parent:
        path.append(tree.parent[path[-1]])
    path.reverse()
    return path

class TestPack:
    def test_pack_counts(self, tiny_fir_flat):
        result = pack(tiny_fir_flat)
        counts = tiny_fir_flat.count_primitives()
        expected_luts = sum(v for k, v in counts.items()
                            if k.startswith("LUT"))
        expected_ffs = sum(v for k, v in counts.items() if k == "FD")
        assert result.num_luts == expected_luts
        assert result.num_ffs == expected_ffs
        assert result.num_slices <= expected_luts + expected_ffs

    def test_every_cell_has_a_unique_site(self, tiny_fir_flat):
        result = pack(tiny_fir_flat)
        sites = list(result.cell_site.values())
        assert len(sites) == len(set(sites))
        for slice_assignment in result.slices:
            cells = slice_assignment.cells
            assert sum(1 for slot in ("F", "G") if slot in cells) <= 2
            assert sum(1 for slot in ("FFX", "FFY") if slot in cells) <= 2

    def test_ff_paired_with_driving_lut(self):
        # The FIR delay line has no LUT->FF edges, so use a counter (the
        # increment LUT drives the state flip-flop directly).
        from repro.netlist import Netlist, flatten as flatten_netlist
        from repro.rtl import up_counter

        netlist = Netlist("pair")
        counter = up_counter(netlist, 4)
        netlist.set_top(counter)
        flat = flatten_netlist(netlist, counter)
        result = pack(flat)
        paired = 0
        for slice_assignment in result.slices:
            for ff_slot in slice_assignment.direct_ff_data:
                lut_slot = FF_PAIRED_LUT[ff_slot]
                assert lut_slot in slice_assignment.cells
                paired += 1
        assert paired > 0

    def test_pack_rejects_hierarchy(self, tiny_fir):
        _netlist, _spec, top, _components = tiny_fir
        with pytest.raises(Exception):
            pack(top)


class TestPlace:
    def test_all_slices_get_distinct_tiles(self, tiny_fir_flat, small_device):
        packed = pack(tiny_fir_flat)
        placement = place(tiny_fir_flat, packed, small_device)
        assert len(placement.slice_tiles) == packed.num_slices
        assert len(set(placement.slice_tiles)) == packed.num_slices
        for tile in placement.slice_tiles:
            assert small_device.in_bounds(*tile)

    def test_all_ports_get_distinct_pads(self, tiny_fir_flat, small_device):
        packed = pack(tiny_fir_flat)
        placement = place(tiny_fir_flat, packed, small_device)
        pads = list(placement.port_pads.values())
        assert len(pads) == len(set(pads))
        expected_bits = sum(port.width
                            for port in tiny_fir_flat.ports.values())
        assert len(pads) == expected_bits

    def test_annealing_does_not_increase_wirelength(self, tiny_fir_flat,
                                                    small_device):
        packed = pack(tiny_fir_flat)
        baseline = place(tiny_fir_flat, packed, small_device,
                         anneal_moves_per_slice=0)
        annealed = place(tiny_fir_flat, packed, small_device,
                         anneal_moves_per_slice=10)
        assert annealed.wirelength <= baseline.wirelength * 1.05

    def test_design_too_large_rejected(self, tiny_fir_flat, tiny_device):
        packed = pack(tiny_fir_flat)
        with pytest.raises(ValueError):
            place(tiny_fir_flat, packed, tiny_device)

    def test_floorplan_separates_domains(self, tiny_fir, tiny_tmr_suite):
        netlist, _spec, _top, _components = tiny_fir
        flat = flatten(netlist, tiny_tmr_suite["p3"].definition,
                       flat_name="floorplan_check")
        device = device_by_name("XC2S50E")
        packed = pack(flat)
        floorplan = Floorplan.vertical_thirds(device)
        placement = place(flat, packed, device, floorplan=floorplan)
        for slice_index, assignment in enumerate(packed.slices):
            domains = {flat.instances[c].properties.get("domain")
                       for c in assignment.cells.values()}
            domains.discard(None)
            if len(domains) == 1:
                domain = domains.pop()
                low, high = floorplan.domain_columns[domain]
                x, _y = placement.slice_tiles[slice_index]
                assert low <= x <= high


class TestRoute:
    def test_routing_problem_extraction(self, tiny_fir_flat, small_device):
        packed = pack(tiny_fir_flat)
        placement = place(tiny_fir_flat, packed, small_device)
        requests, skipped, direct = extract_routing_problem(
            tiny_fir_flat, packed, placement)
        reasons = {entry.reason for entry in skipped}
        assert "global-clock" in reasons
        assert "constant" in reasons
        assert requests
        # every request has a source and at least one sink
        assert all(request.sinks for request in requests)

    def test_route_tree_invariants(self, tiny_fir_implementation):
        routing = tiny_fir_implementation.routing
        assert routing.routes
        for tree in routing.routes.values():
            nodes = tree.nodes()
            assert tree.source in nodes
            for sink_node in tree.sinks:
                path = _path_to(tree, sink_node)
                assert path[0] == tree.source
                assert path[-1] == sink_node
                assert set(path) <= nodes

    def test_no_wire_is_shared_between_nets(self, tiny_fir_implementation):
        seen = {}
        for name, tree in tiny_fir_implementation.routing.routes.items():
            for node in tree.nodes():
                if node[0] != "wire":
                    continue
                assert seen.setdefault(node, name) == name, \
                    f"wire {node} shared by {seen[node]} and {name}"

    def test_sinks_through_counts_downstream(self, tiny_fir_implementation):
        routing = tiny_fir_implementation.routing
        tree = max(routing.routes.values(), key=lambda t: len(t.sinks))
        total = len(tree.sinks)
        through_source_side = set()
        for sink_node in tree.sinks:
            path = _path_to(tree, sink_node)
            assert tree.sinks_through(path[1])  # the first hop serves someone
        assert total >= 1

    def test_sinks_through_matches_a_subtree_scan(
            self, tiny_suite_implementations):
        def scanned(tree, node):
            # The definition the memo replaced: every sink of the net
            # checked against the subtree below the node.
            if node != tree.source and node not in tree.parent:
                return []
            children = {}
            for child, parent in tree.parent.items():
                children.setdefault(parent, []).append(child)
            subtree = {node}
            stack = [node]
            while stack:
                for child in children.get(stack.pop(), ()):
                    subtree.add(child)
                    stack.append(child)
            return [spec for sink_node, spec in tree.sinks.items()
                    if sink_node in subtree]

        checked = 0
        off_tree = ("wire", -1, -1, "N", 0)
        for implementation in tiny_suite_implementations.values():
            for tree in implementation.routing.routes.values():
                for node in sorted(tree.nodes()) + [off_tree]:
                    assert tree.sinks_through(node) == scanned(tree, node)
                    checked += 1
        assert checked > 1000

    def test_pip_owner_consistent(self, tiny_fir_implementation):
        routing = tiny_fir_implementation.routing
        for pip, net in routing.pip_owner.items():
            assert pip in routing.routes[net].pips()


class TestTimingAndFlow:
    def test_timing_reports_positive_fmax(self, tiny_fir_flat,
                                          tiny_fir_implementation):
        report = tiny_fir_implementation.timing
        assert report.fmax_mhz > 0
        assert report.critical_path_ns > 0
        assert report.logic_levels >= 1

    def test_timing_without_placement(self, tiny_fir_flat):
        report = estimate_timing(tiny_fir_flat)
        assert report.fmax_mhz > 0

    def test_tmr_slower_than_plain(self, tiny_fir_implementation,
                                   tiny_tmr_implementation):
        # Voter barriers add logic levels: the TMR filter cannot be faster.
        assert tiny_tmr_implementation.timing.fmax_mhz <= \
            tiny_fir_implementation.timing.fmax_mhz * 1.02

    def test_implementation_summary(self, tiny_fir_implementation):
        summary = tiny_fir_implementation.summary()
        assert summary["slices"] == tiny_fir_implementation.slice_count
        assert summary["routing_bits"] > summary["lut_bits"]

    def test_bitstream_programmed_bits(self, tiny_fir_implementation):
        bitstream = tiny_fir_implementation.bitstream
        assert 0 < sum(bitstream.bits) < bitstream.layout.total_bits

    def test_used_resources_site_lookup(self, tiny_fir_implementation):
        resources = tiny_fir_implementation.resources
        assert resources.lut_sites and resources.ff_sites
        modeler = FaultModeler(
            tiny_fir_implementation,
            CompiledDesign(tiny_fir_implementation.design))
        for sites, index in ((resources.lut_sites, modeler.lut_sites),
                             (resources.ff_sites, modeler.ff_sites)):
            assert len(index) == len(sites)
            for site in sites:
                assert index[(site.x, site.y, site.slot)] is site
        assert (-1, -1, "F") not in modeler.lut_sites

    def test_stats_routing_dominates(self, tiny_fir_implementation):
        stats = tiny_fir_implementation.resources.stats
        assert stats.routing_fraction() > 0.6
        assert stats.lut_bits == 16 * len(
            tiny_fir_implementation.resources.lut_sites)

    def test_tmr_uses_more_slices(self, tiny_fir_implementation,
                                  tiny_tmr_implementation):
        assert tiny_tmr_implementation.slice_count > \
            3 * tiny_fir_implementation.slice_count * 0.8
