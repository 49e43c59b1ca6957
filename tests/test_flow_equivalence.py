"""The fast implementation flow is bit-identical to the seed flow.

The router, annealer and bit-statistics pass were rewritten for speed
(integer-indexed routing graph, incremental move deltas, memoized PIP
fan-in tables).  These tests pin the rewrite to the seed algorithms kept
in :mod:`oracles.reference_flow`: same placements, same route trees, same
Table 2 bit accounting — so every table and campaign number of the paper
reproduction is unchanged by the optimization.
"""

import pytest

from repro.fpga import device_by_name
from repro.fpga.routing import clear_routing_graph_cache, routing_graph
from repro.netlist import flatten
from repro.pnr import netlist_fingerprint, pack, place, route_design

from oracles.reference_flow import (reference_bit_stats, reference_place,
                                    reference_route_design)
from oracles.routing import downhill


@pytest.fixture(scope="module")
def tmr_flat(tiny_fir, tiny_tmr_suite):
    netlist, _spec, _top, _components = tiny_fir
    return flatten(netlist, tiny_tmr_suite["p2"].definition,
                   flat_name="fir_tiny_p2_equiv")


@pytest.fixture(scope="module")
def suite_flats(tiny_fir, tiny_tmr_suite):
    """All five design versions of the tiny filter, flattened."""
    netlist, _spec, top, _components = tiny_fir
    flats = {"standard": flatten(netlist, top, flat_name="fir_tiny_std_eq")}
    for name, result in tiny_tmr_suite.items():
        flats[name] = flatten(netlist, result.definition,
                              flat_name=f"fir_tiny_{name}_eq")
    return flats


class TestRoutingGraph:
    def test_ids_follow_sorted_tuple_order(self, small_device):
        graph = routing_graph(small_device)
        assert graph.nodes == sorted(graph.nodes)
        assert all(graph.node_id[node] == index
                   for index, node in enumerate(graph.nodes))

    def test_adjacency_preserves_downhill_order(self, small_device):
        graph = routing_graph(small_device)
        assert len(graph.adjacency) == len(graph.nodes)
        for node_id, node in enumerate(graph.nodes):
            expected = tuple(graph.node_id[neighbor]
                             for neighbor in downhill(small_device, node))
            assert graph.adjacency[node_id] == expected, node

    def test_graph_memoized_per_spec(self, small_device):
        assert routing_graph(small_device) is routing_graph(small_device)
        other = device_by_name("XC2S15E")
        assert routing_graph(other) is routing_graph(small_device)
        clear_routing_graph_cache()
        assert routing_graph(small_device) is not None


class TestPlacementEquivalence:
    @pytest.mark.parametrize("moves", [0, 10, 40])
    def test_place_matches_reference(self, tiny_fir_flat, small_device,
                                     moves):
        packed = pack(tiny_fir_flat)
        fast = place(tiny_fir_flat, packed, small_device, seed=3,
                     anneal_moves_per_slice=moves)
        seed = reference_place(tiny_fir_flat, packed, small_device, seed=3,
                               anneal_moves_per_slice=moves)
        assert fast.slice_tiles == seed.slice_tiles
        assert fast.port_pads == seed.port_pads
        assert fast.cell_tiles == seed.cell_tiles
        assert fast.wirelength == seed.wirelength

    def test_tmr_place_matches_reference(self, tmr_flat):
        device = device_by_name("XC2S50E")
        packed = pack(tmr_flat)
        fast = place(tmr_flat, packed, device, seed=1,
                     anneal_moves_per_slice=6)
        seed = reference_place(tmr_flat, packed, device, seed=1,
                               anneal_moves_per_slice=6)
        assert fast.slice_tiles == seed.slice_tiles
        assert fast.wirelength == seed.wirelength


class TestRoutingEquivalence:
    def _assert_same_routing(self, fast, seed):
        assert fast.routes.keys() == seed.routes.keys()
        for name, tree in fast.routes.items():
            reference_tree = seed.routes[name]
            assert tree.source == reference_tree.source
            assert tree.parent == reference_tree.parent
            assert tree.sinks == reference_tree.sinks
        assert fast.node_owner == seed.node_owner
        assert fast.pip_owner == seed.pip_owner
        assert fast.iterations == seed.iterations
        assert fast.total_wirelength == seed.total_wirelength
        assert [s.name for s in fast.skipped] == \
            [s.name for s in seed.skipped]

    def test_route_matches_reference(self, tiny_fir_flat, small_device):
        packed = pack(tiny_fir_flat)
        placement = place(tiny_fir_flat, packed, small_device, seed=1,
                          anneal_moves_per_slice=2)
        fast = route_design(tiny_fir_flat, packed, placement, small_device,
                            max_iterations=20)
        seed = reference_route_design(tiny_fir_flat, packed, placement,
                                      small_device, max_iterations=20)
        self._assert_same_routing(fast, seed)

    def test_tmr_route_matches_reference(self, tmr_flat):
        # The TMR netlist congests the fabric enough to exercise several
        # negotiation iterations (rip-up, history costs, wider windows).
        device = device_by_name("XC2S50E")
        packed = pack(tmr_flat)
        placement = place(tmr_flat, packed, device, seed=1,
                          anneal_moves_per_slice=2)
        fast = route_design(tmr_flat, packed, placement, device,
                            max_iterations=20)
        seed = reference_route_design(tmr_flat, packed, placement, device,
                                      max_iterations=20)
        self._assert_same_routing(fast, seed)

    @pytest.mark.parametrize("name", ["standard", "p1", "p2", "p3",
                                      "p3_nv"])
    def test_route_matches_reference_all_designs(self, suite_flats, name):
        # Every design version of the suite — the unprotected filter and
        # all four TMR partitions — routes bit-identically through the
        # indexed router and the seed single-net router.
        flat = suite_flats[name]
        device = device_by_name("XC2S50E")
        packed = pack(flat)
        placement = place(flat, packed, device, seed=1,
                          anneal_moves_per_slice=2)
        fast = route_design(flat, packed, placement, device,
                            max_iterations=20)
        seed = reference_route_design(flat, packed, placement, device,
                                      max_iterations=20)
        self._assert_same_routing(fast, seed)


class TestBitStatsEquivalence:
    def test_stats_match_reference(self, tiny_fir_implementation):
        implementation = tiny_fir_implementation
        seed = reference_bit_stats(
            implementation.device, implementation.layout,
            implementation.resources.lut_sites,
            implementation.resources.ff_sites,
            implementation.resources.used_slices,
            implementation.routing)
        assert implementation.resources.stats == seed


class TestDeterminism:
    def test_identical_rebuild_identical_fingerprint_and_routes(self):
        from repro.netlist import Netlist
        from repro.pnr import implement
        from repro.rtl import FirSpec, build_fir

        def build():
            netlist = Netlist("determinism")
            spec = FirSpec.scaled(3, 4, name="fir_det")
            top, _components = build_fir(netlist, spec)
            return flatten(netlist, top, flat_name="fir_det_flat")

        first, second = build(), build()
        assert netlist_fingerprint(first) == netlist_fingerprint(second)

        device = device_by_name("XC2S15E")
        impl_a = implement(first, device, seed=7, anneal_moves_per_slice=3)
        impl_b = implement(second, device, seed=7, anneal_moves_per_slice=3)
        assert impl_a.placement.slice_tiles == impl_b.placement.slice_tiles
        assert {n: t.parent for n, t in impl_a.routing.routes.items()} == \
            {n: t.parent for n, t in impl_b.routing.routes.items()}
        assert bytes(impl_a.bitstream.bits) == bytes(impl_b.bitstream.bits)

    def test_seed_changes_routes(self):
        from repro.netlist import Netlist
        from repro.pnr import flow_fingerprint, implement
        from repro.rtl import FirSpec, build_fir

        netlist = Netlist("determinism2")
        spec = FirSpec.scaled(3, 4, name="fir_det2")
        top, _components = build_fir(netlist, spec)
        flat = flatten(netlist, top, flat_name="fir_det2_flat")
        device = device_by_name("XC2S15E")
        assert flow_fingerprint(flat, device, seed=1) != \
            flow_fingerprint(flat, device, seed=2)
