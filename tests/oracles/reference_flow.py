"""Reference (seed) implementations of the P&R hot paths.

The production router (:mod:`repro.pnr.route`), annealer
(:mod:`repro.pnr.place`) and bit-statistics pass (:mod:`repro.fpga.bitgen`)
were rewritten onto a precomputed integer-indexed routing graph for speed.
This module keeps byte-for-byte ports of the original tuple-based
algorithms so that

* the golden-equivalence tests can assert the fast flow still produces
  **bit-identical** placements, route trees and bit statistics, and
* the flow benchmark (``benchmarks/test_flow.py``) can measure the fast
  flow against the true seed baseline on the same machine.

It lives with the test oracles, outside the package: nothing in the
production flow imports it.  Do not "optimize" it — its value is that it
stays slow and obviously equivalent to the seed.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.fpga.bitgen import LutSite, FlipFlopSite
from repro.fpga.config import LUT_BITS, BitstreamStats, ConfigLayout
from repro.fpga.device import Device
from repro.fpga.routing import Node, node_tile, pips_into_tile
from repro.netlist.ir import Definition
from repro.pnr.pack import PackResult
from repro.pnr.place import (Placement, _assign_pads, _build_net_endpoints,
                              _serpentine_tiles, _wirelength)
from repro.pnr.route import (NetRequest, RouteTree, RoutingError,
                             RoutingResult, SinkSpec,
                             extract_routing_problem)

from .routing import downhill


def _manhattan(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


# ----------------------------------------------------------------------
# Seed router: tuple-keyed PathFinder with a per-instance downhill cache
# ----------------------------------------------------------------------
class ReferenceRouter:
    """The seed negotiated-congestion router, verbatim."""

    def __init__(self, device: Device, max_iterations: int = 12,
                 present_factor: float = 0.5,
                 present_growth: float = 1.8,
                 history_increment: float = 1.0,
                 allow_overuse: bool = False,
                 heuristic_weight: float = 1.3,
                 bounding_box_margin: int = 3) -> None:
        self.device = device
        self.max_iterations = max_iterations
        self.present_factor = present_factor
        self.present_growth = present_growth
        self.history_increment = history_increment
        self.allow_overuse = allow_overuse
        self.heuristic_weight = heuristic_weight
        self.bounding_box_margin = bounding_box_margin
        self._downhill_cache: Dict[Node, List[Node]] = {}
        self._extra_margin = 0

    def _downhill(self, node: Node) -> List[Node]:
        cached = self._downhill_cache.get(node)
        if cached is None:
            cached = downhill(self.device, node)
            self._downhill_cache[node] = cached
        return cached

    def route(self, requests: Sequence[NetRequest]) -> Tuple[
            Dict[str, RouteTree], int]:
        occupancy: Dict[Node, int] = {}
        history: Dict[Node, float] = {}
        trees: Dict[str, RouteTree] = {}
        present_factor = self.present_factor

        order = sorted(requests, key=lambda r: (len(r.sinks), r.name))
        to_route = list(order)
        iteration = 0
        while iteration < self.max_iterations:
            iteration += 1
            self._extra_margin = 2 * (iteration - 1)
            for request in to_route:
                existing = trees.pop(request.name, None)
                if existing is not None:
                    self._release(existing, occupancy)
                tree = self._route_net(request, occupancy, history,
                                       present_factor)
                trees[request.name] = tree
                self._claim(tree, occupancy)

            overused = {node for node, count in occupancy.items()
                        if count > 1 and node[0] == "wire"}
            if not overused:
                return trees, iteration
            for node in overused:
                history[node] = history.get(node, 0.0) + \
                    self.history_increment
            present_factor *= self.present_growth
            to_route = [request for request in order
                        if trees[request.name].nodes() & overused]

        if not self.allow_overuse:
            overused = {node for node, count in occupancy.items()
                        if count > 1 and node[0] == "wire"}
            raise RoutingError(
                f"router failed to resolve congestion after "
                f"{self.max_iterations} iterations; {len(overused)} wires "
                f"remain overused")
        return trees, iteration

    def _claim(self, tree: RouteTree, occupancy: Dict[Node, int]) -> None:
        for node in tree.nodes():
            occupancy[node] = occupancy.get(node, 0) + 1

    def _release(self, tree: RouteTree, occupancy: Dict[Node, int]) -> None:
        for node in tree.nodes():
            remaining = occupancy.get(node, 0) - 1
            if remaining <= 0:
                occupancy.pop(node, None)
            else:
                occupancy[node] = remaining

    def _route_net(self, request: NetRequest, occupancy: Dict[Node, int],
                   history: Dict[Node, float],
                   present_factor: float) -> RouteTree:
        device = self.device
        parent: Dict[Node, Node] = {}
        tree_nodes: Set[Node] = {request.source}
        sink_map: Dict[Node, SinkSpec] = {}

        source_tile = node_tile(device, request.source)
        ordered_sinks = sorted(
            request.sinks,
            key=lambda spec: _manhattan(
                source_tile, node_tile(device, spec.node)))

        bounding_box = self._net_bounding_box(request)
        for spec in ordered_sinks:
            if spec.node in tree_nodes:
                sink_map[spec.node] = spec
                continue
            path = self._find_path(tree_nodes, spec.node, occupancy, history,
                                   present_factor, bounding_box)
            if path is None:
                path = self._find_path(tree_nodes, spec.node, occupancy,
                                       history, present_factor, None)
            if path is None:
                raise RoutingError(
                    f"no path from {request.source} to {spec.node} "
                    f"for net {request.name!r}")
            previous = path[0]
            for node in path[1:]:
                if node not in parent:
                    parent[node] = previous
                previous = node
                tree_nodes.add(node)
            sink_map[spec.node] = spec

        return RouteTree(request.name, request.source, parent, sink_map)

    def _net_bounding_box(self, request: NetRequest
                          ) -> Tuple[int, int, int, int]:
        device = self.device
        tiles = [node_tile(device, request.source)]
        tiles.extend(node_tile(device, spec.node) for spec in request.sinks)
        margin = self.bounding_box_margin + self._extra_margin
        min_x = max(0, min(t[0] for t in tiles) - margin)
        min_y = max(0, min(t[1] for t in tiles) - margin)
        max_x = min(device.columns - 1, max(t[0] for t in tiles) + margin)
        max_y = min(device.rows - 1, max(t[1] for t in tiles) + margin)
        return (min_x, min_y, max_x, max_y)

    def _find_path(self, tree_nodes: Set[Node], target: Node,
                   occupancy: Dict[Node, int], history: Dict[Node, float],
                   present_factor: float,
                   bounding_box: Optional[Tuple[int, int, int, int]]
                   ) -> Optional[List[Node]]:
        device = self.device
        target_tile = node_tile(device, target)
        weight = self.heuristic_weight

        def heuristic(node: Node) -> float:
            return weight * _manhattan(node_tile(device, node), target_tile)

        came_from: Dict[Node, Optional[Node]] = {}
        best_cost: Dict[Node, float] = {}
        frontier: List[Tuple[float, float, int, Node]] = []
        counter = 0
        for node in sorted(tree_nodes):
            came_from[node] = None
            best_cost[node] = 0.0
            heapq.heappush(frontier, (heuristic(node), 0.0, counter, node))
            counter += 1

        target_x, target_y = target_tile
        infinity = float("inf")
        heappush = heapq.heappush
        heappop = heapq.heappop
        occupancy_get = occupancy.get
        history_get = history.get
        best_get = best_cost.get

        while frontier:
            _, cost_so_far, _, node = heappop(frontier)
            if cost_so_far > best_get(node, infinity):
                continue
            if node == target:
                path = [node]
                current = node
                while came_from[current] is not None:
                    current = came_from[current]
                    path.append(current)
                path.reverse()
                return path
            for neighbor in self._downhill(node):
                kind = neighbor[0]
                if kind in ("ipin", "pad_i") and neighbor != target:
                    continue
                if bounding_box is not None and kind == "wire":
                    if not (bounding_box[0] <= neighbor[1] <= bounding_box[2]
                            and bounding_box[1] <= neighbor[2]
                            <= bounding_box[3]):
                        continue
                step = 1.0 + history_get(neighbor, 0.0)
                usage = occupancy_get(neighbor, 0)
                if usage:
                    if kind == "wire":
                        step += present_factor * usage
                    else:
                        step += 1000.0
                new_cost = cost_so_far + step
                if new_cost < best_get(neighbor, infinity):
                    best_cost[neighbor] = new_cost
                    came_from[neighbor] = node
                    counter += 1
                    if kind == "pad_i":
                        estimate = 0.0
                    else:
                        estimate = weight * (abs(neighbor[1] - target_x)
                                             + abs(neighbor[2] - target_y))
                    heappush(frontier, (new_cost + estimate, new_cost,
                                        counter, neighbor))
        return None


def reference_route_design(definition: Definition, pack_result: PackResult,
                           placement: Placement, device: Device,
                           max_iterations: int = 12,
                           allow_overuse: bool = False) -> RoutingResult:
    """The seed ``route_design``: extraction plus the tuple-keyed router."""
    requests, skipped, direct = extract_routing_problem(
        definition, pack_result, placement)
    router = ReferenceRouter(device, max_iterations=max_iterations,
                             allow_overuse=allow_overuse)
    trees, iterations = router.route(requests)

    node_owner: Dict[Node, str] = {}
    pip_owner: Dict[Tuple[Node, Node], str] = {}
    wirelength = 0
    for name, tree in trees.items():
        for node in sorted(tree.nodes()):
            node_owner[node] = name
            if node[0] == "wire":
                wirelength += 1
        for pip in sorted(tree.pips()):
            pip_owner[pip] = name

    return RoutingResult(
        routes=trees,
        skipped=skipped,
        direct=direct,
        node_owner=node_owner,
        pip_owner=pip_owner,
        iterations=iterations,
        total_wirelength=wirelength,
    )


# ----------------------------------------------------------------------
# Seed annealer: swap, recompute affected nets, maybe swap back
# ----------------------------------------------------------------------
def reference_anneal(definition: Definition, pack_result: PackResult,
                     device: Device, slice_tiles: List[Tuple[int, int]],
                     cell_tiles: Dict[str, Tuple[int, int]],
                     endpoints: List[List[str]], rng: random.Random,
                     moves: int) -> int:
    """The seed ``_anneal``: pairwise-swap annealing over cell-name nets."""
    cell_slice: Dict[str, int] = {}
    for slice_index, assignment in enumerate(pack_result.slices):
        for cell in assignment.cells.values():
            cell_slice[cell] = slice_index
    nets_of_slice: Dict[int, List[int]] = {}
    for net_index, cells in enumerate(endpoints):
        for cell in cells:
            nets_of_slice.setdefault(cell_slice[cell], []).append(net_index)

    def net_length(net_index: int) -> int:
        cells = endpoints[net_index]
        xs = [cell_tiles[c][0] for c in cells]
        ys = [cell_tiles[c][1] for c in cells]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def swap(a: int, b: int) -> None:
        slice_tiles[a], slice_tiles[b] = slice_tiles[b], slice_tiles[a]
        for cell in pack_result.slices[a].cells.values():
            cell_tiles[cell] = slice_tiles[a]
        for cell in pack_result.slices[b].cells.values():
            cell_tiles[cell] = slice_tiles[b]

    current = sum(net_length(i) for i in range(len(endpoints)))
    num_slices = len(slice_tiles)
    temperature = max(2.0, current / max(1, len(endpoints)) * 0.5)

    for move in range(moves):
        a = rng.randrange(num_slices)
        b = rng.randrange(num_slices)
        if a == b:
            continue
        affected = set(nets_of_slice.get(a, ())) | set(nets_of_slice.get(b, ()))
        before = sum(net_length(i) for i in affected)
        swap(a, b)
        after = sum(net_length(i) for i in affected)
        delta = after - before
        if delta <= 0 or rng.random() < pow(2.718281828, -delta / temperature):
            current += delta
        else:
            swap(a, b)
        if move and move % max(1, moves // 10) == 0:
            temperature = max(temperature * 0.7, 0.05)
    return current


def reference_place(definition: Definition, pack_result: PackResult,
                    device: Device, seed: int = 1,
                    anneal_moves_per_slice: int = 0,
                    target_utilization: float = 0.55) -> Placement:
    """The seed ``place`` (no floorplan): constructive fill plus the
    swap-and-recompute annealer above."""
    num_slices = pack_result.num_slices
    if num_slices > device.spec.num_tiles:
        raise ValueError(
            f"design needs {num_slices} slices but {device.spec.name} has "
            f"only {device.spec.num_tiles}")

    rng = random.Random(seed)
    slice_tiles: List[Optional[Tuple[int, int]]] = [None] * num_slices

    spread_tiles = min(device.spec.num_tiles,
                       max(num_slices,
                           int(num_slices / max(target_utilization, 0.05))))
    columns_needed = min(device.columns,
                         max(1, -(-spread_tiles // device.rows)))
    first_column = max(0, (device.columns - columns_needed) // 2)
    ordered_tiles = _serpentine_tiles(
        device, range(first_column, first_column + columns_needed))
    if num_slices > 0:
        stride = len(ordered_tiles) / num_slices
        used_positions = set()
        for index in range(num_slices):
            position = min(int(index * stride), len(ordered_tiles) - 1)
            while position in used_positions:
                position += 1
            used_positions.add(position)
            slice_tiles[index] = ordered_tiles[position]

    cell_tiles: Dict[str, Tuple[int, int]] = {}
    for slice_index, tile in enumerate(slice_tiles):
        for cell_name in pack_result.slices[slice_index].cells.values():
            cell_tiles[cell_name] = tile

    endpoints = _build_net_endpoints(definition, pack_result)
    wirelength = _wirelength(endpoints, cell_tiles)

    if anneal_moves_per_slice > 0 and num_slices > 2:
        wirelength = reference_anneal(definition, pack_result, device,
                                      slice_tiles, cell_tiles, endpoints,
                                      rng, anneal_moves_per_slice
                                      * num_slices)

    port_pads = _assign_pads(definition, device)

    return Placement(
        device=device,
        slice_tiles=[tile for tile in slice_tiles],
        port_pads=port_pads,
        cell_tiles=cell_tiles,
        wirelength=wirelength,
    )


# ----------------------------------------------------------------------
# Seed bit statistics: re-enumerate the PIPs of every touched tile
# ----------------------------------------------------------------------
def reference_bit_stats(device: Device, layout: ConfigLayout,
                        lut_sites: List[LutSite],
                        ff_sites: List[FlipFlopSite],
                        used_slices: List[Tuple[int, int]],
                        routing: RoutingResult) -> BitstreamStats:
    """The seed ``compute_design_bit_stats``: linear PIP scans per node."""
    lut_bits = LUT_BITS * len(lut_sites)
    ff_bits = 0
    for _site in ff_sites:
        ff_bits += 4
    ff_bits += len(used_slices)

    used_destinations = {node for node in routing.node_owner
                         if node[0] in ("wire", "ipin", "pad_i")}
    routing_bits = 0
    counted_tiles: Dict[Tuple[int, int], List] = {}
    for node in used_destinations:
        tile = node_tile(device, node)
        if tile not in counted_tiles:
            counted_tiles[tile] = pips_into_tile(device, *tile)
        routing_bits += sum(1 for pip in counted_tiles[tile]
                            if pip[1] == node)

    return BitstreamStats(routing_bits=routing_bits, lut_bits=lut_bits,
                          ff_bits=ff_bits)
