"""Negotiated-congestion routing over the device's PIP graph.

The router follows the PathFinder recipe: every net is routed with an A*
search over the routing-resource graph, sharing of a wire by several nets is
initially tolerated but progressively penalized (present congestion cost) and
remembered (history cost), and offending nets are ripped up and rerouted
until no wire is overused.  The result records, per net, the route tree
(parent pointers, used PIPs and the path serving every sink), which is what
bitstream generation and the routing-fault models consume.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cells.library import FF_CELLS, LUT_CELLS
from ..fpga.device import (FF_DATA_PIN, FF_OUTPUT_PIN, FF_PAIRED_LUT,
                           LUT_INPUT_PIN, LUT_OUTPUT_PIN, Device)
from ..fpga.routing import (Node, Pip, RoutingGraph, pad_input, pad_output,
                            ipin, opin, routing_graph)
from ..netlist.ir import Definition, InstancePin, Net, TopPin
from .pack import PackResult, VIRTUAL_CELLS
from .place import Placement


class RoutingError(Exception):
    """Raised when the router cannot legally route the design."""


@dataclasses.dataclass
class SinkSpec:
    """One routable sink of a net."""

    node: Node
    cell: Optional[str]          # flat cell name (None for top-level ports)
    port: Optional[str]          # cell port (e.g. "I2", "D") or port name
    bit: int = 0


@dataclasses.dataclass
class NetRequest:
    """A net the router must realise."""

    name: str
    source: Node
    sinks: List[SinkSpec]


@dataclasses.dataclass
class RouteTree:
    """The routed tree of one net."""

    net: str
    source: Node
    #: node -> parent node (source has no entry)
    parent: Dict[Node, Node]
    #: sink node -> SinkSpec
    sinks: Dict[Node, SinkSpec]

    def pips(self) -> Set[Pip]:
        return {(parent, node) for node, parent in self.parent.items()}

    def nodes(self) -> Set[Node]:
        # Memoized: the defeat map probes node membership once per
        # candidate bridge/conflict bit, and trees are immutable once the
        # router returns them.  Callers must not mutate the returned set.
        result = self.__dict__.get("_nodes")
        if result is None:
            result = set(self.parent)
            result.add(self.source)
            self._nodes = result
        return result

    def sinks_through(self, node: Node) -> List[SinkSpec]:
        """Sinks whose path from the source passes through *node*.

        In the order of :attr:`sinks`; empty for a node off the tree.
        The first query of a tree memoizes every node's sink nodes in
        one post-order walk, each node's from its children's (the fault
        models ask for every candidate PIP bit landing on the tree).
        """
        memo = self.__dict__.get("_sinks_through")
        if memo is None:
            memo = self._sinks_through = self._sink_nodes_by_node()
        sinks = self.sinks
        return [sinks[sink] for sink in memo.get(node, ())]

    def _sink_nodes_by_node(self) -> Dict[Node, Tuple[Node, ...]]:
        """node -> the sink nodes at or below it, in :attr:`sinks` order.

        Values are tuples of node tuples, so a memoized tree keeps one
        collector-tracked object for the whole table.
        """
        order = {sink: index for index, sink in enumerate(self.sinks)}
        children: Dict[Node, List[Node]] = {}
        for child, parent in self.parent.items():
            children.setdefault(parent, []).append(child)
        below: Dict[Node, Tuple[Node, ...]] = {}
        stack = [self.source]
        while stack:
            node = stack[-1]
            pending = [child for child in children.get(node, ())
                       if child not in below]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            runs = [below[child] for child in children.get(node, ())]
            if node in order:
                runs.append((node,))
            if len(runs) == 1:
                below[node] = runs[0]
            else:
                below[node] = tuple(sorted(itertools.chain.from_iterable(
                    runs), key=order.__getitem__))
        return below

    def __getstate__(self) -> Dict[str, object]:
        # Keep pickled artifacts (the flow cache) free of the lazily
        # built membership and sink indexes; they are rebuilt on demand
        # after loading.
        state = self.__dict__.copy()
        state.pop("_nodes", None)
        state.pop("_sinks_through", None)
        return state


@dataclasses.dataclass
class SkippedNet:
    name: str
    reason: str


@dataclasses.dataclass
class DirectConnection:
    """A sink served by a dedicated intra-slice path (no routing)."""

    net: str
    cell: str
    port: str


@dataclasses.dataclass
class RoutingResult:
    """Complete routing of a design."""

    routes: Dict[str, RouteTree]
    skipped: List[SkippedNet]
    direct: List[DirectConnection]
    #: wire/pin node -> owning net name
    node_owner: Dict[Node, str]
    #: PIP -> owning net name
    pip_owner: Dict[Pip, str]
    iterations: int = 0
    total_wirelength: int = 0

    def used_pips(self) -> Set[Pip]:
        return set(self.pip_owner)


# ----------------------------------------------------------------------
# Routing-problem extraction
# ----------------------------------------------------------------------
def _site_of(cell: str, pack_result: PackResult, placement: Placement
             ) -> Tuple[int, int, str]:
    slice_index, slot = pack_result.cell_site[cell]
    x, y = placement.slice_tiles[slice_index]
    return x, y, slot


def _driver_node(net: Net, definition: Definition, pack_result: PackResult,
                 placement: Placement) -> Tuple[Optional[Node], Optional[str]]:
    """Return (source node, skip reason)."""
    drivers = net.drivers()
    if not drivers:
        return None, "undriven"
    if len(drivers) > 1:
        return None, "multiple-drivers"
    driver = drivers[0]
    if isinstance(driver, TopPin):
        pad = placement.port_pads.get((driver.port_name, driver.index))
        if pad is None:
            return None, "unplaced-port"
        return pad_output(pad), None
    assert isinstance(driver, InstancePin)
    cell = driver.instance
    cell_type = cell.reference.name
    if cell_type in ("GND", "VCC"):
        return None, "constant"
    if cell_type in VIRTUAL_CELLS:
        return None, "virtual-driver"
    x, y, slot = _site_of(cell.name, pack_result, placement)
    if cell_type in LUT_CELLS:
        return opin(x, y, LUT_OUTPUT_PIN[slot]), None
    if cell_type in FF_CELLS:
        return opin(x, y, FF_OUTPUT_PIN[slot]), None
    return None, f"unhandled-driver-{cell_type}"


def _sink_specs(net: Net, definition: Definition, pack_result: PackResult,
                placement: Placement, driver_cell: Optional[str]
                ) -> Tuple[List[SinkSpec], List[DirectConnection], int]:
    """Return (routable sinks, direct connections, clock sink count)."""
    sinks: List[SinkSpec] = []
    direct: List[DirectConnection] = []
    clock_sinks = 0
    for pin in net.sinks():
        if isinstance(pin, TopPin):
            pad = placement.port_pads.get((pin.port_name, pin.index))
            if pad is None:
                continue
            sinks.append(SinkSpec(pad_input(pad), None, pin.port_name,
                                  pin.index))
            continue
        assert isinstance(pin, InstancePin)
        cell = pin.instance
        cell_type = cell.reference.name
        if cell_type in VIRTUAL_CELLS:
            continue
        if cell_type in FF_CELLS and pin.port_name == "C":
            clock_sinks += 1
            continue
        x, y, slot = _site_of(cell.name, pack_result, placement)
        if cell_type in LUT_CELLS:
            index = int(pin.port_name[1:])
            pin_name = LUT_INPUT_PIN[(slot, index)]
            sinks.append(SinkSpec(ipin(x, y, pin_name), cell.name,
                                  pin.port_name))
            continue
        if cell_type in FF_CELLS:
            if pin.port_name == "D":
                slice_index, _ = pack_result.cell_site[cell.name]
                assignment = pack_result.slices[slice_index]
                paired_lut = assignment.cells.get(FF_PAIRED_LUT[slot])
                if slot in assignment.direct_ff_data and \
                        paired_lut is not None and paired_lut == driver_cell:
                    direct.append(DirectConnection(net.name, cell.name, "D"))
                    continue
                sinks.append(SinkSpec(ipin(x, y, FF_DATA_PIN[slot]),
                                      cell.name, "D"))
            elif pin.port_name == "CE":
                sinks.append(SinkSpec(ipin(x, y, "CE"), cell.name, "CE"))
            elif pin.port_name in ("R", "CLR"):
                sinks.append(SinkSpec(ipin(x, y, "SR"), cell.name,
                                      pin.port_name))
            continue
    return sinks, direct, clock_sinks


def extract_routing_problem(definition: Definition, pack_result: PackResult,
                            placement: Placement
                            ) -> Tuple[List[NetRequest], List[SkippedNet],
                                       List[DirectConnection]]:
    """Turn the flat netlist + placement into routing requests."""
    requests: List[NetRequest] = []
    skipped: List[SkippedNet] = []
    direct_connections: List[DirectConnection] = []

    for net in definition.nets.values():
        source, reason = _driver_node(net, definition, pack_result, placement)
        if source is None:
            skipped.append(SkippedNet(net.name, reason or "unroutable"))
            continue
        driver_cell = None
        drivers = net.drivers()
        if drivers and isinstance(drivers[0], InstancePin):
            driver_cell = drivers[0].instance.name
        sinks, direct, clock_sinks = _sink_specs(
            net, definition, pack_result, placement, driver_cell)
        direct_connections.extend(direct)
        if not sinks:
            if clock_sinks:
                skipped.append(SkippedNet(net.name, "global-clock"))
            elif direct:
                skipped.append(SkippedNet(net.name, "intra-slice"))
            else:
                skipped.append(SkippedNet(net.name, "no-sinks"))
            continue
        requests.append(NetRequest(net.name, source, sinks))
    return requests, skipped, direct_connections


# ----------------------------------------------------------------------
# PathFinder-style router
# ----------------------------------------------------------------------
class _SearchState:
    """Flat, epoch-stamped A* tables reused across searches.

    Replacing the per-search cost/parent dictionaries with preallocated
    lists removes the hash of every visited node id; bumping *epoch*
    invalidates the whole table in O(1) instead of clearing it.
    """

    __slots__ = ("best", "came", "mark", "epoch")

    def __init__(self, count: int) -> None:
        self.best = [0.0] * count
        self.came = [-1] * count
        self.mark = [0] * count
        self.epoch = 0


class Router:
    """Negotiated-congestion router over the flat indexed routing graph.

    The search itself is the seed PathFinder recipe, executed on integer
    node ids from the device's memoized :class:`RoutingGraph` instead of
    node tuples: cost, occupancy and history tables hash small ints, the
    neighbour lists come precomputed in ``RoutingGraph.adjacency``, and tile
    coordinates are array lookups.  Because ids are assigned in sorted
    tuple order and neighbours keep their emission order, every heap
    tie-break — and therefore every route tree — is bit-identical to the
    seed tuple router (asserted by the equivalence tests against the
    reference flow in ``tests/oracles/reference_flow.py``).
    """

    #: PathFinder present-congestion factor of the first wave, and its
    #: growth per negotiation iteration
    PRESENT_FACTOR = 0.5
    PRESENT_GROWTH = 1.8
    #: history cost a wire accrues per iteration it ends overused
    HISTORY_INCREMENT = 1.0
    #: weighted-A* factor (>1 trades a little wirelength for speed)
    HEURISTIC_WEIGHT = 1.3
    #: exploration is confined to the net's bounding box plus this margin
    #: (the margin grows on later negotiation iterations)
    BOUNDING_BOX_MARGIN = 3

    def __init__(self, device: Device, max_iterations: int = 12) -> None:
        self.device = device
        self.max_iterations = max_iterations
        self.graph: RoutingGraph = routing_graph(device)
        #: numpy per-id tables for vectorized candidate masks
        self._tables = self.graph.np_tables()
        #: reusable A* tables (epoch-stamped, never cleared)
        self._search = _SearchState(len(self.graph))
        self._extra_margin = 0

    # --------------------------------------------------------------
    def route(self, requests: Sequence[NetRequest]) -> Tuple[
            Dict[str, RouteTree], int]:
        """Route all requests; returns (trees, iterations used)."""
        graph = self.graph
        is_wire = graph.is_wire
        #: flat per-id claim counts (dense: the scan for overused wires is
        #: cheap next to one net's search)
        occupancy: List[int] = [0] * len(graph)
        history: Dict[int, float] = {}
        #: per-id ``1.0 + history`` — the step cost every unoccupied node
        #: charges; updated only when history changes so the hot loop
        #: reads one list element instead of hashing into a dict
        base_cost: List[float] = [1.0] * len(graph)
        trees: Dict[str, RouteTree] = {}
        #: per-net id set mirroring ``trees[name].nodes()``
        tree_ids: Dict[str, Set[int]] = {}
        present_factor = self.PRESENT_FACTOR

        order = sorted(requests, key=lambda r: (len(r.sinks), r.name))
        to_route = list(order)
        iteration = 0
        while iteration < self.max_iterations:
            iteration += 1
            # Congested designs get a progressively wider search window.
            self._extra_margin = 2 * (iteration - 1)
            self._route_wave(to_route, trees, tree_ids, occupancy,
                             base_cost, present_factor)

            overused = {node_id for node_id, count in enumerate(occupancy)
                        if count > 1 and is_wire[node_id]}
            if not overused:
                return trees, iteration
            for node_id in overused:
                history[node_id] = history.get(node_id, 0.0) + \
                    self.HISTORY_INCREMENT
                base_cost[node_id] = 1.0 + history[node_id]
            present_factor *= self.PRESENT_GROWTH
            # Rip up and reroute only the nets that touch an overused
            # wire; everybody else keeps their tree and its claims.
            to_route = [request for request in order
                        if tree_ids[request.name] & overused]

        overused = {node_id for node_id, count in enumerate(occupancy)
                    if count > 1 and is_wire[node_id]}
        raise RoutingError(
            f"router failed to resolve congestion after "
            f"{self.max_iterations} iterations; {len(overused)} wires "
            f"remain overused")

    # --------------------------------------------------------------
    def _route_wave(self, to_route: List[NetRequest],
                    trees: Dict[str, RouteTree],
                    tree_ids: Dict[str, Set[int]],
                    occupancy: List[int], base_cost: List[float],
                    present_factor: float) -> None:
        """Release and reroute the wave's nets one at a time, in order."""
        for request in to_route:
            self._reroute_serial(request, trees, tree_ids, occupancy,
                                 base_cost, present_factor)

    def _reroute_serial(self, request: NetRequest,
                        trees: Dict[str, RouteTree],
                        tree_ids: Dict[str, Set[int]],
                        occupancy: List[int], base_cost: List[float],
                        present_factor: float) -> None:
        existing = tree_ids.pop(request.name, None)
        if existing is not None:
            trees.pop(request.name)
            self._release(existing, occupancy)
        tree, ids = self._route_net(request, occupancy, base_cost,
                                    present_factor)
        trees[request.name] = tree
        tree_ids[request.name] = ids
        self._claim(ids, occupancy)

    # --------------------------------------------------------------
    def _claim(self, ids: Set[int], occupancy: List[int]) -> None:
        for node_id in ids:
            occupancy[node_id] += 1

    def _release(self, ids: Set[int], occupancy: List[int]) -> None:
        for node_id in ids:
            if occupancy[node_id] > 0:
                occupancy[node_id] -= 1

    def _route_net(self, request: NetRequest, occupancy: List[int],
                   base_cost: List[float], present_factor: float
                   ) -> Tuple[RouteTree, Set[int]]:
        """Route one net; returns (tree, claimed ids)."""
        graph = self.graph
        id_of = graph.node_id
        nodes = graph.nodes
        source_id = id_of[request.source]
        parent: Dict[Node, Node] = {}
        tree_ids: Set[int] = {source_id}
        sink_map: Dict[Node, SinkSpec] = {}

        # Grow the tree outwards: route near sinks first so that far sinks
        # can attach to an already-extended tree instead of searching from
        # the source every time.
        tile_x = graph.tile_x
        tile_y = graph.tile_y
        source_x = tile_x[source_id]
        source_y = tile_y[source_id]
        ordered_sinks = sorted(
            request.sinks,
            key=lambda spec: abs(tile_x[id_of[spec.node]] - source_x)
            + abs(tile_y[id_of[spec.node]] - source_y))

        bounding_box = self._net_bounding_box(request)
        # Vectorized candidate mask of the box: one byte per node, nonzero
        # when the node may not be expanded.
        blocked = self._blocked_mask(bounding_box)
        for spec in ordered_sinks:
            target_id = id_of[spec.node]
            if target_id in tree_ids:
                sink_map[spec.node] = spec
                continue
            path = self._find_path(tree_ids, target_id, occupancy,
                                   base_cost, present_factor, blocked)
            if path is None:
                # Retry once without the bounding-box restriction before
                # declaring the sink unroutable.
                path = self._find_path(
                    tree_ids, target_id, occupancy, base_cost,
                    present_factor, self._tables["sink_blocked"])
            if path is None:
                raise RoutingError(
                    f"no path from {request.source} to {spec.node} "
                    f"for net {request.name!r}")
            previous = path[0]
            for node_id in path[1:]:
                node = nodes[node_id]
                if node not in parent:
                    parent[node] = nodes[previous]
                previous = node_id
                tree_ids.add(node_id)
            sink_map[spec.node] = spec

        return RouteTree(request.name, request.source, parent,
                         sink_map), tree_ids

    def _blocked_mask(self, bounding_box: Tuple[int, int, int, int]
                      ) -> bytes:
        """Per-node expansion blocks of one net, as a flat byte mask.

        A node is blocked when it is a sink (the search special-cases its
        own target) or a wire outside the net's box.  Computing this once
        per net with numpy replaces two predicate checks per visited edge
        in the hot loop.
        """
        tables = self._tables
        min_x, min_y, max_x, max_y = bounding_box
        tile_x = tables["tile_x"]
        tile_y = tables["tile_y"]
        outside = (tile_x < min_x) | (tile_x > max_x) \
            | (tile_y < min_y) | (tile_y > max_y)
        return ((tables["is_wire"] & outside)
                | tables["is_sink"]).tobytes()

    def _net_bounding_box(self, request: NetRequest
                          ) -> Tuple[int, int, int, int]:
        """Bounding box (min x, min y, max x, max y) of the net's terminals,
        expanded by the configured margin."""
        graph = self.graph
        id_of = graph.node_id
        tile_x = graph.tile_x
        tile_y = graph.tile_y
        terminal_ids = [id_of[request.source]]
        terminal_ids.extend(id_of[spec.node] for spec in request.sinks)
        xs = [tile_x[node_id] for node_id in terminal_ids]
        ys = [tile_y[node_id] for node_id in terminal_ids]
        margin = self.BOUNDING_BOX_MARGIN + self._extra_margin
        device = self.device
        min_x = max(0, min(xs) - margin)
        min_y = max(0, min(ys) - margin)
        max_x = min(device.columns - 1, max(xs) + margin)
        max_y = min(device.rows - 1, max(ys) + margin)
        return (min_x, min_y, max_x, max_y)

    def _find_path(self, tree_ids: Set[int], target: int,
                   occupancy: List[int], base_cost: List[float],
                   present_factor: float,
                   blocked: bytes) -> Optional[List[int]]:
        """A* from the existing tree to *target*.

        The cost arithmetic, push order and tie-breaks are exactly the
        seed recipe's (``base_cost[n]`` is the precomputed ``1.0 +
        history``), so the returned path is bit-identical to the
        reference router's; *blocked* (see :meth:`_blocked_mask`) stands
        in for its inline sink and bounding-box predicates.
        """
        graph = self.graph
        tile_x = graph.tile_x
        tile_y = graph.tile_y
        is_wire = graph.is_wire
        is_pad_in = graph.is_pad_in
        adjacency = graph.adjacency
        weight = self.HEURISTIC_WEIGHT
        target_x = tile_x[target]
        target_y = tile_y[target]

        state = self._search
        state.epoch += 1
        epoch = state.epoch
        best = state.best
        came = state.came
        mark = state.mark

        frontier: List[Tuple[float, float, int, int]] = []
        counter = 0
        # Seed in sorted id order; ids are assigned in sorted node-tuple
        # order, so equal-cost heap pops match the seed router exactly and
        # never depend on the per-process hash seed.
        for node_id in sorted(tree_ids):
            mark[node_id] = epoch
            came[node_id] = -1
            best[node_id] = 0.0
            estimate = weight * (abs(tile_x[node_id] - target_x)
                                 + abs(tile_y[node_id] - target_y))
            heapq.heappush(frontier, (estimate, 0.0, counter, node_id))
            counter += 1

        # Hot loop: the helpers are inlined because this search dominates the
        # implementation runtime of large TMR designs.
        heappush = heapq.heappush
        heappop = heapq.heappop

        while frontier:
            _, cost_so_far, _, node_id = heappop(frontier)
            if cost_so_far > best[node_id]:
                continue
            if node_id == target:
                path = [node_id]
                current = node_id
                while came[current] >= 0:
                    current = came[current]
                    path.append(current)
                path.reverse()
                return path
            for neighbor in adjacency[node_id]:
                if blocked[neighbor] and neighbor != target:
                    continue
                step = base_cost[neighbor]
                usage = occupancy[neighbor]
                if usage:
                    if is_wire[neighbor]:
                        step += present_factor * usage
                    else:
                        step += 1000.0
                new_cost = cost_so_far + step
                if mark[neighbor] != epoch or new_cost < best[neighbor]:
                    mark[neighbor] = epoch
                    best[neighbor] = new_cost
                    came[neighbor] = node_id
                    counter += 1
                    if is_pad_in[neighbor]:
                        estimate = 0.0
                    else:
                        estimate = weight * (
                            abs(tile_x[neighbor] - target_x)
                            + abs(tile_y[neighbor] - target_y))
                    heappush(frontier, (new_cost + estimate, new_cost,
                                        counter, neighbor))
        return None


def route_design(definition: Definition, pack_result: PackResult,
                 placement: Placement, device: Device,
                 max_iterations: int = 12) -> RoutingResult:
    """Extract the routing problem and run the negotiated-congestion router."""
    requests, skipped, direct = extract_routing_problem(
        definition, pack_result, placement)
    router = Router(device, max_iterations=max_iterations)
    trees, iterations = router.route(requests)

    node_owner: Dict[Node, str] = {}
    pip_owner: Dict[Pip, str] = {}
    wirelength = 0
    for name, tree in trees.items():
        # nodes()/pips() are sets of string-bearing tuples; sort so the
        # ownership dictionaries (and everything downstream of their
        # iteration order, e.g. fault-list construction) never depend on
        # the per-process hash seed.
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
