"""Routing-fabric model: wires, programmable interconnect points (PIPs) and
the connectivity rules that generate them.

Routing resources are identified by plain tuples so they can be used as
dictionary keys and serialized cheaply:

* ``("opin", x, y, pin)``  — a slice output pin (``X``/``Y``/``XQ``/``YQ``)
* ``("ipin", x, y, pin)``  — a slice input pin (``F1``..``G4``, ``BX``,
  ``BY``, ``CE``, ``SR``)
* ``("wire", x, y, d, i)`` — general routing wire *i* leaving tile ``(x, y)``
  in direction *d* and terminating in the adjacent tile
* ``("pad_o", k)``         — the fabric-driving side of I/O pad *k* (used
  when the pad is an input of the design)
* ``("pad_i", k)``         — the fabric-reading side of I/O pad *k* (used
  when the pad is an output of the design)

A PIP is a directed ``(source_node, sink_node)`` pair controlled by one
configuration bit.  The connectivity rules below are deterministic functions
of the device geometry: :class:`RoutingGraph` tabulates every node's
*downhill* neighbours (the nodes one PIP away) once per device profile for
the router, and the configuration-layout code enumerates the PIPs owned by
one tile on demand.  The tests check the table against a one-node-at-a-time
statement of the same rules, ``tests/oracles/routing.py``.

All PIP bits are modelled as independent pass-transistor-style bits.  This is
the simplification that lets a single flipped bit produce the paper's four
routing-upset effects directly: turning a used PIP off is an *Open*; turning
an unused PIP on can create a *Bridge*, a *Conflict* or an *Input-Antenna*
depending on whether its two ends are used (see
:mod:`repro.faults.models`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy

from .device import (DIRECTIONS, OPPOSITE, SLICE_INPUT_PINS, SLICE_OUTPUT_PINS, Device)

Node = Tuple
Pip = Tuple[Node, Node]

_OPIN_ORDINAL = {pin: index for index, pin in enumerate(SLICE_OUTPUT_PINS)}
_IPIN_ORDINAL = {pin: index for index, pin in enumerate(SLICE_INPUT_PINS)}


# ----------------------------------------------------------------------
# Node constructors / predicates
# ----------------------------------------------------------------------
def opin(x: int, y: int, pin: str) -> Node:
    return ("opin", x, y, pin)


def ipin(x: int, y: int, pin: str) -> Node:
    return ("ipin", x, y, pin)


def wire(x: int, y: int, direction: str, index: int) -> Node:
    return ("wire", x, y, direction, index)


def pad_output(pad_index: int) -> Node:
    return ("pad_o", pad_index)


def pad_input(pad_index: int) -> Node:
    return ("pad_i", pad_index)


def node_tile(device: Device, node: Node) -> Tuple[int, int]:
    """The tile a node belongs to (a pad belongs to its perimeter tile)."""
    kind = node[0]
    if kind in ("opin", "ipin", "wire"):
        return (node[1], node[2])
    pad = device.pads[node[1]]
    return (pad.x, pad.y)


# ----------------------------------------------------------------------
# Connectivity rules
# ----------------------------------------------------------------------
def opin_wire_indices(device: Device, pin: str) -> List[int]:
    """Wire indices a slice output pin may drive (4 consecutive indices)."""
    width = device.spec.wires_per_direction
    base = (2 * _OPIN_ORDINAL[pin]) % width
    return [(base + offset) % width for offset in range(min(4, width))]


def pad_wire_indices(device: Device, pad_index: int) -> List[int]:
    """Wire indices an input pad may drive."""
    width = device.spec.wires_per_direction
    base = (3 * pad_index) % width
    return [(base + offset) % width for offset in range(min(4, width))]


def ipin_accepts(device: Device, pin: str, wire_index: int) -> bool:
    """Whether a slice input pin's mux has a PIP from wires of this index.

    Input muxes are fully populated (every arriving wire index is a
    candidate), which mirrors the large input multiplexers of the Spartan-II
    CLB and keeps the fabric easily routable.
    """
    return True


def pad_accepts(pad_index: int, wire_index: int) -> bool:
    """Whether an output pad's mux has a PIP from wires of this index."""
    return True


def spip_out_indices(device: Device, in_direction: str, out_direction: str,
                     wire_index: int) -> List[int]:
    """Outgoing wire indices reachable from an arriving wire in a switch box.

    Turning connections keep the wire index ("subset" switch box); the
    straight-through connection additionally offers ``index + 2``, giving the
    router some track mobility along long straight runs.
    """
    width = device.spec.wires_per_direction
    if out_direction == in_direction:
        return [wire_index, (wire_index + 2) % width]
    return [wire_index]


def opin_feeds_ipin(pin_out: str, pin_in: str) -> bool:
    """Whether a local feedback PIP exists from an output pin to an input pin.

    The dedicated LUT→FF data path inside the slice is *not* a PIP (it is the
    DMUX slice configuration bit); these feedback PIPs model the local lines
    that let a slice output reach the inputs of its own tile without using
    general routing.
    """
    return (_OPIN_ORDINAL[pin_out] + _IPIN_ORDINAL[pin_in]) % 2 == 0


def incoming_wires(device: Device, x: int, y: int) -> List[Node]:
    """Wires owned by neighbouring tiles that terminate in tile ``(x, y)``."""
    result: List[Node] = []
    width = device.spec.wires_per_direction
    for direction, (dx, dy) in DIRECTIONS.items():
        # A wire arriving here travels in `direction` from the tile at the
        # opposite offset.
        source_x, source_y = x - dx, y - dy
        if not device.in_bounds(source_x, source_y):
            continue
        for index in range(width):
            result.append(wire(source_x, source_y, direction, index))
    return result


# ----------------------------------------------------------------------
# Flat indexed routing-resource graph
# ----------------------------------------------------------------------
class RoutingGraph:
    """The device's routing resources as flat integer-indexed arrays.

    The router's A* search spends nearly all of its time hashing node
    tuples into cost/occupancy dictionaries and re-deriving neighbour
    lists.  This class enumerates the full node universe once per device,
    assigns every node an integer id, and exposes

    * ``node_id`` / ``nodes`` — the tuple <-> id bijection,
    * ``tile_x`` / ``tile_y`` — per-id tile coordinates (a pad maps to its
      perimeter tile),
    * ``is_sink`` / ``is_wire`` / ``is_pad_in`` — per-id kind predicates,
    * ``adjacency`` — per-id neighbour ids in rule order: wires, then
      slice input pins, then pads (heap tie-breaking, and therefore every
      route tree, depends on that order).

    Ids are assigned in sorted node-tuple order, so sorting ids is the
    same as sorting tuples — the property the router's deterministic
    frontier seeding relies on.

    Graphs are memoized per :class:`~repro.fpga.device.DeviceSpec` via
    :func:`routing_graph`; one graph serves every net, negotiation
    iteration, design and placement attempt on that device profile.
    """

    def __init__(self, device: Device) -> None:
        self.device = device
        width = device.spec.wires_per_direction
        nodes: List[Node] = []
        for x in range(device.columns):
            for y in range(device.rows):
                for pin in SLICE_OUTPUT_PINS:
                    nodes.append(opin(x, y, pin))
                for pin in SLICE_INPUT_PINS:
                    nodes.append(ipin(x, y, pin))
                for direction in DIRECTIONS:
                    if device.wire_exists(x, y, direction):
                        for index in range(width):
                            nodes.append(wire(x, y, direction, index))
        for pad in device.pads:
            nodes.append(pad_output(pad.index))
            nodes.append(pad_input(pad.index))
        nodes.sort()
        self.nodes: List[Node] = nodes
        self.node_id: Dict[Node, int] = {
            node: index for index, node in enumerate(nodes)}
        count = len(nodes)
        self.tile_x: List[int] = [0] * count
        self.tile_y: List[int] = [0] * count
        self.is_sink: List[bool] = [False] * count
        self.is_wire: List[bool] = [False] * count
        self.is_pad_in: List[bool] = [False] * count
        for index, node in enumerate(nodes):
            tile = node_tile(device, node)
            self.tile_x[index] = tile[0]
            self.tile_y[index] = tile[1]
            kind = node[0]
            self.is_sink[index] = kind in ("ipin", "pad_i")
            self.is_wire[index] = kind == "wire"
            self.is_pad_in[index] = kind == "pad_i"
        #: per-id neighbour ids: tuples of ints, which the collector
        #: untracks, so the table adds no long-lived tracked objects to
        #: the process (and to every flow worker forked from it)
        self.adjacency: List[Tuple[int, ...]] = self._build_adjacency()
        self._np_tables: Optional[Dict[str, object]] = None

    def __len__(self) -> int:
        return len(self.nodes)

    def id_of(self, node: Node) -> int:
        return self.node_id[node]

    # --------------------------------------------------------------
    def _build_adjacency(self) -> List[Tuple[int, ...]]:
        """The whole adjacency table, in one bulk pass.

        Produces, for every node, the ids of its one-PIP neighbours in
        rule order (the equivalence tests compare it with the tuple-level
        rule in ``tests/oracles/routing.py``), via integer grid lookups
        instead of constructing and hashing one node tuple per neighbour.
        """
        device = self.device
        width = device.spec.wires_per_direction
        nodes = self.nodes
        columns, rows = device.columns, device.rows
        dir_list = list(DIRECTIONS)
        dir_ordinal = {d: i for i, d in enumerate(dir_list)}
        num_ipins = len(SLICE_INPUT_PINS)

        # Integer id grids, filled from the already-sorted node universe.
        wire_grid = [-1] * (columns * rows * len(dir_list) * width)
        ipin_grid = [-1] * (columns * rows * num_ipins)
        pad_in_id: Dict[int, int] = {}
        for node_id, node in enumerate(nodes):
            kind = node[0]
            if kind == "wire":
                _, x, y, direction, index = node
                wire_grid[((x * rows + y) * len(dir_list)
                           + dir_ordinal[direction]) * width + index] = \
                    node_id
            elif kind == "ipin":
                _, x, y, pin = node
                ipin_grid[(x * rows + y) * num_ipins
                          + _IPIN_ORDINAL[pin]] = node_id
            elif kind == "pad_i":
                pad_in_id[node[1]] = node_id

        # Small rule tables, evaluated once instead of per node.
        opin_indices = {pin: opin_wire_indices(device, pin)
                        for pin in SLICE_OUTPUT_PINS}
        spip_table = {
            (d_in, d_out): [spip_out_indices(device, d_in, d_out, index)
                            for index in range(width)]
            for d_in in dir_list for d_out in dir_list
            if d_out != OPPOSITE[d_in]}
        feedback = {pin: [_IPIN_ORDINAL[pin_in]
                          for pin_in in SLICE_INPUT_PINS
                          if opin_feeds_ipin(pin, pin_in)]
                    for pin in SLICE_OUTPUT_PINS}
        pads_at = {}
        for pad in device.pads:
            pads_at.setdefault((pad.x, pad.y), []).append(pad.index)

        adjacency: List[Tuple[int, ...]] = []
        for node in nodes:
            kind = node[0]
            result: List[int] = []
            if kind == "opin":
                _, x, y, pin = node
                tile = (x * rows + y) * len(dir_list)
                for d_index in range(len(dir_list)):
                    base = (tile + d_index) * width
                    if wire_grid[base] >= 0:
                        for index in opin_indices[pin]:
                            result.append(wire_grid[base + index])
                ipin_base = (x * rows + y) * num_ipins
                for ordinal in feedback[pin]:
                    result.append(ipin_grid[ipin_base + ordinal])
                for pad_index in pads_at.get((x, y), ()):
                    result.append(pad_in_id[pad_index])
            elif kind == "pad_o":
                pad_index = node[1]
                pad = device.pads[pad_index]
                indices = pad_wire_indices(device, pad_index)
                tile = (pad.x * rows + pad.y) * len(dir_list)
                for d_index in range(len(dir_list)):
                    base = (tile + d_index) * width
                    if wire_grid[base] >= 0:
                        for index in indices:
                            result.append(wire_grid[base + index])
                ipin_base = (pad.x * rows + pad.y) * num_ipins
                for ordinal in range(num_ipins):
                    if (pad_index + ordinal) % 2 == 0:
                        result.append(ipin_grid[ipin_base + ordinal])
            elif kind == "wire":
                _, x, y, direction, index = node
                target = device.neighbor(x, y, direction)
                if target is not None:
                    tx, ty = target
                    tile = (tx * rows + ty) * len(dir_list)
                    for out_direction in dir_list:
                        key = (direction, out_direction)
                        if key not in spip_table:
                            continue
                        base = (tile + dir_ordinal[out_direction]) * width
                        if wire_grid[base] >= 0:
                            for out_index in spip_table[key][index]:
                                result.append(wire_grid[base + out_index])
                    ipin_base = (tx * rows + ty) * num_ipins
                    for ordinal in range(num_ipins):
                        result.append(ipin_grid[ipin_base + ordinal])
                    for pad_index in pads_at.get((tx, ty), ()):
                        result.append(pad_in_id[pad_index])
            # ipin / pad_i are sinks: no neighbours.
            adjacency.append(tuple(result))
        return adjacency

    def np_tables(self) -> Dict[str, object]:
        """Numpy copies of the per-id tables.

        Used by the router to compute per-net candidate masks in one
        vectorized pass; the list tables stay authoritative.
        """
        if self._np_tables is None:
            self._np_tables = {
                "tile_x": numpy.asarray(self.tile_x, dtype=numpy.int32),
                "tile_y": numpy.asarray(self.tile_y, dtype=numpy.int32),
                "is_sink": numpy.asarray(self.is_sink, dtype=bool),
                "is_wire": numpy.asarray(self.is_wire, dtype=bool),
                # The unbounded-search mask: only foreign sinks blocked.
                "sink_blocked": numpy.asarray(self.is_sink,
                                              dtype=bool).tobytes(),
            }
        return self._np_tables


#: RoutingGraph per DeviceSpec; specs are frozen dataclasses, and the
#: handful of device profiles bounds this cache naturally.
_GRAPH_CACHE: Dict[object, RoutingGraph] = {}


def routing_graph(device: Device) -> RoutingGraph:
    """The memoized flat routing graph of a device profile."""
    graph = _GRAPH_CACHE.get(device.spec)
    if graph is None:
        graph = RoutingGraph(device)
        _GRAPH_CACHE[device.spec] = graph
    return graph


def clear_routing_graph_cache() -> None:
    """Drop memoized routing graphs (used by cold-start benchmarks)."""
    _GRAPH_CACHE.clear()
    _TILE_PIP_TEMPLATES.clear()


#: Per-device-spec translation templates for pad-free tile classes.
_TILE_PIP_TEMPLATES: Dict[object, Dict[object,
                                       Tuple[int, int, List[Pip]]]] = {}


def _tile_pip_class(device: Device, x: int, y: int) -> Optional[object]:
    """Translation-class key of a tile, or None when not translatable.

    Every connectivity rule (:func:`opin_wire_indices`,
    :func:`spip_out_indices`, ...) depends only on pins, directions and
    wire indices — never on coordinates — so two pad-free tiles with the
    same outgoing directions and the same *relative* arriving-wire set
    enumerate identical PIP lists up to an (x, y) translation.  Tiles
    with pads embed pad indices inside their PIPs and are computed
    directly.
    """
    if device.pads_at(x, y):
        return None
    outgoing = tuple(direction for direction in sorted(DIRECTIONS)
                     if device.wire_exists(x, y, direction))
    arriving = tuple((source[1] - x, source[2] - y, source[3], source[4])
                     for source in incoming_wires(device, x, y))
    return (outgoing, arriving)


def _translate_pips(template: List[Pip], dx: int, dy: int) -> List[Pip]:
    """Shift every node of a pad-free tile's PIP list by ``(dx, dy)``.

    Inlined tuple rebuilds: this runs for every interior tile of the
    array, and per-node helper calls measurably dominate it.
    """
    result: List[Pip] = []
    append = result.append
    for source, destination in template:
        if source[0] == "wire":
            source = (source[0], source[1] + dx, source[2] + dy,
                      source[3], source[4])
        else:
            source = (source[0], source[1] + dx, source[2] + dy, source[3])
        if destination[0] == "wire":
            destination = (destination[0], destination[1] + dx,
                           destination[2] + dy, destination[3],
                           destination[4])
        else:
            destination = (destination[0], destination[1] + dx,
                           destination[2] + dy, destination[3])
        append((source, destination))
    return result


def pips_into_tile(device: Device, x: int, y: int) -> List[Pip]:
    """All PIPs whose configuration bit lives in tile ``(x, y)``.

    A PIP's bit is stored with its *destination* resource: the wires owned by
    the tile, the tile's slice input pins and the tile's output pads.  The
    returned order is deterministic and is the canonical order used by the
    configuration-memory layout.

    Pad-free tiles of the same translation class (see
    :func:`_tile_pip_class`) share one enumerated template, translated to
    the requested coordinates — the fault-list and configuration-layout
    builders touch every tile of the array, and almost all of them are
    interior tiles of a single class.
    """
    key = _tile_pip_class(device, x, y)
    if key is not None:
        templates = _TILE_PIP_TEMPLATES.setdefault(device.spec, {})
        entry = templates.get(key)
        if entry is not None:
            x0, y0, template = entry
            dx, dy = x - x0, y - y0
            if dx == 0 and dy == 0:
                return list(template)
            return _translate_pips(template, dx, dy)
        pips = _compute_pips_into_tile(device, x, y)
        templates[key] = (x, y, pips)
        return list(pips)
    return _compute_pips_into_tile(device, x, y)


def _compute_pips_into_tile(device: Device, x: int, y: int) -> List[Pip]:
    pips: List[Pip] = []
    width = device.spec.wires_per_direction

    # 1. PIPs driving the wires owned by this tile: from local output pins,
    #    from local pads, and from incoming wires (switch-box PIPs).
    local_sources: List[Node] = [opin(x, y, pin) for pin in SLICE_OUTPUT_PINS]
    local_sources.extend(pad_output(pad.index) for pad in device.pads_at(x, y))
    arriving = incoming_wires(device, x, y)

    for direction in sorted(DIRECTIONS):
        if not device.wire_exists(x, y, direction):
            continue
        for index in range(width):
            destination = wire(x, y, direction, index)
            for source in local_sources:
                if source[0] == "opin":
                    if index in opin_wire_indices(device, source[3]):
                        pips.append((source, destination))
                else:
                    if index in pad_wire_indices(device, source[1]):
                        pips.append((source, destination))
            for source in arriving:
                arrival_direction = source[3]
                if direction == OPPOSITE[arrival_direction]:
                    continue
                if index in spip_out_indices(device, arrival_direction,
                                             direction, source[4]):
                    pips.append((source, destination))

    # 2. PIPs driving this tile's slice input pins.
    for pin_in in SLICE_INPUT_PINS:
        destination = ipin(x, y, pin_in)
        for source in arriving:
            if ipin_accepts(device, pin_in, source[4]):
                pips.append((source, destination))
        for pin_out in SLICE_OUTPUT_PINS:
            if opin_feeds_ipin(pin_out, pin_in):
                pips.append((opin(x, y, pin_out), destination))
        for pad in device.pads_at(x, y):
            if (pad.index + _IPIN_ORDINAL[pin_in]) % 2 == 0:
                pips.append((pad_output(pad.index), destination))

    # 3. PIPs driving this tile's output pads.
    for pad in device.pads_at(x, y):
        destination = pad_input(pad.index)
        for source in arriving:
            if pad_accepts(pad.index, source[4]):
                pips.append((source, destination))
        for pin_out in SLICE_OUTPUT_PINS:
            pips.append((opin(x, y, pin_out), destination))

    return pips


def count_tile_pips(device: Device, x: int, y: int) -> int:
    """Number of PIP bits owned by one tile (without materializing them)."""
    return len(pips_into_tile(device, x, y))


def pip_tile(device: Device, pip: Pip) -> Tuple[int, int]:
    """The tile that owns a PIP's configuration bit (its destination tile)."""
    return node_tile(device, pip[1])
