"""The tuple-level routing rule: one node's downhill neighbours.

:class:`repro.fpga.routing.RoutingGraph` builds every node's neighbour ids
in one bulk pass over integer grids.  :func:`downhill` states the same
connectivity rules one node at a time, on node tuples, in the order the
router's heap tie-breaking depends on; the tests hold the graph's
``adjacency`` to it, and the seed router in :mod:`oracles.reference_flow`
searches with it.
"""

from __future__ import annotations

from typing import List

from repro.fpga.device import DIRECTIONS, OPPOSITE, SLICE_INPUT_PINS, Device
from repro.fpga.routing import (Node, ipin, ipin_accepts, opin_feeds_ipin,
                                opin_wire_indices, pad_accepts, pad_input,
                                pad_wire_indices, spip_out_indices, wire)


def downhill(device: Device, node: Node) -> List[Node]:
    """All nodes reachable from *node* through exactly one PIP."""
    kind = node[0]
    result: List[Node] = []

    if kind == "opin":
        _, x, y, pin = node
        indices = opin_wire_indices(device, pin)
        for direction in DIRECTIONS:
            if device.wire_exists(x, y, direction):
                for index in indices:
                    result.append(wire(x, y, direction, index))
        for pin_in in SLICE_INPUT_PINS:
            if opin_feeds_ipin(pin, pin_in):
                result.append(ipin(x, y, pin_in))
        for pad in device.pads_at(x, y):
            result.append(pad_input(pad.index))
        return result

    if kind == "pad_o":
        pad = device.pads[node[1]]
        indices = pad_wire_indices(device, node[1])
        for direction in DIRECTIONS:
            if device.wire_exists(pad.x, pad.y, direction):
                for index in indices:
                    result.append(wire(pad.x, pad.y, direction, index))
        for ordinal, pin_in in enumerate(SLICE_INPUT_PINS):
            if (node[1] + ordinal) % 2 == 0:
                result.append(ipin(pad.x, pad.y, pin_in))
        return result

    if kind == "wire":
        _, x, y, direction, index = node
        target = device.neighbor(x, y, direction)
        if target is None:
            return result
        tx, ty = target
        comes_from = OPPOSITE[direction]
        for out_direction in DIRECTIONS:
            if out_direction == comes_from:
                continue
            if device.wire_exists(tx, ty, out_direction):
                for out_index in spip_out_indices(device, direction,
                                                  out_direction, index):
                    result.append(wire(tx, ty, out_direction, out_index))
        for pin_in in SLICE_INPUT_PINS:
            if ipin_accepts(device, pin_in, index):
                result.append(ipin(tx, ty, pin_in))
        for pad in device.pads_at(tx, ty):
            if pad_accepts(pad.index, index):
                result.append(pad_input(pad.index))
        return result

    # ipin and pad_i nodes are sinks: nothing downhill.
    return result
