"""Bitstream generation.

``generate_bitstream`` turns a packed, placed and routed design into the
configuration memory contents of the target device and, at the same time,
builds the *used-resource database* that the fault-list manager relies on:
which LUT sites, flip-flop sites, slice configuration bits and PIPs implement
the design, and which design cell or net each of them belongs to.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..cells.lut import lut_init_of
from ..cells.library import lut_input_count
from ..netlist.ir import Definition
from .config import (LUT_BITS, BitstreamStats, ConfigLayout, ConfigMemory,
                     lut_bit, pip_resource, slice_cfg)
from .device import FF_SLOTS, LUT_SLOTS, Device
from .routing import Node, Pip

if TYPE_CHECKING:  # imported for type annotations only (avoids a cycle)
    from ..pnr.pack import PackResult
    from ..pnr.place import Placement
    from ..pnr.route import RoutingResult


@dataclasses.dataclass
class LutSite:
    """A LUT site occupied by a design cell."""

    x: int
    y: int
    slot: str
    cell: str
    logical_inputs: int
    init: int


@dataclasses.dataclass
class FlipFlopSite:
    """A flip-flop site occupied by a design cell."""

    x: int
    y: int
    slot: str
    cell: str
    init_value: int
    uses_clock_enable: bool
    data_from_lut: bool


@dataclasses.dataclass
class UsedResources:
    """Everything the implemented design occupies on the device."""

    lut_sites: List[LutSite]
    ff_sites: List[FlipFlopSite]
    used_slices: List[Tuple[int, int]]
    used_pips: Dict[Pip, str]            # pip -> net name
    used_nodes: Dict[Node, str]          # routing node -> net name
    #: (x, y, slot) -> cell name, for both LUT and FF slots
    site_cells: Dict[Tuple[int, int, str], str]
    stats: BitstreamStats


def _physical_lut_init(logical_init: int, logical_inputs: int) -> int:
    """Expand a k-input LUT INIT into the 16-bit physical truth table.

    Unused physical inputs are modelled as tied low, so only the low
    ``2**k`` entries of the physical table are meaningful; the upper entries
    stay zero.  A configuration upset in those upper entries therefore has no
    functional effect, while an upset in the low region flips one minterm of
    the logical function.
    """
    mask = (1 << (1 << logical_inputs)) - 1
    return logical_init & mask


def generate_bitstream(definition: Definition, device: Device,
                       pack_result: PackResult, placement: Placement,
                       routing: RoutingResult,
                       layout: Optional[ConfigLayout] = None
                       ) -> Tuple[ConfigMemory, UsedResources, ConfigLayout]:
    """Produce the configuration memory and the used-resource database."""
    layout = layout if layout is not None else ConfigLayout(device)
    memory = ConfigMemory(layout)

    lut_sites: List[LutSite] = []
    ff_sites: List[FlipFlopSite] = []
    used_slices: List[Tuple[int, int]] = []
    site_cells: Dict[Tuple[int, int, str], str] = {}

    direct_ff_cells = {connection.cell for connection in routing.direct}

    for slice_index, assignment in enumerate(pack_result.slices):
        if assignment.is_empty():
            continue
        x, y = placement.slice_tiles[slice_index]
        used_slices.append((x, y))

        for slot in LUT_SLOTS:
            cell_name = assignment.cells.get(slot)
            if cell_name is None:
                continue
            instance = definition.instances[cell_name]
            logical_inputs = lut_input_count(instance.reference.name)
            init = _physical_lut_init(lut_init_of(instance), logical_inputs)
            lut_sites.append(LutSite(x, y, slot, cell_name, logical_inputs,
                                     init))
            site_cells[(x, y, slot)] = cell_name
            for bit in range(LUT_BITS):
                if (init >> bit) & 1:
                    memory.set_resource(lut_bit(x, y, slot, bit), 1)

        for slot in FF_SLOTS:
            cell_name = assignment.cells.get(slot)
            if cell_name is None:
                continue
            instance = definition.instances[cell_name]
            ff_init = int(instance.properties.get("FF_INIT", 0)) & 1
            uses_ce = "CE" in instance.reference.ports and \
                instance.net_of("CE") is not None
            data_direct = cell_name in direct_ff_cells or \
                slot in assignment.direct_ff_data
            ff_sites.append(FlipFlopSite(x, y, slot, cell_name, ff_init,
                                         uses_ce, data_direct))
            site_cells[(x, y, slot)] = cell_name
            suffix = "X" if slot == "FFX" else "Y"
            if ff_init:
                memory.set_resource(slice_cfg(x, y, f"FF{suffix}_INIT"), 1)
            if data_direct:
                memory.set_resource(slice_cfg(x, y, f"FF{suffix}_DMUX"), 1)
            if uses_ce:
                memory.set_resource(slice_cfg(x, y, f"FF{suffix}_CEMUX"), 1)

    for pip, net_name in routing.pip_owner.items():
        memory.set_resource(pip_resource(pip), 1)

    stats = compute_design_bit_stats(device, layout, lut_sites, ff_sites,
                                     used_slices, routing)

    resources = UsedResources(
        lut_sites=lut_sites,
        ff_sites=ff_sites,
        used_slices=used_slices,
        used_pips=dict(routing.pip_owner),
        used_nodes=dict(routing.node_owner),
        site_cells=site_cells,
        stats=stats,
    )
    return memory, resources, layout


def compute_design_bit_stats(device: Device, layout: ConfigLayout,
                             lut_sites: List[LutSite],
                             ff_sites: List[FlipFlopSite],
                             used_slices: List[Tuple[int, int]],
                             routing: RoutingResult) -> BitstreamStats:
    """Count the configuration bits associated with the implemented design.

    This reproduces the accounting of the paper's Table 2: *routing bits* are
    the bits of every routing multiplexer serving the design's signals (all
    candidate PIPs of every used destination node, not just the ones turned
    on), *LUT bits* are the truth-table bits of used LUTs and *CLB flip-flop
    bits* are the slice configuration bits of used flip-flops.

    The per-node candidate counts come from the layout's memoized
    fan-in tables (one dictionary lookup per used node) instead of the
    seed's linear scan over each tile's PIP list; the counts are the same
    integers, asserted by the flow-equivalence tests against
    ``reference_bit_stats`` in ``tests/oracles/reference_flow.py``.
    """
    from .routing import node_tile

    lut_bits = LUT_BITS * len(lut_sites)
    ff_bits = 0
    for _site in ff_sites:
        # INIT, DMUX, CEMUX and SRMODE bits belong to each used flip-flop,
        # plus a share of the per-slice clock-inversion bit.
        ff_bits += 4
    ff_bits += len(used_slices)  # CLKINV per used slice

    used_destinations = {node for node in routing.node_owner
                         if node[0] in ("wire", "ipin", "pad_i")}
    routing_bits = 0
    for node in used_destinations:
        tile = node_tile(device, node)
        routing_bits += layout.pip_fanin_counts(*tile).get(node, 0)

    return BitstreamStats(routing_bits=routing_bits, lut_bits=lut_bits,
                          ff_bits=ff_bits)
