"""Packing: assign LUT and flip-flop cells of a flat netlist to slice sites.

Each tile holds one slice with two LUT4 positions (``F``, ``G``) and two
flip-flops (``FFX``, ``FFY``).  A flip-flop whose data input is driven by the
LUT in its paired position uses the dedicated intra-slice data path (the
``DMUX`` configuration bit) instead of general routing — exactly the
structure a real mapper produces for the filter's registered datapaths.

Packing keeps cells of the same TMR domain and the same source component
adjacent, which is what a timing-driven packer would do for locality; note
that this also means the three redundant copies of a component end up packed
near each other unless a floorplan is applied — the realistic, un-floorplanned
situation the paper evaluates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..cells.library import FF_CELLS, LUT_CELLS
from ..netlist.ir import Definition, Instance, InstancePin, NetlistError
from ..netlist.traversal import topological_order

#: Cells that never occupy a slice site (constants are tie-offs, the global
#: buffer lives on the clock network, I/O buffers live in IOBs).
VIRTUAL_CELLS = frozenset({"GND", "VCC", "BUFG", "IBUF", "OBUF"})


@dataclasses.dataclass
class SliceAssignment:
    """Contents of one slice."""

    index: int
    #: slot name -> flat cell name (slots: F, G, FFX, FFY)
    cells: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: FF slots fed directly by their paired LUT (DMUX = LUT path)
    direct_ff_data: List[str] = dataclasses.field(default_factory=list)

    def is_empty(self) -> bool:
        return not self.cells


@dataclasses.dataclass
class PackResult:
    """Output of the packer."""

    slices: List[SliceAssignment]
    #: flat cell name -> (slice index, slot)
    cell_site: Dict[str, Tuple[int, str]]
    #: number of LUT cells packed
    num_luts: int
    #: number of flip-flop cells packed
    num_ffs: int

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    def slot_of(self, cell_name: str) -> Tuple[int, str]:
        return self.cell_site[cell_name]


def _sort_key(instance: Instance, topo_rank: Dict[str, int]) -> Tuple:
    """Packing order: source component first, then TMR domain, then dataflow.

    Ordering by component before domain interleaves the three redundant
    copies of each block (and the voters that vote it) in neighbouring
    slices.  This is what a wirelength-driven flow without dedicated
    floorplanning produces — the exact situation the paper studies, in which
    wires of different TMR domains run close enough together for a single
    routing upset to couple them.  The :class:`~repro.pnr.place.Floorplan`
    option overrides this with per-domain regions.
    """
    domain = instance.properties.get("domain")
    block = instance.properties.get("tmr_block")
    if block is None:
        block = instance.name.split("/", 1)[0]
    return (
        str(block),
        domain if domain is not None else -1,
        topo_rank.get(instance.name, 0),
        instance.name,
    )


def _ff_data_driver(ff: Instance) -> Optional[Instance]:
    """The LUT driving a flip-flop's D input, if any."""
    net = ff.net_of("D")
    if net is None:
        return None
    drivers = [pin.instance for pin in net.drivers()
               if isinstance(pin, InstancePin)]
    if len(drivers) != 1:
        return None
    driver = drivers[0]
    if driver.reference.name in LUT_CELLS:
        return driver
    return None


def pack(definition: Definition) -> PackResult:
    """Pack the primitive cells of a flat definition into slices."""
    for inst in definition.instances.values():
        if not inst.is_primitive:
            raise NetlistError(
                f"packing requires a flat netlist; {inst.name!r} is "
                f"hierarchical")

    topo_rank = {inst.name: rank
                 for rank, inst in enumerate(topological_order(definition))}

    luts = [inst for inst in definition.instances.values()
            if inst.reference.name in LUT_CELLS]
    ffs = [inst for inst in definition.instances.values()
           if inst.reference.name in FF_CELLS]

    # Pair each flip-flop with the LUT that drives its D input, when that
    # LUT is not already claimed by another flip-flop.
    lut_partner: Dict[str, str] = {}
    ff_partner: Dict[str, str] = {}
    for ff in sorted(ffs, key=lambda i: _sort_key(i, topo_rank)):
        driver = _ff_data_driver(ff)
        if driver is None or driver.name in lut_partner:
            continue
        lut_partner[driver.name] = ff.name
        ff_partner[ff.name] = driver.name

    # Build packing units: (lut name or None, ff name or None).
    units: List[Tuple[Optional[str], Optional[str], Tuple]] = []
    consumed_ffs = set()
    for lut in luts:
        ff_name = lut_partner.get(lut.name)
        if ff_name is not None:
            consumed_ffs.add(ff_name)
        units.append((lut.name, ff_name, _sort_key(lut, topo_rank)))
    for ff in ffs:
        if ff.name not in consumed_ffs:
            units.append((None, ff.name, _sort_key(ff, topo_rank)))
    units.sort(key=lambda entry: entry[2])

    slices: List[SliceAssignment] = []
    cell_site: Dict[str, Tuple[int, str]] = {}
    half_slots = (("F", "FFX"), ("G", "FFY"))

    for position, (lut_name, ff_name, _key) in enumerate(units):
        if position % 2 == 0:
            slices.append(SliceAssignment(index=len(slices)))
        slice_assignment = slices[-1]
        lut_slot, ff_slot = half_slots[position % 2]
        if lut_name is not None:
            slice_assignment.cells[lut_slot] = lut_name
            cell_site[lut_name] = (slice_assignment.index, lut_slot)
        if ff_name is not None:
            slice_assignment.cells[ff_slot] = ff_name
            cell_site[ff_name] = (slice_assignment.index, ff_slot)
            if lut_name is not None:
                slice_assignment.direct_ff_data.append(ff_slot)

    return PackResult(
        slices=slices,
        cell_site=cell_site,
        num_luts=len(luts),
        num_ffs=len(ffs),
    )
