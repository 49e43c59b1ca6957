"""The FPGA primitive cell library.

The cell set mirrors the Xilinx Spartan-II unified-library subset that the
paper's filter actually exercises: LUT1-LUT4, D flip-flops with clock enable
and synchronous/asynchronous reset, I/O buffers, the global clock buffer and
the constant sources.  Each cell carries metadata used by packing, timing and
resource accounting.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..netlist.ir import Definition, Direction, Library


@dataclasses.dataclass(frozen=True)
class CellInfo:
    """Static metadata about a primitive cell type."""

    name: str
    #: number of LUT inputs if the cell occupies a LUT, else None
    lut_inputs: Optional[int] = None
    #: True for flip-flops (state elements)
    is_sequential: bool = False
    #: True for IOB cells (IBUF/OBUF) which live in I/O blocks, not slices
    is_io: bool = False
    #: True for constant sources (GND/VCC) and clock buffers: no slice cost
    is_virtual: bool = False
    #: LUTs consumed in a slice
    area_luts: int = 0
    #: flip-flops consumed in a slice
    area_ffs: int = 0
    #: intrinsic propagation delay in nanoseconds (for the timing estimator)
    delay_ns: float = 0.0


#: Port lists per cell: (port name, direction, width)
_PORTS: Dict[str, Tuple[Tuple[str, Direction, int], ...]] = {
    "GND": (("G", Direction.OUTPUT, 1),),
    "VCC": (("P", Direction.OUTPUT, 1),),
    "LUT1": (("I0", Direction.INPUT, 1), ("O", Direction.OUTPUT, 1)),
    "LUT2": (("I0", Direction.INPUT, 1), ("I1", Direction.INPUT, 1),
             ("O", Direction.OUTPUT, 1)),
    "LUT3": (("I0", Direction.INPUT, 1), ("I1", Direction.INPUT, 1),
             ("I2", Direction.INPUT, 1), ("O", Direction.OUTPUT, 1)),
    "LUT4": (("I0", Direction.INPUT, 1), ("I1", Direction.INPUT, 1),
             ("I2", Direction.INPUT, 1), ("I3", Direction.INPUT, 1),
             ("O", Direction.OUTPUT, 1)),
    "FD": (("C", Direction.INPUT, 1), ("D", Direction.INPUT, 1),
           ("Q", Direction.OUTPUT, 1)),
    "FDR": (("C", Direction.INPUT, 1), ("D", Direction.INPUT, 1),
            ("R", Direction.INPUT, 1), ("Q", Direction.OUTPUT, 1)),
    "FDRE": (("C", Direction.INPUT, 1), ("CE", Direction.INPUT, 1),
             ("D", Direction.INPUT, 1), ("R", Direction.INPUT, 1),
             ("Q", Direction.OUTPUT, 1)),
    "FDCE": (("C", Direction.INPUT, 1), ("CE", Direction.INPUT, 1),
             ("D", Direction.INPUT, 1), ("CLR", Direction.INPUT, 1),
             ("Q", Direction.OUTPUT, 1)),
    "IBUF": (("I", Direction.INPUT, 1), ("O", Direction.OUTPUT, 1)),
    "OBUF": (("I", Direction.INPUT, 1), ("O", Direction.OUTPUT, 1)),
    "BUFG": (("I", Direction.INPUT, 1), ("O", Direction.OUTPUT, 1)),
}

#: Metadata per cell.
CELL_INFO: Dict[str, CellInfo] = {
    "GND": CellInfo("GND", is_virtual=True),
    "VCC": CellInfo("VCC", is_virtual=True),
    "LUT1": CellInfo("LUT1", lut_inputs=1, area_luts=1, delay_ns=0.7),
    "LUT2": CellInfo("LUT2", lut_inputs=2, area_luts=1, delay_ns=0.7),
    "LUT3": CellInfo("LUT3", lut_inputs=3, area_luts=1, delay_ns=0.7),
    "LUT4": CellInfo("LUT4", lut_inputs=4, area_luts=1, delay_ns=0.7),
    "FD": CellInfo("FD", is_sequential=True, area_ffs=1, delay_ns=1.1),
    "FDR": CellInfo("FDR", is_sequential=True, area_ffs=1, delay_ns=1.1),
    "FDRE": CellInfo("FDRE", is_sequential=True, area_ffs=1, delay_ns=1.1),
    "FDCE": CellInfo("FDCE", is_sequential=True, area_ffs=1, delay_ns=1.1),
    "IBUF": CellInfo("IBUF", is_io=True, delay_ns=1.4),
    "OBUF": CellInfo("OBUF", is_io=True, delay_ns=2.5),
    "BUFG": CellInfo("BUFG", is_virtual=True, delay_ns=0.6),
}

#: Names of the LUT cells, smallest to largest.
LUT_CELLS = ("LUT1", "LUT2", "LUT3", "LUT4")
#: Names of the flip-flop cells.
FF_CELLS = ("FD", "FDR", "FDRE", "FDCE")
#: Names of the I/O buffer cells.
IO_CELLS = ("IBUF", "OBUF")


def cell_info(name: str) -> CellInfo:
    """Return the :class:`CellInfo` for *name*, raising for unknown cells."""
    try:
        return CELL_INFO[name]
    except KeyError:
        raise KeyError(f"unknown primitive cell {name!r}") from None


def lut_input_count(name: str) -> int:
    info = cell_info(name)
    if info.lut_inputs is None:
        raise ValueError(f"{name} is not a LUT cell")
    return info.lut_inputs


def build_cell_library(name: str = "cells") -> Library:
    """Create a fresh primitive :class:`Library` with all cells declared."""
    library = Library(name)
    for cell_name, ports in _PORTS.items():
        definition = library.add_definition(cell_name, is_primitive=True)
        for port_name, direction, width in ports:
            definition.add_port(port_name, direction, width)
        definition.properties["cell_info"] = CELL_INFO[cell_name]
    return library


_SHARED_LIBRARY: Optional[Library] = None


def shared_cell_library() -> Library:
    """Return a process-wide shared primitive library.

    Designs generated by :mod:`repro.rtl` and transformed by the TMR engine
    reference these definitions; sharing them keeps definition identity
    stable across modules so that ``instance.reference is lut4_def``
    comparisons hold.
    """
    global _SHARED_LIBRARY
    if _SHARED_LIBRARY is None:
        _SHARED_LIBRARY = build_cell_library()
    return _SHARED_LIBRARY


def lut_cell_for_inputs(library: Library, num_inputs: int) -> Definition:
    """Return the smallest LUT definition with at least *num_inputs* inputs."""
    if not 1 <= num_inputs <= 4:
        raise ValueError(f"no LUT cell with {num_inputs} inputs")
    return library.definitions[f"LUT{num_inputs}"]
