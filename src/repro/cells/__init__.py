"""Primitive cell library, LUT INIT helpers and three-valued logic."""

from . import logic
from .library import (CELL_INFO, FF_CELLS, IO_CELLS, LUT_CELLS, CellInfo,
                      build_cell_library, cell_info, lut_cell_for_inputs,
                      lut_input_count, shared_cell_library)
from .lut import (INIT_AND2, INIT_AND3, INIT_AND4, INIT_ANDNOT2, INIT_BUF,
                  INIT_INV, INIT_MAJ3, INIT_MUX2, INIT_NAND2, INIT_NOR2,
                  INIT_OR2, INIT_OR3, INIT_OR4, INIT_VOTER, INIT_XNOR2,
                  INIT_XOR2, INIT_XOR3, INIT_XOR4, init_from_function,
                  lut_init_of)

__all__ = [
    "logic", "lut_init_of", "CELL_INFO",
    "FF_CELLS", "IO_CELLS", "LUT_CELLS", "CellInfo", "build_cell_library",
    "cell_info", "lut_cell_for_inputs",
    "lut_input_count", "shared_cell_library", "INIT_AND2", "INIT_AND3",
    "INIT_AND4", "INIT_ANDNOT2", "INIT_BUF", "INIT_INV", "INIT_MAJ3",
    "INIT_MUX2", "INIT_NAND2", "INIT_NOR2", "INIT_OR2", "INIT_OR3",
    "INIT_OR4", "INIT_VOTER", "INIT_XNOR2", "INIT_XOR2", "INIT_XOR3",
    "INIT_XOR4", "init_from_function",
]
