"""Structural RTL generators: arithmetic, registers and the FIR case study."""

from .arith import constant_multiplier, min_output_width, ripple_carry_adder
from .counter import accumulator, up_counter
from .fir import (PAPER_COEFFICIENTS, PAPER_DATA_WIDTH, PAPER_OUTPUT_WIDTH,
                  FirComponents, FirSpec, build_fir)
from .register import register_bank

__all__ = [
    "constant_multiplier", "min_output_width", "ripple_carry_adder",
    "accumulator", "up_counter", "PAPER_COEFFICIENTS",
    "PAPER_DATA_WIDTH", "PAPER_OUTPUT_WIDTH", "FirComponents", "FirSpec",
    "build_fir", "register_bank",
]
