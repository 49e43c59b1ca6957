"""The paper's case-study design: an 11-tap, 9-bit low-pass FIR filter.

The filter is built in direct form: a delay line of ``taps - 1`` registers,
one constant-coefficient multiplier per tap and a chain of adders, which
matches the paper's inventory of "eleven dedicated 9-bit multipliers, ten
18-bit adders and ten 9-bit registers".  Each multiplier, adder and register
is a separate component instance so that the TMR engine can insert voters at
any component boundary (Figure 4 of the paper).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..cells.library import shared_cell_library
from ..netlist.builder import NetlistBuilder
from ..netlist.ir import Definition, Library, Netlist, NetlistError
from .arith import constant_multiplier, min_output_width, ripple_carry_adder
from .register import register_bank

#: The paper's quantized low-pass coefficients ("multiplied by the constant
#: 512"): 1, -1, -9, 6, 73, 120 — mirrored to form a symmetric 11-tap filter.
PAPER_COEFFICIENT_HALF = (1, -1, -9, 6, 73, 120)
PAPER_COEFFICIENTS = tuple(list(PAPER_COEFFICIENT_HALF)
                           + list(reversed(PAPER_COEFFICIENT_HALF[:-1])))
PAPER_DATA_WIDTH = 9
PAPER_OUTPUT_WIDTH = 18


@dataclasses.dataclass(frozen=True)
class FirSpec:
    """Parameters of a FIR filter instance.

    The defaults reproduce the paper's filter; reduced configurations are
    used for fast tests and scaled-down campaigns.
    """

    coefficients: Tuple[int, ...] = PAPER_COEFFICIENTS
    data_width: int = PAPER_DATA_WIDTH
    output_width: int = PAPER_OUTPUT_WIDTH
    name: str = "fir"

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError("FIR needs at least one coefficient")
        if self.data_width < 2:
            raise ValueError("FIR data width must be >= 2")
        minimum = min_output_width(self.coefficients, self.data_width)
        if self.output_width < minimum:
            raise ValueError(
                f"output width {self.output_width} cannot hold the filter "
                f"gain; need at least {minimum} bits")

    @property
    def taps(self) -> int:
        return len(self.coefficients)

    @classmethod
    def paper(cls) -> "FirSpec":
        """The exact configuration evaluated in the paper."""
        return cls()

    @classmethod
    def scaled(cls, taps: int, data_width: int, name: str = "fir_small",
               ) -> "FirSpec":
        """A reduced filter preserving the paper's coefficient profile."""
        if taps < 1:
            raise ValueError("taps must be >= 1")
        half = list(PAPER_COEFFICIENT_HALF)
        coefficients: List[int] = []
        for index in range(taps):
            mirrored = min(index, taps - 1 - index)
            coefficients.append(half[min(mirrored, len(half) - 1)])
        width = min_output_width(coefficients, data_width)
        return cls(coefficients=tuple(coefficients), data_width=data_width,
                   output_width=width, name=name)


@dataclasses.dataclass
class FirComponents:
    """Index of the component instances inside a generated FIR definition.

    The TMR partition strategies use these lists to decide where voters go
    (e.g. "after each adder" for the medium partition).
    """

    registers: List[str] = dataclasses.field(default_factory=list)
    multipliers: List[str] = dataclasses.field(default_factory=list)
    adders: List[str] = dataclasses.field(default_factory=list)


def build_fir(netlist: Netlist, spec: Optional[FirSpec] = None,
              cell_library: Optional[Library] = None,
              ) -> Tuple[Definition, FirComponents]:
    """Build the FIR filter and return (definition, component index)."""
    spec = spec if spec is not None else FirSpec.paper()
    cells = cell_library if cell_library is not None else shared_cell_library()
    if netlist.find_definition(spec.name) is not None:
        raise NetlistError(f"netlist already contains a design named "
                           f"{spec.name!r}")

    builder = NetlistBuilder.new_module(netlist, spec.name, "work", cells)
    components = FirComponents()

    clock = builder.input("CLK", 1)[0]
    din = builder.input("DIN", spec.data_width)
    dout = builder.output("DOUT", spec.output_width)

    # Delay line: tap 0 is the live input, taps 1..N-1 are registered copies.
    reg_def = register_bank(netlist, spec.data_width, cell_library=cells)
    tap_values = [din]
    for stage in range(1, spec.taps):
        stage_out = builder.bus(f"x{stage}", spec.data_width)
        inst = builder.submodule(reg_def, f"reg_{stage}", C=clock,
                                 D=tap_values[stage - 1], Q=stage_out)
        inst.properties["component"] = "register"
        components.registers.append(inst.name)
        tap_values.append(stage_out)

    # Per-tap constant multipliers.
    products = []
    for tap, coefficient in enumerate(spec.coefficients):
        mult_def = constant_multiplier(netlist, coefficient, spec.data_width,
                                       spec.output_width, cell_library=cells)
        if spec.taps == 1:
            product = dout  # degenerate single-tap filter: product is DOUT
        else:
            product = builder.bus(f"p{tap}", spec.output_width)
        inst = builder.submodule(mult_def, f"mult_{tap}", A=tap_values[tap],
                                 P=product)
        inst.properties["component"] = "multiplier"
        inst.properties["coefficient"] = coefficient
        components.multipliers.append(inst.name)
        products.append(product)

    # Accumulation chain.
    adder_def = ripple_carry_adder(netlist, spec.output_width,
                                   cell_library=cells)
    partial = products[0]
    for tap in range(1, spec.taps):
        is_last = tap == spec.taps - 1
        total = dout if is_last else builder.bus(f"s{tap}", spec.output_width)
        inst = builder.submodule(adder_def, f"add_{tap}", A=partial,
                                 B=products[tap], S=total)
        inst.properties["component"] = "adder"
        components.adders.append(inst.name)
        partial = total

    definition = builder.finish(set_top=True)
    definition.properties["fir_spec"] = spec
    definition.properties["fir_components"] = components
    return definition, components
