"""Register bank components (the sequential building blocks of the filter)."""

from __future__ import annotations

from typing import Optional

from ..cells.library import shared_cell_library
from ..netlist.builder import NetlistBuilder
from ..netlist.ir import Definition, Library, Netlist, NetlistError


def register_bank(netlist: Netlist, width: int, name: Optional[str] = None,
                  with_enable: bool = False, with_reset: bool = False,
                  cell_library: Optional[Library] = None) -> Definition:
    """Build a *width*-bit register component.

    Ports: ``C`` (clock), ``D[width]``, ``Q[width]`` plus optional ``CE`` and
    ``R`` (synchronous reset).  The flip-flop primitive used depends on the
    options: ``FD``, ``FDR`` or ``FDRE``.
    """
    if width < 1:
        raise NetlistError("register width must be >= 1")
    if name is None:
        suffix = ""
        if with_enable:
            suffix += "e"
        if with_reset:
            suffix += "r"
        name = f"reg{width}{suffix}"
    existing = netlist.find_definition(name)
    if existing is not None:
        return existing

    cells = cell_library if cell_library is not None else shared_cell_library()
    builder = NetlistBuilder.new_module(netlist, name, "components", cells)
    clock = builder.input("C", 1)[0]
    data = builder.input("D", width)
    enable = builder.input("CE", 1)[0] if with_enable else None
    reset = builder.input("R", 1)[0] if with_reset else None
    output = builder.output("Q", width)

    if with_enable:
        cell_name = "FDRE" if with_reset else "FDRE"
    else:
        cell_name = "FDR" if with_reset else "FD"

    for bit in range(width):
        connections = {"C": clock, "D": data[bit], "Q": output[bit]}
        if with_enable:
            connections["CE"] = enable
            connections["R"] = reset if with_reset else builder.ground()
        elif with_reset:
            connections["R"] = reset
        builder.instantiate(cell_name, f"ff_{bit}", **connections)
    return builder.finish()
