"""SpyDrNet-style netlist intermediate representation and transformations."""

from .ir import (Definition, Direction, Instance, InstancePin, Library, Net,
                 Netlist, NetlistError, Pin, Port, TopPin)
from .builder import NetlistBuilder
from .transform import HIER_SEP, flatten
from .traversal import (SEQUENTIAL_CELLS, instance_fanin_nets,
                        net_driver_instances, topological_levels,
                        topological_order)

__all__ = [
    "Definition", "Direction", "Instance", "InstancePin", "Library", "Net",
    "Netlist", "NetlistError", "Pin", "Port", "TopPin", "NetlistBuilder",
    "HIER_SEP", "flatten",
    "SEQUENTIAL_CELLS", "instance_fanin_nets", "net_driver_instances",
    "topological_levels", "topological_order",
]
