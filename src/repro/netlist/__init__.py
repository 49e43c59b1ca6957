"""SpyDrNet-style netlist intermediate representation and transformations."""

from .ir import (Definition, Direction, Instance, InstancePin, Library, Net,
                 Netlist, NetlistError, Pin, Port, TopPin)
from .builder import NetlistBuilder
from .transform import (HIER_SEP, clone_definition, flatten,
                        remove_unconnected_instances, uniquify)
from .traversal import (SEQUENTIAL_CELLS, fanin_cone, fanout_cone,
                        instance_fanin_nets, instance_fanout_nets,
                        is_sequential, logic_depth, multiply_driven_nets,
                        net_driver_instances, net_sink_instances,
                        topological_levels, topological_order, undriven_nets)
from .validate import ValidationIssue, ValidationReport, validate_definition

__all__ = [
    "Definition", "Direction", "Instance", "InstancePin", "Library", "Net",
    "Netlist", "NetlistError", "Pin", "Port", "TopPin", "NetlistBuilder",
    "HIER_SEP", "clone_definition", "flatten",
    "remove_unconnected_instances", "uniquify",
    "SEQUENTIAL_CELLS", "fanin_cone", "fanout_cone", "instance_fanin_nets",
    "instance_fanout_nets", "is_sequential", "logic_depth",
    "multiply_driven_nets", "net_driver_instances", "net_sink_instances",
    "topological_levels", "topological_order", "undriven_nets",
    "ValidationIssue", "ValidationReport", "validate_definition",
]
