"""Traversal utilities over flattened netlists.

These helpers treat a :class:`~repro.netlist.ir.Definition` that contains only
primitive instances as a directed graph whose vertices are instances and whose
edges follow nets from driver pins to sink pins.  Sequential cells (flip-flops)
are cut points: their outputs are treated as graph sources and their inputs as
graph sinks, which makes the remaining combinational graph acyclic for well
formed designs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from .ir import Definition, Instance, InstancePin, Net, NetlistError

# Cell types treated as sequential state elements.
SEQUENTIAL_CELLS = frozenset({"FD", "FDR", "FDC", "FDRE", "FDCE", "FDPE", "FDSE"})


def net_driver_instances(net: Net) -> List[Instance]:
    """Instances whose output pins drive *net*."""
    return [p.instance for p in net.drivers() if isinstance(p, InstancePin)]


def instance_fanin_nets(instance: Instance) -> List[Net]:
    """Nets feeding the input pins of *instance* (ignores unconnected pins)."""
    nets = []
    for pin in instance.pins():
        if not pin.is_driver and pin.net is not None:
            nets.append(pin.net)
    return nets


def combinational_predecessors(instance: Instance) -> List[Instance]:
    """Combinational driver instances feeding *instance*."""
    preds = []
    for net in instance_fanin_nets(instance):
        for driver in net_driver_instances(net):
            preds.append(driver)
    return preds


def topological_levels(definition: Definition) -> List[List[Instance]]:
    """Levelize the combinational instances of a flat definition.

    Returns a list of levels; level 0 contains instances whose inputs are all
    primary inputs, constants or flip-flop outputs.  Sequential instances are
    placed in a level of their own appended at the end (they consume values
    but never feed combinational evaluation within the same cycle).

    Raises :class:`NetlistError` if the combinational graph has a cycle.
    """
    combinational = [i for i in definition.instances.values()
                     if i.reference.name not in SEQUENTIAL_CELLS]
    sequential = [i for i in definition.instances.values()
                  if i.reference.name in SEQUENTIAL_CELLS]

    indegree: Dict[Instance, int] = {}
    dependents: Dict[Instance, List[Instance]] = {i: [] for i in combinational}
    comb_set = set(combinational)

    for inst in combinational:
        count = 0
        for net in instance_fanin_nets(inst):
            for driver in net_driver_instances(net):
                if driver in comb_set and driver is not inst:
                    dependents[driver].append(inst)
                    count += 1
        indegree[inst] = count

    levels: List[List[Instance]] = []
    frontier = deque(sorted((i for i in combinational if indegree[i] == 0),
                            key=lambda i: i.name))
    visited = 0
    while frontier:
        level = list(frontier)
        frontier.clear()
        levels.append(level)
        visited += len(level)
        next_ready: List[Instance] = []
        for inst in level:
            for dep in dependents[inst]:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    next_ready.append(dep)
        frontier.extend(sorted(set(next_ready), key=lambda i: i.name))

    if visited != len(combinational):
        unresolved = [i.name for i in combinational if indegree[i] > 0]
        raise NetlistError(
            "combinational loop detected involving instances: "
            + ", ".join(sorted(unresolved)[:10]))

    if sequential:
        levels.append(sorted(sequential, key=lambda i: i.name))
    return levels


def topological_order(definition: Definition) -> List[Instance]:
    """Flattened topological ordering (combinational order, then flip-flops)."""
    order: List[Instance] = []
    for level in topological_levels(definition):
        order.extend(level)
    return order
