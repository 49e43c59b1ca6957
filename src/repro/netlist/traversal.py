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
from typing import Dict, Iterable, List, Set

from .ir import Definition, Instance, InstancePin, Net, NetlistError

# Cell types treated as sequential state elements by default.
SEQUENTIAL_CELLS = frozenset({"FD", "FDR", "FDC", "FDRE", "FDCE", "FDPE", "FDSE"})
# Cell types whose outputs are constants / sources.
SOURCE_CELLS = frozenset({"GND", "VCC"})


def is_sequential(instance: Instance,
                  sequential_cells: Iterable[str] = SEQUENTIAL_CELLS) -> bool:
    """Return ``True`` if *instance* is a state element (flip-flop)."""
    return instance.reference.name in set(sequential_cells)


def net_driver_instances(net: Net) -> List[Instance]:
    """Instances whose output pins drive *net*."""
    return [p.instance for p in net.drivers() if isinstance(p, InstancePin)]


def net_sink_instances(net: Net) -> List[Instance]:
    """Instances whose input pins are fed by *net*."""
    return [p.instance for p in net.sinks() if isinstance(p, InstancePin)]


def instance_fanin_nets(instance: Instance) -> List[Net]:
    """Nets feeding the input pins of *instance* (ignores unconnected pins)."""
    nets = []
    for pin in instance.pins():
        if not pin.is_driver and pin.net is not None:
            nets.append(pin.net)
    return nets


def instance_fanout_nets(instance: Instance) -> List[Net]:
    """Nets driven by output pins of *instance*."""
    nets = []
    for pin in instance.pins():
        if pin.is_driver and pin.net is not None:
            nets.append(pin.net)
    return nets


def combinational_predecessors(instance: Instance) -> List[Instance]:
    """Combinational driver instances feeding *instance*."""
    preds = []
    for net in instance_fanin_nets(instance):
        for driver in net_driver_instances(net):
            preds.append(driver)
    return preds


def topological_levels(definition: Definition,
                       sequential_cells: Iterable[str] = SEQUENTIAL_CELLS,
                       ) -> List[List[Instance]]:
    """Levelize the combinational instances of a flat definition.

    Returns a list of levels; level 0 contains instances whose inputs are all
    primary inputs, constants or flip-flop outputs.  Sequential instances are
    placed in a level of their own appended at the end (they consume values
    but never feed combinational evaluation within the same cycle).

    Raises :class:`NetlistError` if the combinational graph has a cycle.
    """
    seq_cells = set(sequential_cells)
    combinational = [i for i in definition.instances.values()
                     if i.reference.name not in seq_cells]
    sequential = [i for i in definition.instances.values()
                  if i.reference.name in seq_cells]

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


def topological_order(definition: Definition,
                      sequential_cells: Iterable[str] = SEQUENTIAL_CELLS,
                      ) -> List[Instance]:
    """Flattened topological ordering (combinational order, then flip-flops)."""
    order: List[Instance] = []
    for level in topological_levels(definition, sequential_cells):
        order.extend(level)
    return order


def logic_depth(definition: Definition,
                sequential_cells: Iterable[str] = SEQUENTIAL_CELLS) -> int:
    """Number of combinational levels between register/IO boundaries."""
    levels = topological_levels(definition, sequential_cells)
    if not levels:
        return 0
    seq_cells = set(sequential_cells)
    depth = len(levels)
    if levels and all(i.reference.name in seq_cells for i in levels[-1]):
        depth -= 1
    return depth


def fanin_cone(instance: Instance,
               stop_at_sequential: bool = True,
               sequential_cells: Iterable[str] = SEQUENTIAL_CELLS,
               ) -> Set[Instance]:
    """Transitive fan-in cone of *instance* (excluding the instance itself).

    If *stop_at_sequential* is true, traversal does not continue through
    flip-flop inputs (the cone stops at register boundaries).
    """
    seq_cells = set(sequential_cells)
    seen: Set[Instance] = set()
    stack = [instance]
    first = True
    while stack:
        current = stack.pop()
        if not first:
            if current in seen:
                continue
            seen.add(current)
            if stop_at_sequential and current.reference.name in seq_cells:
                continue
        first = False
        for net in instance_fanin_nets(current):
            for driver in net_driver_instances(net):
                if driver not in seen:
                    stack.append(driver)
    return seen


def fanout_cone(instance: Instance,
                stop_at_sequential: bool = True,
                sequential_cells: Iterable[str] = SEQUENTIAL_CELLS,
                ) -> Set[Instance]:
    """Transitive fan-out cone of *instance* (excluding the instance itself)."""
    seq_cells = set(sequential_cells)
    seen: Set[Instance] = set()
    stack = [instance]
    first = True
    while stack:
        current = stack.pop()
        if not first:
            if current in seen:
                continue
            seen.add(current)
            if stop_at_sequential and current.reference.name in seq_cells:
                continue
        first = False
        for net in instance_fanout_nets(current):
            for sink in net_sink_instances(net):
                if sink not in seen:
                    stack.append(sink)
    return seen


def undriven_nets(definition: Definition) -> List[Net]:
    """Nets with at least one sink but no driver."""
    result = []
    for net in definition.nets.values():
        if net.sinks() and not net.drivers():
            result.append(net)
    return result


def floating_nets(definition: Definition) -> List[Net]:
    """Nets with a driver but no sinks (dangling outputs)."""
    result = []
    for net in definition.nets.values():
        if net.drivers() and not net.sinks():
            result.append(net)
    return result


def multiply_driven_nets(definition: Definition) -> List[Net]:
    """Nets with more than one driver (a structural conflict)."""
    return [net for net in definition.nets.values() if len(net.drivers()) > 1]
