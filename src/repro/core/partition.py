"""Logic-partition strategies: which component outputs receive voter barriers.

The paper's central question is how to partition the triplicated logic with
majority voters: too few voters and a single routing upset bridging two
redundant domains defeats the TMR (Figure 1, upset "b"); too many voters and
the area/performance cost explodes while the extra inter-domain voter wiring
itself becomes a liability.  A :class:`PartitionStrategy` answers the
question "after which components do we place voters?" for a component-level
netlist.

The three partitions evaluated in the paper map onto:

* ``TMR_p1`` (maximum)  -> :class:`AllComponents`
* ``TMR_p2`` (medium)   -> ``ByComponentType(("adder",))`` — one multiplier +
  one adder per voted block in the FIR structure
* ``TMR_p3`` (minimum)  -> :class:`NoPartition`
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Set

from ..cells.library import FF_CELLS
from ..netlist.ir import Definition, Instance
from ..netlist.traversal import instance_fanin_nets, net_driver_instances


def is_register_component(instance: Instance) -> bool:
    """True when a component instance is a pure register stage.

    A component is a register when it is explicitly tagged
    (``properties["component"] == "register"``), when it is itself a
    flip-flop primitive, or when every leaf cell of its definition is a
    flip-flop.
    """
    tag = instance.properties.get("component")
    if tag is not None:
        return tag == "register"
    if instance.reference.name in FF_CELLS:
        return True
    if instance.is_primitive:
        return False
    counts = instance.reference.count_primitives()
    if not counts:
        return False
    return all(cell in FF_CELLS for cell in counts)


def combinational_components(definition: Definition) -> List[Instance]:
    """Component instances that are not register stages (insertion targets)."""
    return [inst for inst in definition.instances.values()
            if not is_register_component(inst)]


def register_components(definition: Definition) -> List[Instance]:
    """Component instances that are register stages."""
    return [inst for inst in definition.instances.values()
            if is_register_component(inst)]


def component_topological_order(definition: Definition) -> List[Instance]:
    """Topological order of component instances (registers cut the graph).

    Used by granularity-based strategies so that "every k-th component"
    follows dataflow order rather than dictionary order.
    """
    instances = list(definition.instances.values())
    position = {inst.name: index for index, inst in enumerate(instances)}
    indegree: Dict[str, int] = {inst.name: 0 for inst in instances}
    dependents: Dict[str, List[str]] = {inst.name: [] for inst in instances}
    registers = {inst.name for inst in instances
                 if is_register_component(inst)}

    for inst in instances:
        if inst.name in registers:
            continue
        for net in instance_fanin_nets(inst):
            for driver in net_driver_instances(net):
                if driver.parent is not definition:
                    continue
                if driver.name in registers or driver.name == inst.name:
                    continue
                dependents[driver.name].append(inst.name)
                indegree[inst.name] += 1

    ready = sorted([name for name, count in indegree.items() if count == 0],
                   key=lambda n: position[n])
    order: List[Instance] = []
    while ready:
        name = ready.pop(0)
        order.append(definition.instances[name])
        for dependent in dependents[name]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
        ready.sort(key=lambda n: position[n])
    if len(order) != len(instances):
        remaining = [inst for inst in instances
                     if inst not in order]
        order.extend(sorted(remaining, key=lambda i: position[i.name]))
    return order


class PartitionStrategy(abc.ABC):
    """Selects the component instances whose outputs receive voter barriers."""

    name = "abstract"

    @abc.abstractmethod
    def select(self, definition: Definition) -> Set[str]:
        """Return the names of instances to vote (register stages excluded —
        they are governed separately by ``TMRConfig.vote_registers``)."""

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoPartition(PartitionStrategy):
    """Minimum partition: voters only at the outermost outputs (TMR_p3)."""

    name = "min"

    def select(self, definition: Definition) -> Set[str]:
        return set()


class AllComponents(PartitionStrategy):
    """Maximum partition: a voter barrier after every component (TMR_p1)."""

    name = "max"

    def select(self, definition: Definition) -> Set[str]:
        return {inst.name for inst in combinational_components(definition)}


class ByComponentType(PartitionStrategy):
    """Vote the outputs of components whose ``component`` tag matches.

    ``ByComponentType(("adder",))`` reproduces the paper's medium partition:
    in the FIR structure each adder closes a block containing one multiplier
    and one adder.
    """

    name = "by-type"

    def __init__(self, component_types: Sequence[str]) -> None:
        self.component_types = tuple(component_types)

    def select(self, definition: Definition) -> Set[str]:
        selected = set()
        for inst in combinational_components(definition):
            if inst.properties.get("component") in self.component_types:
                selected.add(inst.name)
        return selected

    def describe(self) -> str:
        return f"by-type({','.join(self.component_types)})"

    def __repr__(self) -> str:
        return f"ByComponentType({self.component_types!r})"


class EveryKth(PartitionStrategy):
    """Vote every *k*-th combinational component along dataflow order.

    ``k = 1`` degenerates to :class:`AllComponents`; a very large ``k``
    approaches :class:`NoPartition`.  This is the knob the partition
    optimizer sweeps.
    """

    name = "every-kth"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def select(self, definition: Definition) -> Set[str]:
        order = [inst for inst in component_topological_order(definition)
                 if not is_register_component(inst)]
        return {inst.name for index, inst in enumerate(order)
                if (index + 1) % self.k == 0}

    def describe(self) -> str:
        return f"every-{self.k}th"

    def __repr__(self) -> str:
        return f"EveryKth({self.k})"
