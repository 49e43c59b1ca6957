"""Core netlist intermediate representation.

The IR follows the style of academic netlist manipulation libraries
(SpyDrNet, RapidWright's logical netlist): a :class:`Netlist` owns
:class:`Library` objects, a library owns :class:`Definition` objects (module
types), and a definition owns :class:`Port`, :class:`Instance` and
:class:`Net` objects.  Connectivity is expressed through :class:`Pin` objects
attached to nets: an :class:`InstancePin` is a (instance, port, bit) triple
and a :class:`TopPin` is a (definition, port, bit) triple representing the
definition's own interface.

The IR supports hierarchy; most downstream tools (technology mapping, TMR
insertion, pack/place/route, simulation, fault injection) operate on a
flattened netlist of primitive cells produced by
:func:`repro.netlist.transform.flatten`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterator, List, Optional, Tuple


class NetlistError(Exception):
    """Raised for structural errors while building or editing a netlist."""


class Direction(enum.Enum):
    """Direction of a port as seen from outside its definition."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


class Port:
    """A named, possibly multi-bit port of a :class:`Definition`."""

    __slots__ = ("name", "direction", "width", "definition")

    def __init__(self, name: str, direction: Direction, width: int = 1,
                 definition: Optional["Definition"] = None) -> None:
        if width < 1:
            raise NetlistError(f"port {name!r} must have width >= 1, got {width}")
        self.name = name
        self.direction = direction
        self.width = width
        self.definition = definition

    @property
    def is_input(self) -> bool:
        return self.direction is Direction.INPUT

    @property
    def is_output(self) -> bool:
        return self.direction is Direction.OUTPUT

    def bits(self) -> Iterator[int]:
        """Iterate over the bit indices of this port."""
        return iter(range(self.width))

    def __repr__(self) -> str:
        return f"Port({self.name!r}, {self.direction.value}, width={self.width})"


class Pin:
    """Base class for a single-bit connection point hanging off a net."""

    __slots__ = ("port_name", "index", "net")

    def __init__(self, port_name: str, index: int) -> None:
        self.port_name = port_name
        self.index = index
        self.net: Optional[Net] = None

    @property
    def is_driver(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def port(self) -> Port:  # pragma: no cover - overridden
        raise NotImplementedError


class InstancePin(Pin):
    """A pin of an :class:`Instance` (a port bit of the instantiated cell)."""

    __slots__ = ("instance",)

    def __init__(self, instance: "Instance", port_name: str, index: int) -> None:
        super().__init__(port_name, index)
        self.instance = instance

    def port(self) -> Port:
        return self.instance.reference.ports[self.port_name]

    @property
    def is_driver(self) -> bool:
        """An instance output pin drives the net it is attached to."""
        return self.port().direction is Direction.OUTPUT

    def __repr__(self) -> str:
        return (f"InstancePin({self.instance.name}.{self.port_name}"
                f"[{self.index}])")


class TopPin(Pin):
    """A pin on the boundary of a definition (its own port bit)."""

    __slots__ = ("definition",)

    def __init__(self, definition: "Definition", port_name: str, index: int) -> None:
        super().__init__(port_name, index)
        self.definition = definition

    def port(self) -> Port:
        return self.definition.ports[self.port_name]

    @property
    def is_driver(self) -> bool:
        """A definition *input* port drives nets inside the definition."""
        return self.port().direction is Direction.INPUT

    def __repr__(self) -> str:
        return (f"TopPin({self.definition.name}.{self.port_name}"
                f"[{self.index}])")


class Net:
    """A single-bit electrical node inside a definition."""

    __slots__ = ("name", "definition", "pins", "properties")

    def __init__(self, name: str, definition: Optional["Definition"] = None) -> None:
        self.name = name
        self.definition = definition
        self.pins: List[Pin] = []
        self.properties: Dict[str, object] = {}

    def connect(self, pin: Pin) -> None:
        """Attach *pin* to this net, detaching it from any previous net."""
        if pin.net is self:
            return
        if pin.net is not None:
            pin.net.disconnect(pin)
        pin.net = self
        self.pins.append(pin)

    def disconnect(self, pin: Pin) -> None:
        """Detach *pin* from this net."""
        if pin.net is not self:
            raise NetlistError(f"{pin!r} is not connected to net {self.name!r}")
        pin.net = None
        self.pins.remove(pin)

    def drivers(self) -> List[Pin]:
        """Pins that drive a value onto this net."""
        return [p for p in self.pins if p.is_driver]

    def sinks(self) -> List[Pin]:
        """Pins that read the value of this net."""
        return [p for p in self.pins if not p.is_driver]

    def top_pins(self) -> List[TopPin]:
        return [p for p in self.pins if isinstance(p, TopPin)]

    def __repr__(self) -> str:
        return f"Net({self.name!r}, pins={len(self.pins)})"


class Instance:
    """An instantiation of a :class:`Definition` inside another definition."""

    __slots__ = ("name", "reference", "parent", "properties", "_pins")

    def __init__(self, name: str, reference: "Definition",
                 parent: Optional["Definition"] = None) -> None:
        self.name = name
        self.reference = reference
        self.parent = parent
        self.properties: Dict[str, object] = {}
        self._pins: Dict[Tuple[str, int], InstancePin] = {}

    def pin(self, port_name: str, index: int = 0) -> InstancePin:
        """Return (creating on demand) the pin for *port_name*[*index*]."""
        port = self.reference.ports.get(port_name)
        if port is None:
            raise NetlistError(
                f"instance {self.name!r} of {self.reference.name!r} has no "
                f"port {port_name!r}")
        if not 0 <= index < port.width:
            raise NetlistError(
                f"bit {index} out of range for port {port_name!r} "
                f"(width {port.width}) on instance {self.name!r}")
        key = (port_name, index)
        if key not in self._pins:
            self._pins[key] = InstancePin(self, port_name, index)
        return self._pins[key]

    def pins(self) -> Iterator[InstancePin]:
        """Iterate over the pins that have been materialized so far."""
        return iter(list(self._pins.values()))

    def connect(self, port_name: str, net: Net, index: int = 0) -> InstancePin:
        """Connect port bit *port_name*[*index*] to *net* and return the pin."""
        pin = self.pin(port_name, index)
        net.connect(pin)
        return pin

    def net_of(self, port_name: str, index: int = 0) -> Optional[Net]:
        """Return the net connected to the given port bit, or ``None``."""
        key = (port_name, index)
        pin = self._pins.get(key)
        return pin.net if pin is not None else None

    def disconnect_all(self) -> None:
        """Detach every connected pin of this instance."""
        for pin in list(self._pins.values()):
            if pin.net is not None:
                pin.net.disconnect(pin)

    @property
    def is_primitive(self) -> bool:
        return self.reference.is_primitive

    def __repr__(self) -> str:
        return f"Instance({self.name!r} : {self.reference.name})"


class Definition:
    """A module type: an interface (ports) plus contents (instances, nets)."""

    def __init__(self, name: str, library: Optional["Library"] = None,
                 is_primitive: bool = False) -> None:
        self.name = name
        self.library = library
        self.is_primitive = is_primitive
        self.ports: Dict[str, Port] = {}
        self.instances: Dict[str, Instance] = {}
        self.nets: Dict[str, Net] = {}
        self.properties: Dict[str, object] = {}
        self._top_pins: Dict[Tuple[str, int], TopPin] = {}
        self._name_counter = itertools.count()

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def add_port(self, name: str, direction: Direction, width: int = 1) -> Port:
        if name in self.ports:
            raise NetlistError(f"definition {self.name!r} already has port {name!r}")
        port = Port(name, direction, width, definition=self)
        self.ports[name] = port
        return port

    def top_pin(self, port_name: str, index: int = 0) -> TopPin:
        """Return (creating on demand) the boundary pin for a port bit."""
        port = self.ports.get(port_name)
        if port is None:
            raise NetlistError(f"definition {self.name!r} has no port {port_name!r}")
        if not 0 <= index < port.width:
            raise NetlistError(
                f"bit {index} out of range for port {port_name!r} "
                f"(width {port.width}) on definition {self.name!r}")
        key = (port_name, index)
        if key not in self._top_pins:
            self._top_pins[key] = TopPin(self, port_name, index)
        return self._top_pins[key]

    def top_pins(self) -> Iterator[TopPin]:
        return iter(list(self._top_pins.values()))

    def input_ports(self) -> List[Port]:
        return [p for p in self.ports.values() if p.is_input]

    def output_ports(self) -> List[Port]:
        return [p for p in self.ports.values() if p.is_output]

    # ------------------------------------------------------------------
    # Nets
    # ------------------------------------------------------------------
    def add_net(self, name: Optional[str] = None) -> Net:
        if name is None:
            name = self.make_unique_name("net")
        if name in self.nets:
            raise NetlistError(f"definition {self.name!r} already has net {name!r}")
        net = Net(name, definition=self)
        self.nets[name] = net
        return net

    def get_or_create_net(self, name: str) -> Net:
        net = self.nets.get(name)
        if net is None:
            net = self.add_net(name)
        return net

    def remove_net(self, net: Net) -> None:
        if self.nets.get(net.name) is not net:
            raise NetlistError(f"net {net.name!r} is not owned by {self.name!r}")
        for pin in list(net.pins):
            net.disconnect(pin)
        del self.nets[net.name]
        net.definition = None

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------
    def add_instance(self, reference: "Definition",
                     name: Optional[str] = None) -> Instance:
        if name is None:
            name = self.make_unique_name(reference.name.lower())
        if name in self.instances:
            raise NetlistError(
                f"definition {self.name!r} already has instance {name!r}")
        inst = Instance(name, reference, parent=self)
        self.instances[name] = inst
        return inst

    def remove_instance(self, instance: Instance) -> None:
        if self.instances.get(instance.name) is not instance:
            raise NetlistError(
                f"instance {instance.name!r} is not owned by {self.name!r}")
        instance.disconnect_all()
        del self.instances[instance.name]
        instance.parent = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def make_unique_name(self, prefix: str) -> str:
        """Return a name of the form ``prefix_N`` not yet used in this scope."""
        while True:
            candidate = f"{prefix}_{next(self._name_counter)}"
            if candidate not in self.instances and candidate not in self.nets:
                return candidate

    def count_primitives(self) -> Dict[str, int]:
        """Count leaf cells by type, recursing through hierarchy."""
        counts: Dict[str, int] = {}
        self._count_primitives_into(counts)
        return counts

    def _count_primitives_into(self, counts: Dict[str, int]) -> None:
        for inst in self.instances.values():
            if inst.is_primitive:
                counts[inst.reference.name] = counts.get(inst.reference.name, 0) + 1
            else:
                inst.reference._count_primitives_into(counts)

    def __repr__(self) -> str:
        return (f"Definition({self.name!r}, ports={len(self.ports)}, "
                f"instances={len(self.instances)}, nets={len(self.nets)})")


class Library:
    """A named collection of definitions."""

    def __init__(self, name: str, netlist: Optional["Netlist"] = None) -> None:
        self.name = name
        self.netlist = netlist
        self.definitions: Dict[str, Definition] = {}

    def add_definition(self, name: str, is_primitive: bool = False) -> Definition:
        if name in self.definitions:
            raise NetlistError(f"library {self.name!r} already defines {name!r}")
        definition = Definition(name, library=self, is_primitive=is_primitive)
        self.definitions[name] = definition
        return definition

    def get(self, name: str) -> Optional[Definition]:
        return self.definitions.get(name)

    def __iter__(self) -> Iterator[Definition]:
        return iter(self.definitions.values())

    def __contains__(self, name: str) -> bool:
        return name in self.definitions

    def __repr__(self) -> str:
        return f"Library({self.name!r}, definitions={len(self.definitions)})"


class Netlist:
    """Top-level container: libraries plus a designated top definition."""

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self.libraries: Dict[str, Library] = {}
        self.top: Optional[Definition] = None

    def add_library(self, name: str) -> Library:
        if name in self.libraries:
            raise NetlistError(f"netlist already has library {name!r}")
        library = Library(name, netlist=self)
        self.libraries[name] = library
        return library

    def get_library(self, name: str) -> Library:
        library = self.libraries.get(name)
        if library is None:
            library = self.add_library(name)
        return library

    def set_top(self, definition: Definition) -> None:
        self.top = definition

    def find_definition(self, name: str) -> Optional[Definition]:
        for library in self.libraries.values():
            if name in library:
                return library.definitions[name]
        return None

    def __repr__(self) -> str:
        top = self.top.name if self.top is not None else None
        return f"Netlist({self.name!r}, top={top!r})"
