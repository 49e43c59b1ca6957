"""Convenience builder for assembling netlists programmatically.

The :class:`NetlistBuilder` wraps the raw IR with helpers for the patterns
that dominate structural design entry: creating buses, wiring instances by
keyword, tying constants and stitching sub-modules together.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from .ir import (Definition, Direction, Instance, Library, Net, Netlist,
                 NetlistError)

NetOrName = Union[Net, str]


class NetlistBuilder:
    """Stateful helper bound to one definition under construction."""

    def __init__(self, netlist: Netlist, definition: Definition,
                 cell_library: Optional[Library] = None) -> None:
        self.netlist = netlist
        self.definition = definition
        self.cell_library = cell_library

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def new_module(cls, netlist: Netlist, name: str,
                   library_name: str = "work",
                   cell_library: Optional[Library] = None) -> "NetlistBuilder":
        """Create a new definition in *library_name* and return a builder."""
        library = netlist.get_library(library_name)
        definition = library.add_definition(name)
        return cls(netlist, definition, cell_library)

    def input(self, name: str, width: int = 1) -> List[Net]:
        """Add an input port and return its bit nets (LSB first)."""
        port = self.definition.add_port(name, Direction.INPUT, width)
        return self._port_nets(port.name, width)

    def output(self, name: str, width: int = 1) -> List[Net]:
        """Add an output port and return its bit nets (LSB first)."""
        port = self.definition.add_port(name, Direction.OUTPUT, width)
        return self._port_nets(port.name, width)

    def _port_nets(self, port_name: str, width: int) -> List[Net]:
        nets = []
        for bit in range(width):
            net_name = port_name if width == 1 else f"{port_name}[{bit}]"
            net = self.definition.get_or_create_net(net_name)
            net.connect(self.definition.top_pin(port_name, bit))
            nets.append(net)
        return nets

    def wire(self, name: Optional[str] = None) -> Net:
        """Create (or fetch) a single named net."""
        if name is None:
            return self.definition.add_net()
        return self.definition.get_or_create_net(name)

    def bus(self, base_name: str, width: int) -> List[Net]:
        """Create *width* nets named ``base[i]`` and return them LSB first."""
        return [self.wire(f"{base_name}[{i}]") for i in range(width)]

    def _resolve(self, net: NetOrName) -> Net:
        if isinstance(net, Net):
            return net
        return self.definition.get_or_create_net(net)

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------
    def _find_reference(self, cell_name: str) -> Definition:
        if self.cell_library is not None and cell_name in self.cell_library:
            return self.cell_library.definitions[cell_name]
        reference = self.netlist.find_definition(cell_name)
        if reference is None:
            raise NetlistError(f"unknown cell or module {cell_name!r}")
        return reference

    def instantiate(self, cell_name: str, inst_name: Optional[str] = None,
                    properties: Optional[Dict[str, object]] = None,
                    **connections: Union[NetOrName, Sequence[NetOrName]],
                    ) -> Instance:
        """Instantiate *cell_name* and connect ports given as keywords.

        Scalar ports take a net (or net name); bus ports take a sequence of
        nets LSB first.
        """
        reference = self._find_reference(cell_name)
        instance = self.definition.add_instance(reference, inst_name)
        if properties:
            instance.properties.update(properties)
        for port_name, value in connections.items():
            if port_name not in reference.ports:
                raise NetlistError(
                    f"cell {cell_name!r} has no port {port_name!r}")
            port = reference.ports[port_name]
            if isinstance(value, (list, tuple)):
                if len(value) != port.width:
                    raise NetlistError(
                        f"port {port_name!r} of {cell_name!r} has width "
                        f"{port.width}, got {len(value)} nets")
                for bit, net in enumerate(value):
                    instance.connect(port_name, self._resolve(net), bit)
            else:
                instance.connect(port_name, self._resolve(value), 0)
        return instance

    def submodule(self, definition: Definition,
                  inst_name: Optional[str] = None,
                  **connections: Union[NetOrName, Sequence[NetOrName]],
                  ) -> Instance:
        """Instantiate an already-built definition by object."""
        instance = self.definition.add_instance(definition, inst_name)
        for port_name, value in connections.items():
            if port_name not in definition.ports:
                raise NetlistError(
                    f"module {definition.name!r} has no port {port_name!r}")
            port = definition.ports[port_name]
            if isinstance(value, (list, tuple)):
                if len(value) != port.width:
                    raise NetlistError(
                        f"port {port_name!r} of {definition.name!r} has width "
                        f"{port.width}, got {len(value)} nets")
                for bit, net in enumerate(value):
                    instance.connect(port_name, self._resolve(net), bit)
            else:
                instance.connect(port_name, self._resolve(value), 0)
        return instance

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    def ground(self) -> Net:
        """Return a net driven by a GND cell (shared per definition)."""
        return self._constant_net("GND", "G", "const0")

    def power(self) -> Net:
        """Return a net driven by a VCC cell (shared per definition)."""
        return self._constant_net("VCC", "P", "const1")

    def _constant_net(self, cell_name: str, out_port: str, net_name: str) -> Net:
        existing = self.definition.nets.get(net_name)
        if existing is not None and existing.drivers():
            return existing
        net = self.definition.get_or_create_net(net_name)
        reference = self._find_reference(cell_name)
        instance = self.definition.add_instance(
            reference, self.definition.make_unique_name(cell_name.lower()))
        instance.connect(out_port, net, 0)
        return net

    def finish(self, set_top: bool = False) -> Definition:
        """Return the built definition, optionally marking it netlist top."""
        if set_top:
            self.netlist.set_top(self.definition)
        return self.definition
