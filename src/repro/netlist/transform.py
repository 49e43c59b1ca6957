"""Netlist flattening."""

from __future__ import annotations

from typing import Dict, Optional

from .ir import Definition, Net, Netlist, NetlistError

#: Separator used when composing hierarchical names during flattening.
HIER_SEP = "/"


def flatten(netlist: Netlist, top: Optional[Definition] = None,
            flat_name: Optional[str] = None) -> Definition:
    """Produce a flat definition containing only primitive instances.

    Hierarchical instance and net names are composed with ``/`` so that
    ``tap3/adder/fa_2`` identifies the full path of a leaf cell.  Net
    properties and instance properties are propagated; a property set on a
    hierarchical instance (for example a TMR ``domain`` tag) is inherited by
    every leaf cell flattened out of it unless the leaf overrides it.

    The flat definition is added to a ``flat`` library of *netlist* and
    returned; the original hierarchy is left untouched.
    """
    source_top = top if top is not None else netlist.top
    if source_top is None:
        raise NetlistError("netlist has no top definition to flatten")
    name = flat_name if flat_name is not None else f"{source_top.name}_flat"

    flat_library = netlist.get_library("flat")
    if name in flat_library:
        raise NetlistError(f"flat library already contains {name!r}")
    flat = flat_library.add_definition(name)
    flat.properties = dict(source_top.properties)

    for port in source_top.ports.values():
        flat.add_port(port.name, port.direction, port.width)

    # Map from (instance path, original net) to flat net.  The path is part
    # of the key because several instances of the same definition share the
    # same underlying Net objects.
    net_map: Dict[tuple, Net] = {}

    def flat_net_for(path: str, net: Net) -> Net:
        key = (path, id(net))
        mapped = net_map.get(key)
        if mapped is None:
            flat_name_ = net.name if not path else f"{path}{HIER_SEP}{net.name}"
            if flat_name_ in flat.nets:
                flat_name_ = flat.make_unique_name(flat_name_)
            mapped = flat.add_net(flat_name_)
            mapped.properties = dict(net.properties)
            net_map[key] = mapped
        return mapped

    def expand(current: Definition, path: str,
               boundary: Dict[tuple, Net],
               inherited: Dict[str, object]) -> None:
        """Expand *current* in place.

        *boundary* maps (port_name, index) of *current* to the flat net that
        the parent connected to that port bit.
        """
        # Local nets of this level map either to the boundary net (if the
        # local net touches a top pin of this definition) or to a new flat net.
        local_map: Dict[int, Net] = {}

        for net in current.nets.values():
            boundary_net: Optional[Net] = None
            for pin in net.top_pins():
                candidate = boundary.get((pin.port_name, pin.index))
                if candidate is not None:
                    if boundary_net is None:
                        boundary_net = candidate
                    elif boundary_net is not candidate:
                        # Two boundary nets joined inside: merge by aliasing
                        # all pins of one onto the other.
                        _merge_nets(boundary_net, candidate)
            if boundary_net is not None:
                local_map[id(net)] = boundary_net
                # Propagate interesting net properties outward.
                for key, value in net.properties.items():
                    boundary_net.properties.setdefault(key, value)
            else:
                local_map[id(net)] = flat_net_for(path, net)

        for inst in current.instances.values():
            inst_path = inst.name if not path else f"{path}{HIER_SEP}{inst.name}"
            merged_props = dict(inherited)
            merged_props.update(inst.properties)
            if inst.is_primitive:
                new_inst = flat.add_instance(inst.reference, inst_path)
                new_inst.properties = merged_props
                for pin in inst.pins():
                    if pin.net is None:
                        continue
                    flat_net = local_map[id(pin.net)]
                    flat_net.connect(new_inst.pin(pin.port_name, pin.index))
            else:
                child_boundary: Dict[tuple, Net] = {}
                for pin in inst.pins():
                    if pin.net is None:
                        continue
                    child_boundary[(pin.port_name, pin.index)] = \
                        local_map[id(pin.net)]
                expand(inst.reference, inst_path, child_boundary, merged_props)

    # Top-level boundary: create flat nets attached to the flat top pins.
    top_boundary: Dict[tuple, Net] = {}
    for port in source_top.ports.values():
        for bit in port.bits():
            net = flat.add_net(_port_net_name(port.name, bit, port.width))
            net.connect(flat.top_pin(port.name, bit))
            top_boundary[(port.name, bit)] = net

    expand(source_top, "", top_boundary, {})

    # Drop nets that ended up with no pins (created then merged away).
    for net in [n for n in flat.nets.values() if not n.pins]:
        flat.remove_net(net)

    flat_library_netlist = netlist
    if flat_library_netlist.top is source_top:
        # Keep the hierarchical top as the netlist top; callers that want the
        # flat version receive it as the return value.
        pass
    return flat


def _port_net_name(port_name: str, bit: int, width: int) -> str:
    return port_name if width == 1 else f"{port_name}[{bit}]"


def _merge_nets(keep: Net, merge: Net) -> None:
    """Move every pin of *merge* onto *keep* and delete *merge*."""
    if keep is merge:
        return
    for pin in list(merge.pins):
        keep.connect(pin)
    for key, value in merge.properties.items():
        keep.properties.setdefault(key, value)
    if merge.definition is not None:
        merge.definition.remove_net(merge)
