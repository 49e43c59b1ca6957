"""LUT technology optimization: collapse LUT chains into fuller LUT4s.

Gate-level construction (:mod:`repro.techmap.gates`) emits one LUT per gate,
which wastes LUT inputs (e.g. an inverter feeding an AND2 is really a single
2-input function).  :func:`merge_luts` repeatedly absorbs single-fanout LUT
drivers into their sink LUT whenever the combined support still fits in a
LUT4, recomputing the INIT truth table.  This mirrors what a commercial
mapper does and materially changes the area numbers reported in Table 2.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..cells.lut import lut_init_of
from ..cells.library import LUT_CELLS, lut_cell_for_inputs, lut_input_count
from ..netlist.ir import Definition, Instance, InstancePin, Net, NetlistError


@dataclasses.dataclass
class MapperReport:
    """Summary of a :func:`merge_luts` run."""

    luts_before: int = 0
    luts_after: int = 0
    merges: int = 0
    passes: int = 0


def _is_lut(instance: Instance) -> bool:
    return instance.reference.name in LUT_CELLS


def _lut_inputs(instance: Instance) -> List[Optional[Net]]:
    """Nets on I0..Ik of a LUT instance."""
    count = lut_input_count(instance.reference.name)
    return [instance.net_of(f"I{i}") for i in range(count)]


def _lut_output_net(instance: Instance) -> Optional[Net]:
    return instance.net_of("O")


def _single_lut_fanout(net: Net) -> Optional[Tuple[Instance, int]]:
    """If *net* feeds exactly one LUT input pin and nothing else, return it."""
    sinks = net.sinks()
    if len(sinks) != 1:
        return None
    sink = sinks[0]
    if not isinstance(sink, InstancePin):
        return None
    if not _is_lut(sink.instance):
        return None
    if not sink.port_name.startswith("I"):
        return None
    return sink.instance, int(sink.port_name[1:])


def _compose_init(sink: Instance, sink_pin_index: int,
                  driver: Instance) -> Optional[Tuple[int, List[Net]]]:
    """Compute the merged INIT and input net list for absorbing *driver*.

    Returns ``None`` if the merged support would exceed four inputs.
    """
    sink_inputs = _lut_inputs(sink)
    driver_inputs = _lut_inputs(driver)
    if any(n is None for n in driver_inputs):
        return None

    # Build the merged support: sink inputs except the absorbed pin, then any
    # new driver inputs, de-duplicated by net identity.
    merged: List[Net] = []
    for index, net in enumerate(sink_inputs):
        if index == sink_pin_index:
            continue
        if net is None:
            return None
        if net not in merged:
            merged.append(net)
    for net in driver_inputs:
        if net not in merged:
            merged.append(net)
    if len(merged) > 4:
        return None

    sink_init = lut_init_of(sink)
    driver_init = lut_init_of(driver)
    sink_width = lut_input_count(sink.reference.name)
    driver_width = lut_input_count(driver.reference.name)

    new_init = 0
    for address in range(1 << len(merged)):
        assignment = {id(net): (address >> bit) & 1
                      for bit, net in enumerate(merged)}
        # Evaluate the driver LUT under this assignment.
        driver_address = 0
        for position, net in enumerate(driver_inputs):
            driver_address |= assignment[id(net)] << position
        driver_value = (driver_init >> driver_address) & 1
        # Evaluate the sink LUT with the absorbed pin replaced.
        sink_address = 0
        for position, net in enumerate(sink_inputs):
            if position == sink_pin_index:
                bit_value = driver_value
            else:
                bit_value = assignment[id(net)]
            sink_address |= bit_value << position
        if (sink_init >> sink_address) & 1:
            new_init |= 1 << address
    return new_init, merged


def merge_luts(definition: Definition, max_passes: int = 8) -> MapperReport:
    """Absorb single-fanout LUT drivers into their sink LUTs in place."""
    report = MapperReport()
    report.luts_before = sum(1 for i in definition.instances.values()
                             if _is_lut(i))
    cell_library = None
    for instance in definition.instances.values():
        if _is_lut(instance):
            cell_library = instance.reference.library
            break
    if cell_library is None:
        report.luts_after = report.luts_before
        return report

    changed = True
    while changed and report.passes < max_passes:
        changed = False
        report.passes += 1
        for sink in list(definition.instances.values()):
            if sink.name not in definition.instances:
                continue  # removed earlier in this pass
            if not _is_lut(sink):
                continue
            sink_inputs = _lut_inputs(sink)
            for pin_index, input_net in enumerate(sink_inputs):
                if input_net is None:
                    continue
                drivers = input_net.drivers()
                if len(drivers) != 1:
                    continue
                driver_pin = drivers[0]
                if not isinstance(driver_pin, InstancePin):
                    continue
                driver = driver_pin.instance
                if driver is sink or not _is_lut(driver):
                    continue
                if "voter" in driver.properties or "voter" in sink.properties:
                    # Never absorb TMR voters: the voter LUT must remain an
                    # identifiable, separately-placed barrier.
                    continue
                if driver.properties.get("domain") != \
                        sink.properties.get("domain"):
                    continue  # never merge logic across TMR domains
                if _single_lut_fanout(input_net) is None:
                    continue
                if any(pin.net is input_net for pin in
                       definition.top_pins() if pin.net is not None):
                    continue
                composition = _compose_init(sink, pin_index, driver)
                if composition is None:
                    continue
                new_init, merged_inputs = composition
                _rebuild_lut(definition, cell_library, sink, new_init,
                             merged_inputs)
                definition.remove_instance(driver)
                if not input_net.pins:
                    definition.remove_net(input_net)
                report.merges += 1
                changed = True
                break  # sink's pins changed; revisit on next outer iteration

    report.luts_after = sum(1 for i in definition.instances.values()
                            if _is_lut(i))
    return report


def _rebuild_lut(definition: Definition, cell_library, instance: Instance,
                 init: int, inputs: List[Net]) -> None:
    """Re-type *instance* to the right LUT size and rewire its inputs."""
    output_net = _lut_output_net(instance)
    if output_net is None:
        raise NetlistError(f"LUT {instance.name!r} has no output net")
    properties = dict(instance.properties)
    properties["INIT"] = init
    name = instance.name
    definition.remove_instance(instance)
    reference = lut_cell_for_inputs(cell_library, max(1, len(inputs)))
    rebuilt = definition.add_instance(reference, name)
    rebuilt.properties = properties
    for position, net in enumerate(inputs):
        rebuilt.connect(f"I{position}", net, 0)
    rebuilt.connect("O", output_net, 0)


def remove_buffer_luts(definition: Definition) -> int:
    """Remove LUT1 buffers (INIT = O=I0) by merging their nets.

    Buffers protecting top-level ports are kept.  Returns the number of
    buffers removed.
    """
    removed = 0
    for instance in list(definition.instances.values()):
        if instance.reference.name != "LUT1":
            continue
        if lut_init_of(instance) != 2:  # not a plain buffer
            continue
        in_net = instance.net_of("I0")
        out_net = instance.net_of("O")
        if in_net is None or out_net is None:
            continue
        if out_net.top_pins() and in_net.top_pins():
            continue  # keep port-to-port buffers explicit
        definition.remove_instance(instance)
        for pin in list(out_net.pins):
            in_net.connect(pin)
        if not out_net.pins:
            definition.remove_net(out_net)
        removed += 1
    return removed
