"""Structural validation of netlists.

The tests check every netlist the builders, the TMR pass and the flattener
produce against these structural rules.  The checker reports problems
rather than raising, so a test can decide which issues are fatal (a
floating LUT output is harmless, an undriven flip-flop clock is not).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.netlist.ir import Definition, Direction, Net, NetlistError
from repro.netlist.traversal import topological_levels


@dataclasses.dataclass
class ValidationIssue:
    """A single problem found by :func:`validate_definition`."""

    severity: str          # "error" or "warning"
    kind: str              # machine readable category
    message: str           # human readable description
    subject: Optional[str] = None   # name of the offending object

    def __str__(self) -> str:
        subject = f" [{self.subject}]" if self.subject else ""
        return f"{self.severity.upper()}: {self.kind}{subject}: {self.message}"


@dataclasses.dataclass
class ValidationReport:
    """Aggregated result of a validation pass."""

    issues: List[ValidationIssue] = dataclasses.field(default_factory=list)

    @property
    def errors(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, severity: str, kind: str, message: str,
            subject: Optional[str] = None) -> None:
        self.issues.append(ValidationIssue(severity, kind, message, subject))

    def raise_if_errors(self) -> None:
        if not self.ok:
            summary = "; ".join(str(e) for e in self.errors[:5])
            raise NetlistError(f"netlist validation failed: {summary}")

    def __str__(self) -> str:
        if not self.issues:
            return "validation: clean"
        return "\n".join(str(i) for i in self.issues)


def undriven_nets(definition: Definition) -> List[Net]:
    """Nets with at least one sink but no driver."""
    return [net for net in definition.nets.values()
            if net.sinks() and not net.drivers()]


def floating_nets(definition: Definition) -> List[Net]:
    """Nets with a driver but no sinks (dangling outputs)."""
    return [net for net in definition.nets.values()
            if net.drivers() and not net.sinks()]


def multiply_driven_nets(definition: Definition) -> List[Net]:
    """Nets with more than one driver (a structural conflict)."""
    return [net for net in definition.nets.values() if len(net.drivers()) > 1]


def validate_definition(definition: Definition,
                        allow_floating_outputs: bool = True,
                        check_cycles: bool = True) -> ValidationReport:
    """Validate a (typically flat) definition.

    Checks performed:

    * every net with sinks has exactly one driver;
    * no net has multiple drivers;
    * primitive input pins are connected (warning if not);
    * output ports of the definition are driven;
    * the combinational portion is acyclic (if *check_cycles*).
    """
    report = ValidationReport()

    for net in undriven_nets(definition):
        report.add("error", "undriven-net",
                   f"net has {len(net.sinks())} sink(s) but no driver",
                   net.name)

    for net in multiply_driven_nets(definition):
        drivers = ", ".join(repr(d) for d in net.drivers()[:4])
        report.add("error", "multiple-drivers",
                   f"net has {len(net.drivers())} drivers: {drivers}", net.name)

    if not allow_floating_outputs:
        for net in floating_nets(definition):
            report.add("warning", "floating-net",
                       "net has a driver but no sinks", net.name)

    for inst in definition.instances.values():
        if not inst.is_primitive:
            continue
        for port in inst.reference.ports.values():
            if port.direction is not Direction.INPUT:
                continue
            for bit in port.bits():
                if inst.net_of(port.name, bit) is None:
                    report.add("warning", "unconnected-input",
                               f"input {port.name}[{bit}] is unconnected",
                               inst.name)

    for port in definition.output_ports():
        for bit in port.bits():
            pin = definition.top_pin(port.name, bit)
            if pin.net is None:
                report.add("error", "undriven-output",
                           f"top output port bit {port.name}[{bit}] is not "
                           "connected to any net", definition.name)

    if check_cycles:
        try:
            topological_levels(definition)
        except NetlistError as exc:
            report.add("error", "combinational-loop", str(exc), definition.name)

    return report
