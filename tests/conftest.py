"""Shared fixtures for the test suite.

Everything here is intentionally small (a 3-4 tap filter with narrow data)
so the whole suite stays fast; the full-size configurations are exercised by
the benchmark harness.
"""

from __future__ import annotations

import pytest

from repro.cells.library import shared_cell_library
from repro.core import (AllComponents, ByComponentType, NoPartition,
                        TMRConfig, apply_tmr)
from repro.fpga import device_by_name
from repro.netlist import Netlist, NetlistBuilder, flatten
from repro.pnr import implement
from repro.rtl import FirSpec, build_fir
from repro.sim import CompiledDesign


@pytest.fixture()
def netlist():
    return Netlist("test")


@pytest.fixture()
def cells():
    return shared_cell_library()


@pytest.fixture()
def builder(netlist, cells):
    return NetlistBuilder.new_module(netlist, "top", "work", cells)


@pytest.fixture(scope="session")
def tiny_fir_spec():
    return FirSpec.scaled(3, 4, name="fir_tiny")


@pytest.fixture(scope="session")
def tiny_fir():
    """A tiny FIR filter: (netlist, top definition, components)."""
    netlist = Netlist("tiny_fir")
    spec = FirSpec.scaled(3, 4, name="fir_tiny")
    top, components = build_fir(netlist, spec)
    return netlist, spec, top, components


@pytest.fixture(scope="session")
def tiny_fir_flat(tiny_fir):
    netlist, spec, top, _components = tiny_fir
    return flatten(netlist, top, flat_name="fir_tiny_flat")


@pytest.fixture(scope="session")
def tiny_fir_compiled(tiny_fir_flat):
    return CompiledDesign(tiny_fir_flat)


@pytest.fixture(scope="session")
def tiny_tmr_suite(tiny_fir):
    """TMR variants of the tiny filter: {name: TMRResult}."""
    netlist, _spec, top, _components = tiny_fir
    configs = {
        "p1": TMRConfig(partition=AllComponents(), name_suffix="_t_p1"),
        "p2": TMRConfig(partition=ByComponentType(("adder",)),
                        name_suffix="_t_p2"),
        "p3": TMRConfig(partition=NoPartition(), name_suffix="_t_p3"),
        "p3_nv": TMRConfig(partition=NoPartition(), vote_registers=False,
                           name_suffix="_t_p3_nv"),
    }
    return {name: apply_tmr(netlist, top, config)
            for name, config in configs.items()}


@pytest.fixture(scope="session")
def tiny_device():
    return device_by_name("TINY")


@pytest.fixture(scope="session")
def small_device():
    return device_by_name("XC2S15E")


@pytest.fixture(scope="session")
def tiny_fir_implementation(tiny_fir_flat, small_device):
    """The tiny unprotected filter placed and routed."""
    return implement(tiny_fir_flat, small_device, anneal_moves_per_slice=2)


@pytest.fixture(scope="session")
def tiny_tmr_implementation(tiny_fir, tiny_tmr_suite):
    """The tiny medium-partition TMR filter placed and routed."""
    netlist, _spec, _top, _components = tiny_fir
    flat = flatten(netlist, tiny_tmr_suite["p2"].definition,
                   flat_name="fir_tiny_p2_flat")
    return implement(flat, device_by_name("XC2S50E"),
                     anneal_moves_per_slice=2)


@pytest.fixture(scope="session")
def tiny_suite_implementations():
    """Every design of the tiny-scale suite, placed and routed."""
    from repro.experiments.designs import (build_design_suite,
                                           implement_design_suite)
    return implement_design_suite(build_design_suite("tiny"))
