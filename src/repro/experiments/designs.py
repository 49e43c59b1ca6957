"""Construction of the five filter versions evaluated in the paper.

``build_design_suite`` produces, for a chosen scale, the unprotected filter
and the four TMR versions (maximum / medium / minimum partition and minimum
partition without voted registers), optimizes and flattens them, and
``implement_design_suite`` places and routes each one on an appropriate
device profile.  Every table, figure and ablation (through the pipeline's
build and implement stages) starts from these two functions so that all
results refer to the same implementations.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

from ..core import (AllComponents, ByComponentType, NoPartition, TMRConfig,
                    TMRResult, apply_tmr)
from ..faults import CampaignConfig
from ..fpga import Device, device_by_name
from ..netlist import Definition, Netlist, flatten
from ..pnr import Floorplan, Implementation, implement
from ..pnr.artifacts import StoreLike, flow_fingerprint, resolve_store
from ..rtl import FirComponents, FirSpec, build_fir
from ..techmap import merge_luts, remove_buffer_luts

#: Canonical design names, in the paper's presentation order.
DESIGN_ORDER = ("standard", "TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv")

#: Wrong-answer percentages reported by the paper (Table 3), for reference
#: columns in reports and for shape checks in the benchmarks.
PAPER_TABLE3_PERCENT = {
    "standard": 97.10,
    "TMR_p1": 4.03,
    "TMR_p2": 0.98,
    "TMR_p3": 1.56,
    "TMR_p3_nv": 12.60,
}

#: Slice counts reported by the paper (Table 2).
PAPER_TABLE2_SLICES = {
    "standard": 150,
    "TMR_p1": 560,
    "TMR_p2": 504,
    "TMR_p3": 498,
    "TMR_p3_nv": 476,
}

#: Estimated performance reported by the paper (Table 2), in MHz.
PAPER_TABLE2_FMAX = {
    "standard": 154.0,
    "TMR_p1": 123.0,
    "TMR_p2": 137.0,
    "TMR_p3": 153.0,
    "TMR_p3_nv": 154.0,
}

#: Error-causing effect counts from the paper's Table 4 (for reference).
PAPER_TABLE4 = {
    "standard": {"LUT": 852, "MUX": 123, "Initialization": 174, "Open": 1321,
                 "Bridge": 427, "Input-Antenna": 76, "Conflict": 1342,
                 "Others": 1006},
    "TMR_p1": {"LUT": 0, "MUX": 16, "Initialization": 13, "Open": 276,
               "Bridge": 62, "Input-Antenna": 33, "Conflict": 26,
               "Others": 301},
    "TMR_p2": {"LUT": 0, "MUX": 1, "Initialization": 0, "Open": 82,
               "Bridge": 41, "Input-Antenna": 7, "Conflict": 13,
               "Others": 66},
    "TMR_p3": {"LUT": 0, "MUX": 15, "Initialization": 11, "Open": 126,
               "Bridge": 42, "Input-Antenna": 14, "Conflict": 6,
               "Others": 128},
    "TMR_p3_nv": {"LUT": 0, "MUX": 367, "Initialization": 400, "Open": 1672,
                  "Bridge": 403, "Input-Antenna": 73, "Conflict": 185,
                  "Others": 756},
}


@dataclasses.dataclass(frozen=True)
class Scale:
    """One experiment scale: filter size plus device profiles."""

    name: str
    taps: int
    data_width: int
    standard_device: str
    tmr_device: str
    #: default number of injected faults per campaign at this scale
    campaign_faults: int
    #: default workload length
    workload_cycles: int
    #: simulated-annealing effort during placement
    anneal_moves_per_slice: int = 2


SCALES: Dict[str, Scale] = {
    # The paper's filter: 11 taps, 9-bit samples.  TMR versions of our
    # LUT-only mapping (no carry chains) exceed the XC2S200E array, so they
    # are implemented on the larger family member; Table 2 therefore
    # over-estimates absolute areas while preserving relative overheads.
    "paper": Scale("paper", taps=11, data_width=9,
                   standard_device="XC2S200E", tmr_device="XC2S600E",
                   campaign_faults=6000, workload_cycles=16,
                   anneal_moves_per_slice=2),
    # The TMR versions of the 6-tap filter (TMR_p1: ~600 slices) route
    # reliably only on the larger family member — on the XC2S200E the
    # maximum partition exhausts the w=8 routing channels and the router
    # cannot resolve congestion at any utilization.
    "fast": Scale("fast", taps=6, data_width=6,
                  standard_device="XC2S50E", tmr_device="XC2S600E",
                  campaign_faults=2500, workload_cycles=12),
    "smoke": Scale("smoke", taps=4, data_width=5,
                   standard_device="XC2S15E", tmr_device="XC2S50E",
                   campaign_faults=400, workload_cycles=10),
    # Monte-Carlo scale: the smoke designs with a 10^6-injection draw.
    # The draw exceeds the programmable-bit population, so it covers
    # every bit once plus a reproducible with-replacement tail; duplicate
    # injections collapse onto shared lanes in the batched backends, which
    # is what makes a million injections tractable (numpy backend).
    "huge": Scale("huge", taps=4, data_width=5,
                  standard_device="XC2S15E", tmr_device="XC2S50E",
                  campaign_faults=1_000_000, workload_cycles=10),
    # Minimal configuration for unit tests and pipeline smoke matrices:
    # seconds per design end to end.
    "tiny": Scale("tiny", taps=3, data_width=4,
                  standard_device="XC2S15E", tmr_device="XC2S50E",
                  campaign_faults=80, workload_cycles=8),
}


def scale_by_name(name: str) -> Scale:
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; available: "
                       + ", ".join(sorted(SCALES))) from None


def campaign_config_for(suite: "DesignSuite",
                        num_faults: Optional[int] = None,
                        fault_list_mode: str = "design",
                        seed: int = 2005,
                        upset_model: str = "single") -> CampaignConfig:
    """The campaign configuration of *suite*'s scale.

    ``num_faults=None`` takes the scale's default campaign size; the
    workload length always comes from the scale.
    """
    return CampaignConfig(
        num_faults=num_faults if num_faults is not None
        else suite.scale.campaign_faults,
        workload_cycles=suite.scale.workload_cycles,
        fault_list_mode=fault_list_mode,
        seed=seed,
        upset_model=upset_model,
    )


def fir_spec_for(scale: Scale) -> FirSpec:
    """The FIR specification evaluated at a given scale."""
    if scale.name == "paper":
        return FirSpec.paper()
    return FirSpec.scaled(scale.taps, scale.data_width,
                          name=f"fir_{scale.name}")


@dataclasses.dataclass
class DesignSuite:
    """The five filter versions as flattened netlists."""

    scale: Scale
    spec: FirSpec
    netlist: Netlist
    source: Definition
    components: FirComponents
    #: design name -> flat definition ready for implementation
    flat: Dict[str, Definition]
    #: design name -> TMR transformation record (absent for "standard")
    tmr: Dict[str, TMRResult]


def tmr_configs() -> Dict[str, TMRConfig]:
    """The four TMR configurations evaluated in the paper (Figure 4)."""
    return {
        "TMR_p1": TMRConfig(partition=AllComponents(),
                            name_suffix="_tmr_p1"),
        "TMR_p2": TMRConfig(partition=ByComponentType(("adder",)),
                            name_suffix="_tmr_p2"),
        "TMR_p3": TMRConfig(partition=NoPartition(), name_suffix="_tmr_p3"),
        "TMR_p3_nv": TMRConfig(partition=NoPartition(), vote_registers=False,
                               name_suffix="_tmr_p3_nv"),
    }


def _optimize(flat: Definition) -> Definition:
    """Drop buffer LUTs and merge LUT chains, in place."""
    remove_buffer_luts(flat)
    merge_luts(flat, max_passes=4)
    return flat


def build_design_suite(scale: str = "fast") -> DesignSuite:
    """Build and flatten the five filter versions at the requested scale."""
    scale_obj = scale_by_name(scale)
    spec = fir_spec_for(scale_obj)
    netlist = Netlist(f"fir_suite_{scale_obj.name}")
    source, components = build_fir(netlist, spec)

    flat: Dict[str, Definition] = {}
    tmr_results: Dict[str, TMRResult] = {}

    flat["standard"] = _optimize(
        flatten(netlist, source, flat_name=f"standard_{scale_obj.name}"))

    for name, config in tmr_configs().items():
        result = apply_tmr(netlist, source, config)
        tmr_results[name] = result
        flat[name] = _optimize(
            flatten(netlist, result.definition,
                    flat_name=f"{name}_{scale_obj.name}"))

    return DesignSuite(
        scale=scale_obj,
        spec=spec,
        netlist=netlist,
        source=source,
        components=components,
        flat=flat,
        tmr=tmr_results,
    )


def device_for(suite: DesignSuite, design_name: str) -> Device:
    profile = suite.scale.standard_device if design_name == "standard" \
        else suite.scale.tmr_device
    return device_by_name(profile)


def _suite_floorplan(device: Device, name: str,
                     floorplan_domains: bool) -> Optional[Floorplan]:
    if floorplan_domains and name != "standard":
        return Floorplan.vertical_thirds(device)
    return None


#: The suite a forked flow worker implements from (set by its
#: pool initializer, inherited from the parent).
_WORKER_SUITE: Optional[DesignSuite] = None


def _init_suite_worker(suite: DesignSuite) -> None:
    global _WORKER_SUITE
    _WORKER_SUITE = suite


def _implement_suite_worker(name: str, floorplan_domains: bool, seed: int
                            ) -> Tuple[str, Implementation]:
    """Implement one design of the inherited suite in a worker process.

    The returned implementation travels without its netlist (the flat
    netlist graph is deeply recursive and does not pickle); the parent
    re-attaches its own definition.
    """
    suite = _WORKER_SUITE
    assert suite is not None, "flow worker used before initialization"
    device = device_for(suite, name)
    implementation = implement(
        suite.flat[name], device, seed=seed,
        floorplan=_suite_floorplan(device, name, floorplan_domains),
        anneal_moves_per_slice=suite.scale.anneal_moves_per_slice)
    return name, dataclasses.replace(implementation, design=None)


def implement_design_suite(suite: DesignSuite,
                           designs: Optional[List[str]] = None,
                           floorplan_domains: bool = False,
                           seed: int = 1,
                           jobs: int = 1,
                           artifact_store: StoreLike = None
                           ) -> Dict[str, Implementation]:
    """Place and route the selected design versions.

    *artifact_store* (a directory path or
    :class:`~repro.pnr.FlowArtifactStore`) consults the persistent flow
    cache first and stores fresh implementations back, so a second run of
    any experiment CLI skips place-and-route entirely.  *jobs* implements
    cache-missing designs in up to that many forked worker processes (the
    five suite designs are independent; where ``fork`` is unavailable the
    designs are implemented serially); results are bit-identical to the
    serial flow in either case.
    """
    names = list(designs) if designs is not None else list(DESIGN_ORDER)
    store = resolve_store(artifact_store)

    fingerprints: Dict[str, str] = {}
    implementations: Dict[str, Optional[Implementation]] = {}
    pending: List[str] = []
    for name in names:
        definition = suite.flat[name]
        device = device_for(suite, name)
        floorplan = _suite_floorplan(device, name, floorplan_domains)
        fingerprints[name] = flow_fingerprint(
            definition, device, seed=seed, floorplan=floorplan,
            anneal_moves_per_slice=suite.scale.anneal_moves_per_slice)
        cached = store.load(fingerprints[name], definition) \
            if store is not None else None
        implementations[name] = cached
        if cached is None:
            pending.append(name)

    if len(pending) > 1 and jobs > 1:
        implementations.update(
            _implement_parallel(suite, pending, floorplan_domains, seed,
                                jobs))

    for name in pending:
        if implementations[name] is not None:
            continue
        definition = suite.flat[name]
        device = device_for(suite, name)
        floorplan = _suite_floorplan(device, name, floorplan_domains)
        implementations[name] = implement(
            definition, device, seed=seed, floorplan=floorplan,
            anneal_moves_per_slice=suite.scale.anneal_moves_per_slice)

    if store is not None:
        for name in pending:
            if implementations[name] is not None:
                store.store(fingerprints[name], implementations[name])

    return {name: implementations[name] for name in names}


def _implement_parallel(suite: DesignSuite, pending: List[str],
                        floorplan_domains: bool, seed: int, jobs: int
                        ) -> Dict[str, Implementation]:
    """Fan the cache-missing designs out over forked worker processes.

    Workers inherit *suite* through the fork, so each task carries only
    a design name.  Without the ``fork`` start method nothing runs here,
    and a crashed worker leaves its design unimplemented; the caller's
    serial pass picks up every design missing from the result, so
    parallelism is purely an accelerator and never a correctness risk.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    results: Dict[str, Implementation] = {}
    if "fork" not in multiprocessing.get_all_start_methods():
        return results
    workers = max(1, min(jobs, len(pending), os.cpu_count() or 1))
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_suite_worker,
                initargs=(suite,)) as pool:
            futures = [pool.submit(_implement_suite_worker, name,
                                   floorplan_domains, seed)
                       for name in pending]
            for future in futures:
                name, implementation = future.result()
                implementation.design = suite.flat[name]
                results[name] = implementation
    except Exception:
        # Fall back to the serial path for everything not yet produced.
        pass
    return results
