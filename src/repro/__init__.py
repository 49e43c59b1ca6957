"""repro — reproduction of "On the Optimal Design of Triple Modular
Redundancy Logic for SRAM-based FPGAs" (Kastensmidt, Sterpone, Carro,
Sonza Reorda — DATE 2005).

The package provides, bottom-up:

* :mod:`repro.netlist` — a SpyDrNet-style netlist IR with hierarchy,
  traversal and flattening;
* :mod:`repro.cells` — the FPGA primitive cell library (LUTs, flip-flops,
  I/O) with behavioural models;
* :mod:`repro.techmap` — gate-to-LUT lowering and LUT packing;
* :mod:`repro.rtl` — structural generators including the paper's 11-tap FIR
  filter case study;
* :mod:`repro.core` — the paper's contribution: TMR insertion with
  configurable voter partitioning;
* :mod:`repro.fpga` — an island-style FPGA device model with a
  frame-addressed configuration memory and bitstream generation;
* :mod:`repro.pnr` — packing, placement and routing onto the device model;
* :mod:`repro.sim` — a three-valued levelized simulator;
* :mod:`repro.faults` — bitstream fault injection, effect classification and
  campaign management;
* :mod:`repro.analysis` — resource/robustness reports (paper Tables 2-4);
* :mod:`repro.experiments` — the five filter versions, the paper's
  reference numbers and the figure and ablation functions;
* :mod:`repro.pipeline` — the declarative experiment pipeline engine
  (fingerprint-keyed stages over flow/campaign caches);
* :mod:`repro.scenarios` — the scenario registry and ``run_scenario``
  (the ``python -m repro run <scenario>`` surface, the one command line
  for every table and figure).

The pipeline/scenario surface is re-exported lazily at the package level::

    from repro import run_scenario
    report = run_scenario("table3-fir", scale="smoke")
"""

__version__ = "1.1.0"

#: Package-level name -> (module, attribute) for the lazy public API.
_PUBLIC_API = {
    "Pipeline": ("repro.pipeline", "Pipeline"),
    "PipelineContext": ("repro.pipeline", "PipelineContext"),
    "REPORT_SCHEMA": ("repro.pipeline", "REPORT_SCHEMA"),
    "Stage": ("repro.pipeline", "Stage"),
    "STAGE_LIBRARY": ("repro.pipeline", "STAGE_LIBRARY"),
    "pipeline_for": ("repro.pipeline", "pipeline_for"),
    "render_markdown": ("repro.pipeline", "render_markdown"),
    "stable_report": ("repro.pipeline", "stable_report"),
    "DefeatMap": ("repro.analysis.layout", "DefeatMap"),
    "LayoutAnalyzer": ("repro.analysis.layout", "LayoutAnalyzer"),
    "defeat_map_for": ("repro.analysis.layout", "defeat_map_for"),
    "Scenario": ("repro.scenarios", "Scenario"),
    "SCENARIOS": ("repro.scenarios", "SCENARIOS"),
    "list_scenarios": ("repro.scenarios", "list_scenarios"),
    "register_scenario": ("repro.scenarios", "register_scenario"),
    "run_scenario": ("repro.scenarios", "run_scenario"),
    "scenario_by_name": ("repro.scenarios", "scenario_by_name"),
}

__all__ = ["__version__"] + sorted(_PUBLIC_API)


def __getattr__(name):
    """Lazily resolve the pipeline/scenario API (keeps ``import repro``
    light for callers that only want the low-level layers)."""
    try:
        module_name, attribute = _PUBLIC_API[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__():
    return sorted(set(globals()) | set(_PUBLIC_API))
