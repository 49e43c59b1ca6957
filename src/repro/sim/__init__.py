"""Levelized three-valued simulation of flat primitive netlists."""

from .bitparallel import (LaneOutcome, VectorProgram, VectorResult,
                          broadcast_inputs, broadcast_trace,
                          compile_vector_program, simulate_lanes)
from .compile import CompiledDesign, FaultCone, FlipFlop, Gate, PortBinding
from .npkernel import NumpyProgram, compile_numpy_program
from .golden import (ComparisonResult, compare_traces, outputs_as_ints,
                     trace_matches_reference)
from .overlay import (BLEND_AND_NOT, BLEND_SHORT, BLEND_UNKNOWN,
                      BLEND_WIRED_AND, BLEND_WIRED_OR, SOURCE_BLEND,
                      SOURCE_CONST, SOURCE_NET, FaultOverlay, SourceOverride)
from .simulator import SimulationTrace, Simulator, simulate
from .vectors import (alternating, campaign_workload, impulse, random_samples,
                      signed_range, step, stimulus_from_samples,
                      tmr_stimulus_from_samples)

__all__ = [
    "LaneOutcome", "VectorProgram", "VectorResult", "broadcast_inputs",
    "broadcast_trace", "compile_vector_program", "simulate_lanes",
    "NumpyProgram", "compile_numpy_program",
    "CompiledDesign", "FaultCone", "FlipFlop", "Gate", "PortBinding",
    "ComparisonResult", "compare_traces", "outputs_as_ints",
    "trace_matches_reference", "BLEND_AND_NOT", "BLEND_SHORT",
    "BLEND_UNKNOWN", "BLEND_WIRED_AND",
    "BLEND_WIRED_OR", "SOURCE_BLEND", "SOURCE_CONST", "SOURCE_NET",
    "FaultOverlay", "SourceOverride", "SimulationTrace", "Simulator",
    "simulate", "alternating", "campaign_workload", "impulse",
    "random_samples", "signed_range", "step", "stimulus_from_samples",
    "tmr_stimulus_from_samples",
]
