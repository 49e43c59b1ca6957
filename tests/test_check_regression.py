"""Tests for the benchmark regression gate, benchmarks/check_regression.py.

The gate is a script, not a package module, so it is loaded by path.  The
committed ``BENCH_*.json`` baselines at the repository root serve as both
sides of the comparison; each test edits a copy of the *current* report to
show which gaps the gate must report.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
TOLERANCE = 0.30


@pytest.fixture(scope="module")
def campaign_baseline():
    return json.loads((ROOT / "BENCH_campaign.json").read_text())


@pytest.fixture(scope="module")
def flow_baseline():
    return json.loads((ROOT / "BENCH_flow.json").read_text())


class TestCampaignGate:
    def test_committed_report_passes(self, campaign_baseline):
        assert gate.check(campaign_baseline, campaign_baseline,
                          TOLERANCE) == []

    def test_missing_numpy_backend_rows_are_problems(self,
                                                     campaign_baseline):
        current = copy.deepcopy(campaign_baseline)
        for row in current["designs"].values():
            del row["backends"]["numpy"]
        problems = gate.check(campaign_baseline, current, TOLERANCE)
        for design in current["designs"]:
            assert any(f"campaign numpy {design}" in problem
                       and "missing" in problem
                       for problem in problems), problems

    def test_missing_saturated_rows_are_problems(self, campaign_baseline):
        current = copy.deepcopy(campaign_baseline)
        for row in current["designs"].values():
            del row["numpy_saturated"]
        del current["numpy_best_saturated_speedup"]
        problems = gate.check(campaign_baseline, current, TOLERANCE)
        for design in current["designs"]:
            assert any(f"campaign numpy-saturated {design}" in problem
                       and "missing" in problem
                       for problem in problems), problems


def _current_flow(flow_baseline):
    """The committed flow report as the writer now emits it."""
    current = copy.deepcopy(flow_baseline)
    current["defeat_map_build"].pop("vectorized_available", None)
    return current


class TestFlowGate:
    def test_report_without_availability_flag_passes(self, flow_baseline):
        current = _current_flow(flow_baseline)
        assert gate.check_flow(flow_baseline, current, TOLERANCE) == []

    def test_in_run_map_ratio_is_read_without_availability_flag(
            self, flow_baseline):
        current = _current_flow(flow_baseline)
        expected = {design: row["speedup_vs_flood_in_run"]
                    for design, row
                    in current["defeat_map_build"]["designs"].items()}
        assert expected
        assert gate.flow_map_in_run_speedups(current) == expected

    def test_parallel_section_reads_jobs_keys(self, flow_baseline):
        current = _current_flow(flow_baseline)
        section = current["parallel_cold"]
        section.update(gate_applied=True, cpu_count=2,
                       speedup_jobs_n_vs_1=1.2)
        problems = gate.check_flow(flow_baseline, current, TOLERANCE)
        assert any(f"jobs={section['jobs']} ran at 1.20x" in problem
                   for problem in problems), problems
        section["identical_across_jobs"] = False
        problems = gate.check_flow(flow_baseline, current, TOLERANCE)
        assert any("not bit-identical across job counts" in problem
                   for problem in problems), problems

    def test_parallel_floor_is_the_recorded_bar(self, flow_baseline):
        current = _current_flow(flow_baseline)
        section = current["parallel_cold"]
        section.update(gate_applied=True, cpu_count=2, bar=1.16,
                       speedup_jobs_n_vs_1=1.2)
        assert gate.check_flow(flow_baseline, current, TOLERANCE) == []
        section["speedup_jobs_n_vs_1"] = 1.0
        problems = gate.check_flow(flow_baseline, current, TOLERANCE)
        assert any("ran at 1.00x jobs=1, below the 1.16x" in problem
                   for problem in problems), problems
        # the flag only ever lowers the recorded bar
        assert gate.check_flow(flow_baseline, current, TOLERANCE,
                               parallel_min_speedup=0.9) == []

    @pytest.mark.parametrize("flag", [False, None])
    def test_committed_flood_floor_always_applies(self, flow_baseline,
                                                  flag):
        current = _current_flow(flow_baseline)
        section = current["defeat_map_build"]
        if flag is not None:
            section["vectorized_available"] = flag
        section["designs"]["standard"]["speedup_vs_committed_flood"] = 0.1
        problems = gate.check_flow(flow_baseline, current, TOLERANCE)
        assert any("flow defeat_map_build standard" in problem
                   and "acceptance floor" in problem
                   for problem in problems), problems
