"""Shared fixtures for the benchmark harness.

The benchmarks regenerate the paper's tables and figures on a reduced
configuration (the ``smoke`` scale by default) so that the full suite runs in
a few minutes.  Set ``REPRO_BENCH_SCALE=fast`` or ``paper`` for larger runs,
``REPRO_BENCH_FAULTS`` to override the number of injected upsets per design,
``REPRO_BENCH_BACKEND`` (``serial`` — the default — / ``vector`` /
``numpy`` / ``sharded``) to pick the campaign execution backend,
``REPRO_BENCH_JOBS`` to place and route the suite designs in parallel
worker processes, and
``REPRO_FLOW_CACHE`` to serve implementations from (and persist them to)
the on-disk flow-artifact store, and ``REPRO_BENCH_OUT`` to redirect the
measured BENCH_*.json files (default ``.bench-out/``; pass the pytest
flag ``--update-baselines`` to overwrite the committed baselines at the
repository root instead); the scenario CLI
(``python -m repro run table3-fir --scale paper --backend vector
--jobs 4 --flow-cache .flow-cache``) exposes the same knobs outside pytest.

All heavy artefacts (the five implemented filter versions and their
fault-injection campaigns) are built once per session and shared by every
benchmark file.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import (DESIGN_ORDER, build_design_suite,
                               campaign_config_for, implement_design_suite)
from repro.faults import run_campaign

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Where freshly measured BENCH_*.json files land.  A plain test run must
#: never clobber the committed baselines at the repository root (that
#: silently rebases every later regression gate on this machine's noise —
#: see CHANGES.md entry 7); overwriting them is opt-in via the
#: ``--update-baselines`` pytest flag.
BENCH_OUT = Path(os.environ.get("REPRO_BENCH_OUT")
                 or REPO_ROOT / ".bench-out")

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
BENCH_FAULTS = int(os.environ.get("REPRO_BENCH_FAULTS", "0")) or None
BENCH_BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "serial")
#: parallel P&R workers for the shared implementations fixture
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
#: persistent flow-artifact directory (CI caches it across runs)
BENCH_FLOW_CACHE = os.environ.get("REPRO_FLOW_CACHE")


@pytest.fixture(scope="session")
def bench_out_dir(request) -> Path:
    """The directory BENCH_*.json results are written to this run."""
    if request.config.getoption("--update-baselines"):
        return REPO_ROOT
    BENCH_OUT.mkdir(parents=True, exist_ok=True)
    return BENCH_OUT


@pytest.fixture(scope="session")
def design_suite():
    return build_design_suite(BENCH_SCALE)


@pytest.fixture(scope="session")
def implementations(design_suite):
    return implement_design_suite(design_suite, jobs=BENCH_JOBS,
                                  artifact_store=BENCH_FLOW_CACHE)


@pytest.fixture(scope="session")
def campaigns(design_suite, implementations):
    config = campaign_config_for(design_suite, num_faults=BENCH_FAULTS)
    return {name: run_campaign(implementations[name], config,
                               backend=BENCH_BACKEND)
            for name in DESIGN_ORDER}
