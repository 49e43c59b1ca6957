"""Repository-root pytest configuration.

Lives at the root (not under ``benchmarks/``) because ``pytest_addoption``
only takes effect in an *initial* conftest, and the tier-1 invocation —
``python -m pytest -x -q`` from the repository root — collects both
``tests/`` and ``benchmarks/`` without naming either on the command line.

It also puts ``tests/`` on the import path, once for both trees, so tests
and benchmarks import the test oracles as ``oracles.*``.
"""

import sys
from pathlib import Path

_TESTS = str(Path(__file__).resolve().parent / "tests")
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)


def pytest_addoption(parser):
    parser.addoption(
        "--update-baselines", action="store_true", default=False,
        help="write freshly measured BENCH_*.json files over the committed "
             "baselines at the repository root (default: write them to the "
             "REPRO_BENCH_OUT directory, .bench-out/, leaving the committed "
             "baselines untouched)")
