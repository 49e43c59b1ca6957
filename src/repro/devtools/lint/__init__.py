"""repro.devtools.lint — AST-based invariant analyzer.

Four checker families guard the invariants the campaign service is
built on:

* **D** (determinism) — unsorted filesystem iteration, set-order
  leakage, salted ``hash()``, wall-clock reads, global random.
* **C** (concurrency) — unlocked shared-state mutation (the PR-7
  ``TierStats`` lost-update class), blocking calls in ``async def``.
* **A** (atomicity) — raw writes bypassing the temp-file +
  ``os.replace`` durability pattern.
* **P** (picklability/API) — backend payload dataclasses that are not
  frozen+slots; ``_PUBLIC_API`` lazy-export drift.

Intentional exceptions live in ``lint-baseline.toml`` and must carry a
justification; unused or unjustified waivers are findings themselves.

Run it with ``python -m repro.devtools.lint src/``.
"""

from .baseline import BaselineError, Waiver, apply_baseline, load_baseline
from .cli import main
from .model import Finding, LintConfig, RULES, Rule
from .runner import (LintReport, iter_python_files, lint_file,
                     render_json, render_rules, render_text, run_lint)

__all__ = [
    "BaselineError", "Finding", "LintConfig", "LintReport",
    "RULES", "Rule", "Waiver", "apply_baseline", "iter_python_files",
    "lint_file", "load_baseline", "main", "render_json", "render_rules",
    "render_text", "run_lint",
]
