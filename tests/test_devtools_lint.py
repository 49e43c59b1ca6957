"""Fixture corpus for the invariant analyzer (repro.devtools.lint).

Every rule gets at least one true-positive snippet that must fire and
one clean snippet that must stay silent — including a verbatim
reconstruction of the PR-7 ``TierStats`` lost-update bug, the incident
the C-series rules codify.  The waiver machinery is round-tripped, and
the final test pins the acceptance criterion: the repository's own
``src/`` tree is clean modulo the checked-in baseline.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (BaselineError, LintConfig, apply_baseline,
                                 lint_file, load_baseline, run_lint)
from repro.devtools.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def lint_source(tmp_path, source, *, name="repro/other/module.py",
                config=None):
    """Write *source* under tmp_path as *name* and lint that one file."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path, Path(name).as_posix(), config or LintConfig())


def rules_of(findings):
    return sorted(finding.rule for finding in findings)


# ----------------------------------------------------------------------
# D-series: determinism
# ----------------------------------------------------------------------
def test_d101_unsorted_glob_into_fingerprint_fires(tmp_path):
    # The canonical hazard: enumeration order flows into a digest.
    findings = lint_source(tmp_path, """
        import hashlib
        from pathlib import Path

        def tree_fingerprint(root: Path) -> str:
            digest = hashlib.sha1()
            for path in root.glob("**/*.pkl"):
                digest.update(path.read_bytes())
            return digest.hexdigest()
        """)
    assert rules_of(findings) == ["D101"]
    assert findings[0].scope == "tree_fingerprint"
    assert "sorted" in findings[0].hint


def test_d101_os_listdir_fires_and_sorted_is_clean(tmp_path):
    findings = lint_source(tmp_path, """
        import os

        def entries(root):
            return [os.path.join(root, name) for name in os.listdir(root)]
        """)
    assert rules_of(findings) == ["D101"]
    clean = lint_source(tmp_path, """
        import os
        from pathlib import Path

        def entries(root):
            return [name for name in sorted(os.listdir(root))]

        def pickles(root: Path):
            return sorted(root.glob("**/*.pkl"))

        def also_fine(root: Path):
            return sorted(path.name for path in root.rglob("*.json"))
        """)
    assert clean == []


def test_d102_set_iteration_into_sequence_fires(tmp_path):
    findings = lint_source(tmp_path, """
        def order_matters(nets):
            chosen = {net for net in nets if net.used}
            report = []
            for net in chosen:
                report.append(net.name)
            return report, list({1, 2, 3}), [n.id for n in chosen]
        """)
    # for-loop with append, list(set-literal), comprehension over set
    assert rules_of(findings) == ["D102", "D102", "D102"]


def test_d102_sorted_set_iteration_is_clean(tmp_path):
    clean = lint_source(tmp_path, """
        def order_safe(nets):
            chosen = {net for net in nets if net.used}
            if "clk" in {"clk", "rst"}:
                pass
            for net in sorted(chosen):
                print(net)
            return sorted({1, 2, 3})
        """)
    assert clean == []


def test_d102_order_free_sinks_are_exempt_but_sum_is_not(tmp_path):
    # frozenset/min/any consume in an order-free way; sum does not get
    # the exemption because float addition is not associative.
    clean = lint_source(tmp_path, """
        def reductions(weights):
            chosen = {w for w in weights if w.used}
            domains = frozenset(w.domain for w in chosen)
            lightest = min(w.cost for w in chosen)
            return domains, lightest, any(w.bad for w in chosen)
        """)
    assert clean == []
    findings = lint_source(tmp_path, """
        def total(weights):
            chosen = {w for w in weights if w.used}
            return sum(w.cost for w in chosen)
        """)
    assert rules_of(findings) == ["D102"]


def test_d103_builtin_hash_fires(tmp_path):
    findings = lint_source(tmp_path, """
        def shard_of(name: str, shards: int) -> int:
            return hash(name) % shards
        """)
    assert rules_of(findings) == ["D103"]


def test_d104_wall_clock_fires_even_through_alias(tmp_path):
    findings = lint_source(tmp_path, """
        import time as _time
        from datetime import datetime

        def stamp():
            return _time.time(), datetime.now()
        """)
    assert rules_of(findings) == ["D104", "D104"]


def test_d104_monotonic_is_clean(tmp_path):
    clean = lint_source(tmp_path, """
        import time

        def interval():
            start = time.monotonic()
            return time.perf_counter() - start
        """)
    assert clean == []


def test_d105_global_random_fires_seeded_instance_clean(tmp_path):
    findings = lint_source(tmp_path, """
        import random

        def pick(items):
            return random.choice(items)
        """)
    assert rules_of(findings) == ["D105"]
    clean = lint_source(tmp_path, """
        import random

        def pick(items, seed):
            return random.Random(seed).choice(items)
        """)
    assert clean == []


# ----------------------------------------------------------------------
# C-series: concurrency
# ----------------------------------------------------------------------
def test_c201_unlocked_mutation_in_lock_owning_class_fires(tmp_path):
    findings = lint_source(tmp_path, """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0
                self.items = []

            def add(self, item):
                self.items.append(item)
                self.count += 1
        """)
    assert rules_of(findings) == ["C201", "C201"]
    assert all("with" in finding.hint for finding in findings)


def test_c201_locked_mutation_and_init_are_clean(tmp_path):
    clean = lint_source(tmp_path, """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0
                self.items = []

            def add(self, item):
                with self._lock:
                    self.items.append(item)
                    self.count += 1
        """)
    assert clean == []


def test_c203_pr7_tierstats_reconstruction_fires(tmp_path):
    # Verbatim shape of the PR-7 TierStats bug: a lock-LESS stats class
    # in a service-shared module bumping counters with a bare += (a
    # read-modify-write that loses updates under threads).  C201 cannot
    # see it — the buggy class owned no lock at all — which is exactly
    # why C203 exists.
    findings = lint_source(tmp_path, """
        import dataclasses

        @dataclasses.dataclass
        class TierStats:
            hits: int = 0
            misses: int = 0
            store_failures: int = 0

            def bump(self, name: str, amount: int = 1) -> None:
                current = getattr(self, name)
                setattr(self, name, current + amount)

            def bump_hit(self) -> None:
                self.hits += 1
        """, name="repro/service/tier.py")
    assert rules_of(findings) == ["C203"]
    assert "TierStats" in findings[0].scope
    assert "lost-update" in findings[0].message


def test_c203_silent_outside_shared_modules(tmp_path):
    # The identical class in a non-shared module is not flagged: C203's
    # scope is the modules documented as shared between service threads.
    clean = lint_source(tmp_path, """
        class TierStats:
            def __init__(self):
                self.hits = 0

            def bump_hit(self):
                self.hits += 1
        """, name="repro/analysis/local_stats.py")
    assert clean == []


def test_c202_blocking_call_in_async_def_fires(tmp_path):
    findings = lint_source(tmp_path, """
        import asyncio
        import time

        async def run_job(job):
            time.sleep(0.1)
            await asyncio.sleep(0.1)
        """)
    assert rules_of(findings) == ["C202"]
    assert "time.sleep" in findings[0].message


def test_c202_sync_helper_inside_async_is_clean(tmp_path):
    clean = lint_source(tmp_path, """
        import time

        async def run_job(job):
            def blocking_helper():
                time.sleep(0.1)
            return blocking_helper
        """)
    assert clean == []


# ----------------------------------------------------------------------
# A-series: atomicity
# ----------------------------------------------------------------------
def test_a301_raw_write_fires(tmp_path):
    findings = lint_source(tmp_path, """
        def save(path, data):
            with open(path, "w") as handle:
                handle.write(data)
        """)
    assert rules_of(findings) == ["A301"]


def test_a301_atomic_pattern_and_reads_are_clean(tmp_path):
    clean = lint_source(tmp_path, """
        import os
        import tempfile

        def load(path):
            with open(path) as handle:
                return handle.read()

        def save_atomic(path, data):
            fd, tmp = tempfile.mkstemp(dir=".")
            with open(tmp, "w") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        """)
    assert clean == []


def test_a302_raw_pickle_dump_fires_atomic_clean(tmp_path):
    findings = lint_source(tmp_path, """
        import pickle

        def store(path, obj):
            with open(path, "wb") as handle:
                pickle.dump(obj, handle)
        """)
    assert rules_of(findings) == ["A301", "A302"]
    clean = lint_source(tmp_path, """
        import os
        import pickle

        def store(path, obj, tmp):
            with open(tmp, "wb") as handle:
                pickle.dump(obj, handle)
            os.replace(tmp, path)
        """)
    assert clean == []


# ----------------------------------------------------------------------
# P-series: picklability / public API
# ----------------------------------------------------------------------
def test_p401_payload_missing_slots_or_frozen_fires(tmp_path):
    findings = lint_source(tmp_path, """
        import dataclasses

        @dataclasses.dataclass
        class VerdictColumns:
            rows: bytes

        @dataclasses.dataclass(frozen=True, slots=True)
        class Unrelated:
            pass
        """, name="repro/faults/engine.py")
    assert rules_of(findings) == ["P401"]
    assert "frozen/slots" in findings[0].message


def test_p401_non_dataclass_payload_fires(tmp_path):
    findings = lint_source(tmp_path, """
        class VerdictColumns:
            pass
        """, name="repro/faults/engine.py")
    assert rules_of(findings) == ["P401"]
    assert "not a dataclass" in findings[0].message


def test_p401_compliant_payloads_are_clean(tmp_path):
    clean = lint_source(tmp_path, """
        import dataclasses

        @dataclasses.dataclass(frozen=True, slots=True)
        class VerdictColumns:
            rows: bytes
        """, name="repro/faults/engine.py")
    assert clean == []


def test_p401_scope_is_what_crosses_the_process_boundary(tmp_path):
    # Shards travel as bit arrays and return verdict columns: the task
    # and verdict objects of the per-injection design are no payloads.
    retired = lint_source(tmp_path, """
        class FaultTask:
            pass

        class FaultVerdict:
            pass
        """, name="repro/faults/engine.py")
    assert retired == []
    # Every configured payload class exists in the tree, as a
    # frozen+slots dataclass (a stale entry would check nothing).
    for suffix, names in LintConfig().payload_classes:
        path = REPO_ROOT / "src" / suffix
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)}
        assert set(names) <= defined, (suffix, names)
        assert [finding for finding in lint_file(path, suffix, LintConfig())
                if finding.rule == "P401"] == []


def _write_package(tmp_path, init_source, modules):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(textwrap.dedent(init_source))
    for rel, source in modules.items():
        module = package / rel
        module.parent.mkdir(parents=True, exist_ok=True)
        module.write_text(textwrap.dedent(source))
    return package / "__init__.py"


def test_p402_lazy_export_drift_fires(tmp_path):
    init = _write_package(tmp_path, """
        _PUBLIC_API = {
            "run_campaign": ("repro.faults.campaign", "run_campaign"),
            "gone": ("repro.faults.campaign", "retired_function"),
            "orphan": ("repro.missing_module", "anything"),
        }
        """, {"faults/__init__.py": "",
              "faults/campaign.py": "def run_campaign():\n    pass\n"})
    findings = lint_file(init, "src/repro/__init__.py", LintConfig())
    assert rules_of(findings) == ["P402", "P402"]
    messages = " / ".join(finding.message for finding in findings)
    assert "retired_function" in messages
    assert "does not exist" in messages


def test_p402_valid_exports_are_clean(tmp_path):
    init = _write_package(tmp_path, """
        _PUBLIC_API = {
            "run_campaign": ("repro.faults.campaign", "run_campaign"),
            "Flow": ("repro.faults.campaign", "Flow"),
        }
        """, {"faults/__init__.py": "",
              "faults/campaign.py": """
              def run_campaign():
                  pass

              class Flow:
                  pass
              """})
    assert lint_file(init, "src/repro/__init__.py", LintConfig()) == []


# ----------------------------------------------------------------------
# Waivers
# ----------------------------------------------------------------------
_DIRTY = """
    import time

    def stamp():
        return time.time()
    """


def _baseline(tmp_path, body):
    path = tmp_path / "lint-baseline.toml"
    path.write_text(textwrap.dedent(body))
    return path


def test_waiver_round_trip_suppresses_finding(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(_DIRTY))
    baseline = _baseline(tmp_path, """
        [[waiver]]
        rule = "D104"
        path = "pkg/mod.py"
        scope = "stamp"
        justification = "documented provenance timestamp"
        """)
    report = run_lint([tmp_path / "pkg"], baseline=baseline,
                      root=tmp_path)
    assert report.exit_code == 0
    assert report.findings == ()
    assert rules_of(report.waived) == ["D104"]


def test_unused_waiver_is_a_w001_finding(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    baseline = _baseline(tmp_path, """
        [[waiver]]
        rule = "D104"
        path = "pkg/mod.py"
        justification = "left over from a deleted function"
        """)
    report = run_lint([tmp_path / "pkg"], baseline=baseline,
                      root=tmp_path)
    assert report.exit_code == 1
    assert rules_of(report.findings) == ["W001"]


def test_unjustified_waiver_is_a_w002_finding(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(_DIRTY))
    baseline = _baseline(tmp_path, """
        [[waiver]]
        rule = "D104"
        path = "pkg/mod.py"
        """)
    report = run_lint([tmp_path / "pkg"], baseline=baseline,
                      root=tmp_path)
    assert report.exit_code == 1
    assert rules_of(report.findings) == ["W002"]
    # The finding was still waived — W002 gates the *justification*.
    assert rules_of(report.waived) == ["D104"]


def test_malformed_baselines_are_hard_errors(tmp_path):
    for body in (
            "[[waiver]]\nrule = \"NOPE\"\npath = \"x.py\"\n",
            "[[waiver]]\npath = \"x.py\"\n",
            "[[waiver]]\nrule = \"D104\"\npath = \"x.py\"\ntypo = 1\n",
            "waiver = 3\n",
    ):
        with pytest.raises(BaselineError):
            load_baseline(_baseline(tmp_path, body))


def test_apply_baseline_scope_must_match_exactly():
    from repro.devtools.lint import Finding, Waiver
    finding = Finding(rule="D104", path="pkg/mod.py", line=3, col=0,
                      scope="other_function", message="m", hint="h")
    waiver = Waiver(rule="D104", path="pkg/mod.py", scope="stamp",
                    justification="j", index=1)
    kept, waived = apply_baseline([finding], [waiver], "baseline.toml")
    assert waived == []
    assert rules_of(kept) == ["D104", "W001"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(_DIRTY))

    assert main(["pkg", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [finding["rule"] for finding in report["findings"]] == ["D104"]
    assert report["files_checked"] == 1

    # A default-named baseline in the cwd is picked up automatically...
    _baseline(tmp_path, """
        [[waiver]]
        rule = "D104"
        path = "pkg/mod.py"
        scope = "stamp"
        justification = "documented provenance timestamp"
        """)
    assert main(["pkg"]) == 0
    assert "1 waived" in capsys.readouterr().out
    # ...and --no-baseline ignores it again.
    assert main(["pkg", "--no-baseline"]) == 1
    capsys.readouterr()

    assert main(["pkg", "--disable", "D104", "--no-baseline"]) == 0
    capsys.readouterr()

    assert main(["no/such/path"]) == 2
    assert main(["pkg", "--baseline", "missing.toml"]) == 2
    capsys.readouterr()

    assert main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule_id in ("D101", "C201", "C203", "A301", "P401", "W001"):
        assert rule_id in listing


def test_cli_reports_syntax_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "broken.py").write_text("def oops(:\n")
    assert main(["pkg", "--no-baseline"]) == 1
    assert "ERROR" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The acceptance criterion: this repository is clean
# ----------------------------------------------------------------------
def test_repository_src_tree_is_clean_modulo_baseline():
    report = run_lint([REPO_ROOT / "src"],
                      baseline=REPO_ROOT / "lint-baseline.toml",
                      root=REPO_ROOT)
    assert report.errors == ()
    assert report.findings == (), "\n".join(
        f"{finding.path}:{finding.line}: {finding.rule} {finding.message}"
        for finding in report.findings)
    # Every waiver is exercised (W001 would have fired above otherwise)
    # and the analyzer actually walked the tree.
    assert report.files_checked > 50
    assert len(report.waived) >= 10
