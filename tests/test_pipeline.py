"""Tests for the pipeline engine, the scenario registry and the CLI."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import (SCENARIOS, Scenario, register_scenario, run_scenario,
                   scenario_by_name, stable_report)
from repro.__main__ import main as cli_main
from repro.pipeline import (REPORT_SCHEMA, PipelineContext, pipeline_for,
                            render_markdown)

#: The tiny scale keeps every end-to-end test at seconds per run.
TINY = dict(scale="tiny", num_faults=24)


@pytest.fixture(scope="module")
def flow_store(tmp_path_factory):
    """One persistent flow store for the module: P&R runs once per design."""
    return str(tmp_path_factory.mktemp("pipeline-flow"))


class TestRegistry:
    def test_builtin_catalog(self):
        expected = {"table2-fir", "table3-fir", "table4-fir", "huge-fir",
                    "figures-fir",
                    "ablation-sweep", "floorplan-fir", "mbu-fir",
                    "accumulate-fir", "upset-matrix", "backend-matrix",
                    "partition-shortlist"}
        assert expected <= set(SCENARIOS)

    def test_unknown_scenario_message(self):
        with pytest.raises(KeyError, match="unknown scenario 'tablefive'"):
            scenario_by_name("tablefive")

    def test_register_rejects_duplicates(self):
        scenario = SCENARIOS["table3-fir"]
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(scenario)
        assert register_scenario(scenario, replace=True) is scenario

    def test_axes_expand_to_variants(self):
        scenario = scenario_by_name("upset-matrix")
        variants = dict(scenario.variants())
        assert set(variants) == {"upset_model=single", "upset_model=mbu:2",
                                 "upset_model=accumulate:4"}
        assert variants["upset_model=mbu:2"].upset_model == "mbu:2"
        assert variants["upset_model=mbu:2"].axes == ()

    def test_override_collapses_axis(self):
        report = run_scenario("backend-matrix", backend="vector",
                              designs=("standard",), **TINY)
        assert "runs" not in report
        assert report["backend"] == "vector"

    def test_identities_pinned_to_recorded_digest(self):
        # Every stage fingerprint chains on the context identity, so the
        # identity of every built-in scenario and matrix variant (designs
        # still empty before the shortlist build) must not drift.
        builtin = ("table2-fir", "table3-fir", "huge-fir", "chaos-fir",
                   "table4-fir", "figures-fir", "figure1-upsets",
                   "ablation-sweep", "floorplan-fir", "mbu-fir",
                   "accumulate-fir", "upset-matrix", "backend-matrix",
                   "defeat-map-fir", "prediction-vs-campaign",
                   "partition-shortlist")
        lines = []
        for name in builtin:
            scenario = SCENARIOS[name]
            lines.append(PipelineContext(scenario).identity())
            for variant_id, variant in scenario.variants():
                lines.append(
                    f"{variant_id}:{PipelineContext(variant).identity()}")
        assert len(lines) == 37
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "4c3ee766d5745aabf5f1564a1fd9b9b654e824221b6a8b1c79485d858812a63c")

    @pytest.mark.parametrize("overrides, message", [
        (dict(designs=[]), "designs must name at least one"),
        (dict(designs=["standard"], seed="abc"), "seed must be an integer"),
        (dict(designs=["standard"], seed=True), "seed must be an integer"),
    ], ids=["no-designs", "string-seed", "bool-seed"])
    def test_unrunnable_designs_or_seed_rejected_before_build(
            self, monkeypatch, overrides, message):
        def no_build(*args, **kwargs):
            raise AssertionError("the build stage ran")

        monkeypatch.setattr("repro.pipeline.build_design_suite", no_build)
        with pytest.raises(ValueError, match=message):
            run_scenario("table3-fir", scale="tiny", **overrides)

    def test_unknown_stage_and_analysis(self):
        with pytest.raises(KeyError, match="unknown pipeline stage"):
            pipeline_for(("build", "deploy"))
        ctx = PipelineContext(Scenario(id="custom", title="custom",
                                       scale="tiny", designs=("standard",),
                                       analyses=("tableau",)))
        with pytest.raises(KeyError, match="unknown analysis"):
            pipeline_for(("build", "analyze")).run(ctx)


class TestPipelineRuns:
    def test_table3_scenario_matches_direct_campaign_loop(self, flow_store):
        """The pipeline path reproduces the plain run_campaign loop."""
        from repro.experiments import (DESIGN_ORDER, build_design_suite,
                                       campaign_config_for,
                                       implement_design_suite)
        from repro.faults import run_campaign

        suite = build_design_suite("tiny")
        implementations = implement_design_suite(suite,
                                                 artifact_store=flow_store)
        config = campaign_config_for(suite, num_faults=TINY["num_faults"])
        expected = {
            name: run_campaign(implementations[name], config).summary_row()
            for name in DESIGN_ORDER}

        report = run_scenario("table3-fir", flow_cache=flow_store, **TINY)
        for name in DESIGN_ORDER:
            campaign = report["designs"][name]["campaign"]
            assert campaign["injected"] == expected[name]["injected"]
            assert campaign["wrong"] == expected[name]["wrong"]
            assert campaign["wrong_percent"] == \
                expected[name]["wrong_percent"]

    def test_report_schema_and_provenance(self, flow_store):
        report = run_scenario("table3-fir", flow_cache=flow_store, **TINY)
        assert report["schema"] == REPORT_SCHEMA
        assert report["scenario"] == "table3-fir"
        assert report["seed"] == 2005
        assert report["backend"] == "serial"
        assert report["upset_model"] == "single"
        assert set(report["tool_version"]) == {"repro", "flow", "python"}
        assert [stage["name"] for stage in report["stages"]] == \
            ["build", "implement", "campaign", "analyze"]
        for stage in report["stages"]:
            int(stage["fingerprint"], 16)  # hex chain key
            assert stage["seconds"] >= 0
        campaign = report["designs"]["TMR_p2"]["campaign"]
        # one uniform snake_case schema with full provenance everywhere
        assert {"injected", "wrong", "wrong_percent", "backend", "seed",
                "upset_model", "fault_list_mode", "effects"} <= set(campaign)
        derived = report["derived"]["table3"]
        assert "paper_wrong_percent" in derived

    def test_reports_are_deterministic(self, flow_store):
        first = stable_report(run_scenario("mbu-fir", flow_cache=flow_store,
                                           **TINY))
        second = stable_report(run_scenario("mbu-fir", flow_cache=flow_store,
                                            **TINY))
        assert json.dumps(first, sort_keys=True, default=str) == \
            json.dumps(second, sort_keys=True, default=str)

    def test_stage_fingerprints_shift_with_inputs(self, flow_store):
        base = run_scenario("table3-fir", flow_cache=flow_store, **TINY)
        reseeded = run_scenario("table3-fir", scale="tiny", num_faults=24,
                                seed=7, flow_cache=flow_store)
        stages = {s["name"]: s["fingerprint"] for s in base["stages"]}
        reseeded_stages = {s["name"]: s["fingerprint"]
                           for s in reseeded["stages"]}
        assert stages["build"] == reseeded_stages["build"]
        assert stages["implement"] == reseeded_stages["implement"]
        assert stages["campaign"] != reseeded_stages["campaign"]

    def test_flow_cache_reuse_across_repeats(self, tmp_path):
        report = run_scenario("table3-fir", flow_cache=tmp_path / "flow",
                              repeat=2, **TINY)
        assert report["repeat"] == 2
        stages = {stage["name"]: stage for stage in report["stages"]}
        implement = stages["implement"]["cache"]
        assert implement["hits"] == len(report["designs"])
        assert implement["misses"] == 0
        campaign = stages["campaign"]["cache"]
        assert campaign["golden_hits"] > 0
        assert campaign["effect_hits"] > 0

    def test_matrix_scenario_reports_per_variant(self, flow_store):
        report = run_scenario("upset-matrix", flow_cache=flow_store, **TINY)
        assert set(report["runs"]) == {
            "upset_model=single", "upset_model=mbu:2",
            "upset_model=accumulate:4"}
        for variant, sub in report["runs"].items():
            assert sub["schema"] == REPORT_SCHEMA
            assert set(sub["designs"]) == {"standard", "TMR_p2"}
            for entry in sub["designs"].values():
                assert entry["campaign"]["upset_model"] == \
                    variant.split("=", 1)[1]

    def test_backend_matrix_variants_agree(self, flow_store):
        report = run_scenario("backend-matrix", designs=("standard",),
                              flow_cache=flow_store, **TINY)
        rows = [sub["designs"]["standard"]["campaign"]
                for sub in report["runs"].values()]
        reference = {key: rows[0][key]
                     for key in ("injected", "wrong", "wrong_percent")}
        for row in rows[1:]:
            assert {key: row[key] for key in reference} == reference

    def test_partition_shortlist_derives_designs(self):
        report = run_scenario("partition-shortlist", **TINY)
        names = set(report["designs"])
        assert "standard" in names
        shortlisted = [name for name in names
                       if name.startswith("TMR_shortlist")]
        assert shortlisted
        for name in shortlisted:
            assert "campaign" in report["designs"][name]
        # stable across runs (memoized suite keeps generated names fixed)
        again = run_scenario("partition-shortlist", **TINY)
        assert set(again["designs"]) == names

    def test_partition_shortlist_honours_design_restriction(self):
        report = run_scenario("partition-shortlist",
                              designs=("standard",), **TINY)
        assert set(report["designs"]) == {"standard"}

    def test_markdown_rendering(self, flow_store):
        report = run_scenario("table3-fir", flow_cache=flow_store, **TINY)
        text = render_markdown(report)
        assert "# Scenario `table3-fir`" in text
        assert "| design |" in text
        assert "### stages" in text
        matrix = render_markdown(run_scenario("upset-matrix",
                                              flow_cache=flow_store, **TINY))
        assert "## Variant `upset_model=mbu:2`" in matrix


class TestFigure1Upsets:
    def test_scenario_reports_masked_and_defeating_upsets(self, flow_store):
        report = run_scenario("figure1-upsets", scale="tiny", num_faults=40,
                              flow_cache=flow_store)
        assert list(report["designs"]) == ["TMR_p3"]
        demo = report["derived"]["figure1_upsets"]["TMR_p3"]
        assert demo["routing_upsets_with_effect"] > 0
        assert demo["routing_upsets_masked"] + \
            demo["routing_upsets_defeating"] == \
            demo["routing_upsets_with_effect"]
        for key, count, wrong in (
                ("upset_a_masked_in_domain", "routing_upsets_masked", False),
                ("upset_b_defeats_tmr", "routing_upsets_defeating", True)):
            example = demo[key]
            assert (example is None) == (demo[count] == 0)
            if example is not None:
                assert example["wrong_answer"] is wrong


class TestCommandLine:
    def test_run_json(self, capsys, flow_store):
        assert cli_main(["run", "table3-fir", "--scale", "tiny", "--faults",
                         "10", "--json", "--flow-cache", flow_store]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == REPORT_SCHEMA
        assert report["num_faults"] == 10
        assert report["scale"] == "tiny"

    def test_run_markdown_and_output(self, tmp_path, capsys, flow_store):
        output = tmp_path / "report.json"
        assert cli_main(["run", "mbu-fir", "--scale", "tiny", "--faults",
                         "10", "--design", "standard", "--output",
                         str(output), "--flow-cache", flow_store]) == 0
        text = capsys.readouterr().out
        assert "# Scenario `mbu-fir`" in text
        written = json.loads(output.read_text())
        assert written["upset_model"] == "mbu:2"
        assert set(written["designs"]) == {"standard"}

    def test_run_fault_list_reaches_run_scenario(self, monkeypatch, capsys):
        import repro.__main__ as cli

        calls = []

        def fake_run_scenario(scenario, **kwargs):
            calls.append((scenario, kwargs))
            return {"scenario": scenario}

        monkeypatch.setattr(cli, "run_scenario", fake_run_scenario)
        assert cli_main(["run", "table3-fir", "--fault-list", "programmed",
                         "--faults", "40", "--json"]) == 0
        [(scenario, kwargs)] = calls
        assert scenario == "table3-fir"
        assert kwargs["fault_list_mode"] == "programmed"
        assert kwargs["num_faults"] == 40
        assert json.loads(capsys.readouterr().out) == {
            "scenario": "table3-fir"}

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3-fir" in out and "upset-matrix" in out
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["id"] for entry in payload} >= {"table3-fir",
                                                      "mbu-fir"}


@pytest.mark.parametrize("flag", ["--partitions", "--flow-threads",
                                  "--prefilter"],
                         ids=lambda flag: f"run-{flag}")
def test_cli_rejects_removed_flow_flags(capsys, flag):
    # The flow has no annealer partitions or flow threads, and campaigns
    # have no prefilter; a CLI that accepted these flags would silently
    # ignore them.
    from repro.__main__ import _build_parser

    parser = _build_parser()
    parser.parse_args(["run", "table3-fir", "--jobs", "2"])
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["run", "table3-fir", flag, "2"])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


class TestCustomScenario:
    def test_register_and_run_custom_scenario(self):
        scenario = Scenario(
            id="test-custom",
            title="custom",
            scale="tiny",
            designs=("standard",),
            backend="vector",
            upset_model="accumulate:3",
            num_faults=12,
            analyses=("table3",),
        )
        try:
            register_scenario(scenario)
            report = run_scenario("test-custom")
            campaign = report["designs"]["standard"]["campaign"]
            assert campaign["injected"] == 4  # ceil(12 / 3)
            assert campaign["upset_model"] == "accumulate:3"
        finally:
            SCENARIOS.pop("test-custom", None)

    def test_dataclass_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SCENARIOS["table3-fir"].scale = "paper"
