"""Ablation benchmarks beyond the paper's tables.

* the analytical partition-granularity sweep behind the "optimal partition"
  conclusion (DESIGN.md design-choice: voter granularity);
* per-domain floorplanning, the mitigation the paper defers to future work;
* the sensitivity of the measured percentages to the fault-list selection
  mode (DESIGN.md design-choice: what counts as a "bit related to the DUT").
"""

from repro.experiments import campaign_config_for, partition_sweep
from repro.faults import run_campaign
from repro.pnr import Floorplan, implement


def test_ablation_partition_granularity_sweep(benchmark, design_suite):
    result = benchmark.pedantic(
        lambda: partition_sweep(design_suite, granularities=(1, 2, 3, 5)),
        rounds=1, iterations=1)
    benchmark.extra_info["sweep"] = result

    candidates = result["candidates"]
    assert len(candidates) == 4
    by_voters = sorted(candidates, key=lambda c: c["voters"])
    # More voters monotonically reduce the analytical defeat probability...
    assert by_voters[0]["defeat_probability"] >= \
        by_voters[-1]["defeat_probability"]
    # ...but cost area: the sweep exposes the trade-off the paper measures.
    assert by_voters[-1]["voter_area_luts"] > by_voters[0]["voter_area_luts"]


def test_ablation_floorplanning(benchmark, design_suite, implementations,
                                campaigns):
    """Dedicated per-domain floorplanning (paper future work) versus the
    default interleaved placement, on the minimum-partition TMR version."""
    from repro.experiments import device_for

    def run():
        flat = design_suite.flat["TMR_p3"]
        device = device_for(design_suite, "TMR_p3")
        floorplanned = implement(
            flat, device, floorplan=Floorplan.vertical_thirds(device),
            anneal_moves_per_slice=design_suite.scale.anneal_moves_per_slice)
        config = campaign_config_for(design_suite)
        return run_campaign(floorplanned, config)

    floorplanned_campaign = benchmark.pedantic(run, rounds=1, iterations=1)
    interleaved = campaigns["TMR_p3"]
    benchmark.extra_info["floorplan_study"] = {
        "interleaved_percent": round(interleaved.wrong_answer_percent, 3),
        "floorplanned_percent": round(
            floorplanned_campaign.wrong_answer_percent, 3),
    }
    # Floorplanning must not make things dramatically worse; typically it
    # removes a large share of the remaining cross-domain vulnerability.
    assert floorplanned_campaign.wrong_answer_percent <= \
        interleaved.wrong_answer_percent + 1.0


def test_ablation_fault_list_mode(benchmark, design_suite, implementations):
    """Percentages under the 'programmed bits only' reading of the paper's
    fault selection versus the default 'all design-related bits'."""
    def study_modes():
        return {mode: run_campaign(
                    implementations["standard"],
                    campaign_config_for(design_suite, fault_list_mode=mode)
                ).summary_row()
                for mode in ("design", "programmed")}

    study = benchmark.pedantic(study_modes, rounds=1, iterations=1)
    benchmark.extra_info["fault_list_modes"] = study
    # Restricting the list to programmed (set) bits concentrates it on
    # effective upsets, so the wrong-answer share rises — towards the
    # paper's 97% for the unprotected filter.
    assert study["programmed"]["wrong_percent"] >= \
        study["design"]["wrong_percent"]
