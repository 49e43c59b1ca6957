"""Tests for the columnar fault overrides.

A modelled effect is kept as integer columns (override rows, settle
passes, seed nets) in :class:`~repro.faults.EffectColumns`; a
:class:`~repro.sim.FaultOverlay` is only a view.  These tests pin what
that layout promises: every view equals the per-bit model it replaced,
modelling a fault list keeps no Python object per bit, and the lane
driver cuts the same shards from the columns.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import threading

import pytest

from repro.experiments.designs import (build_design_suite,
                                       implement_design_suite)
from repro.faults import (CampaignConfig, EffectColumns, FaultEffect,
                          FaultListManager, NumpyBackend, clear_cache,
                          run_campaign)
from repro.faults.engine import CampaignContext
from repro.faults.models import EFFECT_ROWS
from repro.sim import (SOURCE_BLEND, SOURCE_CONST, SOURCE_NET, FaultOverlay,
                       SourceOverride)
from repro.sim.overlay import BLEND_NAMES, Lanes, OverlayColumns, as_lanes

from oracles.campaign import effect_slot

FIELDS = ("lut_init_overrides", "gate_pin_overrides", "ff_pin_overrides",
          "ff_init_overrides", "net_overrides", "output_pin_overrides")

#: sha256 of every view line below over the tiny suite's ``design``
#: fault lists (120,064 bits).  First recorded from the per-bit model
#: (``FaultModeler.effect_of_bit``) before the columns replaced it; the
#: lines then also carried each overlay's description string.  When the
#: descriptions were deleted the digest was recomputed on the code that
#: still had them, with the description left out of every line, and
#: pinned here.
VIEW_DIGEST = \
    "2a6730bb3dec7b5d1af5b65122f5212f75ae9977d1ddeb1651b7f0504c0039b5"

#: ``last_run_stats["shards"]`` of the exhaustive smoke campaigns as
#: (lanes, capacity, passes, coned, cone gates, cycles simulated),
#: recorded before the columns replaced the per-bit overlays.
EXHAUSTIVE_SHARDS = {
    "standard": (2852, [(3113, 3136, 3, True, 74, 10)]),
    "TMR_p2": (1131, [(4096, 4096, 1, True, 337, 10),
                      (4096, 4096, 3, True, 337, 10),
                      (4096, 4096, 3, True, 337, 10),
                      (4096, 4096, 3, True, 337, 10),
                      (4096, 4096, 3, True, 337, 10),
                      (4096, 4096, 3, True, 310, 10),
                      (3868, 3904, 3, True, 227, 10)]),
}


#: Source kinds by name, as the per-bit model recorded them.
KIND_NAMES = {SOURCE_CONST: "const", SOURCE_NET: "net",
              SOURCE_BLEND: "blend"}


def _plain(value):
    if isinstance(value, SourceOverride):
        return [KIND_NAMES[value.kind], value.net_a, value.net_b,
                value.value, BLEND_NAMES[value.blend]]
    if isinstance(value, tuple):
        return list(value)
    return value


@pytest.fixture(scope="module")
def smoke_implementations():
    suite = build_design_suite("smoke")
    return suite, implement_design_suite(suite,
                                         designs=list(EXHAUSTIVE_SHARDS))


def test_views_equal_the_per_bit_model(tiny_suite_implementations):
    lines = []
    for name in sorted(tiny_suite_implementations):
        implementation = tiny_suite_implementations[name]
        clear_cache()
        context = CampaignContext(implementation)
        effects = context.effects
        for bit in FaultListManager(implementation).build().bits:
            slot = effect_slot(context, bit)
            effect = effects.effect(slot)
            overlay = effect.overlay
            assert effects.passes[slot] == overlay.required_passes()
            assert tuple(effects.seeds(slot)) == overlay.seed_nets
            lines.append([
                name, bit, list(EFFECT_ROWS[effects.rows[slot]]),
                effect.detail,
                [sorted([_plain(key), _plain(value)]
                        for key, value in getattr(overlay, field).items())
                 for field in FIELDS],
                int(effects.passes[slot]), list(effects.seeds(slot)),
                overlay.comb_passes])
    assert len(lines) == 120064
    assert hashlib.sha256(json.dumps(lines).encode()).hexdigest() == \
        VIEW_DIGEST
    clear_cache()


@pytest.mark.parametrize("design", sorted(EXHAUSTIVE_SHARDS))
def test_modelling_a_fault_list_keeps_no_object_per_bit(
        smoke_implementations, design):
    _suite, implementations = smoke_implementations
    implementation = implementations[design]
    bits = FaultListManager(implementation).build().bits
    clear_cache()
    context = CampaignContext(implementation)
    gc.collect()
    before = len(gc.get_objects())
    injections = context.injections_for(bits)
    gc.collect()
    retained = len(gc.get_objects()) - before
    assert len(injections) == len(bits)
    assert retained < max(64, len(bits) // 100), retained
    clear_cache()


@pytest.mark.parametrize("design", sorted(EXHAUSTIVE_SHARDS))
def test_exhaustive_shards_are_unchanged(smoke_implementations, design):
    suite, implementations = smoke_implementations
    implementation = implementations[design]
    size = len(FaultListManager(implementation).build())
    clear_cache()
    backend = NumpyBackend()
    result = run_campaign(implementation, CampaignConfig(
        num_faults=size, workload_cycles=suite.scale.workload_cycles),
        backend=backend)
    shards = [(shard["lanes"], shard["capacity"], shard["passes"],
               shard["coned"], shard["cone_gates"],
               shard["cycles_simulated"])
              for shard in backend.last_run_stats["shards"]]
    assert (result.wrong_answers, shards) == EXHAUSTIVE_SHARDS[design]
    clear_cache()


def test_concurrent_modelling_keeps_slots_aligned(tiny_fir_implementation):
    # Service worker threads share one memo per implementation; a bit
    # two threads find missing must still be modelled into one slot.
    clear_cache()
    context = CampaignContext(tiny_fir_implementation)
    bits = FaultListManager(tiny_fir_implementation).build().bits[:3000]
    expected = {bit: context.modeler.effect_of_bit(bit) for bit in bits}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(4):
            memo = EffectColumns()

            def worker(offset: int) -> None:
                rotated = bits[offset:] + bits[:offset]
                for start in range(0, len(rotated), 100):
                    memo.model_bits(rotated[start:start + 100],
                                    context.modeler)

            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(0, len(bits), len(bits) // 8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(memo) == len(memo.keys) == len(memo.bits) == \
                len(memo.details) == len(set(bits))
            for bit in bits:
                assert memo.effect(memo.slot_of(bit)) == expected[bit]
    finally:
        sys.setswitchinterval(interval)
    clear_cache()


class TestOverlayColumns:
    def _overlays(self):
        wired = SourceOverride.blend_of(4, 5, "wired_or")
        return [
            FaultOverlay(),
            FaultOverlay(comb_passes=3,
                         seed_nets=(7, 2),
                         lut_init_overrides={1: 0x6},
                         gate_pin_overrides={(1, 2): wired},
                         ff_pin_overrides={
                             (0, "D"): SourceOverride.net(3),
                             (0, "CE"): SourceOverride.constant(1),
                             (1, "R"): SourceOverride.floating()},
                         ff_init_overrides={1: 0},
                         net_overrides={9: SourceOverride.blend_of(9, 4)},
                         output_pin_overrides={
                             ("Y", 1): SourceOverride.constant(0),
                             ("Z", 0): wired}),
            FaultOverlay(gate_pin_overrides={
                             (2, 0): SourceOverride.net(6)}),
            FaultOverlay(output_pin_overrides={
                ("Z", 3): SourceOverride.floating()}),
        ]

    def test_round_trip_and_passes(self):
        overlays = self._overlays()
        columns = OverlayColumns.of(overlays)
        assert len(columns) == len(overlays)
        for slot, overlay in enumerate(overlays):
            assert columns.overlay(slot) == overlay
            assert columns.passes[slot] == overlay.required_passes()
        assert columns.ports == ["Y", "Z"]

    def test_as_lanes_keeps_a_shard_and_wraps_overlays(self):
        overlays = self._overlays()
        lanes = as_lanes(overlays)
        assert list(lanes.slots) == [0, 1, 2, 3]
        assert lanes.passes() == 3
        shard = Lanes(lanes.columns, [0, 3])
        assert as_lanes(shard) is shard
        assert shard.passes() == 1

    def test_effect_add_stores_rows_and_keeps_the_view(self):
        memo = EffectColumns()
        effect = FaultEffect(5, ("lut_bit", 1, 1, "F", 3), "LUT",
                             self._overlays()[1], "2-bit upset [LUT]")
        slot = memo.add((5, 6), effect)
        assert memo.add((5, 6), effect) == slot
        assert memo.effect(slot) == effect
        assert EFFECT_ROWS[memo.rows[slot]].has_effect

