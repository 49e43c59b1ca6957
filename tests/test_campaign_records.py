"""Tests for the columnar campaign records.

A campaign keeps its per-injection state as columns: the effect memo
holds an overlay only for effectful bits, backends return verdict
columns, and ``CampaignResult.results`` is a read-only view that builds
each :class:`~repro.faults.FaultResult` on access.  These tests pin the
three promises that design makes: the view reads exactly what the
per-object records read, the campaign retains few collector-tracked
objects per injection, and a shard checkpoint in an older payload layout
is never mistaken for a current one.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import gc
import hashlib
import json
import sys
import threading
from typing import List, Optional

import pytest

from repro.experiments.designs import (build_design_suite,
                                       implement_design_suite)
from repro.faults import (CampaignConfig, EffectColumns, FaultEffect,
                          FaultListManager, FaultRecords, NumpyBackend,
                          ShardedBackend, clear_cache, default_stimulus,
                          run_campaign)
from repro.faults.engine import CampaignContext
from repro.service import SharedCacheTier, activate_tier, deactivate_tier
from repro.sim import FaultOverlay

from oracles.campaign import effect_of_bit, evaluate

BACKENDS = [
    pytest.param(lambda: "serial", id="serial"),
    pytest.param(lambda: "vector", id="vector"),
    pytest.param(lambda: "numpy", id="numpy"),
    pytest.param(lambda: ShardedBackend(workers=2, min_tasks=0),
                 id="sharded"),
]

#: (config, sha256 prefix of the records, injected, wrong) on the tiny
#: unprotected filter.  Recorded from the per-object implementation,
#: whose ``results`` was a list of FaultResult; the digests cover every
#: field of every record, in order.
RECORDED = {
    "single": (CampaignConfig(num_faults=200, workload_cycles=6, seed=9),
               "b0a6ad0cc5f0ba4e", 200, 57),
    "mbu:2": (CampaignConfig(num_faults=100, workload_cycles=6, seed=9,
                             upset_model="mbu:2"),
              "245a79d65c12fb2d", 100, 49),
}


def records_digest(results) -> str:
    rows = [[r.bit, r.resource_kind, r.category, r.has_effect,
             r.wrong_answer, r.first_mismatch_cycle, r.detail]
            for r in results]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


@pytest.fixture(autouse=True)
def no_ambient_tier():
    deactivate_tier()
    yield
    deactivate_tier()


class TestResultsView:
    @pytest.mark.parametrize("path", sorted(RECORDED))
    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_view_matches_recorded_records(self, tiny_fir_implementation,
                                           path, make_backend):
        config, digest, injected, wrong = RECORDED[path]
        result = run_campaign(tiny_fir_implementation, config,
                              backend=make_backend())
        assert isinstance(result.results, FaultRecords)
        assert records_digest(result.results) == digest
        assert (result.injected, result.wrong_answers) == (injected, wrong)
        assert sum(r.wrong_answer for r in result.results) == wrong

    def test_view_matches_the_single_fault_oracle(self,
                                                  tiny_fir_implementation):
        config = RECORDED["single"][0]
        result = run_campaign(tiny_fir_implementation, config,
                              backend="numpy")
        clear_cache()
        context = CampaignContext(
            tiny_fir_implementation,
            stimulus=default_stimulus(tiny_fir_implementation, config))
        oracle = [evaluate(context, effect_of_bit(context, record.bit))
                  for record in result.results]
        assert list(result.results) == oracle
        assert result.results == oracle

    def test_view_is_a_read_only_sequence(self, tiny_fir_implementation):
        result = run_campaign(tiny_fir_implementation,
                              RECORDED["single"][0], backend="vector")
        records = result.results
        assert isinstance(records, collections.abc.Sequence)
        assert not isinstance(records, collections.abc.MutableSequence)
        with pytest.raises(TypeError):
            records[0] = records[1]
        with pytest.raises(TypeError):
            del records[0]
        assert not hasattr(records, "append")
        with pytest.raises(dataclasses.FrozenInstanceError):
            records[0].wrong_answer = True
        # Items are built per access from the columns.
        listed = list(records)
        assert len(records) == len(listed) == result.injected
        assert records[-1] == listed[-1]
        assert records[5:9] == listed[5:9]
        with pytest.raises(IndexError):
            records[len(records)]
        assert records == run_campaign(tiny_fir_implementation,
                                       RECORDED["single"][0],
                                       backend="serial").results

    def test_tally_reads_the_columns(self, tiny_fir_implementation):
        result = run_campaign(tiny_fir_implementation,
                              RECORDED["single"][0], backend="numpy")
        counted = collections.Counter(r.category for r in result.results)
        wrong = collections.Counter(r.category for r in result.results
                                    if r.wrong_answer)
        for category, count in result.by_category.items():
            assert count.injected == counted.get(category, 0)
            assert count.wrong == wrong.get(category, 0)


class TestRetainedObjects:
    def test_exhaustive_campaign_keeps_few_objects_per_injection(self):
        # Every fault-list bit of the smoke-scale TMR_p2 filter once, on
        # the numpy backend.  Per-object records kept about five
        # collector-tracked objects alive per injection (effect, overlay,
        # result, overrides, lists); the columns keep at most two: an
        # overlay and its override dict for the effectful bits.
        suite = build_design_suite("smoke")
        implementation = implement_design_suite(
            suite, designs=["TMR_p2"])["TMR_p2"]
        size = len(FaultListManager(implementation).build())
        config = CampaignConfig(num_faults=size,
                                workload_cycles=suite.scale.workload_cycles)
        clear_cache()
        # Warm what is not per injection (compiled design, programs).
        run_campaign(implementation,
                     dataclasses.replace(config, num_faults=10),
                     backend="numpy")
        clear_cache()
        gc.collect()
        before = len(gc.get_objects())
        result = run_campaign(implementation, config, backend=NumpyBackend())
        gc.collect()
        retained = len(gc.get_objects()) - before
        assert result.injected == size
        assert retained <= 2 * result.injected, retained / result.injected
        clear_cache()


class TestSharedEffectMemo:
    def test_concurrent_adds_keep_the_columns_aligned(self):
        # The service's worker threads fill one memo per implementation;
        # racing appends must never misalign a slot's columns.  A race
        # is rare per round, so the check runs several rounds.
        keys = list(range(2000)) + [(bit, bit + 1) for bit in range(1000)]

        def effect_for(key) -> FaultEffect:
            bit = key if isinstance(key, int) else key[0]
            overlay = FaultOverlay()
            if bit % 3 == 0:
                overlay.lut_init_overrides[bit] = 1
            return FaultEffect(bit, ("lut_bit", bit, 0, "F", 0), "LUT",
                               overlay, f"detail {key}")

        effects = {key: effect_for(key) for key in keys}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(8):
                memo = EffectColumns()

                def worker(offset: int) -> None:
                    for key in keys[offset:] + keys[:offset]:
                        memo.add(key, effects[key])

                threads = [threading.Thread(target=worker, args=(offset,))
                           for offset in range(0, len(keys),
                                               len(keys) // 16)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(memo.keys) == len(memo.bits) == len(memo.rows) \
                    == len(memo.details) == len(memo.resources) == len(keys)
                for key in keys:
                    slot = memo.slot_of(key)
                    assert memo.keys[slot] == key
                    view = memo.effect(slot)
                    assert (view.bit, view.detail, view.has_effect) == \
                        (key if isinstance(key, int) else key[0],
                         effects[key].detail, effects[key].has_effect)
        finally:
            sys.setswitchinterval(interval)


@dataclasses.dataclass(frozen=True)
class FaultVerdict:
    """The per-injection verdict record of the object-list layout."""

    index: int
    bit: int
    resource_kind: str
    category: str
    has_effect: bool
    wrong_answer: bool
    first_mismatch_cycle: Optional[int]
    detail: str = ""


class TestCheckpointLayout:
    CONFIG = CampaignConfig(num_faults=40, workload_cycles=6, seed=9)

    def test_old_layout_checkpoint_is_a_plain_miss(self, tmp_path,
                                                   tiny_fir_implementation):
        tier = activate_tier(SharedCacheTier(tmp_path))
        backend = ShardedBackend(workers=2, min_tasks=0)
        first = run_campaign(tiny_fir_implementation, self.CONFIG,
                             backend=backend)
        shards = backend.last_run_stats["checkpoint_stores"]
        assert shards >= 2

        # Rewrite every checkpoint in the object-list layout, both under
        # the key that layout used and under the current key.
        paths = sorted((tmp_path / "shard-verdicts").glob("*/*.pkl"))
        assert len(paths) == shards
        for path in paths:
            key = path.stem
            payload = tier.load_shard_verdicts(key)
            old_key = key.rsplit("-", 1)[0]
            verdicts: List[FaultVerdict] = [
                FaultVerdict(index=payload["start"] + position, bit=0,
                             resource_kind="pip", category="Open",
                             has_effect=True, wrong_answer=True,
                             first_mismatch_cycle=0)
                for position in range(payload["stop"] - payload["start"])]
            old = {"start": payload["start"], "stop": payload["stop"],
                   "verdicts": verdicts}
            assert tier.store_shard_verdicts(old_key, old)
            assert tier.store_shard_verdicts(key, old)

        clear_cache()
        backend = ShardedBackend(workers=2, min_tasks=0)
        second = run_campaign(tiny_fir_implementation, self.CONFIG,
                              backend=backend)
        assert backend.last_run_stats["checkpoint_hits"] == 0
        assert backend.last_run_stats["checkpoint_stores"] == shards
        assert second.results == first.results
        assert second.wrong_answers == first.wrong_answers
