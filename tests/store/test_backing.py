"""Tests for the content-addressed design store and its evaluator wiring."""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dse import CandidateEvaluator, ResourceBudget
from repro.errors import StoreError
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.flexcl import FlexCLEstimator
from repro.fpga.resources import VIRTEX7_690T
from repro.opencl.platform import ADM_PCIE_7V3
from repro.stencil import jacobi_2d
from repro.store import (
    DesignStore,
    SNAPSHOT_NAME,
    STORE_SCHEMA,
    design_key,
    evaluation_context,
)
from repro.store.backing import store_key
from repro.store.journal import Journal
from repro.tiling import make_baseline_design

#: A second board, so a second evaluation context.
_HALF_BANDWIDTH = ADM_PCIE_7V3.with_bandwidth(
    ADM_PCIE_7V3.bandwidth_bytes_per_s / 2
)


@pytest.fixture
def design(small_jacobi2d):
    return make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)


@pytest.fixture
def context():
    return evaluation_context(ADM_PCIE_7V3, FlexCLEstimator())


@pytest.fixture
def budget():
    return ResourceBudget.from_device(VIRTEX7_690T)


class TestContentAddressing:
    def test_context_changes_with_board(self, context):
        assert (
            evaluation_context(_HALF_BANDWIDTH, FlexCLEstimator())
            != context
        )

    def test_context_changes_with_flexcl_config(self, context):
        flexcl = FlexCLEstimator(max_partitions=4)
        assert evaluation_context(ADM_PCIE_7V3, flexcl) != context

    def test_context_stable_across_equal_configs(self, context):
        assert (
            evaluation_context(
                dataclasses.replace(ADM_PCIE_7V3), FlexCLEstimator()
            )
            == context
        )

    def test_default_context_and_key_are_pinned(self, context):
        # Every stored entry sits under these bytes: an edit that
        # changes them orphans every store already written.
        assert context == (
            "b276a1a18c6d399902c5e886ab28ebc8"
            "f2314aa428b351e156e7d74aa0ea853d"
        )
        design = make_baseline_design(
            jacobi_2d(), (128, 128), (4, 4), 32, unroll=4
        )
        assert store_key(design, context) == (
            "92168e4dbc2c3d9af5256818295a1f8d"
            "08f7f3d8c4a34e49c501c3b3e75afd5e"
        )

    def test_key_changes_with_design(self, design, context):
        other = design.with_fused_depth(design.fused_depth + 1)
        assert design_key(design.signature(), context) != design_key(
            other.signature(), context
        )


class TestDesignStore:
    def test_round_trip_across_reopen(self, tmp_path, design, context):
        estimator = ResourceEstimator()
        resources = estimator.estimate(design)
        with DesignStore(tmp_path / "s") as store:
            assert store.lookup_design(design, context) is None
            store.record_design(
                design, context, cycles=123.5, resources=resources
            )
        with DesignStore(tmp_path / "s") as store:
            stored = store.lookup_design(design, context)
        assert stored is not None and stored.complete
        assert stored.cycles == 123.5
        assert stored.resources == resources

    def test_partial_entries_merge_upgrade(self, tmp_path, design, context):
        resources = ResourceEstimator().estimate(design)
        with DesignStore(tmp_path / "s") as store:
            store.record_design(design, context, cycles=7.0)
            stored = store.lookup_design(design, context)
            assert stored.cycles == 7.0 and stored.resources is None
            assert not stored.complete
            store.record_design(design, context, resources=resources)
            stored = store.lookup_design(design, context)
        assert stored.complete
        assert stored.cycles == 7.0
        assert stored.resources == resources

    def test_empty_record_is_a_noop(self, tmp_path, design, context):
        with DesignStore(tmp_path / "s") as store:
            store.record_design(design, context)
            assert len(store) == 0

    def test_other_context_never_served(self, tmp_path, design, context):
        other = evaluation_context(_HALF_BANDWIDTH, FlexCLEstimator())
        with DesignStore(tmp_path / "s") as store:
            store.record_design(design, context, cycles=9.0)
            assert store.lookup_design(design, other) is None
            assert store.hits == 0
            assert store.misses == 1

    def test_other_schema_version_not_served(
        self, tmp_path, design, context
    ):
        root = tmp_path / "s"
        with DesignStore(root) as store:
            store.record_design(design, context, cycles=1.0)
        # Rewrite the journal entry under a foreign schema version.
        key = design_key(design.signature(), context)
        with Journal(root / "journal.jsonl") as journal:
            journal.append(
                {"key": key, "v": "repro.store/999", "ctx": context}
            )
        with DesignStore(root) as store:
            assert store.lookup_design(design, context) is None

    def test_batched_writes_flush_on_close(self, tmp_path, design, context):
        root = tmp_path / "s"
        store = DesignStore(root, batch_size=100)
        store.record_design(design, context, cycles=1.0)
        assert (root / "journal.jsonl").read_text() == ""
        store.close()
        assert len((root / "journal.jsonl").read_text().splitlines()) == 1

    def test_batch_size_validation(self, tmp_path):
        with pytest.raises(StoreError):
            DesignStore(tmp_path / "s", batch_size=0)

    def test_corrupt_snapshot_raises_store_error(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / SNAPSHOT_NAME).write_text("garbage\n")
        with pytest.raises(StoreError):
            DesignStore(root)

    def test_stats_summary(self, tmp_path, design, context):
        with DesignStore(tmp_path / "s") as store:
            store.record_design(design, context, cycles=1.0)
            store.lookup_design(design, context)
            stats = store.stats_summary()
        assert stats["schema"] == STORE_SCHEMA
        assert stats["entries"] == 1
        assert stats["complete_entries"] == 0
        assert stats["contexts"] == {context: 1}
        assert stats["runtime"]["writes"] == 1
        assert stats["runtime"]["hits"] == 1

    def test_compact_preserves_entries(self, tmp_path, design, context):
        root = tmp_path / "s"
        with DesignStore(root) as store:
            store.record_design(design, context, cycles=4.0)
            outcome = store.compact()
        assert outcome == {"journal_folded": 1, "snapshot_entries": 1}
        with DesignStore(root) as store:
            assert store.lookup_design(design, context).cycles == 4.0
            assert len(store._journal) == 0

    def test_gc_drops_foreign_schema(self, tmp_path, design, context):
        root = tmp_path / "s"
        with DesignStore(root) as store:
            store.record_design(design, context, cycles=1.0)
        key = design_key(design.signature(), context)
        with Journal(root / "journal.jsonl") as journal:
            journal.append({"key": key + "x", "v": "old/0", "ctx": "c"})
        with DesignStore(root) as store:
            assert len(store) == 2
            assert store.gc() == 1
            assert len(store) == 1
        with DesignStore(root) as store:
            assert store.lookup_design(design, context) is not None

    def test_gc_keep_context(self, tmp_path, design, context):
        other = evaluation_context(_HALF_BANDWIDTH, FlexCLEstimator())
        with DesignStore(tmp_path / "s") as store:
            store.record_design(design, context, cycles=1.0)
            store.record_design(design, other, cycles=2.0)
            assert store.gc(keep_context=context) == 1
            assert store.lookup_design(design, context) is not None
            assert store.lookup_design(design, other) is None

    def test_invalidate_one_context(self, tmp_path, design, context):
        other = evaluation_context(_HALF_BANDWIDTH, FlexCLEstimator())
        with DesignStore(tmp_path / "s") as store:
            store.record_design(design, context, cycles=1.0)
            store.record_design(design, other, cycles=2.0)
            assert store.invalidate(context=other) == 1
            assert store.invalidated == 1
            assert store.lookup_design(design, context) is not None

    def test_invalidate_everything(self, tmp_path, design, context):
        root = tmp_path / "s"
        with DesignStore(root) as store:
            store.record_design(design, context, cycles=1.0)
            assert store.invalidate() == 1
        with DesignStore(root) as store:
            assert len(store) == 0

    def test_unwritable_root_raises_store_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(StoreError):
            DesignStore(blocker / "s")


class TestEvaluatorIntegration:
    def _candidates(self, design):
        return [design.with_fused_depth(h) for h in (1, 2, 4, 8)]

    def test_warm_start_skips_model_evaluations(
        self, tmp_path, design, budget
    ):
        root = tmp_path / "s"
        with DesignStore(root) as store:
            cold = CandidateEvaluator(store=store)
            cold_result = cold.explore(self._candidates(design), budget)
            assert cold.stats.evaluated == len(self._candidates(design))
            assert cold.stats.store_hits == 0
        with DesignStore(root) as store:
            warm = CandidateEvaluator(store=store)
            warm_result = warm.explore(self._candidates(design), budget)
            assert warm.stats.evaluated == 0
            assert warm.stats.store_hits == len(self._candidates(design))
        assert (
            warm_result.best.design.signature()
            == cold_result.best.design.signature()
        )
        assert (
            warm_result.best.predicted_cycles
            == cold_result.best.predicted_cycles
        )
        assert warm_result.best.resources == cold_result.best.resources

    def test_predict_cycles_warm_start(self, tmp_path, design):
        root = tmp_path / "s"
        with DesignStore(root) as store:
            cold = CandidateEvaluator(store=store)
            expected = cold.predict_cycles(design)
        with DesignStore(root) as store:
            warm = CandidateEvaluator(store=store)
            assert warm.predict_cycles(design) == expected
            assert warm.stats.store_hits == 1
            assert warm.stats.evaluated == 0
            # The store-served result entered the memo, which answers
            # the second call.
            assert warm.predict_cycles(design) == expected
            assert warm.stats.evaluated == 0
            assert warm.stats.cache_hits == 1

    def test_parallel_batch_writes_through_consistently(
        self, tmp_path, design, budget
    ):
        candidates = self._candidates(design) * 2
        root = tmp_path / "s"
        with DesignStore(root) as store:
            shared = CandidateEvaluator(store=store)
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(
                    pool.map(
                        lambda _: shared.explore(candidates, budget),
                        range(4),
                    )
                )
        serial = CandidateEvaluator()
        expected = serial.explore(candidates, budget)
        with DesignStore(root) as store:
            warm = CandidateEvaluator(store=store)
            warmed = warm.explore(candidates, budget)
            assert warm.stats.evaluated == 0
        assert (
            warmed.best.predicted_cycles == expected.best.predicted_cycles
        )

    def test_store_disabled_paths_unchanged(self, design, budget):
        engine = CandidateEvaluator()
        assert engine.store is None and engine.store_context is None
        result = engine.explore(self._candidates(design), budget)
        assert engine.stats.store_hits == 0
        assert result.best is not None


class TestMemoBounding:
    def test_max_memo_entries_validation(self):
        from repro.errors import DesignSpaceError

        with pytest.raises(DesignSpaceError):
            CandidateEvaluator(max_memo_entries=0)

    def test_memo_is_bounded(self, design, budget):
        engine = CandidateEvaluator(max_memo_entries=2)
        candidates = [design.with_fused_depth(h) for h in (1, 2, 4, 8)]
        engine.explore(candidates, budget)
        assert engine.cache_size() == 2

    def test_eviction_preserves_results(self, design, budget):
        unbounded = CandidateEvaluator()
        bounded = CandidateEvaluator(max_memo_entries=1)
        candidates = [design.with_fused_depth(h) for h in (1, 2, 4, 8)]
        expected = unbounded.explore(candidates, budget)
        actual = bounded.explore(candidates, budget)
        assert [e.predicted_cycles for e in actual.candidates] == [
            e.predicted_cycles for e in expected.candidates
        ]

    def test_evicted_design_reloads_from_store(
        self, tmp_path, design, budget
    ):
        with DesignStore(tmp_path / "s") as store:
            engine = CandidateEvaluator(store=store, max_memo_entries=1)
            a = design.with_fused_depth(1)
            b = design.with_fused_depth(2)
            assert engine.evaluate(a, budget) is not None
            assert engine.evaluate(b, budget) is not None  # evicts a
            assert engine.evaluate(a, budget) is not None
            assert engine.stats.evaluated == 2
            assert engine.stats.store_hits == 1

    def test_lru_order_keeps_hot_entries(self, design, budget):
        engine = CandidateEvaluator(max_memo_entries=2)
        a = design.with_fused_depth(1)
        b = design.with_fused_depth(2)
        c = design.with_fused_depth(4)
        engine.evaluate(a, budget)
        engine.evaluate(b, budget)
        engine.evaluate(a, budget)  # refresh a; b is now LRU
        engine.evaluate(c, budget)  # evicts b
        engine.evaluate(a, budget)
        assert engine.stats.cache_hits == 2
        assert engine.stats.evaluated == 3
