"""Tests for the unified candidate-evaluation engine."""

import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.dse.evaluator as evaluator_module
from repro.dse import (
    CandidateEvaluator,
    ResourceBudget,
    optimize_full,
)
from repro.dse.evaluator import EvaluationStats
from repro.dse.optimizer import _run_search
from repro.errors import DesignSpaceError
from repro.fpga.resources import VIRTEX7_690T, ResourceVector
from repro.program import ProgramDesign, ProgramEvaluator
from repro.program.spec import single_stage_program
from repro.stencil import jacobi_2d
from repro.store import DesignStore
from repro.tiling import make_baseline_design


@pytest.fixture(scope="module")
def spec():
    return jacobi_2d(grid=(128, 128), iterations=16)


@pytest.fixture(scope="module")
def baseline(spec):
    return make_baseline_design(spec, (32, 32), (2, 2), 4, unroll=2)


@pytest.fixture(scope="module")
def budget():
    return ResourceBudget.from_device(VIRTEX7_690T)


class TestCaching:
    def test_same_signature_same_object(self, baseline, budget):
        engine = CandidateEvaluator()
        first = engine.evaluate(baseline, budget)
        second = engine.evaluate(baseline, budget)
        assert first is not None
        assert second is first
        assert engine.stats.cache_hits == 1
        assert engine.stats.evaluated == 1
        assert engine.cache_size() == 1

    def test_equal_designs_share_cache_entry(self, baseline, budget):
        engine = CandidateEvaluator()
        twin = baseline.with_fused_depth(baseline.fused_depth)
        assert twin is not baseline
        assert engine.evaluate(baseline, budget) is engine.evaluate(
            twin, budget
        )

    def test_budget_rechecked_on_cache_hit(self, baseline, budget):
        engine = CandidateEvaluator()
        assert engine.evaluate(baseline, budget) is not None
        tiny = ResourceBudget(limit=ResourceVector(1, 1, 1, 1))
        assert engine.evaluate(baseline, tiny) is None
        assert engine.stats.infeasible == 1
        # The cached evaluation survives for permissive budgets.
        assert engine.evaluate(baseline, budget) is not None

    def test_clear_cache(self, baseline, budget):
        engine = CandidateEvaluator()
        engine.evaluate(baseline, budget)
        engine.clear_cache()
        assert engine.cache_size() == 0
        engine.evaluate(baseline, budget)
        assert engine.stats.evaluated == 2

    def test_lookups_share_the_memo(self, baseline, budget):
        engine = CandidateEvaluator()
        resources = engine.resources(baseline)
        assert engine.predict_cycles(baseline) == engine.evaluate(
            baseline, budget
        ).predicted_cycles
        assert engine.evaluate(baseline, budget).resources == resources
        assert engine.stats.evaluated == 1
        assert engine.stats.cache_hits == 3
        assert engine.cache_size() == 1


class TestMemoBound:
    def test_lru_eviction_mid_batch_keeps_memo_answers(
        self, baseline, budget
    ):
        engine = CandidateEvaluator(max_memo_entries=1)
        first = engine.evaluate(baseline, budget)
        other = baseline.with_fused_depth(2)
        # Scoring ``other`` evicts ``baseline``; its second appearance
        # is still answered by the memo hit resolved for this batch.
        results = engine.evaluate_batch([baseline, other, baseline], budget)
        assert results[0] is first and results[2] is first
        assert engine.stats.cache_hits == 2
        assert engine.stats.evaluated == 2
        assert engine.cache_size() == 1

    def test_bounded_memo_bounds_retained_memory(self):
        """A bounded engine keeps no other per-design cache.

        Four full-space searches through one engine must leave the
        same memory behind as the first did: nothing but the memo
        (capped at 64 entries) may grow with the number of designs
        scored.
        """
        engine = CandidateEvaluator(max_memo_entries=64)
        retained = []
        tracemalloc.start()
        try:
            for extent in (128, 256, 512, 1024):
                optimize_full(
                    jacobi_2d(grid=(extent, extent), iterations=32),
                    evaluator=engine,
                    unroll=2,
                    max_kernels=8,
                    max_fused_depth=16,
                )
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert engine.cache_size() == 64
        assert retained[-1] - retained[0] < 1 << 20


class TestBatch:
    def test_results_match_input_order(self, baseline, budget):
        depths = (8, 1, 4, 2, 1)
        candidates = [baseline.with_fused_depth(h) for h in depths]
        engine = CandidateEvaluator()
        results = engine.evaluate_batch(candidates, budget)
        assert len(results) == len(candidates)
        for candidate, result in zip(candidates, results):
            assert result.design.signature() == candidate.signature()

    def test_parallel_matches_serial(self, baseline, budget):
        """Threads sharing one engine get the serial values."""
        candidates = [baseline.with_fused_depth(h) for h in (1, 2, 4, 8)]
        serial = CandidateEvaluator().evaluate_batch(candidates, budget)
        shared = CandidateEvaluator()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(
                    pool.map(
                        lambda _: shared.evaluate_batch(candidates, budget),
                        range(8),
                        timeout=120,
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        assert len(parallel) == 8
        for results in parallel:
            assert [r.predicted_cycles for r in results] == [
                r.predicted_cycles for r in serial
            ]
        assert shared.cache_size() == len(candidates)

    def test_explore_attaches_stats(self, baseline, budget):
        engine = CandidateEvaluator()
        result = engine.explore(
            [baseline.with_fused_depth(h) for h in (1, 2, 4)], budget
        )
        assert result.stats is not None
        assert result.stats.candidates == 3
        assert result.stats.evaluated == 3
        assert result.evaluated == 3

    def test_explore_empty_feasible_raises(self, baseline):
        tiny = ResourceBudget(limit=ResourceVector(1, 1, 1, 1))
        with pytest.raises(DesignSpaceError, match="No feasible design"):
            CandidateEvaluator().explore([baseline], tiny)


class TestPruning:
    """The admissible bound the tiered search's Tier-0 screen prunes with."""

    def test_bound_is_admissible(self, baseline):
        engine = CandidateEvaluator()
        for h in (1, 2, 4, 8):
            design = baseline.with_fused_depth(h)
            assert engine.lower_bound(design) <= engine.predict_cycles(
                design
            ) * (1 + 1e-12)


class TestOptimizeFullParity:
    def test_parallel_cached_matches_serial(self, spec):
        """Concurrent searches through one shared engine (as the
        in-process service runs them) return the serial bests."""
        kwargs = dict(unroll=2, max_kernels=4, max_fused_depth=8)
        serial = optimize_full(spec, **kwargs)
        engine = CandidateEvaluator()
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(
                pool.map(
                    lambda _: optimize_full(spec, evaluator=engine, **kwargs),
                    range(2),
                )
            )
        for fast in runs:
            assert set(serial) == set(fast)
            for kind, serial_result in serial.items():
                assert (
                    fast[kind].best.design.signature()
                    == serial_result.best.design.signature()
                )
                assert (
                    fast[kind].best.predicted_cycles
                    == serial_result.best.predicted_cycles
                )

    def test_serial_engine_is_bit_identical(self, spec):
        kwargs = dict(unroll=2, max_kernels=4, max_fused_depth=8)
        legacy = optimize_full(spec, **kwargs)
        engine = CandidateEvaluator()
        routed = optimize_full(spec, evaluator=engine, **kwargs)
        for kind, legacy_result in legacy.items():
            result = routed[kind]
            assert result.evaluated == legacy_result.evaluated
            assert result.feasible == legacy_result.feasible
            assert [
                (c.design.signature(), c.predicted_cycles)
                for c in result.candidates
            ] == [
                (c.design.signature(), c.predicted_cycles)
                for c in legacy_result.candidates
            ]


class TestTraceAndStats:
    def test_stats_merge_and_dict(self):
        a = EvaluationStats(candidates=2, evaluated=1, cache_hits=1)
        b = EvaluationStats(candidates=3, screened=2, infeasible=1)
        a.merge(b)
        assert a.as_dict() == {
            "candidates": 5,
            "evaluated": 1,
            "cache_hits": 1,
            "store_hits": 0,
            "infeasible": 1,
            "screened": 2,
            "promoted": 0,
            "wall_time_s": 0.0,
        }
        assert "5 candidates" in a.summary()


class Stop(Exception):
    """What the test checkpoints raise."""


def stop_at(n):
    """A checkpoint that raises :class:`Stop` on its ``n``-th call."""
    calls = []

    def checkpoint():
        calls.append(None)
        if len(calls) == n:
            raise Stop(n)

    return checkpoint


class TestCheckpoint:
    """The engine's one cancellation point: three per batch, one per
    Tier-0 screen, none while recording."""

    @pytest.fixture
    def candidates(self, baseline):
        return [baseline.with_fused_depth(h) for h in (1, 2, 4)]

    def test_stop_before_scoring_leaves_the_model_uncalled(
        self, candidates, budget, monkeypatch
    ):
        scored = []
        predict_batch = evaluator_module.predict_batch

        def counting(designs, **kwargs):
            scored.append(len(designs))
            return predict_batch(designs, **kwargs)

        monkeypatch.setattr(evaluator_module, "predict_batch", counting)
        with pytest.raises(Stop):
            CandidateEvaluator(checkpoint=stop_at(2)).evaluate_batch(
                candidates, budget
            )
        assert scored == []
        with pytest.raises(Stop):
            CandidateEvaluator(checkpoint=stop_at(3)).evaluate_batch(
                candidates, budget
            )
        assert scored == [len(candidates)]

    def test_stop_after_scoring_records_nothing(
        self, candidates, budget, tmp_path
    ):
        with DesignStore(tmp_path / "s") as store:
            engine = CandidateEvaluator(store=store, checkpoint=stop_at(3))
            with pytest.raises(Stop):
                engine.evaluate_batch(candidates, budget)
            assert engine.cache_size() == 0
            assert store.writes == 0
            assert engine.stats.candidates == 0

    def test_exhaustive_search_checks_in_while_it_draws_the_stream(
        self, baseline, budget
    ):
        drawn = []

        def stream():
            for i in range(4096):
                drawn.append(i)
                yield baseline.with_fused_depth(1 + i % 8)

        engine = CandidateEvaluator(checkpoint=stop_at(1))
        with pytest.raises(Stop):
            _run_search(engine, None, stream(), budget)
        assert len(drawn) == 1024

    def test_three_calls_per_batch_one_per_screen(
        self, spec, candidates, budget
    ):
        calls = []
        engine = CandidateEvaluator(checkpoint=lambda: calls.append(None))
        engine.evaluate_batch(candidates, budget)
        assert len(calls) == 3
        engine.explore(candidates, budget)  # memo answers: still a batch
        assert len(calls) == 6
        engine.screen_batch(candidates, budget)
        assert len(calls) == 7

        programs = ProgramEvaluator(engine)
        designs = [
            ProgramDesign(
                program=single_stage_program(spec),
                stage_designs=((spec.name, design),),
            )
            for design in candidates
        ]
        programs.screen_batch(designs, budget)
        assert len(calls) == 8
        programs.evaluate_batch(designs, budget)
        assert len(calls) == 11
