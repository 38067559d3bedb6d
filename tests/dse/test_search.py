"""Tests for the tiered streaming search driver.

The contract under test is exact: a tiered search (any chunk size, any
screen mode, vectorized or scalar screening) must return the
*bitwise-identical* best design the exhaustive sweep returns, and —
with a frontier-preserving screen (``None`` or ``"pareto"``; the
latency screen may legitimately drop band points slower than the
best) — the identical final Pareto frontier.
A search on a store-backed engine must resume to the same answer
after interruption, including a SIGKILL mid-search, and a re-run on
the same store answers finished work from it.
"""

import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    CandidateEvaluator,
    DesignSpace,
    ResourceBudget,
    SearchDriver,
    baseline_candidates,
    optimize_baseline,
    optimize_full,
    optimize_heterogeneous,
    optimize_pipe_shared,
    pareto_front,
)
from repro.dse import evaluator as evaluator_module
from repro.dse.search import SearchFrontier
from repro.errors import DesignSpaceError
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.resources import VIRTEX7_690T, ResourceVector
from repro.model.batch import BatchRangeError, lower_bound_batch
from repro.stencil import jacobi_2d
from repro.store import CRASH_ENV, DesignStore
from repro.tiling import make_baseline_design, make_pipe_shared_design


def _budget():
    return ResourceBudget.from_device(VIRTEX7_690T)


def _space(spec, counts=(2, 2), **kw):
    return DesignSpace.default(spec, counts, **kw)


def _mixed_candidates(spec, space):
    """Baseline + pipe-shared designs over a small space."""
    designs = []
    for tile in space.tile_shapes():
        for depth in space.depth_candidates():
            designs.append(
                make_baseline_design(
                    spec, tile, space.counts, depth, space.unroll
                )
            )
            designs.append(
                make_pipe_shared_design(
                    spec, tile, space.counts, depth, space.unroll
                )
            )
    return designs


def _signature_view(results):
    return [
        (e.design.signature(), e.predicted_cycles) for e in results
    ]


def _assert_same_best(a, b):
    assert a.best.design.signature() == b.best.design.signature()
    assert a.best.predicted_cycles == b.best.predicted_cycles


class TestLowerBoundBatch:
    def test_bitwise_parity_with_scalar_bound(self, small_jacobi2d):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        engine = CandidateEvaluator()
        bounds = lower_bound_batch(designs, flexcl=engine.model.estimator)
        for design, bound in zip(designs, bounds):
            assert float(bound) == engine.lower_bound(design)

    def test_mixed_rank_groups(self, small_jacobi1d, small_jacobi2d):
        designs = [
            make_baseline_design(small_jacobi1d, (8,), (2,), 2),
            make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 2),
            make_baseline_design(small_jacobi1d, (16,), (2,), 3),
        ]
        engine = CandidateEvaluator()
        bounds = lower_bound_batch(
            designs, flexcl=engine.model.estimator
        )
        for design, bound in zip(designs, bounds):
            assert float(bound) == engine.lower_bound(design)

    def test_bound_is_admissible(self, small_jacobi2d):
        """The screen bound never exceeds the exact prediction."""
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        engine = CandidateEvaluator()
        bounds = lower_bound_batch(
            designs, flexcl=engine.model.estimator
        )
        for design, bound in zip(designs, bounds):
            assert float(bound) <= engine.predict_cycles(design)


class TestScreenBatch:
    def test_matches_scalar_components(self, small_jacobi2d):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        budget = _budget()
        engine = CandidateEvaluator()
        feasible, bounds, resources = engine.screen_batch(designs, budget)
        estimates = [ResourceEstimator().estimate(d) for d in designs]
        totals = [e.total for e in estimates]
        assert feasible == [t.fits_within(budget.limit) for t in totals]
        assert bounds == [engine.lower_bound(d) for d in designs]
        assert [r.total.bram18 for r in resources] == [
            t.bram18 for t in totals
        ]
        assert resources == estimates

    def test_does_not_grow_the_memo(self, small_jacobi2d):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        engine = CandidateEvaluator()
        engine.screen_batch(designs, _budget())
        assert engine.cache_size() == 0


class TestSearchFrontier:
    def test_incumbent_keeps_first_of_ties(self, small_jacobi2d):
        engine = CandidateEvaluator()
        design = make_baseline_design(
            small_jacobi2d, (8, 8), (2, 2), 2
        )
        scored = engine.evaluate_batch([design], _budget())
        frontier = SearchFrontier()
        frontier.extend(scored)
        first = frontier.best
        # An equal-cycles result later in the stream must not displace
        # the incumbent (strict-< update, like the engine).
        frontier.extend(scored)
        assert frontier.best is first

    def test_latency_screen_rule(self):
        frontier = SearchFrontier()
        assert frontier.admits_cycles(1e18)  # empty: everything admits
        assert frontier.admits(1e18, 10**9)

    def test_pareto_screen_admits_equal_tuples(self, small_jacobi2d):
        engine = CandidateEvaluator()
        design = make_baseline_design(
            small_jacobi2d, (8, 8), (2, 2), 2
        )
        [scored] = engine.evaluate_batch([design], _budget())
        frontier = SearchFrontier()
        frontier.extend([scored])
        bram = scored.resources.total.bram18
        cycles = scored.predicted_cycles
        assert frontier.admits(cycles, bram)  # equal tuple survives
        assert not frontier.admits(cycles + 1, bram)
        assert not frontier.admits(cycles, bram + 1)
        assert frontier.admits(cycles - 1, bram + 1)  # trade-off


class TestDriverValidation:
    def test_rejects_bad_chunk_size(self):
        with pytest.raises(DesignSpaceError, match="chunk_size"):
            SearchDriver(chunk_size=0)
        # The exhaustive search is engine.explore, not a driver mode.
        with pytest.raises(DesignSpaceError, match="chunk_size"):
            SearchDriver(chunk_size=None)

    def test_rejects_unknown_screen(self):
        with pytest.raises(DesignSpaceError, match="screen"):
            SearchDriver(screen="resources")


class TestDriverEquivalence:
    @pytest.mark.parametrize("screen", [None, "latency", "pareto"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_best_and_frontier_match_exhaustive(
        self, small_jacobi2d, screen, chunk_size
    ):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        budget = _budget()
        reference = CandidateEvaluator().explore(
            designs, budget
        )
        driver = SearchDriver(
            evaluator=CandidateEvaluator(),
            chunk_size=chunk_size,
            screen=screen,
        )
        result = driver.run(iter(designs), budget)
        _assert_same_best(result, reference)
        if screen != "latency":
            # The latency screen only promises the best design; it may
            # drop band points slower than the incumbent (documented).
            assert _signature_view(result.frontier) == _signature_view(
                pareto_front(list(reference.candidates))
            )

    def test_scalar_screen_fallback_matches(
        self, small_jacobi2d, monkeypatch
    ):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        budget = _budget()
        vectorized = SearchDriver(
            evaluator=CandidateEvaluator(), chunk_size=16
        ).run(iter(designs), budget)

        def out_of_range(*_args, **_kwargs):
            raise BatchRangeError("forced scalar screen")

        # Tier 0 falls back to the scalar estimator and bound when the
        # batch bound refuses a chunk; Tier-1 scoring is unaffected.
        monkeypatch.setattr(
            evaluator_module, "lower_bound_batch", out_of_range
        )
        scalar = SearchDriver(
            evaluator=CandidateEvaluator(), chunk_size=16
        ).run(iter(designs), budget)
        _assert_same_best(vectorized, scalar)
        assert _signature_view(vectorized.frontier) == _signature_view(
            scalar.frontier
        )

    def test_no_feasible_design_raises(self, small_jacobi2d):
        design = make_baseline_design(
            small_jacobi2d, (8, 8), (2, 2), 2
        )
        tiny = ResourceBudget(limit=ResourceVector(1, 1, 1, 1))
        driver = SearchDriver(chunk_size=4)
        with pytest.raises(DesignSpaceError, match="No feasible"):
            driver.run(iter([design]), tiny)

    def test_report_accounts_for_every_candidate(self, small_jacobi2d):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        driver = SearchDriver(
            evaluator=CandidateEvaluator(), chunk_size=16
        )
        driver.run(iter(designs), _budget())
        report = driver.report
        assert report.candidates == len(designs)
        assert (
            report.infeasible
            + report.screened
            + report.tier1_evaluations
            == len(designs)
        )
        assert report.promoted == report.tier1_evaluations
        # O(chunk) residency: chunk + frontier band + incumbent.
        assert report.peak_resident <= 16 + report.band_size + 1
        # Engine lifetime stats absorbed both tiers.
        stats = driver.evaluator.stats
        assert stats.candidates == len(designs)
        assert stats.screened == report.screened
        assert stats.promoted == report.promoted


def _search(path, designs, chunk_size=16, screen="latency"):
    """One tiered search on a fresh engine over the store at ``path``;
    returns ``(result, driver)``."""
    with DesignStore(path) as store:
        driver = SearchDriver(
            evaluator=CandidateEvaluator(store=store),
            chunk_size=chunk_size,
            screen=screen,
        )
        return driver.run(iter(designs), _budget()), driver


class TestCheckpointResume:
    """The design store is a tiered search's only durable record."""

    def test_interrupted_stream_resumes_to_same_result(
        self, tmp_path, small_jacobi2d
    ):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        reference = SearchDriver(
            evaluator=CandidateEvaluator(), chunk_size=16
        )
        expected = reference.run(iter(designs), _budget())
        # "Interrupt" after three chunks by truncating the stream.
        _partial, partial = _search(tmp_path, designs[: 3 * 16])
        result, resumed = _search(tmp_path, designs)
        assert resumed.report.chunks == (len(designs) + 15) // 16
        # The three recorded chunks are store hits; nothing is scored
        # twice across the two runs.
        assert result.stats.store_hits == partial.report.tier1_evaluations
        assert (
            partial.report.tier1_evaluations
            + resumed.report.tier1_evaluations
            == reference.report.tier1_evaluations
        )
        _assert_same_best(result, expected)
        assert _signature_view(result.frontier) == _signature_view(
            expected.frontier
        )

    def test_full_replay_runs_no_tier1(self, tmp_path, small_jacobi2d):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        one, _first = _search(tmp_path, designs)
        two, second = _search(tmp_path, designs)
        assert second.report.tier1_evaluations == 0
        assert two.stats.store_hits == second.report.promoted > 0
        _assert_same_best(two, one)
        assert _signature_view(two.frontier) == _signature_view(
            one.frontier
        )
        # Stored results round-trip cycles and resources exactly.
        assert two.best.predicted_cycles == one.best.predicted_cycles
        assert two.best.resources == one.best.resources

    @pytest.mark.parametrize(
        "chunk_size, screen",
        [(8, "pareto"), (16, "latency"), (8, "latency")],
    )
    def test_changed_chunk_size_or_screen_reruns_from_store(
        self, tmp_path, small_jacobi2d, chunk_size, screen
    ):
        """A finer chunking or a stricter screen promotes a subset of
        what the first run scored, so every promoted candidate is a
        store hit."""
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        first, _driver = _search(tmp_path, designs, 16, "pareto")
        again, driver = _search(tmp_path, designs, chunk_size, screen)
        assert driver.report.tier1_evaluations == 0
        assert again.stats.store_hits > 0
        _assert_same_best(again, first)

    def test_reordered_stream_over_filled_store(
        self, tmp_path, small_jacobi2d
    ):
        designs = _mixed_candidates(
            small_jacobi2d, _space(small_jacobi2d)
        )
        _search(tmp_path, designs, screen=None)  # scores every design
        reordered = designs[::-1]
        result, driver = _search(tmp_path, reordered)
        fresh = SearchDriver(
            evaluator=CandidateEvaluator(), chunk_size=16
        ).run(iter(reordered), _budget())
        assert driver.report.tier1_evaluations == 0
        _assert_same_best(result, fresh)
        assert _signature_view(result.frontier) == _signature_view(
            fresh.frontier
        )

    def test_optimize_full_kinds_share_one_checkpoint(self, tmp_path):
        """The three kinds' searches share one store; a re-run on it
        evaluates nothing."""
        spec = jacobi_2d(grid=(64, 64), iterations=16)
        knobs = dict(unroll=2, max_kernels=4, max_fused_depth=8)
        reference = optimize_full(spec, **knobs)
        runs = []
        for _ in range(2):
            with DesignStore(tmp_path) as store:
                driver = SearchDriver(
                    evaluator=CandidateEvaluator(store=store),
                    chunk_size=16,
                )
                runs.append(optimize_full(spec, driver=driver, **knobs))
        assert driver.evaluator.stats.evaluated == 0
        assert driver.evaluator.stats.store_hits > 0
        for kind, ref in reference.items():
            for run in runs:
                _assert_same_best(run[kind], ref)

    def test_sigkill_mid_search_then_resume(self, tmp_path):
        """A real SIGKILL mid-search leaves a store the re-run resumes
        from."""
        script = (
            "from repro.dse import CandidateEvaluator, DesignSpace, "
            "ResourceBudget, SearchDriver, baseline_candidates\n"
            "from repro.fpga.resources import VIRTEX7_690T\n"
            "from repro.stencil import jacobi_2d\n"
            "from repro.store import DesignStore\n"
            "spec = jacobi_2d(grid=(64, 64), iterations=16)\n"
            "space = DesignSpace.default(spec, (2, 2))\n"
            f"with DesignStore({str(tmp_path)!r}) as store:\n"
            "    driver = SearchDriver(\n"
            "        evaluator=CandidateEvaluator(store=store),\n"
            "        chunk_size=8)\n"
            "    driver.run(\n"
            "        baseline_candidates(space),\n"
            "        ResourceBudget.from_device(VIRTEX7_690T))\n"
        )
        env = dict(os.environ)
        # The store journals its records in batches of 32: the fourth
        # batch tears at the search's 100th record (of 169), so 99
        # survive.
        env[CRASH_ENV] = "100"
        src = os.path.join(
            os.path.dirname(
                os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))
                )
            ),
            "src",
        )
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH", "")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        spec = jacobi_2d(grid=(64, 64), iterations=16)
        space = DesignSpace.default(spec, (2, 2))
        result, resumed = _search(
            tmp_path, baseline_candidates(space), chunk_size=8
        )
        fresh = SearchDriver(evaluator=CandidateEvaluator(), chunk_size=8)
        expected = fresh.run(baseline_candidates(space), _budget())
        assert result.stats.store_hits == 99
        assert (
            resumed.report.tier1_evaluations
            == fresh.report.tier1_evaluations - 99
        )
        _assert_same_best(result, expected)
        assert _signature_view(result.frontier) == _signature_view(
            expected.frontier
        )


class TestOptimizerIntegration:
    @pytest.fixture()
    def spec(self):
        return jacobi_2d(grid=(64, 64), iterations=16)

    def _tiered(self, chunk_size=16):
        return SearchDriver(
            evaluator=CandidateEvaluator(),
            chunk_size=chunk_size,
        )

    def test_optimize_baseline_parity(self, spec):
        reference = optimize_baseline(spec, (2, 2))
        tiered = optimize_baseline(
            spec, (2, 2), driver=self._tiered()
        )
        _assert_same_best(tiered, reference)

    def test_optimize_pipe_shared_parity(self, spec):
        baseline = make_baseline_design(spec, (16, 16), (2, 2), 4)
        reference = optimize_pipe_shared(spec, baseline)
        tiered = optimize_pipe_shared(
            spec, baseline, driver=self._tiered()
        )
        _assert_same_best(tiered, reference)

    def test_optimize_heterogeneous_parity(self, spec):
        baseline = make_baseline_design(spec, (16, 16), (2, 2), 4)
        reference = optimize_heterogeneous(spec, baseline)
        tiered = optimize_heterogeneous(
            spec, baseline, driver=self._tiered()
        )
        _assert_same_best(tiered, reference)

    def test_optimize_full_parity(self, spec):
        kwargs = dict(unroll=2, max_kernels=8, max_fused_depth=8)
        reference = optimize_full(spec, **kwargs)
        tiered = optimize_full(spec, driver=self._tiered(), **kwargs)
        assert set(tiered) == {
            "baseline", "pipe-shared", "heterogeneous",
        }
        for kind, ref in reference.items():
            _assert_same_best(tiered[kind], ref)


@st.composite
def search_scenario(draw):
    """A small Table-3-style space plus tiered-search knobs."""
    grid = draw(st.sampled_from([(32, 32), (48, 48), (64, 64)]))
    iterations = draw(st.sampled_from([4, 8, 12]))
    counts = draw(st.sampled_from([(1, 1), (2, 2)]))
    max_depth = draw(st.integers(min_value=1, max_value=iterations))
    chunk_size = draw(st.sampled_from([1, 3, 8, 64, 1000]))
    screen = draw(st.sampled_from([None, "latency", "pareto"]))
    resume_at = draw(st.integers(min_value=0, max_value=3))
    return (
        grid, iterations, counts, max_depth, chunk_size, screen,
        resume_at,
    )


class TestTieredSearchProperty:
    @settings(max_examples=25, deadline=None)
    @given(search_scenario())
    def test_tiered_matches_exhaustive(self, scenario):
        (
            grid, iterations, counts, max_depth, chunk_size, screen,
            resume_at,
        ) = scenario
        spec = jacobi_2d(grid=grid, iterations=iterations)
        space = DesignSpace.default(
            spec, counts, max_fused_depth=max_depth
        )
        designs = _mixed_candidates(spec, space)
        budget = _budget()
        reference = CandidateEvaluator().explore(
            designs, budget
        )
        driver = SearchDriver(
            evaluator=CandidateEvaluator(),
            chunk_size=chunk_size,
            screen=screen,
        )
        result = driver.run(iter(designs), budget)
        _assert_same_best(result, reference)
        if screen != "latency":
            # Frontier parity needs a frontier-preserving screen (the
            # latency screen keeps only the optimum) — documented.
            assert _signature_view(
                result.frontier
            ) == _signature_view(pareto_front(list(reference.candidates)))

    @settings(max_examples=10, deadline=None)
    @given(search_scenario())
    def test_interrupt_and_resume_matches(self, tmp_path_factory, scenario):
        (
            grid, iterations, counts, max_depth, chunk_size, screen,
            resume_at,
        ) = scenario
        spec = jacobi_2d(grid=grid, iterations=iterations)
        space = DesignSpace.default(
            spec, counts, max_fused_depth=max_depth
        )
        designs = _mixed_candidates(spec, space)
        path = tmp_path_factory.mktemp("search")
        try:
            _search(path, designs[: resume_at * chunk_size], chunk_size, screen)
        except DesignSpaceError:
            pass  # truncated prefix may hold no feasible design
        with DesignStore(path) as store:
            stored = len(store)
        result, resumed = _search(path, designs, chunk_size, screen)
        reference = SearchDriver(
            evaluator=CandidateEvaluator(),
            chunk_size=chunk_size,
            screen=screen,
        )
        expected = reference.run(iter(designs), _budget())
        # The prefix's chunks come back from the store; the rest is
        # scored exactly as a fresh search scores it.
        assert result.stats.store_hits <= stored
        assert (
            result.stats.store_hits + resumed.report.tier1_evaluations
            == reference.report.tier1_evaluations
        )
        _assert_same_best(result, expected)
        assert _signature_view(result.frontier) == _signature_view(
            expected.frontier
        )
