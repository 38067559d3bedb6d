"""Deterministic work guards for the DSE hot path.

These count calls; they time nothing.  Scoring a candidate must never
walk its tiles (the batch engines read tile columns built from the
grid's extents, and pipes are sized in closed form), and a tiered
search estimates each candidate's resources once, in Tier-0.
"""

import pytest

from repro.dse import (
    CandidateEvaluator,
    SearchDriver,
    optimize_full,
)
from repro.dse import evaluator as evaluator_module
from repro.program import ProgramEvaluator, get_program
from repro.program.dse import optimize_program
from repro.stencil import jacobi_2d
from repro.tiling.tile import TileGrid

SMALL = dict(max_kernels=4, max_fused_depth=4)


@pytest.fixture
def no_tile_walk(monkeypatch):
    """Make any ``TileGrid.tiles()`` call fail the test."""

    def refuse(self):
        raise AssertionError("TileGrid.tiles() reached from the DSE")

    monkeypatch.setattr(TileGrid, "tiles", refuse)


@pytest.fixture
def estimate_calls(monkeypatch):
    """Record the batch size of every ``estimate_batch`` call."""
    calls = []
    real = evaluator_module.estimate_batch

    def counting(designs, *args, **kwargs):
        calls.append(len(designs))
        return real(designs, *args, **kwargs)

    monkeypatch.setattr(evaluator_module, "estimate_batch", counting)
    return calls


def _program():
    return get_program("fdtd-two-field", grid=(32, 32), iterations=2)


class TestNoTileWalk:
    def test_optimize_full_exhaustive(self, no_tile_walk):
        spec = jacobi_2d(grid=(64, 64), iterations=8)
        results = optimize_full(spec, **SMALL)
        assert set(results) == {"baseline", "pipe-shared", "heterogeneous"}

    @pytest.mark.parametrize("screen", ["latency", "pareto"])
    def test_optimize_full_tiered(self, no_tile_walk, screen):
        spec = jacobi_2d(grid=(64, 64), iterations=8)
        driver = SearchDriver(evaluator=CandidateEvaluator(), screen=screen)
        results = optimize_full(spec, driver=driver, **SMALL)
        assert all(r.frontier for r in results.values())

    def test_optimize_program_exhaustive(self, no_tile_walk):
        result = optimize_program(_program())
        assert result.best is not None

    @pytest.mark.parametrize("screen", ["latency", "pareto"])
    def test_optimize_program_tiered(self, no_tile_walk, screen):
        driver = SearchDriver(
            evaluator=ProgramEvaluator(), chunk_size=64, screen=screen
        )
        result = optimize_program(_program(), driver=driver)
        assert result.best is not None


class TestOneEstimatePerCandidate:
    def test_tiered_optimize_full_estimates_once_per_chunk(
        self, estimate_calls
    ):
        """W: each design kind's 810 candidates fit in one chunk."""
        spec = jacobi_2d(grid=(256, 256), iterations=32)
        knobs = dict(unroll=2, max_kernels=8, max_fused_depth=16)
        driver = SearchDriver(evaluator=CandidateEvaluator(), screen="latency")
        tiered = optimize_full(spec, driver=driver, **knobs)
        assert estimate_calls == [810, 810, 810]

        del estimate_calls[:]
        exhaustive = optimize_full(
            spec, evaluator=CandidateEvaluator(), **knobs
        )
        assert estimate_calls == [810, 810, 810]
        for label, result in exhaustive.items():
            best = tiered[label].best
            assert best.design.signature() == result.best.design.signature()
            assert best.predicted_cycles == result.best.predicted_cycles
            assert best.resources == result.best.resources

    def test_tiered_program_search_estimates_once_per_chunk(
        self, estimate_calls
    ):
        driver = SearchDriver(
            evaluator=ProgramEvaluator(), chunk_size=64, screen="latency"
        )
        result = optimize_program(_program(), driver=driver)
        assert len(estimate_calls) == driver.report.chunks
        reference = optimize_program(_program())
        assert (
            result.best.design.signature()
            == reference.best.design.signature()
        )
        assert result.best.predicted_cycles == reference.best.predicted_cycles
        assert result.best.resources == reference.best.resources

    def test_program_screen_scores_each_stage_design_once(
        self, estimate_calls
    ):
        engine = ProgramEvaluator()
        program = _program()
        driver = SearchDriver(evaluator=engine, chunk_size=10_000)
        optimize_program(program, driver=driver)
        [screened] = estimate_calls
        stage_designs = {
            d.signature()
            for candidate in _candidates(program)
            for _name, d in candidate.stage_designs
        }
        assert screened == len(stage_designs)


def _candidates(program):
    from repro.program.dse import program_candidates, stage_design_options

    options = {
        stage.name: stage_design_options(stage.spec)
        for stage in program.stages
    }
    return list(program_candidates(program, options))
