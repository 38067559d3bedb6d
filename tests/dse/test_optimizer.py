"""Tests for the model-driven optimizer."""

import pytest

from repro.dse import (
    CandidateEvaluator,
    ResourceBudget,
    optimize_baseline,
    optimize_heterogeneous,
    optimize_pipe_shared,
)
from repro.errors import DesignSpaceError
from repro.fpga.resources import ResourceVector
from repro.stencil import jacobi_2d
from repro.tiling import DesignKind, make_baseline_design


@pytest.fixture(scope="module")
def spec():
    return jacobi_2d(grid=(256, 256), iterations=64)


@pytest.fixture(scope="module")
def baseline(spec):
    return make_baseline_design(spec, (32, 32), (2, 2), 8, unroll=2)


class TestExplore:
    def test_returns_fastest_feasible(self, spec, baseline):
        candidates = [
            baseline.with_fused_depth(h) for h in (1, 2, 4, 8, 16)
        ]
        from repro.fpga.resources import VIRTEX7_690T

        result = CandidateEvaluator().explore(
            candidates, ResourceBudget.from_device(VIRTEX7_690T)
        )
        assert result.evaluated == 5
        best_cycles = result.best.predicted_cycles
        assert all(
            best_cycles <= c.predicted_cycles for c in result.candidates
        )

    def test_infeasible_budget_raises(self, baseline):
        tiny = ResourceBudget(limit=ResourceVector(1, 1, 1, 1))
        with pytest.raises(DesignSpaceError, match="No feasible design"):
            CandidateEvaluator().explore([baseline], tiny)

    def test_candidates_sorted(self, spec, baseline):
        from repro.fpga.resources import VIRTEX7_690T

        candidates = [baseline.with_fused_depth(h) for h in (1, 4, 8)]
        result = CandidateEvaluator().explore(
            candidates, ResourceBudget.from_device(VIRTEX7_690T)
        )
        cycles = [c.predicted_cycles for c in result.candidates]
        assert cycles == sorted(cycles)


class TestBaselineSearch:
    def test_finds_feasible_design(self, spec):
        result = optimize_baseline(spec, (2, 2), max_fused_depth=16)
        assert result.best.design.kind is DesignKind.BASELINE
        assert result.feasible > 0

    def test_prefers_fusion_over_none(self, spec):
        result = optimize_baseline(spec, (2, 2), max_fused_depth=16)
        assert result.best.design.fused_depth > 1


class TestConstrainedSearches:
    def test_pipe_shared_same_layout(self, spec, baseline):
        result = optimize_pipe_shared(spec, baseline)
        best = result.best.design
        assert best.kind is DesignKind.PIPE_SHARED
        assert best.tile_grid.counts == baseline.tile_grid.counts
        assert best.slowest_tile().shape == (32, 32)

    def test_hetero_region_preserved(self, spec, baseline):
        result = optimize_heterogeneous(spec, baseline)
        best = result.best.design
        assert best.kind is DesignKind.HETEROGENEOUS
        assert (
            best.tile_grid.region_shape
            == baseline.tile_grid.region_shape
        )

    def test_hetero_fits_baseline_budget(self, spec, baseline):
        from repro.fpga.estimator import ResourceEstimator

        result = optimize_heterogeneous(spec, baseline)
        estimator = ResourceEstimator()
        budget = ResourceBudget.from_design(baseline, estimator)
        assert budget.admits(result.best.design, estimator)

    def test_hetero_predicted_faster_than_baseline(self, spec, baseline):
        from repro.model import PerformanceModel

        result = optimize_heterogeneous(spec, baseline)
        model = PerformanceModel()
        assert result.best.predicted_cycles < model.predict_cycles(
            baseline
        )

    def test_hetero_deepens_fusion(self, spec, baseline):
        """Freed BRAM admits deeper cones (the paper's Table 3 trend)."""
        result = optimize_heterogeneous(spec, baseline)
        assert result.best.design.fused_depth >= baseline.fused_depth


class TestBudget:
    def test_from_design_slack(self, baseline):
        strict = ResourceBudget.from_design(baseline, slack=1.0)
        loose = ResourceBudget.from_design(baseline, slack=1.5)
        assert loose.limit.bram18 >= strict.limit.bram18

    def test_admits(self, baseline):
        budget = ResourceBudget.from_design(baseline)
        assert budget.admits(baseline)
