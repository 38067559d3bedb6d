"""Tests for sensitivity analysis."""

import pytest

from repro.dse.sensitivity import SensitivityAnalyzer
from repro.errors import DesignSpaceError
from repro.stencil import jacobi_2d
from repro.store import DesignStore
from repro.tiling import make_baseline_design, make_heterogeneous_design


@pytest.fixture(scope="module")
def designs():
    spec = jacobi_2d(grid=(512, 512), iterations=64)
    baseline = make_baseline_design(spec, (64, 64), (2, 2), 8, unroll=2)
    hetero = make_heterogeneous_design(
        spec, (128, 128), (2, 2), 16, unroll=2
    )
    return baseline, hetero


@pytest.fixture(scope="module")
def analyzer():
    return SensitivityAnalyzer()


class TestBandwidthSweep:
    def test_latency_decreases_with_bandwidth(self, analyzer, designs):
        baseline, _ = designs
        result = analyzer.sweep_bandwidth(
            baseline, [1.6e9, 6.4e9, 12.8e9, 25.6e9]
        )
        measured = [p.measured_cycles for p in result.points]
        assert measured == sorted(measured, reverse=True)

    def test_best_point_is_fastest(self, analyzer, designs):
        baseline, _ = designs
        result = analyzer.sweep_bandwidth(baseline, [1.6e9, 12.8e9])
        assert result.best().value == 12.8e9

    def test_model_underestimates_everywhere(self, analyzer, designs):
        _, hetero = designs
        result = analyzer.sweep_bandwidth(hetero, [3.2e9, 12.8e9])
        for point in result.points:
            assert point.model_error >= -0.01

    def test_empty_sweep_rejected(self, analyzer, designs):
        with pytest.raises(DesignSpaceError):
            analyzer.sweep_bandwidth(designs[0], [])


class TestPipeCostSweep:
    def test_sharing_design_sensitive(self, analyzer, designs):
        _, hetero = designs
        result = analyzer.sweep_pipe_cost(hetero, [1, 8, 32])
        measured = [p.measured_cycles for p in result.points]
        assert measured[-1] > measured[0]

    def test_baseline_insensitive(self, analyzer, designs):
        baseline, _ = designs
        result = analyzer.sweep_pipe_cost(baseline, [1, 32])
        assert result.measured_range() == pytest.approx(1.0)


class TestLaunchSweep:
    def test_latency_grows_with_stagger(self, analyzer, designs):
        baseline, _ = designs
        result = analyzer.sweep_launch_overhead(
            baseline, [0, 1000, 4000]
        )
        measured = [p.measured_cycles for p in result.points]
        assert measured == sorted(measured)

    def test_model_error_grows_with_stagger(self, analyzer, designs):
        """The stagger is exactly what the model omits, so the error
        must grow with it — the paper's explanation quantified."""
        baseline, _ = designs
        result = analyzer.sweep_launch_overhead(baseline, [0, 4000])
        assert result.points[1].model_error > result.points[0].model_error


class TestSpeedupSweep:
    def test_sharing_gain_grows_as_bandwidth_shrinks(
        self, analyzer, designs
    ):
        baseline, hetero = designs
        sweep = analyzer.speedup_vs_bandwidth(
            baseline, hetero, [1.6e9, 6.4e9, 25.6e9]
        )
        speedups = [s for _, s in sweep]
        assert speedups[0] > speedups[-1]
        assert all(s > 1.0 for s in speedups)


class TestSensitivityResume:
    def test_interrupted_sweep_resumes_identically(
        self, tmp_path, small_jacobi2d
    ):
        design = make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)
        bandwidths = [4e9, 8e9, 16e9]
        with DesignStore(tmp_path / "s") as store:
            cold = SensitivityAnalyzer(store=store)
            first = cold.sweep_bandwidth(design, bandwidths)
            assert cold.stats().evaluated == len(bandwidths)
        with DesignStore(tmp_path / "s") as store:
            resumed = SensitivityAnalyzer(store=store)
            second = resumed.sweep_bandwidth(design, bandwidths)
            # Predictions come from the store and the deterministic
            # simulator re-measures: nothing re-evaluates, and the
            # points are identical.
            assert resumed.stats().evaluated == 0
            assert resumed.stats().store_hits == len(bandwidths)
        assert second == first
