"""Tests for the functional executor's interpreter: the bitwise oracle."""

import numpy as np
import pytest

from repro.errors import SpecificationError
from repro.sim.functional import FunctionalExecutor
from repro.stencil import (
    BoundaryPolicy,
    get_benchmark,
    jacobi_2d,
    run_reference,
)
from repro.tiling import (
    make_baseline_design,
    make_heterogeneous_design,
    make_pipe_shared_design,
)


def assert_bitwise_match(spec, design):
    ref = run_reference(spec)
    out = FunctionalExecutor(design).interpret()
    for field in spec.pattern.fields:
        assert np.array_equal(ref[field], out[field]), field


class TestBitwiseEquivalence:
    def test_baseline(self, small_jacobi2d, baseline_design):
        assert_bitwise_match(small_jacobi2d, baseline_design)

    def test_pipe_shared(self, small_jacobi2d, pipe_design):
        assert_bitwise_match(small_jacobi2d, pipe_design)

    def test_heterogeneous(self, small_jacobi2d, hetero_design):
        assert_bitwise_match(small_jacobi2d, hetero_design)

    def test_1d(self, small_jacobi1d):
        design = make_heterogeneous_design(small_jacobi1d, (32,), (4,), 3)
        assert_bitwise_match(small_jacobi1d, design)

    def test_3d(self, small_jacobi3d):
        design = make_pipe_shared_design(
            small_jacobi3d, (4, 4, 4), (2, 2, 2), 2
        )
        assert_bitwise_match(small_jacobi3d, design)

    def test_multi_field_fdtd(self, small_fdtd2d):
        design = make_pipe_shared_design(small_fdtd2d, (6, 6), (2, 2), 3)
        assert_bitwise_match(small_fdtd2d, design)

    def test_aux_input_hotspot(self, small_hotspot2d):
        design = make_heterogeneous_design(
            small_hotspot2d, (16, 16), (2, 2), 3
        )
        assert_bitwise_match(small_hotspot2d, design)

    def test_wide_radius(self):
        spec = get_benchmark("wide-star-1d", grid=(48,), iterations=6)
        design = make_pipe_shared_design(spec, (12,), (2,), 3)
        assert_bitwise_match(spec, design)

    def test_indivisible_depth_partial_last_block(self):
        # 7 iterations at h=3: two full blocks plus a 1-iteration tail.
        spec = jacobi_2d(grid=(24, 24), iterations=7)
        design = make_pipe_shared_design(spec, (12, 12), (2, 2), 3)
        assert_bitwise_match(spec, design)

    def test_multiple_regions(self):
        # 48x48 grid with a 16x16 region: 9 regions per block.
        spec = jacobi_2d(grid=(48, 48), iterations=4)
        design = make_heterogeneous_design(spec, (16, 16), (2, 2), 2)
        assert_bitwise_match(spec, design)

    def test_asymmetric_tile_grid(self):
        spec = jacobi_2d(grid=(24, 36), iterations=4)
        design = make_pipe_shared_design(spec, (12, 6), (2, 6), 2)
        assert_bitwise_match(spec, design)

    def test_deep_fusion_beyond_tile_size(self):
        # h large relative to the tile: cones overlap tiles entirely.
        spec = jacobi_2d(grid=(32, 32), iterations=12)
        design = make_baseline_design(spec, (8, 8), (2, 2), 6)
        assert_bitwise_match(spec, design)


class TestIterationControl:
    def test_explicit_iterations(self, small_jacobi2d, pipe_design):
        ref = run_reference(small_jacobi2d, iterations=5)
        out = FunctionalExecutor(pipe_design).interpret(iterations=5)
        assert np.array_equal(ref["a"], out["a"])

    def test_zero_iterations_identity(self, small_jacobi2d, pipe_design):
        state = small_jacobi2d.initial_state()
        out = FunctionalExecutor(pipe_design).interpret(
            state=state, iterations=0
        )
        assert np.array_equal(out["a"], state["a"])

    def test_custom_state_and_aux(self, small_hotspot2d):
        design = make_pipe_shared_design(
            small_hotspot2d, (16, 16), (2, 2), 2
        )
        state = {
            "a": np.random.default_rng(3)
            .uniform(size=(32, 32))
            .astype(np.float32)
        }
        aux = {"power": np.zeros((32, 32), dtype=np.float32)}
        ref = run_reference(small_hotspot2d, state=state, aux=aux)
        out = FunctionalExecutor(design).interpret(state=state, aux=aux)
        assert np.array_equal(ref["a"], out["a"])

    def test_input_not_mutated(self, small_jacobi2d, pipe_design):
        state = small_jacobi2d.initial_state()
        snapshot = state["a"].copy()
        FunctionalExecutor(pipe_design).interpret(state=state)
        assert np.array_equal(state["a"], snapshot)


class TestValidation:
    def test_indivisible_region_rejected(self, small_jacobi2d):
        design = make_pipe_shared_design(small_jacobi2d, (7, 7), (2, 2), 2)
        with pytest.raises(SpecificationError, match="not divisible"):
            FunctionalExecutor(design)

    def test_clamp_boundary_rejected(self, small_jacobi2d):
        import dataclasses

        clamped = dataclasses.replace(
            small_jacobi2d, boundary=BoundaryPolicy.CLAMP
        )
        design = make_pipe_shared_design(clamped, (8, 8), (2, 2), 2)
        with pytest.raises(SpecificationError, match="CLAMP"):
            FunctionalExecutor(design)
