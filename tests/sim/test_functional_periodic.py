"""Tests for tiled execution under the PERIODIC boundary policy."""

import dataclasses

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


def periodic(spec):
    return dataclasses.replace(spec, boundary=BoundaryPolicy.PERIODIC)


def assert_match(spec, design):
    ref = run_reference(spec)
    out = FunctionalExecutor(design).interpret()
    for field in spec.pattern.fields:
        assert np.array_equal(ref[field], out[field]), field


class TestPeriodicBitwise:
    def test_baseline(self):
        spec = periodic(jacobi_2d(grid=(32, 32), iterations=6))
        assert_match(spec, make_baseline_design(spec, (8, 8), (2, 2), 3))

    def test_pipe_shared(self):
        spec = periodic(jacobi_2d(grid=(32, 32), iterations=6))
        assert_match(
            spec, make_pipe_shared_design(spec, (8, 8), (2, 2), 3)
        )

    def test_heterogeneous(self):
        spec = periodic(jacobi_2d(grid=(32, 32), iterations=6))
        assert_match(
            spec, make_heterogeneous_design(spec, (16, 16), (2, 2), 3)
        )

    def test_1d_wraparound(self):
        spec = periodic(
            get_benchmark("jacobi-1d", grid=(48,), iterations=7)
        )
        assert_match(spec, make_pipe_shared_design(spec, (12,), (2,), 3))

    def test_3d(self):
        spec = periodic(
            get_benchmark("jacobi-3d", grid=(12, 12, 12), iterations=4)
        )
        assert_match(
            spec, make_pipe_shared_design(spec, (6, 6, 6), (2, 2, 2), 2)
        )

    def test_deep_cone_wraps_multiple_times(self):
        # Cone margin r*h exceeds the grid extent: ghost gathers wrap
        # more than once.
        spec = periodic(jacobi_2d(grid=(12, 12), iterations=16))
        design = make_baseline_design(spec, (6, 6), (2, 2), 16)
        assert_match(spec, design)

    def test_translation_equivariance(self):
        """Tiled periodic execution commutes with cyclic shifts."""
        spec = periodic(jacobi_2d(grid=(24, 24), iterations=4))
        design = make_pipe_shared_design(spec, (12, 12), (2, 2), 2)
        state = spec.initial_state()
        rolled = {"a": np.roll(state["a"], (5, 7), axis=(0, 1))}
        executor = FunctionalExecutor(design)
        out_plain = executor.interpret(state=state)
        out_rolled = executor.interpret(state=rolled)
        assert np.array_equal(
            np.roll(out_plain["a"], (5, 7), axis=(0, 1)),
            out_rolled["a"],
        )


class TestClampRejected:
    def test_clamp_rejected_with_reason(self):
        spec = dataclasses.replace(
            jacobi_2d(grid=(16, 16), iterations=2),
            boundary=BoundaryPolicy.CLAMP,
        )
        design = make_baseline_design(spec, (8, 8), (2, 2), 2)
        with pytest.raises(SpecificationError, match="CLAMP"):
            FunctionalExecutor(design)
