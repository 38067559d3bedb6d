"""JIT backend parity: jit == numpy == reference, bit for bit.

The compiled backend's whole contract is bitwise equality with the
interpreter (docs/SIM.md); every test here compares all three
executors on the same design.  The suite is skipped wholesale when the
JIT is unavailable (no usable C compiler or no ``cffi``) — the
fallback behavior for that case is covered (with a hidden compiler and
a hidden ``cffi``) in test_jit_backend.py.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sim import jit
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

from tests.integration.test_properties import random_cases

pytestmark = pytest.mark.skipif(
    jit.resolve_backend() != "jit",
    reason="JIT unavailable (no working C compiler or no cffi)",
)


@pytest.fixture(scope="module", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Compile into a throwaway cache; never touch ``~/.cache``."""
    root = tmp_path_factory.mktemp("jit-cache")
    previous = os.environ.get(jit.CACHE_ENV)
    os.environ[jit.CACHE_ENV] = str(root)
    jit.clear_memo()
    yield
    if previous is None:
        os.environ.pop(jit.CACHE_ENV, None)
    else:
        os.environ[jit.CACHE_ENV] = previous
    jit.clear_memo()


def assert_three_way_match(spec, design):
    ref = run_reference(spec)
    interpreted = FunctionalExecutor(design).interpret()
    compiled = jit.run_jit(design)
    for field in spec.pattern.fields:
        assert np.array_equal(ref[field], interpreted[field]), field
        assert np.array_equal(ref[field], compiled[field]), field


def periodic(spec):
    return dataclasses.replace(spec, boundary=BoundaryPolicy.PERIODIC)


MAKERS = {
    "baseline": lambda spec, h: make_baseline_design(
        spec, (8, 8), (2, 2), h
    ),
    "pipe-shared": lambda spec, h: make_pipe_shared_design(
        spec, (8, 8), (2, 2), h
    ),
    "heterogeneous": lambda spec, h: make_heterogeneous_design(
        spec, (16, 16), (2, 2), h
    ),
}


class TestDesignKindsAndBoundaries:
    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("boundary", ["frozen", "periodic"])
    @pytest.mark.parametrize("fused", [1, 3])
    def test_jacobi2d(self, kind, boundary, fused):
        spec = jacobi_2d(grid=(32, 32), iterations=6)
        if boundary == "periodic":
            spec = periodic(spec)
        assert_three_way_match(spec, MAKERS[kind](spec, fused))

    def test_1d(self, small_jacobi1d):
        design = make_heterogeneous_design(small_jacobi1d, (32,), (4,), 3)
        assert_three_way_match(small_jacobi1d, design)

    def test_3d(self, small_jacobi3d):
        design = make_pipe_shared_design(
            small_jacobi3d, (4, 4, 4), (2, 2, 2), 2
        )
        assert_three_way_match(small_jacobi3d, design)

    def test_multi_field_fdtd(self, small_fdtd2d):
        design = make_pipe_shared_design(small_fdtd2d, (6, 6), (2, 2), 3)
        assert_three_way_match(small_fdtd2d, design)

    def test_aux_input_hotspot(self, small_hotspot2d):
        design = make_heterogeneous_design(
            small_hotspot2d, (16, 16), (2, 2), 3
        )
        assert_three_way_match(small_hotspot2d, design)

    def test_wide_radius(self):
        spec = get_benchmark("wide-star-1d", grid=(48,), iterations=6)
        design = make_pipe_shared_design(spec, (12,), (2,), 3)
        assert_three_way_match(spec, design)

    def test_float64(self):
        spec = dataclasses.replace(
            jacobi_2d(grid=(24, 24), iterations=5), dtype="float64"
        )
        design = make_pipe_shared_design(spec, (6, 6), (2, 2), 2)
        assert_three_way_match(spec, design)

    def test_periodic_3d(self):
        spec = periodic(
            get_benchmark("jacobi-3d", grid=(12, 12, 12), iterations=4)
        )
        design = make_pipe_shared_design(
            spec, (3, 3, 3), (2, 2, 2), 2
        )
        assert_three_way_match(spec, design)


class TestEdgeCases:
    def test_zero_iterations_returns_initial_state(self, small_jacobi2d):
        design = make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)
        out = jit.run_jit(design, iterations=0)
        for name, grid in small_jacobi2d.initial_state().items():
            assert np.array_equal(grid, out[name])

    def test_nondivisible_fused_tail(self):
        # 7 iterations at h=3 -> blocks of 3, 3, 1.
        spec = jacobi_2d(grid=(32, 32), iterations=7)
        design = make_heterogeneous_design(spec, (16, 16), (2, 2), 3)
        assert_three_way_match(spec, design)

    def test_explicit_state_and_iterations(self, small_jacobi2d):
        design = make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)
        state = {
            name: grid * 2.0
            for name, grid in small_jacobi2d.initial_state().items()
        }
        interpreted = FunctionalExecutor(design).interpret(
            state=state, iterations=3
        )
        compiled = jit.run_jit(design, state=state, iterations=3)
        for field in small_jacobi2d.pattern.fields:
            assert np.array_equal(interpreted[field], compiled[field])

    def test_caller_arrays_not_mutated(self, small_jacobi2d):
        design = make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)
        state = small_jacobi2d.initial_state()
        snapshot = {k: v.copy() for k, v in state.items()}
        jit.run_jit(design, state=state)
        for name, grid in snapshot.items():
            assert np.array_equal(grid, state[name])


class TestPropertyParity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_cases())
    def test_random_frozen_designs(self, case):
        spec, design = case
        assert_three_way_match(spec, design)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_cases(boundaries=("frozen", "periodic")))
    def test_random_periodic_designs(self, case):
        spec, design = case
        assert_three_way_match(spec, design)
