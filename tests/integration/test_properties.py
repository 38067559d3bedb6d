"""Property-based tests (hypothesis) on the framework's core invariants.

The central property: for *any* linear stencil, grid, tiling, and fused
depth, every design kind executed by the functional executor matches
the naive reference bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.functional import FunctionalExecutor
from repro.stencil.pattern import FieldUpdate, StencilPattern, Tap
from repro.stencil.reference import run_reference
from repro.stencil.spec import StencilSpec
from repro.tiling import (
    make_baseline_design,
    make_heterogeneous_design,
    make_pipe_shared_design,
)

# -- strategies -------------------------------------------------------------


@st.composite
def random_patterns(draw, max_ndim=2, max_radius=2):
    """A random single-field linear stencil pattern."""
    ndim = draw(st.integers(1, max_ndim))
    radius = draw(st.integers(1, max_radius))
    num_taps = draw(st.integers(1, 5))
    offsets = {(0,) * ndim}
    for _ in range(num_taps):
        offsets.add(
            tuple(
                draw(st.integers(-radius, radius)) for _ in range(ndim)
            )
        )
    taps = tuple(
        Tap(
            "a",
            off,
            draw(
                st.floats(
                    -1.0, 1.0, allow_nan=False, allow_infinity=False
                )
            ),
        )
        for off in sorted(offsets)
    )
    return StencilPattern(
        name="random",
        ndim=ndim,
        fields=("a",),
        updates={"a": FieldUpdate(taps=taps)},
    )


@st.composite
def random_cases(draw, boundaries=("frozen",)):
    """(spec, design) pairs over all design kinds."""
    from repro.stencil.boundary import BoundaryPolicy

    boundary = BoundaryPolicy(draw(st.sampled_from(boundaries)))
    pattern = draw(random_patterns())
    ndim = pattern.ndim
    counts = tuple(draw(st.sampled_from([1, 2])) for _ in range(ndim))
    tile = tuple(
        draw(st.sampled_from([4, 6, 8])) for _ in range(ndim)
    )
    regions = tuple(draw(st.sampled_from([1, 2])) for _ in range(ndim))
    grid = tuple(
        t * c * g for t, c, g in zip(tile, counts, regions)
    )
    # Grids must comfortably exceed the frozen boundary layer.
    if any(g <= 2 * r for g, r in zip(grid, pattern.radius)):
        grid = tuple(
            max(g, 2 * r + 2) for g, r in zip(grid, pattern.radius)
        )
        regions = (1,) * ndim
        tile = grid
        counts = (1,) * ndim
    iterations = draw(st.integers(1, 6))
    fused = draw(st.integers(1, min(4, iterations)))
    spec = StencilSpec(
        name="random",
        pattern=pattern,
        grid_shape=grid,
        iterations=iterations,
        boundary=boundary,
    )
    kind = draw(st.sampled_from(["baseline", "pipe", "hetero"]))
    if kind == "baseline":
        design = make_baseline_design(spec, tile, counts, fused)
    elif kind == "pipe":
        design = make_pipe_shared_design(spec, tile, counts, fused)
    else:
        region_shape = tuple(
            t * c for t, c in zip(tile, counts)
        )
        design = make_heterogeneous_design(
            spec, region_shape, counts, fused
        )
    return spec, design


# -- properties -------------------------------------------------------------


class TestFunctionalEquivalence:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_cases())
    def test_any_design_matches_reference_bitwise(self, case):
        spec, design = case
        ref = run_reference(spec)
        out = FunctionalExecutor(design).interpret()
        for field in spec.pattern.fields:
            assert np.array_equal(ref[field], out[field])

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_cases(boundaries=("frozen", "periodic")))
    def test_periodic_designs_match_reference_bitwise(self, case):
        """The bitwise invariant also holds under periodic wrapping."""
        spec, design = case
        ref = run_reference(spec)
        out = FunctionalExecutor(design).interpret()
        for field in spec.pattern.fields:
            assert np.array_equal(ref[field], out[field])


class TestGeneratedCodeEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(random_cases())
    def test_generated_kernels_match_reference_bitwise(self, case):
        """The emitted executable kernels — running through real pipes
        under cooperative scheduling — agree with the reference for any
        linear stencil, tiling, and fused depth."""
        from repro.codegen.pyexec import execute_generated

        spec, design = case
        ref = run_reference(spec)
        out = execute_generated(design)
        for field in spec.pattern.fields:
            assert np.array_equal(ref[field], out[field])


class TestGeometryInvariants:
    @settings(max_examples=40, deadline=None)
    @given(random_cases())
    def test_region_tiles_partition(self, case):
        _, design = case
        total = sum(t.cells for t in design.tiles)
        assert total == math.prod(design.tile_grid.region_shape)

    @settings(max_examples=40, deadline=None)
    @given(random_cases())
    def test_compute_counts_consistent(self, case):
        _, design = case
        assert design.region_compute_cells() == (
            design.region_useful_cells()
            + design.region_redundant_cells()
        )
        assert design.region_redundant_cells() >= 0

    @settings(max_examples=40, deadline=None)
    @given(random_cases())
    def test_read_footprint_covers_first_iteration(self, case):
        _, design = case
        for tile in design.tiles:
            first = design.footprint_shape(tile, 1)
            read = design.tile_read_shape(tile)
            assert all(r >= f for r, f in zip(read, first))

    @settings(max_examples=40, deadline=None)
    @given(random_cases())
    def test_slowest_tile_maximal(self, case):
        _, design = case
        slowest = design.tile_compute_cells(design.slowest_tile())
        assert all(
            design.tile_compute_cells(t) <= slowest
            for t in design.tiles
        )


class TestModelSimulatorInvariants:
    @settings(max_examples=25, deadline=None)
    @given(random_cases())
    def test_model_never_exceeds_simulator(self, case):
        """The refined model omits launch stagger and lockstep waits,
        so it can never predict more cycles than the simulator measures."""
        from repro.model import PerformanceModel
        from repro.sim import simulate

        _, design = case
        predicted = PerformanceModel().predict_cycles(design)
        measured = simulate(design).total_cycles
        assert predicted <= measured * 1.0001

    @settings(max_examples=25, deadline=None)
    @given(random_cases())
    def test_breakdowns_sum(self, case):
        from repro.sim import simulate

        _, design = case
        result = simulate(design)
        bd = result.breakdown
        assert bd.total == pytest.approx(result.total_cycles)
