"""Closed-form tile geometry against the per-tile walks it replaces.

The batch engines read tile columns built from ``TileGrid.extents``
and size pipes with a closed-form peak; both must equal what walking
``TileGrid.tiles()`` gives, tile by tile and in order.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencil.pattern import FieldUpdate, StencilPattern, Tap
from repro.stencil.spec import StencilSpec
from repro.tiling import (
    DesignKind,
    TileGrid,
    make_baseline_design,
    make_heterogeneous_design,
    make_pipe_shared_design,
)
from repro.tiling.balancing import balanced_tile_grid
from repro.tiling.design import auto_pipe_depth, fifo_depth
from repro.tiling.tile import tile_columns

counts_st = st.integers(min_value=1, max_value=8)
radius_st = st.integers(min_value=0, max_value=3)
depth_st = st.integers(min_value=1, max_value=12)


@st.composite
def tile_grids(draw, ndim):
    """A uniform or a workload-balanced grid with 1-8 tiles per dim."""
    counts = tuple(draw(counts_st) for _ in range(ndim))
    if draw(st.booleans()):
        shape = tuple(
            draw(st.integers(min_value=1, max_value=24)) for _ in range(ndim)
        )
        return TileGrid.uniform(shape, counts)
    radius = tuple(draw(radius_st) for _ in range(ndim))
    min_extent = max(1, max(radius))
    region = tuple(
        c * draw(st.integers(min_value=min_extent, max_value=24))
        for c in counts
    )
    return balanced_tile_grid(
        region, counts, radius, draw(depth_st), min_extent=min_extent
    )


@st.composite
def grid_batches(draw):
    """Several equal-rank grids, as one engine call would see them."""
    ndim = draw(st.integers(min_value=1, max_value=3))
    return draw(st.lists(tile_grids(ndim), min_size=1, max_size=6))


class TestTileColumns:
    @settings(max_examples=150, deadline=None)
    @given(grid_batches())
    def test_equals_tile_walk_in_order(self, grids):
        columns = tile_columns(grids)
        walked = [(t.shape, t.outer) for g in grids for t in g.tiles()]
        got = list(
            zip(
                map(tuple, columns.shape.tolist()),
                map(tuple, columns.outer.tolist()),
            )
        )
        assert got == walked
        sizes = [g.parallelism for g in grids]
        assert columns.starts.tolist() == [
            sum(sizes[:i]) for i in range(len(grids))
        ]
        assert columns.owner.tolist() == [
            i for i, size in enumerate(sizes) for _ in range(size)
        ]

    @settings(max_examples=60, deadline=None)
    @given(grid_batches(), st.data())
    def test_sides_match_design_rules(self, grids, data):
        sharing = np.asarray(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(grids), max_size=len(grids)
                )
            )
        )
        cone, halo = tile_columns(grids).sides(sharing)
        expected_cone, expected_halo = [], []
        for grid, shares in zip(grids, sharing):
            for tile in grid.tiles():
                if shares:
                    expected_cone.append(tile.outer)
                    expected_halo.append(tile.shared)
                else:
                    expected_cone.append((2,) * grid.ndim)
                    expected_halo.append((0,) * grid.ndim)
        assert list(map(tuple, cone.tolist())) == expected_cone
        assert list(map(tuple, halo.tolist())) == expected_halo

    def test_cached_grid_attributes(self):
        grid = TileGrid([[3, 5, 2], [4, 6]])
        assert grid.counts == (3, 2)
        assert grid.parallelism == 6
        assert grid.region_shape == (10, 10)
        assert grid.max_extent == 6


def brute_force_peak(design):
    """The per-tile walk the closed form replaced (the test oracle)."""
    if not design.sharing or design.fused_depth < 2:
        return 0
    peak = 0
    for tile in design.tiles:
        footprint = design.footprint_shape(tile, 2)
        for d, (r, n_shared) in enumerate(
            zip(design.radius, design.halo_sides(tile))
        ):
            if n_shared == 0 or r == 0:
                continue
            transverse = math.prod(
                footprint[j] for j in range(len(footprint)) if j != d
            )
            peak = max(peak, r * transverse)
    return peak


def axis_spec(radius, grid_shape, iterations):
    """A one-field stencil with radius ``r_d`` along each dimension
    (zero allowed), reading ``±r_d`` along every dimension with
    ``r_d > 0`` and the centre."""
    ndim = len(radius)
    taps = [Tap("a", (0,) * ndim, 0.5)]
    for d, r in enumerate(radius):
        for sign in (-1, 1):
            if r:
                offset = tuple(sign * r if j == d else 0 for j in range(ndim))
                taps.append(Tap("a", offset, 0.25))
    pattern = StencilPattern(
        name=f"axis-{'-'.join(map(str, radius))}",
        ndim=ndim,
        fields=("a",),
        updates={"a": FieldUpdate(taps=tuple(taps))},
    )
    return StencilSpec(
        name=pattern.name,
        pattern=pattern,
        grid_shape=grid_shape,
        iterations=iterations,
    )


@st.composite
def designs(draw):
    """A design of any kind, with zero-radius and single-tile dims and
    depths from 1 up (1 and 2 drawn often)."""
    ndim = draw(st.integers(min_value=1, max_value=3))
    radius = tuple(draw(radius_st) for _ in range(ndim))
    counts = tuple(
        draw(st.sampled_from([1, 1, 2, 3, 4, 5])) for _ in range(ndim)
    )
    min_extent = max(1, max(radius))
    shape = tuple(
        draw(st.integers(min_value=min_extent, max_value=12))
        for _ in range(ndim)
    )
    depth = draw(st.sampled_from([1, 2, 2, 3, 4, 7]))
    grid = tuple(
        max(w * c, 2 * max(radius) + 1) for w, c in zip(shape, counts)
    )
    spec = axis_spec(radius, grid, iterations=8)
    kind = draw(st.sampled_from(list(DesignKind)))
    if kind is DesignKind.BASELINE:
        return make_baseline_design(spec, shape, counts, depth)
    if kind is DesignKind.PIPE_SHARED:
        return make_pipe_shared_design(spec, shape, counts, depth)
    region = tuple(w * c for w, c in zip(shape, counts))
    return make_heterogeneous_design(spec, region, counts, depth)


class TestClosedFormPipeSizing:
    @settings(max_examples=300, deadline=None)
    @given(designs())
    def test_peak_equals_tile_walk(self, design):
        assert design.peak_face_transfer_cells() == brute_force_peak(design)

    @settings(max_examples=100, deadline=None)
    @given(designs())
    def test_constructors_size_pipes_from_the_walk(self, design):
        if design.sharing:
            assert design.pipe_depth == fifo_depth(brute_force_peak(design))
            assert design.pipe_depth == auto_pipe_depth(design)
        else:
            assert design.pipe_depth == 512

    def test_zero_radius_and_single_tile_dims_carry_no_faces(self):
        spec = axis_spec((0, 2), (64, 64), iterations=8)
        # Dim 0 has radius 0 (no strip); dim 1 has one tile (no face).
        design = make_pipe_shared_design(spec, (8, 16), (4, 1), 3)
        assert design.peak_face_transfer_cells() == 0
        assert brute_force_peak(design) == 0

    def test_depth_one_exchanges_nothing(self, small_jacobi2d):
        design = make_pipe_shared_design(small_jacobi2d, (8, 8), (2, 2), 1)
        assert design.peak_face_transfer_cells() == 0
        assert design.pipe_depth == fifo_depth(0)
