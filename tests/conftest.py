"""Shared fixtures: small, fast specs and designs for the test suite."""

from __future__ import annotations

import os
import tempfile

import pytest

# Keep any kernels tests compile out of the user's ~/.cache.
os.environ.setdefault(
    "REPRO_JIT_CACHE", tempfile.mkdtemp(prefix="repro-jit-cache-")
)

from repro.stencil import fdtd_2d, get_benchmark, hotspot_2d, jacobi_2d
from repro.tiling import (
    make_baseline_design,
    make_heterogeneous_design,
    make_pipe_shared_design,
)


@pytest.fixture
def small_jacobi2d():
    """A 32x32 Jacobi-2D spec, 8 iterations."""
    return jacobi_2d(grid=(32, 32), iterations=8)


@pytest.fixture
def small_jacobi1d():
    """A 64-cell Jacobi-1D spec, 12 iterations."""
    return get_benchmark("jacobi-1d", grid=(64,), iterations=12)


@pytest.fixture
def small_jacobi3d():
    """A 16^3 Jacobi-3D spec, 6 iterations."""
    return get_benchmark("jacobi-3d", grid=(16, 16, 16), iterations=6)


@pytest.fixture
def small_fdtd2d():
    """A 24x24 FDTD-2D spec (3 coupled fields), 5 iterations."""
    return fdtd_2d(grid=(24, 24), iterations=5)


@pytest.fixture
def small_hotspot2d():
    """A 32x32 HotSpot-2D spec (aux power input), 6 iterations."""
    return hotspot_2d(grid=(32, 32), iterations=6)


@pytest.fixture
def baseline_design(small_jacobi2d):
    """2x2 baseline design with h=4 on the small Jacobi-2D."""
    return make_baseline_design(small_jacobi2d, (8, 8), (2, 2), 4)


@pytest.fixture
def pipe_design(small_jacobi2d):
    """2x2 pipe-shared design with h=4 on the small Jacobi-2D."""
    return make_pipe_shared_design(small_jacobi2d, (8, 8), (2, 2), 4)


@pytest.fixture
def hetero_design(small_jacobi2d):
    """2x2 heterogeneous design with h=4 on the small Jacobi-2D."""
    return make_heterogeneous_design(small_jacobi2d, (16, 16), (2, 2), 4)


@pytest.fixture
def paper_jacobi2d():
    """Paper-scale Jacobi-2D spec (no arrays are allocated)."""
    return jacobi_2d()
