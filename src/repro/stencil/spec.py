"""Complete stencil benchmark instances (pattern + problem parameters).

A :class:`StencilSpec` is everything the framework needs to know about a
workload: the update pattern, the grid extents ``W_d``, the iteration
count ``H``, the element type (``Δs`` in the paper's Table 1), the
boundary policy, and deterministic initial state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.stencil.boundary import BoundaryPolicy
from repro.stencil.pattern import StencilPattern
from repro.utils.validation import check_positive, check_positive_tuple


@dataclass(frozen=True)
class StencilSpec:
    """A fully-specified iterative stencil workload.

    Attributes:
        name: benchmark name (e.g. ``"jacobi-2d"``).
        pattern: the stencil update pattern.
        grid_shape: grid extents ``W_d``, one entry per dimension.
        iterations: total number of stencil iterations ``H``.
        dtype: numpy element type of every field and aux array.
        boundary: boundary policy (the paper's suite uses FROZEN).
        source: provenance label (e.g. ``"Polybench"``), for Table 2.
        seed: RNG seed used to build the deterministic initial state.
    """

    name: str
    pattern: StencilPattern
    grid_shape: Tuple[int, ...]
    iterations: int
    dtype: np.dtype = np.dtype(np.float32)
    boundary: BoundaryPolicy = BoundaryPolicy.FROZEN
    source: str = "custom"
    seed: int = 2017

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        object.__setattr__(
            self,
            "grid_shape",
            check_positive_tuple("grid_shape", self.grid_shape, self.ndim),
        )
        check_positive("iterations", self.iterations)
        for extent, radius in zip(self.grid_shape, self.pattern.radius):
            if extent <= 2 * radius:
                raise SpecificationError(
                    f"Grid extent {extent} too small for stencil radius "
                    f"{radius} in {self.name!r}"
                )

    @property
    def ndim(self) -> int:
        """Grid dimensionality ``D``."""
        return self.pattern.ndim

    @property
    def element_bytes(self) -> int:
        """``Δs``: bytes per grid cell per field."""
        return int(self.dtype.itemsize)

    @property
    def cell_state_bytes(self) -> int:
        """Bytes of state per grid cell across all fields."""
        return self.element_bytes * self.pattern.num_fields

    @property
    def total_cells(self) -> int:
        """Number of grid cells (product of ``W_d``)."""
        total = 1
        for extent in self.grid_shape:
            total *= extent
        return total

    @property
    def footprint_bytes(self) -> int:
        """Bytes of state for the whole grid across all fields."""
        return self.total_cells * self.cell_state_bytes

    def initial_state(self) -> Dict[str, np.ndarray]:
        """Deterministic initial field arrays, keyed by field name."""
        rng = np.random.default_rng(self.seed)
        return {
            name: rng.uniform(0.0, 1.0, size=self.grid_shape).astype(
                self.dtype
            )
            for name in self.pattern.fields
        }

    def aux_state(self) -> Dict[str, np.ndarray]:
        """Deterministic auxiliary (read-only) input arrays."""
        rng = np.random.default_rng(self.seed + 1)
        return {
            name: rng.uniform(0.0, 0.1, size=self.grid_shape).astype(
                self.dtype
            )
            for name in self.pattern.aux
        }

    def signature(self) -> Tuple:
        """Canonical hashable identity of the workload.

        Covers every field that influences evaluation (the pattern via
        its own signature, geometry, dtype, boundary, seed), so equal
        signatures imply identical model/resource/simulation results.
        The tuple is cached on the instance (the dataclass is frozen,
        so it can never go stale).
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = (
                self.name,
                self.pattern.signature(),
                self.grid_shape,
                self.iterations,
                self.dtype.str,
                self.boundary.name,
                self.source,
                self.seed,
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def with_grid(self, grid_shape: Sequence[int]) -> "StencilSpec":
        """Copy with a different grid size (for scaled-down testing)."""
        return replace(self, grid_shape=tuple(int(g) for g in grid_shape))

    def with_iterations(self, iterations: int) -> "StencilSpec":
        """Copy with a different iteration count."""
        return replace(self, iterations=int(iterations))

    def describe(self) -> str:
        """One-line human-readable description (Table 2 row)."""
        size = " x ".join(str(w) for w in self.grid_shape)
        return (
            f"{self.name}: {self.source}, input {size}, "
            f"{self.iterations} iterations, {self.pattern.num_fields} "
            f"field(s), radius {self.pattern.radius}"
        )
