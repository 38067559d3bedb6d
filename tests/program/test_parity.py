"""Bitwise parity: fused program execution == stage-by-stage reference.

The contract: for every program design, running the mapped program
through the functional simulator (tiled, pipelined, JIT or interpreter
per stage) produces byte-identical arrays to composing the per-stage
naive reference kernels — across design kinds, boundary policies, and
dtypes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.program import (
    ProgramBuilder,
    ProgramFunctionalExecutor,
    blur_sobel_threshold,
    fdtd_two_field,
    program_candidates,
    run_program_functional,
    run_program_reference,
    stage_design_options,
)
from repro.sim.jit import resolve_backend
from repro.stencil.boundary import BoundaryPolicy
from repro.stencil.pattern import FieldUpdate, StencilPattern, Tap
from repro.stencil.spec import StencilSpec
from repro.tiling.design import DesignKind


def _stage_spec(name, grid, iterations, dtype, boundary, coeffs):
    pattern = StencilPattern(
        name=name,
        ndim=2,
        fields=("a",),
        updates={
            "a": FieldUpdate(
                taps=(
                    Tap("a", (0, 0), coeffs[0]),
                    Tap("a", (-1, 0), coeffs[1]),
                    Tap("a", (0, 1), coeffs[2]),
                )
            )
        },
    )
    return StencilSpec(
        name=name,
        pattern=pattern,
        grid_shape=grid,
        iterations=iterations,
        dtype=dtype,
        boundary=boundary,
    )


def _two_stage(boundary, dtype, iterations):
    builder = ProgramBuilder("pair")
    builder.stage(
        "one",
        _stage_spec(
            "stage-one", (8, 8), iterations, dtype, boundary,
            (0.5, 0.25, 0.25),
        ),
    )
    builder.stage(
        "two",
        _stage_spec(
            "stage-two", (8, 8), 1, dtype, boundary, (0.6, 0.2, 0.2)
        ),
    )
    builder.connect("one", "a", "two")
    return builder.build()


def _assert_program_parity(program, design, external=None):
    reference = run_program_reference(program, external=external)
    fused = run_program_functional(design, external=external)
    for name in program.topo_order():
        for field, expected in reference[name].items():
            actual = fused[name][field]
            assert actual.dtype == expected.dtype
            assert np.array_equal(expected, actual), (name, field)


class TestHypothesisParity:
    @settings(max_examples=25, deadline=None)
    @given(
        boundary=st.sampled_from(
            [BoundaryPolicy.FROZEN, BoundaryPolicy.PERIODIC]
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        kind=st.sampled_from(
            [DesignKind.BASELINE, DesignKind.PIPE_SHARED]
        ),
        iterations=st.integers(min_value=1, max_value=3),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_fused_matches_reference(
        self, boundary, dtype, kind, iterations, pick
    ):
        program = _two_stage(boundary, dtype, iterations)
        options = {
            stage.name: stage_design_options(stage.spec, kinds=(kind,))
            for stage in program.stages
        }
        candidates = list(program_candidates(program, options))
        design = candidates[pick % len(candidates)]
        _assert_program_parity(program, design)


class TestLibraryPrograms:
    @pytest.mark.parametrize(
        "schedule", ["coresident", "timeshared"]
    )
    def test_blur_sobel_threshold(self, schedule):
        program = blur_sobel_threshold(
            grid=(16, 16), blur_iterations=2, iterations=1
        )
        options = {
            stage.name: stage_design_options(stage.spec)
            for stage in program.stages
        }
        design = next(iter(program_candidates(program, options, schedule)))
        _assert_program_parity(program, design)

    def test_fdtd_two_field_aux_edge(self):
        program = fdtd_two_field(grid=(16, 16), iterations=3)
        options = {
            stage.name: stage_design_options(stage.spec)
            for stage in program.stages
        }
        design = next(iter(program_candidates(program, options)))
        _assert_program_parity(program, design)

    def test_external_inputs_thread_through_both_paths(self):
        program = blur_sobel_threshold(
            grid=(16, 16), blur_iterations=2, iterations=1
        )
        options = {
            stage.name: stage_design_options(stage.spec)
            for stage in program.stages
        }
        design = next(iter(program_candidates(program, options)))
        rng = np.random.default_rng(7)
        image = rng.normal(size=(16, 16)).astype(np.float32)
        _assert_program_parity(
            program, design, external={"blur": {"a": image}}
        )


@pytest.mark.skipif(
    resolve_backend() != "jit",
    reason="JIT unavailable (no working C compiler or no cffi)",
)
class TestJitParity:
    def test_jit_stages_match_reference(self):
        program = blur_sobel_threshold(
            grid=(16, 16), blur_iterations=2, iterations=1
        )
        options = {
            stage.name: stage_design_options(stage.spec)
            for stage in program.stages
        }
        design = next(iter(program_candidates(program, options)))
        executor = ProgramFunctionalExecutor(design)
        fused = executor.run()
        assert set(executor.stage_backends) == set(program.topo_order())
        reference = run_program_reference(program)
        for name in program.topo_order():
            for field, expected in reference[name].items():
                assert np.array_equal(expected, fused[name][field])
