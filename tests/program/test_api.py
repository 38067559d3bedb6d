"""High-level `synthesize(program=...)` entry point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ProgramSynthesisResult, synthesize
from repro.dse.search import SearchDriver
from repro.errors import DesignSpaceError, SpecificationError
from repro.dse.evaluator import CandidateEvaluator
from repro.program import (
    ProgramEvaluator,
    blur_sobel_threshold,
    run_program_functional,
    run_program_reference,
)


def _program():
    return blur_sobel_threshold(
        grid=(32, 32), blur_iterations=2, iterations=1
    )


def test_program_synthesis_end_to_end():
    program = _program()
    result = synthesize(program=program)
    assert isinstance(result, ProgramSynthesisResult)
    assert result.program_spec is program
    assert result.design.schedule == "coresident"
    assert result.predicted_cycles > 0
    assert result.pipeline is not None
    assert result.pipeline.num_kernels >= len(program.stages)
    reference = run_program_reference(program)
    fused = run_program_functional(result.design)
    for name in program.topo_order():
        for field, expected in reference[name].items():
            assert np.array_equal(expected, fused[name][field])


def test_emit_false_skips_codegen():
    result = synthesize(program=_program(), emit=False)
    assert result.pipeline is None
    assert result.design is not None


def test_exactly_one_workload_required():
    with pytest.raises(SpecificationError, match="exactly one"):
        synthesize()
    with pytest.raises(SpecificationError, match="exactly one"):
        synthesize(benchmark="jacobi-2d", program=_program())


def test_driver_with_stage_engine_is_wrapped():
    stage_engine = CandidateEvaluator()
    driver = SearchDriver(
        evaluator=ProgramEvaluator(stage_engine=stage_engine),
        chunk_size=32,
    )
    result = synthesize(program=_program(), driver=driver)
    assert result.evaluator is driver.evaluator
    assert result.evaluator.stage_engine is stage_engine
    exhaustive = synthesize(program=_program())
    assert (
        result.design.signature() == exhaustive.design.signature()
    )
    assert result.predicted_cycles == exhaustive.predicted_cycles


def test_driver_on_a_stencil_engine_raises():
    driver = SearchDriver(evaluator=CandidateEvaluator(), chunk_size=32)
    with pytest.raises(DesignSpaceError, match="ProgramEvaluator"):
        synthesize(program=_program(), driver=driver)


def test_timeshared_schedule_threads_through():
    result = synthesize(
        program=_program(), schedule="timeshared", emit=False
    )
    assert result.design.schedule == "timeshared"


def test_program_must_be_a_spec():
    with pytest.raises(SpecificationError, match="get_program"):
        synthesize(program="blur-sobel-threshold")
