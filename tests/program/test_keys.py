"""Program store keys: the same bytes as the signature digest, built
from cached encodings, with nothing encoded per composed candidate."""

from __future__ import annotations

import collections
import itertools
import sys

import pytest

from repro.dse import CandidateEvaluator, SearchDriver
from repro.program import (
    ProgramBuilder,
    ProgramDesign,
    ProgramEvaluator,
    get_program,
    optimize_program,
    program_candidates,
    stage_design_options,
)
from repro.stencil.library import gaussian_blur_2d, sobel_x_2d
from repro.store import DesignStore
from repro.store import journal
from repro.store.backing import design_key, evaluation_context, store_key
from repro.tiling.design import DesignKind

_ENGINE = CandidateEvaluator()
CONTEXT = evaluation_context(_ENGINE.board, _ENGINE.estimator.flexcl)
LIBRARY = [
    ("fdtd-two-field", (64, 64), 2),
    ("blur-sobel-threshold", (64, 64), 1),
]


def _sampled_designs(program, schedule, every=7):
    options = {
        stage.name: stage_design_options(stage.spec)
        for stage in program.stages
    }
    return list(
        itertools.islice(
            program_candidates(program, options, schedule), 0, None, every
        )
    )


@pytest.mark.parametrize("schedule", ["coresident", "timeshared"])
@pytest.mark.parametrize("name, grid, iterations", LIBRARY)
def test_program_keys_equal_the_signature_digest(
    name, grid, iterations, schedule
):
    program = get_program(name, grid=grid, iterations=iterations)
    designs = _sampled_designs(program, schedule)
    assert len(designs) > 10
    for design in designs:
        for context in (CONTEXT, None):
            assert store_key(design, context) == design_key(
                design.signature(), context
            )


@pytest.mark.parametrize("name, grid, iterations", LIBRARY)
def test_stencil_keys_equal_the_signature_digest(name, grid, iterations):
    program = get_program(name, grid=grid, iterations=iterations)
    for stage in program.stages:
        for design in stage_design_options(stage.spec):
            assert store_key(design, CONTEXT) == design_key(
                design.signature(), CONTEXT
            )


def test_key_follows_the_context():
    program = get_program("fdtd-two-field", grid=(32, 32), iterations=2)
    design = _sampled_designs(program, "coresident")[0]
    for context in (CONTEXT, "other", CONTEXT, None):
        assert store_key(design, context) == design_key(
            design.signature(), context
        )


def test_escaped_stage_names_keep_the_bytes():
    program = (
        ProgramBuilder('quoted "pipeline"')
        .stage('blur "α"\\', gaussian_blur_2d(grid=(32, 32)))
        .stage("sobelé", sobel_x_2d(grid=(32, 32)))
        .connect('blur "α"\\', "a", "sobelé")
        .build()
    )
    design = _sampled_designs(program, "timeshared")[0]
    assert isinstance(design, ProgramDesign)
    assert store_key(design, CONTEXT) == design_key(
        design.signature(), CONTEXT
    )


_STAGE_KINDS = {kind.value for kind in DesignKind}


@pytest.fixture
def encodings(monkeypatch):
    """Record every ``canonical_json`` value, wherever it is looked up,
    and fail on any encoding of a whole program-design signature."""
    real = journal.canonical_json
    values = []

    def guarded(value):
        text = real(value)
        if '"program-design"' in text:
            raise AssertionError(
                "a whole program-design signature was JSON-encoded"
            )
        values.append(value)
        return text

    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, "canonical_json", None
        ) is real:
            monkeypatch.setattr(module, "canonical_json", guarded)
    return values


@pytest.mark.parametrize("screen", [None, "latency", "pareto"])
@pytest.mark.parametrize("schedule", ["coresident", "timeshared"])
def test_program_search_encodes_each_stage_once(
    tmp_path, encodings, schedule, screen
):
    program = get_program(
        "blur-sobel-threshold", grid=(64, 64), iterations=1
    )
    with DesignStore(tmp_path / "store") as store:
        engine = ProgramEvaluator(
            stage_engine=CandidateEvaluator(store=store)
        )
        driver = (
            None
            if screen is None
            else SearchDriver(evaluator=engine, screen=screen)
        )
        result = optimize_program(
            program, schedule=schedule, evaluator=engine, driver=driver
        )
    assert result.evaluated == 864
    stages = collections.Counter(
        repr(value)
        for value in encodings
        if isinstance(value, tuple) and value and value[0] in _STAGE_KINDS
    )
    assert stages, "no stage design was encoded"
    assert max(stages.values()) == 1
