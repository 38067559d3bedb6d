"""Program entries in the persistent design store + evaluator memo."""

from __future__ import annotations

import pytest

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator
from repro.fpga.resources import VIRTEX7_690T, ResourceVector
from repro.program import (
    ProgramEvaluator,
    blur_sobel_threshold,
    program_candidates,
    stage_design_options,
)
from repro.store import DesignStore
from repro.store.backing import evaluation_context


def _designs(n=4):
    program = blur_sobel_threshold(
        grid=(32, 32), blur_iterations=2, iterations=1
    )
    options = {
        stage.name: stage_design_options(stage.spec)
        for stage in program.stages
    }
    out = []
    for design in program_candidates(program, options):
        out.append(design)
        if len(out) == n:
            break
    return out


def test_store_round_trip(tmp_path):
    designs = _designs()
    budget = ResourceBudget.from_device(VIRTEX7_690T)
    with DesignStore(tmp_path / "store") as store:
        first = ProgramEvaluator(CandidateEvaluator(store=store))
        results = first.evaluate_batch(designs, budget)
        assert first.stats.store_hits == 0
        store.flush()

        # A cold evaluator sharing the store resolves every program
        # from its persisted entry — no model recomputation.
        second = ProgramEvaluator(CandidateEvaluator(store=store))
        replayed = second.evaluate_batch(designs, budget)
        assert second.stats.store_hits == len(designs)
        for a, b in zip(results, replayed):
            assert a.design.signature() == b.design.signature()
            assert a.predicted_cycles == b.predicted_cycles
            assert a.resources.as_dict() == b.resources.as_dict()


def test_store_entries_keyed_by_program_signature(tmp_path):
    designs = _designs(2)
    budget = ResourceBudget.from_device(VIRTEX7_690T)
    with DesignStore(tmp_path / "store") as store:
        engine = ProgramEvaluator(CandidateEvaluator(store=store))
        engine.evaluate_batch(designs, budget)
        context = evaluation_context(engine.board, engine.estimator.flexcl)
        for design in designs:
            stored = store.lookup_design(design, context)
            assert stored is not None and stored.complete
            assert stored.cycles == pytest.approx(
                engine.predict_cycles(design)
            )


def test_memo_hits_on_reevaluation():
    designs = _designs(3)
    budget = ResourceBudget.from_device(VIRTEX7_690T)
    engine = ProgramEvaluator()
    engine.evaluate_batch(designs, budget)
    assert engine.stats.cache_hits == 0
    engine.evaluate_batch(designs, budget)
    assert engine.stats.cache_hits == len(designs)
    assert engine.cache_size() == len(designs)
    engine.clear_cache()
    assert engine.cache_size() == 0


def test_memo_honours_the_stage_engines_bound():
    designs = _designs(20)
    budget = ResourceBudget.from_device(VIRTEX7_690T)
    engine = ProgramEvaluator(
        stage_engine=CandidateEvaluator(max_memo_entries=8)
    )
    first = engine.evaluate_batch(designs, budget)
    assert engine.cache_size() == 8
    # The evicted programs re-score to the same numbers.
    again = engine.evaluate_batch(designs, budget)
    assert engine.cache_size() == 8
    assert [r.predicted_cycles for r in again] == [
        r.predicted_cycles for r in first
    ]


def test_single_design_lookups_use_the_memo():
    [design] = _designs(1)
    engine = ProgramEvaluator()
    cycles = engine.predict_cycles(design)
    assert engine.stats.candidates == 1 and engine.stats.evaluated == 1
    assert engine.predict_cycles(design) == cycles
    assert engine.resources(design) is engine.resources(design)
    assert engine.stats.candidates == 4 and engine.stats.cache_hits == 3
    budget = ResourceBudget.from_device(VIRTEX7_690T)
    [result] = engine.evaluate_batch([design], budget)
    assert result.predicted_cycles == cycles


class _CountingStore(DesignStore):
    """A design store that counts lookups and writes, by design kind."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = {"lookup": [], "record": []}

    def lookup_design(self, design, context):
        self.calls["lookup"].append(type(design).__name__)
        return super().lookup_design(design, context)

    def record_design(self, design, context, cycles=None, resources=None):
        self.calls["record"].append(type(design).__name__)
        return super().record_design(
            design, context, cycles=cycles, resources=resources
        )


@pytest.mark.parametrize("tiered", [False, True])
@pytest.mark.parametrize(
    "name, grid, iterations, candidates",
    [
        ("fdtd-two-field", (128, 128), 2, 144),
        ("blur-sobel-threshold", (256, 256), 1, 864),
    ],
)
def test_program_search_store_traffic(
    tmp_path, tiered, name, grid, iterations, candidates
):
    """One lookup and one write per composed candidate, none per stage."""
    from repro.api import synthesize
    from repro.dse import CandidateEvaluator, SearchDriver
    from repro.program import get_program

    program = get_program(name, grid=grid, iterations=iterations)
    with _CountingStore(tmp_path / "store") as store:
        engine = ProgramEvaluator(
            stage_engine=CandidateEvaluator(store=store)
        )
        if tiered:
            result = synthesize(
                program=program,
                schedule="timeshared",
                driver=SearchDriver(evaluator=engine, screen="latency"),
                emit=False,
            )
        else:
            result = synthesize(
                program=program,
                schedule="timeshared",
                evaluator=engine,
                emit=False,
            )
        assert result.dse.evaluated == candidates
        assert store.calls["lookup"] == ["ProgramDesign"] * candidates
        assert store.calls["record"] == ["ProgramDesign"] * candidates
        assert store.writes == candidates


def test_infeasible_programs_are_written_once(tmp_path):
    """An entry stored with resources only is reused, not rewritten."""
    designs = _designs(20)
    nothing = ResourceBudget(ResourceVector(0, 0, 0, 0), label="nothing")
    with _CountingStore(tmp_path / "store") as store:
        for _ in range(2):
            engine = ProgramEvaluator(CandidateEvaluator(store=store))
            assert engine.evaluate_batch(designs, nothing) == [None] * 20
            assert engine.stats.infeasible == 20
        assert store.calls["lookup"] == ["ProgramDesign"] * 40
        assert store.calls["record"] == ["ProgramDesign"] * 20
