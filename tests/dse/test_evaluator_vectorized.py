"""Parity of the evaluator's one scoring path with the scalar oracle.

The engine scores fresh designs with the vectorized batch engines; the
scalar :class:`PerformanceModel` / :class:`ResourceEstimator` pair is
the Eq. 1-11 reference it must reproduce, and its fallback for designs
outside the batch engines' exact-parity range.  Every comparison here
is exact: same results, same counters, same memo answers, same store
contents.
"""

import pytest

from repro.dse import CandidateEvaluator, ResourceBudget
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.resources import VIRTEX7_690T, ResourceVector
from repro.model.batch import BatchRangeError, predict_batch
from repro.model.predictor import PerformanceModel
from repro.program import ProgramDesign, ProgramEvaluator
from repro.program.model import compose_cycles, compose_resources
from repro.program.spec import single_stage_program
from repro.stencil import hotspot_2d, jacobi_2d
from repro.store.backing import DesignStore, design_key
from repro.store.journal import decode_record
from repro.tiling import make_baseline_design, make_pipe_shared_design


@pytest.fixture(scope="module")
def budget():
    return ResourceBudget.from_device(VIRTEX7_690T)


#: A budget every design fits, however large.
UNLIMITED = ResourceBudget(
    limit=ResourceVector(2**80, 2**80, 2**80, 2**80), label="unlimited"
)


def make_candidates():
    """A small space mixing kinds, depths, and exact duplicates."""
    j2d = jacobi_2d(grid=(128, 128), iterations=16)
    hs = hotspot_2d(grid=(128, 128), iterations=16)
    designs = []
    for h in (2, 4, 8):
        designs.append(make_baseline_design(j2d, (32, 32), (2, 2), h))
        designs.append(make_pipe_shared_design(j2d, (32, 32), (2, 2), h))
        designs.append(make_baseline_design(hs, (16, 16), (2, 2), h))
    # Exact duplicates exercise memo hits inside one batch.
    designs.append(designs[0])
    designs.append(designs[3].with_fused_depth(designs[3].fused_depth))
    return designs


def mixed_range_designs():
    """An in-range design next to one the batch engines must refuse."""
    small = make_baseline_design(
        jacobi_2d(grid=(256, 256), iterations=32), (64, 64), (2, 2), 4
    )
    huge = make_baseline_design(
        jacobi_2d(grid=(2**30, 2**30), iterations=32),
        (2**28, 2**28),
        (2, 2),
        4,
    )
    with pytest.raises(BatchRangeError):
        predict_batch([huge])
    return [small, huge]


def oracle(design):
    """The scalar Eq. 1-11 model and resource estimator."""
    return (
        PerformanceModel().predict_cycles(design),
        ResourceEstimator().estimate(design),
    )


def run_engine(budget, store=None):
    engine = CandidateEvaluator(store=store)
    results = engine.evaluate_batch(make_candidates(), budget)
    return engine, results


def strip_wall_time(stats):
    d = stats.as_dict()
    d.pop("wall_time_s", None)
    return d


def test_fast_path_matches_scalar_path(budget):
    engine, results = run_engine(budget)
    candidates = make_candidates()

    first = {}  # signature -> position of its first occurrence
    for j, (design, result) in enumerate(zip(candidates, results)):
        cycles, resources = oracle(design)
        assert result is not None
        assert result.design.signature() == design.signature()
        assert result.predicted_cycles == cycles
        assert result.resources == resources
        # A repeat is a cache hit: the memo's answer for its first
        # occurrence, the very same object.
        j_first = first.setdefault(design.signature(), j)
        if j != j_first:
            assert result is results[j_first]
    # Each distinct design was evaluated into its own result.
    assert len({id(results[j]) for j in first.values()}) == len(first)

    assert strip_wall_time(engine.stats) == {
        "candidates": len(candidates),
        "evaluated": len(first),
        "cache_hits": len(candidates) - len(first),
        "store_hits": 0,
        "infeasible": 0,
        "screened": 0,
        "promoted": 0,
    }


def test_duplicates_hit_memo_inside_one_batch(budget):
    engine, results = run_engine(budget)
    assert engine.stats.cache_hits == 2
    assert results[-2] is results[0]
    assert results[-1] is results[3]


def test_infeasible_budget_matches_scalar(budget):
    tiny = ResourceBudget(limit=ResourceVector(1, 1, 1, 1))
    engine, results = run_engine(tiny)
    assert all(r is None for r in results)
    # Budget-rejected fresh results are not memoized, so repeats are
    # rejected again rather than counted as cache hits.
    assert strip_wall_time(engine.stats) == {
        "candidates": len(make_candidates()),
        "evaluated": 0,
        "cache_hits": 0,
        "store_hits": 0,
        "infeasible": len(make_candidates()),
        "screened": 0,
        "promoted": 0,
    }
    assert engine.cache_size() == 0


def test_store_contents_identical(tmp_path, budget):
    with DesignStore(tmp_path / "s") as store:
        engine, _ = run_engine(budget, store=store)
        context = engine.store_context

    # One write-through per distinct design, in first-seen order, each
    # holding the scalar oracle's numbers.
    unique = list({d.signature(): d for d in make_candidates()}.values())
    journal = (tmp_path / "s" / "journal.jsonl").read_text().splitlines()
    assert [decode_record(line)["key"] for line in journal] == [
        design_key(d.signature(), context) for d in unique
    ]
    with DesignStore(tmp_path / "s") as store:
        for design in unique:
            entry = store.lookup_design(design, context)
            assert (entry.cycles, entry.resources) == oracle(design)


def test_warm_store_answers_without_evaluation(tmp_path, budget):
    with DesignStore(tmp_path / "s") as store:
        run_engine(budget, store=store)
    with DesignStore(tmp_path / "s") as store:
        engine, results = run_engine(budget, store=store)
        assert engine.stats.evaluated == 0
        assert engine.stats.store_hits > 0
        assert all(r is not None for r in results)


def test_single_candidate_forced_vector_matches_scalar(budget):
    design = make_candidates()[0]
    result = CandidateEvaluator().evaluate_batch([design], budget)[0]
    assert result is not None
    assert (result.predicted_cycles, result.resources) == oracle(design)


class TestOutOfRangeFallback:
    """A batch the vectorized engines refuse is scored by the oracle."""

    def test_evaluate_batch(self):
        designs = mixed_range_designs()
        engine = CandidateEvaluator()
        results = engine.evaluate_batch(designs, UNLIMITED)
        for design, result in zip(designs, results):
            assert (result.predicted_cycles, result.resources) == oracle(
                design
            )
        assert engine.stats.evaluated == len(designs)

    def test_screen_batch(self):
        designs = mixed_range_designs()
        engine = CandidateEvaluator()
        feasible, bounds, resources = engine.screen_batch(
            designs, UNLIMITED
        )
        assert feasible == [True, True]
        assert bounds == [engine.lower_bound(d) for d in designs]
        assert [r.total.bram18 for r in resources] == [
            oracle(d)[1].total.bram18 for d in designs
        ]
        assert resources == [oracle(d)[1] for d in designs]

    def test_program_batch(self):
        designs = mixed_range_designs()
        programs = [
            ProgramDesign(
                program=single_stage_program(d.spec),
                stage_designs=((d.spec.name, d),),
                schedule=schedule,
            )
            for d in designs
            for schedule in ("coresident", "timeshared")
        ]
        engine = ProgramEvaluator()
        results = engine.evaluate_batch(programs, UNLIMITED)
        for program, result in zip(programs, results):
            [(_name, stage)] = program.stage_designs
            cycles, resources = oracle(stage)
            assert result.predicted_cycles == compose_cycles(
                program, [cycles], engine.board
            )
            assert result.resources == compose_resources(
                program.schedule, [resources]
            )
        # Stage scoring leaves the stage engine untouched.
        assert engine.stage_engine.cache_size() == 0
        assert engine.stage_engine.stats.candidates == 0
