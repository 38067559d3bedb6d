"""Program-level DSE: tiered search, determinism, store resume."""

from __future__ import annotations

import pytest

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator
from repro.dse.search import SearchDriver
from repro.errors import DesignSpaceError
from repro.fpga.resources import VIRTEX7_690T
from repro.program import (
    ProgramEvaluator,
    blur_sobel_threshold,
    fdtd_two_field,
    optimize_program,
    optimize_stages_independently,
    program_candidates,
    stage_design_options,
)
from repro.store import DesignStore


def _program():
    return blur_sobel_threshold(
        grid=(32, 32), blur_iterations=2, iterations=1
    )


class TestOptimizeProgram:
    def test_passthrough_finds_feasible_best(self):
        result = optimize_program(_program())
        assert result.best is not None
        assert result.best.design.schedule == "coresident"
        assert result.feasible > 0

    def test_unknown_schedule_rejected(self):
        with pytest.raises(DesignSpaceError, match="schedule"):
            optimize_program(_program(), schedule="quantum")

    def test_timeshared_never_beats_coresident_here(self):
        co = optimize_program(_program())
        ts = optimize_program(_program(), schedule="timeshared")
        assert (
            co.best.predicted_cycles
            <= ts.best.predicted_cycles
        )

    def test_driver_engine_must_be_program_evaluator(self):
        driver = SearchDriver(chunk_size=16)
        with pytest.raises(DesignSpaceError, match="ProgramEvaluator"):
            optimize_program(_program(), driver=driver)


class TestDeterminism:
    def test_tiered_matches_passthrough(self):
        exhaustive = optimize_program(_program())
        engine = ProgramEvaluator()
        driver = SearchDriver(evaluator=engine, chunk_size=16)
        tiered = optimize_program(_program(), driver=driver)
        assert (
            tiered.best.design.signature()
            == exhaustive.best.design.signature()
        )
        assert tiered.best.predicted_cycles == pytest.approx(
            exhaustive.best.predicted_cycles
        )

    @pytest.mark.parametrize("chunk_size", [7, 64])
    def test_chunk_size_invariance(self, chunk_size):
        baseline = optimize_program(_program())
        driver = SearchDriver(
            evaluator=ProgramEvaluator(), chunk_size=chunk_size
        )
        chunked = optimize_program(_program(), driver=driver)
        assert (
            chunked.best.design.signature()
            == baseline.best.design.signature()
        )

    def test_resume_replays_checkpointed_chunks(self, tmp_path):
        """A re-run on the store of a finished search scores nothing:
        every promoted program is a store hit."""
        runs = []
        for _ in range(2):
            with DesignStore(tmp_path) as store:
                engine = ProgramEvaluator(CandidateEvaluator(store=store))
                driver = SearchDriver(evaluator=engine, chunk_size=16)
                result = optimize_program(_program(), driver=driver)
                runs.append((result, driver.report))
        (first, first_report), (second, report) = runs
        assert first_report.tier1_evaluations > 0
        assert report.tier1_evaluations == 0
        assert second.stats.store_hits == report.promoted > 0
        assert (
            second.best.design.signature()
            == first.best.design.signature()
        )
        assert second.best.predicted_cycles == first.best.predicted_cycles


class TestIndependentBaseline:
    def test_co_optimization_no_worse(self):
        program = _program()
        budget = ResourceBudget.from_device(VIRTEX7_690T)
        co = optimize_program(program, budget=budget)
        composed, per_stage = optimize_stages_independently(
            program, budget=budget
        )
        assert set(per_stage) == set(program.topo_order())
        if composed is not None:
            assert (
                co.best.predicted_cycles
                <= composed.predicted_cycles + 1e-9
            )

    def test_two_field_program_searchable(self):
        result = optimize_program(
            fdtd_two_field(grid=(32, 32), iterations=4)
        )
        assert result.best.design.num_stages == 2


class TestCandidateStream:
    def test_missing_stage_options_rejected(self):
        program = _program()
        options = {
            "blur": stage_design_options(program.stage("blur").spec)
        }
        with pytest.raises(DesignSpaceError, match="sobel"):
            list(program_candidates(program, options))

    def test_stream_is_deterministic(self):
        program = _program()
        options = {
            stage.name: stage_design_options(stage.spec)
            for stage in program.stages
        }
        first = [d.signature() for d in program_candidates(program, options)]
        second = [
            d.signature() for d in program_candidates(program, options)
        ]
        assert first == second and len(first) > 1
