"""Program composition model: cycles, resources, bounds, batch engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator
from repro.fpga.resources import VIRTEX7_690T
from repro.model.batch import BatchRangeError
from repro.model.predictor import Fidelity, PerformanceModel
from repro.opencl.platform import ADM_PCIE_7V3
from repro.program import (
    RECONFIGURATION_CYCLES,
    SCHEDULES,
    ProgramDesign,
    ProgramEvaluator,
    blur_sobel_threshold,
    fdtd_two_field,
    compose_cycles,
    compose_resources,
    forwardable_edges,
    forwarding_savings,
    lower_bound_program_batch,
    predict_program_batch,
    program_candidates,
    program_lower_bound,
    stage_design_options,
)
from repro.tiling.baseline import make_baseline_design


def _program(grid=(32, 32)):
    return blur_sobel_threshold(
        grid=grid, blur_iterations=2, iterations=1
    )


def _aligned_design(program, schedule="coresident"):
    stage_designs = tuple(
        (
            stage.name,
            make_baseline_design(stage.spec, (16, 16), (2, 2), 1),
        )
        for stage in program.stages
    )
    return ProgramDesign(
        program=program, stage_designs=stage_designs, schedule=schedule
    )


def _misaligned_design(program):
    shapes = {"blur": ((16, 16), (2, 2)), "sobel": ((32, 16), (1, 2)),
              "threshold": ((16, 16), (2, 2))}
    stage_designs = tuple(
        (
            stage.name,
            make_baseline_design(stage.spec, *shapes[stage.name], 1),
        )
        for stage in program.stages
    )
    return ProgramDesign(program=program, stage_designs=stage_designs)


class TestForwarding:
    def test_aligned_coresident_edges_forward(self):
        design = _aligned_design(_program())
        assert len(forwardable_edges(design)) == 2
        assert forwarding_savings(design) > 0.0

    def test_misaligned_tilings_spill(self):
        design = _misaligned_design(_program())
        forwarded = forwardable_edges(design)
        assert all(e.producer != "blur" for e in forwarded)

    def test_timeshared_never_forwards(self):
        design = _aligned_design(_program(), schedule="timeshared")
        assert forwardable_edges(design) == ()
        assert forwarding_savings(design) == 0.0


class TestComposition:
    def test_coresident_cycles_subtract_forwarding(self):
        design = _aligned_design(_program())
        cycles = (1e6, 2e6, 3e6)
        composed = compose_cycles(design, cycles)
        assert composed == pytest.approx(
            sum(cycles) - forwarding_savings(design)
        )

    def test_coresident_clamped_at_slowest_stage(self):
        design = _aligned_design(_program())
        cycles = (10.0, 10.0, 10.0)
        assert compose_cycles(design, cycles) == 10.0

    def test_timeshared_adds_reconfiguration(self):
        design = _aligned_design(_program(), schedule="timeshared")
        cycles = (1e6, 2e6, 3e6)
        assert compose_cycles(design, cycles) == pytest.approx(
            sum(cycles) + 2 * RECONFIGURATION_CYCLES
        )

    def test_resources_sum_when_coresident(self):
        engine = ProgramEvaluator()
        design = _aligned_design(_program())
        stage_res = [
            engine.stage_engine.resources(d) for _n, d in design.stage_designs
        ]
        composed = compose_resources("coresident", stage_res)
        assert composed.total.ff == sum(r.total.ff for r in stage_res)

    def test_resources_max_when_timeshared(self):
        engine = ProgramEvaluator()
        design = _aligned_design(_program(), schedule="timeshared")
        stage_res = [
            engine.stage_engine.resources(d) for _n, d in design.stage_designs
        ]
        composed = compose_resources("timeshared", stage_res)
        assert composed.total.ff == max(r.total.ff for r in stage_res)

    def test_lower_bound_admissible(self):
        engine = ProgramEvaluator()
        design = _aligned_design(_program())
        stage_preds = [
            engine.stage_engine.model.predict_cycles(d)
            for _n, d in design.stage_designs
        ]
        stage_bounds = [
            engine.stage_engine.lower_bound(d)
            for _n, d in design.stage_designs
        ]
        assert program_lower_bound(design, stage_bounds) <= compose_cycles(
            design, stage_preds
        )
        assert engine.lower_bound(design) == program_lower_bound(
            design, stage_bounds
        )


class TestBatchEngine:
    def _candidates(self, n=6):
        program = _program()
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

    def test_batch_matches_scalar_composition(self):
        designs = self._candidates()
        batch = predict_program_batch(designs)
        model = PerformanceModel(
            board=ADM_PCIE_7V3, fidelity=Fidelity.REFINED
        )
        for i, design in enumerate(designs):
            stage_cycles = [
                model.predict_cycles(d)
                for _n, d in design.stage_designs
            ]
            assert batch.total[i] == pytest.approx(
                compose_cycles(design, stage_cycles), rel=1e-12
            )
            assert batch.stage_cycles[i] == pytest.approx(
                tuple(stage_cycles)
            )

    def test_batch_resources_and_feasibility(self):
        designs = self._candidates()
        batch = predict_program_batch(designs)
        engine = ProgramEvaluator()
        limit = engine.resources(designs[0]).total.scaled(2.0)
        mask = batch.feasible(limit)
        assert mask.dtype == bool and len(mask) == len(designs)
        for i, design in enumerate(designs):
            assert batch.resources[i].as_dict() == engine.resources(
                design
            ).as_dict()

    def test_batch_lower_bounds_admissible(self):
        designs = self._candidates()
        bounds = lower_bound_program_batch(designs)
        totals = predict_program_batch(designs).total
        assert np.all(bounds <= totals + 1e-9)


def _mixed_batch():
    """Both library programs under both schedules in one batch, plus
    hand-built aligned and misaligned designs."""
    designs = []
    for program in (_program(), fdtd_two_field(grid=(32, 32), iterations=2)):
        options = {
            stage.name: stage_design_options(stage.spec)
            for stage in program.stages
        }
        for schedule in SCHEDULES:
            designs.extend(program_candidates(program, options, schedule))
    program = _program()
    designs += [
        _aligned_design(program),
        _misaligned_design(program),
        _aligned_design(program, schedule="timeshared"),
    ]
    return designs


class TestArrayCompositionParity:
    """The batch engines equal the scalar composition oracle, bitwise."""

    def test_cycles_bounds_and_resources(self):
        designs = _mixed_batch()
        engine = CandidateEvaluator()
        memo = {}

        def stage(design):
            if id(design) not in memo:
                memo[id(design)] = (
                    engine.model.predict_cycles(design),
                    engine.lower_bound(design),
                    engine.estimator.estimate(design),
                )
            return memo[id(design)]

        batch = predict_program_batch(designs)
        bounds = lower_bound_program_batch(designs)
        credited = spilled = 0
        for i, design in enumerate(designs):
            numbers = [stage(d) for _n, d in design.stage_designs]
            cycles = compose_cycles(design, [n[0] for n in numbers])
            bound = program_lower_bound(design, [n[1] for n in numbers])
            resources = compose_resources(
                design.schedule, [n[2] for n in numbers]
            )
            assert float(batch.total[i]).hex() == cycles.hex()
            assert float(bounds[i]).hex() == bound.hex()
            assert batch.resources[i] == resources
            assert [c.hex() for c in batch.stage_cycles[i]] == [
                n[0].hex() for n in numbers
            ]
            if design.schedule == "coresident":
                forwarded = len(forwardable_edges(design))
                credited += forwarded > 0
                spilled += forwarded < len(design.program.edges)
        assert credited and spilled

    def test_out_of_range_stages_take_the_scalar_engines(self, monkeypatch):
        designs = _mixed_batch()
        budget = ResourceBudget.from_device(VIRTEX7_690T)
        batch = ProgramEvaluator()
        arrays = batch.screen_batch(designs, budget)
        scored = batch.evaluate_batch(designs, budget)

        def out_of_range(*_args, **_kwargs):
            raise BatchRangeError("forced")

        from repro.dse import evaluator as evaluator_module

        for name in ("predict_batch", "estimate_batch", "lower_bound_batch"):
            monkeypatch.setattr(evaluator_module, name, out_of_range)
        scalar = ProgramEvaluator()
        assert scalar.screen_batch(designs, budget) == arrays
        fallback = scalar.evaluate_batch(designs, budget)
        assert [
            (r.predicted_cycles.hex(), r.resources) if r else None
            for r in fallback
        ] == [
            (r.predicted_cycles.hex(), r.resources) if r else None
            for r in scored
        ]
