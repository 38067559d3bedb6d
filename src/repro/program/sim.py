"""Stage-by-stage execution of stencil programs.

Two executors share one input-wiring rule (:func:`resolve_stage_inputs`):
a stage's state fields and aux arrays default to its spec's
deterministic initial data, external overrides replace entry-stage
inputs, and every incoming edge overrides one input with a copy of the
producer stage's final field.  Because the wiring is identical, the
fused functional path is bitwise-identical to the reference composition
whenever each stage's functional executor matches its reference
executor — which is the framework's single-stencil parity contract,
extended to programs by construction.

The functional path runs each stage through
:class:`~repro.sim.functional.FunctionalExecutor`, so stages use the
JIT backend when eligible and fall back to the interpreter otherwise;
:attr:`ProgramFunctionalExecutor.stage_backends` reports which backend
actually ran each stage.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.program.design import ProgramDesign
from repro.program.spec import ProgramSpec
from repro.sim.functional import FunctionalExecutor
from repro.stencil.reference import ReferenceExecutor

State = Dict[str, np.ndarray]
#: Final field arrays of every stage, keyed by stage name.
ProgramState = Dict[str, State]
#: Per-stage input overrides: stage name -> field/aux name -> array.
ExternalInputs = Mapping[str, Mapping[str, np.ndarray]]


def resolve_stage_inputs(
    program: ProgramSpec,
    stage_name: str,
    produced: ProgramState,
    external: Optional[ExternalInputs] = None,
) -> Tuple[State, State]:
    """Build a stage's ``(state, aux)`` inputs from upstream results.

    Args:
        program: the program being executed.
        stage_name: the stage about to run.
        produced: final states of already-executed stages.
        external: optional user-supplied input arrays, keyed by stage
            name then field/aux name (applied before edge wiring, so
            an edge-fed input always wins over an external override).

    Returns:
        The stage's initial field dict and aux dict: spec defaults with
        overrides applied, then every edge-fed input replaced by a copy
        of the producer's final field array.
    """
    spec = program.stage(stage_name).spec
    state = spec.initial_state()
    aux = spec.aux_state()
    for key, value in ((external or {}).get(stage_name, {}) or {}).items():
        array = np.asarray(value, dtype=spec.dtype)
        if array.shape != spec.grid_shape:
            raise SpecificationError(
                f"External input {key!r} for stage {stage_name!r} has "
                f"shape {array.shape}, expected {spec.grid_shape}"
            )
        if key in state:
            state[key] = array.copy()
        elif key in aux:
            aux[key] = array.copy()
        else:
            raise SpecificationError(
                f"Stage {stage_name!r} has no input named {key!r} "
                f"(fields: {spec.pattern.fields}, aux: {spec.pattern.aux})"
            )
    for edge in program.edges_into(stage_name):
        value = produced[edge.producer][edge.field].copy()
        if edge.target in state:
            state[edge.target] = value
        else:
            aux[edge.target] = value
    return state, aux


def run_program_reference(
    program: ProgramSpec, external: Optional[ExternalInputs] = None
) -> ProgramState:
    """Golden oracle: compose per-stage reference executors in topo order."""
    produced: ProgramState = {}
    for name in program.topo_order():
        spec = program.stage(name).spec
        state, aux = resolve_stage_inputs(program, name, produced, external)
        produced[name] = ReferenceExecutor(spec).run(state=state, aux=aux)
    return produced


class ProgramFunctionalExecutor:
    """Executes a mapped program stage by stage on numpy grids.

    Args:
        design: the program design to execute.

    Inherits the per-stage constraints of the functional simulator:
    CLAMP boundaries are rejected and every stage's grid must divide by
    its region shape (:class:`~repro.errors.SpecificationError`).
    """

    def __init__(self, design: ProgramDesign):
        self.design = design
        self.program = design.program
        self._executors = {
            name: FunctionalExecutor(stage_design)
            for name, stage_design in design.stage_designs
        }
        #: Backend that ran each stage in the most recent :meth:`run`.
        self.stage_backends: Dict[str, str] = {}

    def run(
        self, external: Optional[ExternalInputs] = None
    ) -> ProgramState:
        """Execute every stage in topological order.

        Args:
            external: optional per-stage input overrides (see
                :func:`resolve_stage_inputs`).

        Returns:
            Final field arrays of every stage, keyed by stage name.
        """
        produced: ProgramState = {}
        self.stage_backends = {}
        for name in self.program.topo_order():
            executor = self._executors[name]
            state, aux = resolve_stage_inputs(
                self.program, name, produced, external
            )
            produced[name] = executor.run(state=state, aux=aux)
            self.stage_backends[name] = executor.active_backend
        return produced


def run_program_functional(
    design: ProgramDesign,
    external: Optional[ExternalInputs] = None,
) -> ProgramState:
    """Convenience wrapper around :class:`ProgramFunctionalExecutor`."""
    return ProgramFunctionalExecutor(design).run(external)
