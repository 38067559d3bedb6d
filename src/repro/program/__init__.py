"""Multi-stencil programs: DAGs of dependent stencil stages.

The paper's pipeline synthesizes one stencil at a time; real
applications chain several — blur feeding an edge detector, FDTD's E
and H field updates feeding each other across iterations.  This
package models such programs explicitly:

- :mod:`repro.program.spec` — the program IR: named stages (each a
  single-stencil :class:`~repro.stencil.spec.StencilSpec`) plus edges
  declaring which produced field feeds which consumer input, validated
  for acyclicity and grid/dtype/boundary compatibility.
- :mod:`repro.program.design` — one concrete design point per stage
  plus a program schedule (co-resident or time-shared).
- :mod:`repro.program.model` — per-stage Eq. 1-11 predictions composed
  along the DAG, with on-chip forwarding credit for aligned tilings.
- :mod:`repro.program.sim` — stage-by-stage reference and functional
  execution, bitwise-identical to composing the single-stencil
  executors by hand.
- :mod:`repro.program.dse` — product-space program search through the
  existing tiered :class:`~repro.dse.search.SearchDriver`.
- :mod:`repro.program.frontend` — multi-kernel OpenCL source in, wired
  :class:`ProgramSpec` out.

The fused OpenCL pipeline generator lives with the other code
generators: :func:`repro.codegen.generate_program_pipeline`.
"""

from repro.program.spec import (
    ProgramBuilder,
    ProgramEdge,
    ProgramSpec,
    ProgramStage,
    single_stage_program,
)
from repro.program.design import SCHEDULES, ProgramDesign
from repro.program.library import (
    PROGRAM_BENCHMARKS,
    blur_sobel_threshold,
    fdtd_two_field,
    get_program,
)
from repro.program.sim import (
    ProgramFunctionalExecutor,
    resolve_stage_inputs,
    run_program_functional,
    run_program_reference,
)
from repro.program.model import (
    RECONFIGURATION_CYCLES,
    compose_cycles,
    compose_resources,
    forwardable_edges,
    forwarding_savings,
    lower_bound_program_batch,
    predict_program_batch,
    program_lower_bound,
    screen_program_batch,
)
from repro.program.evaluator import ProgramEvaluator
from repro.program.dse import (
    optimize_program,
    optimize_stages_independently,
    program_candidates,
    stage_design_options,
)
from repro.program.frontend import program_from_source, split_kernels

__all__ = [
    "ProgramBuilder",
    "ProgramEdge",
    "ProgramSpec",
    "ProgramStage",
    "single_stage_program",
    "SCHEDULES",
    "ProgramDesign",
    "PROGRAM_BENCHMARKS",
    "blur_sobel_threshold",
    "fdtd_two_field",
    "get_program",
    "ProgramFunctionalExecutor",
    "resolve_stage_inputs",
    "run_program_functional",
    "run_program_reference",
    "RECONFIGURATION_CYCLES",
    "compose_cycles",
    "compose_resources",
    "forwardable_edges",
    "forwarding_savings",
    "lower_bound_program_batch",
    "predict_program_batch",
    "program_lower_bound",
    "screen_program_batch",
    "ProgramEvaluator",
    "optimize_program",
    "optimize_stages_independently",
    "program_candidates",
    "stage_design_options",
    "program_from_source",
    "split_kernels",
]
