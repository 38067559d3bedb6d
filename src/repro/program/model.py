"""Program-level performance/resource composition along the DAG.

Each stage of a :class:`~repro.program.design.ProgramDesign` is scored
by the existing single-stencil machinery — the Eq. 1-11 performance
model and the FF/LUT/DSP/BRAM estimator — and this module composes the
per-stage numbers into program totals under the design's schedule:

**Co-resident** (all stage pipelines on the fabric at once)::

    cycles    = max(sum(stage_i) - forwarding_savings, max(stage_i))
    resources = sum(stage_i)          (componentwise)

Stages execute back to back (the DAG serializes dependent stages), but
when a producer/consumer pair's tilings align — same region shape and
same tile counts — the inter-stage field can be forwarded on-chip
through pipes instead of spilling through DDR, saving one Eq. 4-6
write plus one read of the whole grid per forwarded edge.  The clamp
at ``max(stage_i)`` keeps the composed estimate no smaller than any
single stage, so forwarding savings can never drive the total below
what the slowest stage alone needs.

**Time-shared** (stages swap onto the fabric one after another)::

    cycles    = sum(stage_i) + RECONFIGURATION_CYCLES * (n - 1)
    resources = max(stage_i)          (componentwise)

Every inter-stage field spills through DDR (its Eq. 4-6 cost is
already inside each stage's own prediction), and each stage transition
pays a reconfiguration penalty.

:func:`program_lower_bound` composes per-stage admissible bounds into
a program bound that never exceeds the composed prediction (each stage
bound never exceeds its stage prediction, and the forwarding savings
subtracted are identical on both sides) — so the tiered search's
Tier-0 screen stays admissible for programs.

The module also provides the program analogues of the batch engines,
which the :class:`~repro.program.evaluator.ProgramEvaluator` scores
with: :func:`predict_program_batch`, :func:`screen_program_batch`
and :func:`lower_bound_program_batch` have a stage engine (a
:class:`~repro.dse.evaluator.CandidateEvaluator`) score each
*distinct* stage design of a batch once, then compose every candidate
with array operations over per-candidate stage-index rows.  They
match the scalar :func:`compose_cycles` / :func:`compose_resources` /
:func:`program_lower_bound`, which stay as their parity oracle, bitwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fpga.batch import BatchResources, ResourceColumns
from repro.fpga.estimator import DesignResources
from repro.fpga.resources import ResourceVector
from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.program.design import ProgramDesign
from repro.program.spec import ProgramEdge, ProgramSpec
from repro.tiling.design import StencilDesign

if TYPE_CHECKING:
    from repro.dse.evaluator import CandidateEvaluator

_COMPONENTS = ("ff", "lut", "dsp", "bram18")

#: Cycles charged per stage transition under the time-shared schedule
#: (kernel teardown, partial reconfiguration, relaunch).  A modeling
#: constant, not a measured figure; at 200 MHz it is one millisecond.
RECONFIGURATION_CYCLES: float = 200_000.0


def forwardable_edges(design: ProgramDesign) -> Tuple[ProgramEdge, ...]:
    """Edges whose inter-stage field can be forwarded on-chip.

    Forwarding requires the co-resident schedule and an aligned
    producer/consumer tiling: equal region shapes and equal tile
    counts, so each producer tile streams to exactly one consumer tile
    without a reshuffle stage.  (Grid shape and dtype equality are
    already guaranteed by edge validation.)
    """
    if design.schedule != "coresident":
        return ()
    out = []
    for edge in design.program.edges:
        producer = design.design_for(edge.producer)
        consumer = design.design_for(edge.consumer)
        if (
            producer.tile_grid.region_shape
            == consumer.tile_grid.region_shape
            and producer.tile_grid.counts == consumer.tile_grid.counts
        ):
            out.append(edge)
    return tuple(out)


def forwarding_savings(
    design: ProgramDesign, board: BoardSpec = ADM_PCIE_7V3
) -> float:
    """DDR cycles saved by on-chip forwarding (Eq. 4-6 terms avoided).

    Each forwarded edge avoids one full-grid field write by the
    producer and one full-grid read by the consumer at the board's
    effective DDR rate.
    """
    total = 0.0
    for edge in forwardable_edges(design):
        total += _edge_saving(design.program, edge, board)
    return total


def _edge_saving(
    program: ProgramSpec, edge: ProgramEdge, board: BoardSpec
) -> float:
    """DDR cycles one forwarded edge saves: a full-grid write and read."""
    spec = program.stage(edge.producer).spec
    field_bytes = spec.total_cells * spec.element_bytes
    return 2.0 * field_bytes / board.effective_bytes_per_cycle


def compose_cycles(
    design: ProgramDesign,
    stage_cycles: Sequence[float],
    board: BoardSpec = ADM_PCIE_7V3,
) -> float:
    """Compose per-stage predictions into the program total."""
    total = float(sum(stage_cycles))
    if design.schedule == "timeshared":
        return total + RECONFIGURATION_CYCLES * (design.num_stages - 1)
    slowest = max(float(c) for c in stage_cycles)
    return max(total - forwarding_savings(design, board), slowest)


def compose_resources(
    schedule: str, stage_resources: Sequence[DesignResources]
) -> DesignResources:
    """Compose per-stage estimates into the program footprint."""
    totals = [r.total for r in stage_resources]
    kernels = [r.kernels for r in stage_resources]
    pipes = [r.pipes for r in stage_resources]
    if schedule == "timeshared":
        def fold(vectors: List[ResourceVector]) -> ResourceVector:
            acc = vectors[0]
            for v in vectors[1:]:
                acc = acc.max_with(v)
            return acc
    else:
        def fold(vectors: List[ResourceVector]) -> ResourceVector:
            acc = vectors[0]
            for v in vectors[1:]:
                acc = acc + v
            return acc
    return DesignResources(
        total=fold(totals), kernels=fold(kernels), pipes=fold(pipes)
    )


def program_lower_bound(
    design: ProgramDesign,
    stage_bounds: Sequence[float],
    board: BoardSpec = ADM_PCIE_7V3,
) -> float:
    """Admissible program bound from per-stage admissible bounds.

    Never exceeds :func:`compose_cycles` of the stage predictions:
    each stage bound is at most its prediction, the same forwarding
    savings are subtracted on both sides, and both are clamped at the
    slowest single stage.
    """
    total = float(sum(stage_bounds))
    if design.schedule == "timeshared":
        return total + RECONFIGURATION_CYCLES * (design.num_stages - 1)
    slowest = max(float(b) for b in stage_bounds)
    return max(total - forwarding_savings(design, board), slowest)


class _StageIndex:
    """The distinct stage designs of a batch of programs, and where each
    candidate's stages sit among them.

    Candidates are grouped by program and schedule, the composition
    rules' only inputs besides the stage numbers.  In a group, row
    ``r`` of ``rows`` lists the distinct-stage indices of candidate
    ``positions[r]`` in topological stage order.  A stage design
    shared by many candidates (the product space shares every one) is
    matched by identity first and by signature second, so each
    distinct design is scored once however many candidates hold it.
    """

    def __init__(self, designs: Sequence[ProgramDesign]):
        self.size = len(designs)
        self.stages: List[StencilDesign] = []
        slots: Dict[int, int] = {}
        distinct: Dict[Tuple, int] = {}
        groups: Dict[Tuple[int, str], tuple] = {}
        for i, pdesign in enumerate(designs):
            group_key = (id(pdesign.program), pdesign.schedule)
            group = groups.get(group_key)
            if group is None:
                group = groups[group_key] = (pdesign, [], [])
            group[1].append(i)
            flat = group[2]
            for _name, design in pdesign.stage_designs:
                j = slots.get(id(design))
                if j is None:
                    j = distinct.setdefault(
                        design.signature(), len(self.stages)
                    )
                    if j == len(self.stages):
                        self.stages.append(design)
                    slots[id(design)] = j
                flat.append(j)
        #: ``(exemplar, positions, rows)`` per group.
        self.groups = [
            (
                exemplar,
                np.asarray(positions, dtype=np.intp),
                np.asarray(flat, dtype=np.intp).reshape(
                    len(positions), exemplar.num_stages
                ),
            )
            for exemplar, positions, flat in groups.values()
        ]

    def compose(
        self, stage_values: Sequence[float], board: BoardSpec
    ) -> np.ndarray:
        """:func:`compose_cycles` of every candidate, bitwise.

        ``stage_values`` holds one number per distinct stage; given
        stage bounds instead of predictions this is
        :func:`program_lower_bound`, the same formula.  Stage numbers
        add left to right, as Python's ``sum`` does, and a forwarded
        edge's saving joins the running total exactly when
        :func:`forwardable_edges` lists the edge: its producer and
        consumer tile grids have equal region shapes and counts.
        """
        stage_values = np.asarray(stage_values, dtype=np.float64)
        out = np.empty(self.size, dtype=np.float64)
        alignment = None
        for exemplar, positions, rows in self.groups:
            values = stage_values[rows]
            total = values[:, 0]
            for column in range(1, rows.shape[1]):
                total = total + values[:, column]
            if exemplar.schedule == "timeshared":
                out[positions] = total + RECONFIGURATION_CYCLES * (
                    exemplar.num_stages - 1
                )
                continue
            if alignment is None:
                alignment = self._alignment()
            column_of = {
                name: column
                for column, (name, _d) in enumerate(exemplar.stage_designs)
            }
            savings = np.zeros(len(positions), dtype=np.float64)
            for edge in exemplar.program.edges:
                aligned = (
                    alignment[rows[:, column_of[edge.producer]]]
                    == alignment[rows[:, column_of[edge.consumer]]]
                )
                saving = _edge_saving(exemplar.program, edge, board)
                savings = savings + np.where(aligned, saving, 0.0)
            out[positions] = np.maximum(total - savings, values.max(axis=1))
        return out

    def compose_resources(
        self, stage_resources: Sequence[DesignResources]
    ) -> BatchResources:
        """:func:`compose_resources` of every candidate, as ``int64`` columns.

        ``stage_resources`` holds one estimate per distinct stage.
        """
        width = len(_COMPONENTS)
        table = np.array(
            [
                [
                    getattr(vector, component)
                    for vector in (r.total, r.kernels, r.pipes)
                    for component in _COMPONENTS
                ]
                for r in stage_resources
            ],
            dtype=np.int64,
        ).reshape(len(stage_resources), 3 * width)
        out = np.empty((self.size, 3 * width), dtype=np.int64)
        for exemplar, positions, rows in self.groups:
            fold = np.maximum if exemplar.schedule == "timeshared" else np.add
            values = table[rows]
            acc = values[:, 0]
            for column in range(1, rows.shape[1]):
                acc = fold(acc, values[:, column])
            out[positions] = acc
        return BatchResources(
            *(
                ResourceColumns(
                    *(out[:, v * width + c] for c in range(width))
                )
                for v in range(3)
            )
        )

    def _alignment(self) -> np.ndarray:
        """Per distinct stage, an id of its ``(region_shape, counts)``."""
        ids: Dict[Tuple, int] = {}
        return np.asarray(
            [
                ids.setdefault(
                    (d.tile_grid.region_shape, d.tile_grid.counts), len(ids)
                )
                for d in self.stages
            ],
            dtype=np.intp,
        )


def predict_program_batch(
    designs: Sequence[ProgramDesign],
    engine: "CandidateEvaluator",
    resources: Optional[Sequence[DesignResources]] = None,
) -> List[Tuple[float, DesignResources]]:
    """Composed ``(cycles, resources)`` per program, in order.

    ``engine`` scores each distinct stage design once (its batch
    engines, scalar out of their exact range); every candidate is then
    composed with array operations over stage indices, bitwise equal
    to :func:`compose_cycles` / :func:`compose_resources` of its stage
    numbers.  ``resources`` already in hand (the tiered search's
    Tier-1 holds Tier-0's) are returned as given: no stage is
    estimated.
    """
    index = _StageIndex(designs)
    cycles = index.compose(engine._predict(index.stages), engine.board)
    if resources is None:
        resources = index.compose_resources(
            engine._estimate(index.stages)
        ).rows()
    return list(zip(cycles.tolist(), resources))


def screen_program_batch(
    designs: Sequence[ProgramDesign], engine: "CandidateEvaluator"
) -> Tuple[BatchResources, np.ndarray]:
    """Composed resources (as columns) and admissible bounds per
    program: the Tier-0 screen's data, from one stage index.

    ``engine`` estimates and bounds each distinct stage design once
    and predicts no cycles; entry ``i`` equals
    :func:`compose_resources` and :func:`program_lower_bound` of
    candidate ``i``'s stage numbers, bitwise.
    """
    index = _StageIndex(designs)
    resources = index.compose_resources(engine._estimate(index.stages))
    return resources, index.compose(engine._bounds(index.stages), engine.board)


def lower_bound_program_batch(
    designs: Sequence[ProgramDesign], engine: "CandidateEvaluator"
) -> np.ndarray:
    """Admissible composed lower bounds for a batch of programs.

    ``engine`` bounds each distinct stage design once; entry ``i``
    equals :func:`program_lower_bound` of candidate ``i``'s stage
    bounds, bitwise.
    """
    index = _StageIndex(designs)
    return index.compose(engine._bounds(index.stages), engine.board)
