"""The multi-stencil program IR: a DAG of dependent stencil stages.

The paper synthesizes one stencil at a time; real workloads are
*chains* of dependent stencils (StencilFlow maps whole DAGs of stencil
operators onto spatial hardware).  A :class:`ProgramSpec` lifts the
single-workload :class:`~repro.stencil.spec.StencilSpec` to a program:

- a **stage** is a named, fully-specified stencil workload (its own
  pattern, grid, iteration count, dtype, boundary, and deterministic
  initial state);
- an **edge** declares that one stage's final field feeds another
  stage's input — either a state field (its initial value) or a
  read-only auxiliary array.

Validation is strict and structural: edges must reference known
stages/fields, connected stages must agree on grid shape, dtype, and
boundary policy (the bitwise-parity contract composes stage by stage,
so a silent cast or resample would be a correctness bug), at most one
edge may feed any given input, and the stage graph must be acyclic.
Execution order is the deterministic topological order that respects
stage declaration order among independent stages.

Like every other cacheable object in the framework, a program has a
canonical :meth:`ProgramSpec.signature` — equal signatures imply
identical model, search, and simulation results — so the
content-addressed :class:`~repro.store.backing.DesignStore`, the
evaluator memo, and service request coalescing all work unchanged for
programs (see ``docs/PROGRAMS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SpecificationError
from repro.stencil.spec import StencilSpec
from repro.store.journal import canonical_json


@dataclass(frozen=True)
class ProgramStage:
    """One named stage of a stencil program."""

    name: str
    spec: StencilSpec

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecificationError("Stage name must be a non-empty string")


@dataclass(frozen=True)
class ProgramEdge:
    """One dataflow edge: a produced field feeding a consumer input.

    Attributes:
        producer: name of the stage whose final state is read.
        field: the producer field that flows along the edge.
        consumer: name of the stage receiving the data.
        target: the consumer input fed — a state field (the edge sets
            its initial value) or an auxiliary array name (the edge
            supplies the read-only input).
    """

    producer: str
    field: str
    consumer: str
    target: str


@dataclass(frozen=True)
class ProgramSpec:
    """A validated DAG of dependent stencil stages.

    Attributes:
        name: program name (e.g. ``"blur-sobel-threshold"``).
        stages: the stages, in declaration order.
        edges: inter-stage dataflow edges.
    """

    name: str
    stages: Tuple[ProgramStage, ...]
    edges: Tuple[ProgramEdge, ...] = ()
    _order: Tuple[str, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.stages:
            raise SpecificationError(
                f"Program {self.name!r} needs at least one stage"
            )
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            seen = {n for n in names if names.count(n) > 1}
            raise SpecificationError(
                f"Duplicate stage name(s) in program {self.name!r}: "
                f"{sorted(seen)}"
            )
        by_name = {stage.name: stage for stage in self.stages}
        fed: Dict[Tuple[str, str], ProgramEdge] = {}
        for edge in self.edges:
            self._check_edge(edge, by_name)
            key = (edge.consumer, edge.target)
            if key in fed:
                other = fed[key]
                raise SpecificationError(
                    f"Input {edge.target!r} of stage {edge.consumer!r} is "
                    f"fed by two edges (from {other.producer!r} and "
                    f"{edge.producer!r})"
                )
            fed[key] = edge
        object.__setattr__(self, "_order", self._topological_order())

    # -- validation ------------------------------------------------------------

    def _check_edge(
        self, edge: ProgramEdge, by_name: Dict[str, ProgramStage]
    ) -> None:
        for role, stage_name in (
            ("producer", edge.producer),
            ("consumer", edge.consumer),
        ):
            if stage_name not in by_name:
                raise SpecificationError(
                    f"Edge {role} {stage_name!r} is not a stage of "
                    f"program {self.name!r} (stages: "
                    f"{[s.name for s in self.stages]})"
                )
        if edge.producer == edge.consumer:
            raise SpecificationError(
                f"Stage {edge.producer!r} cannot feed itself"
            )
        producer = by_name[edge.producer].spec
        consumer = by_name[edge.consumer].spec
        if edge.field not in producer.pattern.fields:
            raise SpecificationError(
                f"Edge reads unknown field {edge.field!r} of stage "
                f"{edge.producer!r} (fields: {producer.pattern.fields})"
            )
        known = set(consumer.pattern.fields) | set(consumer.pattern.aux)
        if edge.target not in known:
            raise SpecificationError(
                f"Edge feeds unknown input {edge.target!r} of stage "
                f"{edge.consumer!r} (fields: {consumer.pattern.fields}, "
                f"aux: {consumer.pattern.aux})"
            )
        if producer.grid_shape != consumer.grid_shape:
            raise SpecificationError(
                f"Edge {edge.producer!r}->{edge.consumer!r}: grid shapes "
                f"differ ({producer.grid_shape} vs {consumer.grid_shape}); "
                "inter-stage fields flow without resampling"
            )
        if producer.dtype != consumer.dtype:
            raise SpecificationError(
                f"Edge {edge.producer!r}->{edge.consumer!r}: dtypes differ "
                f"({producer.dtype} vs {consumer.dtype}); a silent cast "
                "would break the bitwise-parity contract"
            )
        if producer.boundary is not consumer.boundary:
            raise SpecificationError(
                f"Edge {edge.producer!r}->{edge.consumer!r}: boundary "
                f"policies differ ({producer.boundary.name} vs "
                f"{consumer.boundary.name})"
            )

    def _topological_order(self) -> Tuple[str, ...]:
        """Deterministic Kahn's algorithm (declaration order breaks ties)."""
        names = [stage.name for stage in self.stages]
        indegree = {name: 0 for name in names}
        successors: Dict[str, List[str]] = {name: [] for name in names}
        for edge in self.edges:
            if edge.consumer not in successors[edge.producer]:
                successors[edge.producer].append(edge.consumer)
            indegree[edge.consumer] += 1
        # Count each (producer, consumer) pair once for the indegree.
        indegree = {name: 0 for name in names}
        for name, succ in successors.items():
            for consumer in succ:
                indegree[consumer] += 1
        order: List[str] = []
        ready = [name for name in names if indegree[name] == 0]
        while ready:
            current = ready.pop(0)
            order.append(current)
            for consumer in successors[current]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    # Insert in declaration order to keep the order
                    # deterministic and stable across runs.
                    ready.append(consumer)
                    ready.sort(key=names.index)
        if len(order) != len(names):
            cyclic = sorted(set(names) - set(order))
            raise SpecificationError(
                f"Program {self.name!r} has a dependency cycle through "
                f"stage(s) {cyclic}"
            )
        return tuple(order)

    # -- accessors -------------------------------------------------------------

    @property
    def num_stages(self) -> int:
        """Number of stages."""
        return len(self.stages)

    def stage(self, name: str) -> ProgramStage:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise SpecificationError(
            f"Program {self.name!r} has no stage {name!r}"
        )

    def topo_order(self) -> Tuple[str, ...]:
        """Stage names in deterministic topological (execution) order."""
        return self._order

    def edges_into(self, stage_name: str) -> Tuple[ProgramEdge, ...]:
        """Edges feeding a stage, in declaration order."""
        return tuple(e for e in self.edges if e.consumer == stage_name)

    def edges_from(self, stage_name: str) -> Tuple[ProgramEdge, ...]:
        """Edges consuming a stage's output, in declaration order."""
        return tuple(e for e in self.edges if e.producer == stage_name)

    def terminal_stages(self) -> Tuple[str, ...]:
        """Stages whose output feeds no other stage (program outputs)."""
        producers = {e.producer for e in self.edges}
        return tuple(
            s.name for s in self.stages if s.name not in producers
        )

    def signature(self) -> Tuple:
        """Canonical hashable identity of the program.

        Covers every field that influences evaluation: stage names and
        their full spec signatures (in declaration order) plus the
        sorted edge list.  Equal signatures imply identical model,
        search, and simulation results, so the signature keys the
        evaluator memo and the persistent design store.  The tuple is
        cached on the instance (the dataclass is frozen, so it can never
        go stale).
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = (
                "program",
                self.name,
                tuple(
                    (stage.name, stage.spec.signature())
                    for stage in self.stages
                ),
                tuple(
                    sorted(
                        (e.producer, e.field, e.consumer, e.target)
                        for e in self.edges
                    )
                ),
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def signature_json(self) -> bytes:
        """:meth:`signature` as canonical JSON (UTF-8), encoded once.

        Every :class:`~repro.program.design.ProgramDesign` of this
        program hashes these bytes into its store key.
        """
        cached = self.__dict__.get("_signature_json")
        if cached is None:
            cached = canonical_json(self.signature()).encode("utf-8")
            object.__setattr__(self, "_signature_json", cached)
        return cached

    def describe(self) -> str:
        """One-line human-readable description."""
        chain = " -> ".join(self.topo_order())
        return (
            f"{self.name}: {self.num_stages} stage(s) [{chain}], "
            f"{len(self.edges)} edge(s)"
        )


class ProgramBuilder:
    """Incremental, validating constructor for :class:`ProgramSpec`.

    Example:
        >>> from repro.stencil.library import gaussian_blur_2d
        >>> builder = ProgramBuilder("pipeline")
        >>> _ = builder.stage("blur", gaussian_blur_2d(grid=(32, 32)))
        >>> spec = builder.build()
        >>> spec.num_stages
        1
    """

    def __init__(self, name: str):
        self.name = name
        self._stages: List[ProgramStage] = []
        self._edges: List[ProgramEdge] = []

    def stage(self, name: str, spec: StencilSpec) -> "ProgramBuilder":
        """Append a stage; returns the builder for chaining."""
        self._stages.append(ProgramStage(name, spec))
        return self

    def connect(
        self,
        producer: str,
        field: str,
        consumer: str,
        target: str = None,
    ) -> "ProgramBuilder":
        """Add an edge; ``target`` defaults to the produced field name."""
        self._edges.append(
            ProgramEdge(
                producer, field, consumer,
                field if target is None else target,
            )
        )
        return self

    def build(self) -> ProgramSpec:
        """Validate and freeze the program."""
        return ProgramSpec(
            name=self.name,
            stages=tuple(self._stages),
            edges=tuple(self._edges),
        )


def single_stage_program(spec: StencilSpec) -> ProgramSpec:
    """Wrap one stencil workload as a trivial one-stage program."""
    return ProgramSpec(
        name=spec.name, stages=(ProgramStage(spec.name, spec),)
    )
