"""A complete hardware mapping of a stencil program.

A :class:`ProgramDesign` binds one :class:`~repro.tiling.design.StencilDesign`
to every stage of a :class:`~repro.program.spec.ProgramSpec`, plus a
**schedule** deciding how stages share the device:

- ``"coresident"`` — all stage pipelines are instantiated on the fabric
  at once; resources add up, and aligned producer/consumer tilings can
  forward inter-stage fields on-chip instead of spilling through DDR.
- ``"timeshared"`` — stages execute one after another, each getting the
  whole fabric; resources are the componentwise maximum, every
  inter-stage field spills through DDR, and each stage transition pays
  a reconfiguration penalty.

Like :class:`~repro.tiling.design.StencilDesign`, a program design is
frozen and content-addressed: the store key of its
:meth:`ProgramDesign.signature` keys the evaluator memo and the
persistent design store.  The key is hashed from the JSON the program
and each stage design cache (:meth:`ProgramDesign.signature_json_parts`),
so a composed candidate costs one hash, not a fresh encoding of its
nested signature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.errors import DesignSpaceError
from repro.program.spec import ProgramSpec
from repro.store.journal import canonical_json
from repro.tiling.design import StencilDesign

#: Supported program schedules.
SCHEDULES: Tuple[str, ...] = ("coresident", "timeshared")


@functools.lru_cache(maxsize=1024)
def _json_text(text: str) -> bytes:
    """Canonical JSON of a stage name or schedule (UTF-8)."""
    return canonical_json(text).encode("utf-8")


@dataclass(frozen=True)
class ProgramDesign:
    """One point of the program-level design space.

    Attributes:
        program: the program being mapped.
        stage_designs: ``(stage_name, design)`` pairs in the program's
            topological order — one per stage, where each design's spec
            must be the stage's spec.
        schedule: ``"coresident"`` or ``"timeshared"``.
    """

    program: ProgramSpec
    stage_designs: Tuple[Tuple[str, StencilDesign], ...]
    schedule: str = "coresident"
    _signature: Tuple = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "stage_designs", tuple(self.stage_designs)
        )
        if self.schedule not in SCHEDULES:
            raise DesignSpaceError(
                f"Unknown program schedule {self.schedule!r}; "
                f"supported: {SCHEDULES}"
            )
        order = self.program.topo_order()
        got = tuple(name for name, _ in self.stage_designs)
        if got != order:
            raise DesignSpaceError(
                f"Stage designs must follow the program's topological "
                f"order {order}, got {got}"
            )
        for name, design in self.stage_designs:
            expected = self.program.stage(name).spec
            if design.spec.signature() != expected.signature():
                raise DesignSpaceError(
                    f"Design for stage {name!r} was built for workload "
                    f"{design.spec.name!r}, expected "
                    f"{expected.name!r} (signatures differ)"
                )

    @property
    def num_stages(self) -> int:
        """Number of stages."""
        return len(self.stage_designs)

    def design_for(self, stage_name: str) -> StencilDesign:
        """The design bound to a stage."""
        for name, design in self.stage_designs:
            if name == stage_name:
                return design
        raise DesignSpaceError(
            f"Program design has no stage {stage_name!r}"
        )

    def designs(self) -> Dict[str, StencilDesign]:
        """Stage designs keyed by stage name (topological order)."""
        return dict(self.stage_designs)

    def signature(self) -> Tuple:
        """Canonical hashable identity of the mapped program."""
        if self._signature is None:
            object.__setattr__(
                self,
                "_signature",
                (
                    "program-design",
                    self.program.signature(),
                    tuple(
                        (name, design.signature())
                        for name, design in self.stage_designs
                    ),
                    self.schedule,
                ),
            )
        return self._signature

    def signature_json_parts(self) -> Iterator[bytes]:
        """:meth:`signature` as canonical JSON (UTF-8), piece by piece.

        The pieces are the encodings the program and each stage design
        cache, joined by short literals, so hashing them into a store
        key encodes nothing per composed candidate: their concatenation
        is exactly ``canonical_json(self.signature())``.
        """
        yield b'["program-design",'
        yield self.program.signature_json()
        yield b",["
        for position, (name, design) in enumerate(self.stage_designs):
            yield b"[" if position == 0 else b",["
            yield _json_text(name)
            yield b","
            yield from design.signature_json_parts()
            yield b"]"
        yield b"],"
        yield _json_text(self.schedule)
        yield b"]"

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [f"{self.program.name} [{self.schedule}]"]
        for name, design in self.stage_designs:
            lines.append(f"  {name}: {design.describe()}")
        return "\n".join(lines)
