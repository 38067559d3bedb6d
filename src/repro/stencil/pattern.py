"""Declarative linear stencil patterns.

A stencil update is represented as a set of *taps*: each output field's
new value is an affine combination of input-field values at fixed
offsets plus auxiliary (read-only) inputs and an optional constant.
This covers the entire Table 2 suite of the paper — Jacobi (single
field), HotSpot (field + power input), and FDTD (three coupled fields)
— as well as any other linear stencil.

Multi-sweep algorithms such as FDTD, whose time step is a *sequence* of
dependent sweeps, are expressed as :class:`Stage` lists and symbolically
composed into an equivalent single-stage pattern with
:func:`compose_stages`; since every sweep is linear, the composition is
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import SpecificationError


@dataclass(frozen=True)
class Tap:
    """One term of a stencil update: ``coeff * source[cell + offset]``.

    Attributes:
        source: name of the input field or auxiliary array read.
        offset: relative grid offset of the read, one entry per dim.
        coeff: multiplicative coefficient.
    """

    source: str
    offset: Tuple[int, ...]
    coeff: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", tuple(int(o) for o in self.offset))

    def shifted(self, shift: Sequence[int]) -> "Tap":
        """Tap translated by ``shift`` (used by stage composition)."""
        return Tap(
            self.source,
            tuple(o + s for o, s in zip(self.offset, shift)),
            self.coeff,
        )

    def scaled(self, factor: float) -> "Tap":
        """Tap with coefficient multiplied by ``factor``."""
        return Tap(self.source, self.offset, self.coeff * factor)


@dataclass(frozen=True)
class FieldUpdate:
    """Affine update rule for one output field.

    ``new[cell] = sum(tap.coeff * tap.source[cell + tap.offset]) + constant``
    """

    taps: Tuple[Tap, ...]
    constant: float = 0.0

    def __post_init__(self) -> None:
        if not self.taps and self.constant == 0.0:
            raise SpecificationError("FieldUpdate needs at least one tap")
        ranks = {len(t.offset) for t in self.taps}
        if len(ranks) > 1:
            raise SpecificationError(
                f"Taps have inconsistent dimensionality: {ranks}"
            )

    @property
    def ndim(self) -> int:
        """Dimensionality of the tap offsets."""
        return len(self.taps[0].offset) if self.taps else 0

    def sources(self) -> Tuple[str, ...]:
        """Distinct input names read, in first-appearance order."""
        seen: List[str] = []
        for tap in self.taps:
            if tap.source not in seen:
                seen.append(tap.source)
        return tuple(seen)


def _merge_taps(taps: Sequence[Tap]) -> Tuple[Tap, ...]:
    """Sum coefficients of taps sharing (source, offset), keeping order."""
    merged: Dict[Tuple[str, Tuple[int, ...]], float] = {}
    order: List[Tuple[str, Tuple[int, ...]]] = []
    for tap in taps:
        key = (tap.source, tap.offset)
        if key not in merged:
            merged[key] = 0.0
            order.append(key)
        merged[key] += tap.coeff
    return tuple(
        Tap(src, off, merged[(src, off)])
        for src, off in order
        if merged[(src, off)] != 0.0
    )


@dataclass(frozen=True)
class StencilPattern:
    """A complete single-stage stencil update over one or more fields.

    Attributes:
        name: human-readable identifier (e.g. ``"jacobi-2d"``).
        ndim: grid dimensionality ``D``.
        fields: names of the state fields updated every iteration.
        aux: names of read-only auxiliary inputs (e.g. HotSpot power).
        updates: per-field affine update rules.
    """

    name: str
    ndim: int
    fields: Tuple[str, ...]
    updates: Mapping[str, FieldUpdate]
    aux: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.ndim < 1:
            raise SpecificationError(f"ndim must be >= 1, got {self.ndim}")
        if not self.fields:
            raise SpecificationError("Pattern needs at least one field")
        if set(self.updates) != set(self.fields):
            raise SpecificationError(
                f"updates keys {sorted(self.updates)} must equal "
                f"fields {sorted(self.fields)}"
            )
        valid_sources = set(self.fields) | set(self.aux)
        for fname, update in self.updates.items():
            if update.taps and update.ndim != self.ndim:
                raise SpecificationError(
                    f"Update for {fname!r} has rank {update.ndim}, "
                    f"pattern has ndim {self.ndim}"
                )
            for tap in update.taps:
                if tap.source not in valid_sources:
                    raise SpecificationError(
                        f"Update for {fname!r} reads unknown source "
                        f"{tap.source!r}"
                    )

    @cached_property
    def radius(self) -> Tuple[int, ...]:
        """Maximum absolute tap offset per dimension (halo width)."""
        radius = [0] * self.ndim
        for update in self.updates.values():
            for tap in update.taps:
                for d, off in enumerate(tap.offset):
                    radius[d] = max(radius[d], abs(off))
        return tuple(radius)

    def signature(self) -> Tuple:
        """Canonical hashable identity of the update rule.

        Two patterns with equal signatures produce identical model and
        resource estimates, so the signature is usable as a cache key
        (``updates`` is a mapping and therefore unhashable directly).
        The tuple is cached on the instance (the dataclass is frozen,
        so it can never go stale).
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            updates = tuple(
                (
                    fname,
                    tuple(
                        (t.source, t.offset, t.coeff)
                        for t in self.updates[fname].taps
                    ),
                    self.updates[fname].constant,
                )
                for fname in sorted(self.updates)
            )
            cached = (self.name, self.ndim, self.fields, self.aux, updates)
            object.__setattr__(self, "_signature", cached)
        return cached

    @property
    def halo_growth(self) -> Tuple[int, ...]:
        """``Δw_d``: per-dimension tile growth per fused iteration.

        The cone of a tile expands by the stencil radius on both sides
        of each dimension for every fused iteration, so the footprint
        length grows by ``2 * r_d`` (Table 1's ``Δw_d``).
        """
        return tuple(2 * r for r in self.radius)

    @property
    def num_fields(self) -> int:
        """Number of state fields updated each iteration."""
        return len(self.fields)

    def points_per_cell(self) -> int:
        """Total taps evaluated per grid cell per iteration."""
        return sum(len(u.taps) for u in self.updates.values())

    def multiplies_per_cell(self) -> int:
        """Multiplications per cell (taps with coefficient != 1)."""
        return sum(
            1
            for u in self.updates.values()
            for t in u.taps
            if t.coeff != 1.0
        )

    def adds_per_cell(self) -> int:
        """Additions per cell (tap accumulation + constants)."""
        total = 0
        for update in self.updates.values():
            terms = len(update.taps) + (1 if update.constant != 0.0 else 0)
            total += max(0, terms - 1)
        return total

    def flops_per_cell(self) -> int:
        """Floating-point operations per cell per iteration."""
        return self.multiplies_per_cell() + self.adds_per_cell()


@dataclass(frozen=True)
class Stage:
    """One sweep of a multi-sweep time step (e.g. FDTD's ey/ex/hz sweeps).

    A stage updates a subset of fields from the *current* state (which
    includes the results of earlier stages in the same time step).
    """

    updates: Mapping[str, FieldUpdate]


def compose_stages(
    name: str,
    ndim: int,
    fields: Sequence[str],
    stages: Sequence[Stage],
    aux: Sequence[str] = (),
) -> StencilPattern:
    """Symbolically compose sequential sweeps into one-step taps.

    Because every sweep is affine, the value of each field after the
    full sequence of stages is itself an affine function of the state at
    the *start* of the time step.  This function expands that
    composition exactly, producing a single-stage
    :class:`StencilPattern` whose one application equals applying all
    stages in order.

    Args:
        name: name for the composed pattern.
        ndim: grid dimensionality.
        fields: all state fields (in canonical order).
        stages: sweeps applied in order within one time step.
        aux: read-only auxiliary input names.

    Returns:
        The exact single-stage composition.
    """
    field_set = set(fields)
    aux_set = set(aux)
    # Symbolic state: field -> (taps over start-of-step sources, constant).
    state: Dict[str, Tuple[Tuple[Tap, ...], float]] = {
        f: ((Tap(f, (0,) * ndim, 1.0),), 0.0) for f in fields
    }
    for stage in stages:
        new_state = dict(state)
        for fname, update in stage.updates.items():
            if fname not in field_set:
                raise SpecificationError(
                    f"Stage writes unknown field {fname!r}"
                )
            expanded: List[Tap] = []
            constant = update.constant
            for tap in update.taps:
                if tap.source in aux_set:
                    expanded.append(tap)
                    continue
                if tap.source not in field_set:
                    raise SpecificationError(
                        f"Stage update for {fname!r} reads unknown "
                        f"source {tap.source!r}"
                    )
                base_taps, base_const = state[tap.source]
                constant += tap.coeff * base_const
                for base in base_taps:
                    expanded.append(base.shifted(tap.offset).scaled(tap.coeff))
            new_state[fname] = (_merge_taps(expanded), constant)
        state = new_state

    updates = {
        f: FieldUpdate(taps=state[f][0], constant=state[f][1]) for f in fields
    }
    return StencilPattern(
        name=name,
        ndim=ndim,
        fields=tuple(fields),
        updates=updates,
        aux=tuple(aux),
    )
