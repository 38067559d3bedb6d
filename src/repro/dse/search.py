"""Tiered streaming design-space search (screen, then refine).

ROADMAP item 5: Table-3-class spaces inflated by HBM banks, program
stages, or denser depth ladders are 100-1000x larger than what the
materialized ``List[StencilDesign]`` sweeps were built for.  This
module restructures exploration around a :class:`SearchDriver` that

1. consumes a *lazy* candidate generator in fixed-size chunks (peak
   residency is O(chunk), never O(space)),
2. runs a **Tier-0** vectorized screen per chunk — the exact
   :func:`~repro.fpga.batch.estimate_batch` resources checked against
   the budget, plus the admissible latency lower bound of
   :func:`~repro.model.batch.lower_bound_batch` (bitwise-equal to the
   scalar :meth:`~repro.dse.evaluator.CandidateEvaluator.lower_bound`,
   provably ≤ the Eq. 7-11 prediction), and
3. promotes only the survivors, with the resources Tier-0 estimated
   for them, to **Tier-1** exact scoring through the shared
   :class:`~repro.dse.evaluator.CandidateEvaluator`,

while maintaining a running :class:`SearchFrontier` (incumbent best +
(cycles, BRAM) Pareto band).  Because the bound is admissible and the
band-screen rule only discards candidates that some already-scored
point strictly dominates, the tiered search returns the *same best
design* — bitwise — and, under the ``"pareto"`` screen, the same
final frontier as exhaustive scoring (``docs/SEARCH.md`` states the
argument precisely).

The search keeps no record of its own: every Tier-1 score is a pure
function of the design and the engine's evaluation context, so an
engine with a :class:`~repro.store.backing.DesignStore` makes the
work durable.  A killed or repeated search resumes by running again
on that store; finished candidates come back as store hits.

A caller that passes no driver runs the exhaustive search instead:
``evaluator.explore(list(candidates), budget)``.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import (
    CandidateEvaluator,
    DSEResult,
    EvaluatedDesign,
    EvaluationStats,
)
from repro.dse.pareto import pareto_front
from repro.errors import DesignSpaceError
from repro.tiling.design import StencilDesign

__all__ = [
    "SCREEN_MODES",
    "SearchDriver",
    "SearchFrontier",
    "SearchReport",
]

_log = obs.get_logger("dse.search")

#: Valid Tier-0 screen modes: ``None`` disables screening (chunked
#: exhaustive scoring), ``"latency"`` drops candidates whose lower
#: bound already loses to the incumbent best (the single-objective
#: searches), ``"pareto"`` drops only candidates some frontier point
#: strictly dominates in (cycles, BRAM) — the mode that preserves the
#: full Pareto band.
SCREEN_MODES = (None, "latency", "pareto")


def _band_sort_key(e: EvaluatedDesign) -> Tuple:
    return (
        e.predicted_cycles,
        e.resources.total.bram18,
        repr(e.design.signature()),
    )


class SearchFrontier:
    """Running incumbent + (cycles, BRAM) Pareto band.

    The incumbent follows the engine's strict-``<`` update rule, so
    among equal-latency designs the earliest in stream order is kept —
    exactly the design exhaustive ``explore`` returns.  The band is
    maintained incrementally with :func:`~repro.dse.pareto.pareto_front`
    (dominance is transitive and the equal-tuple dedup keeps the
    lowest signature, so incremental == one-shot construction).
    """

    def __init__(self) -> None:
        self.best: Optional[EvaluatedDesign] = None
        self._band: List[EvaluatedDesign] = []

    @property
    def band(self) -> Tuple[EvaluatedDesign, ...]:
        """The current Pareto band, sorted by predicted cycles."""
        return tuple(self._band)

    def __len__(self) -> int:
        return len(self._band)

    def admits_cycles(self, bound: float) -> bool:
        """Latency screen: can a candidate with this bound still win?

        Rejects when ``bound >= best``; an admissible bound therefore
        never rejects a strictly faster candidate.
        """
        return self.best is None or bound < self.best.predicted_cycles

    def admits(self, bound: float, bram: int) -> bool:
        """Pareto screen: could the candidate still reach the band?

        Rejects only when some band member weakly dominates the
        optimistic objective pair ``(bound, bram)`` with at least one
        strict inequality.  Since the true cycles are ≥ ``bound`` and
        BRAM is exact, every rejected candidate is strictly dominated
        by a *scored* design — it can appear on no final frontier, and
        (band cycles never undercut the incumbent) it cannot beat or
        first-tie the best either.  Candidates whose exact objective
        tuple equals a band member's are always admitted, so the
        front's deterministic dedup tie-break is unaffected.
        """
        for p in self._band:
            p_cycles = p.predicted_cycles
            p_bram = p.resources.total.bram18
            if (
                p_bram <= bram
                and p_cycles <= bound
                and (p_bram < bram or p_cycles < bound)
            ):
                return False
        return True

    def extend(self, results: Sequence[EvaluatedDesign]) -> None:
        """Fold newly-scored feasible designs in, in stream order."""
        for result in results:
            if (
                self.best is None
                or result.predicted_cycles < self.best.predicted_cycles
            ):
                self.best = result
        if results:
            self._band = pareto_front(self._band + list(results))

    def members(self) -> Tuple[EvaluatedDesign, ...]:
        """Band plus the incumbent (when dominated off the band),
        sorted by (cycles, BRAM, signature)."""
        members = list(self._band)
        if self.best is not None and not any(
            m is self.best for m in members
        ):
            members.append(self.best)
        members.sort(key=_band_sort_key)
        return tuple(members)


@dataclass
class SearchReport:
    """Driver-level counters for one :meth:`SearchDriver.run`.

    ``peak_resident`` is the largest number of candidate/evaluated
    design objects the driver held at once (current chunk + frontier)
    — the O(chunk) residency guarantee, measurable.
    """

    chunks: int = 0
    candidates: int = 0
    infeasible: int = 0
    screened: int = 0
    promoted: int = 0
    tier1_evaluations: int = 0
    peak_resident: int = 0
    band_size: int = 0
    wall_time_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view (JSON-ready)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class _ChunkOutcome:
    """What one scored chunk contributed."""

    survivors: List[EvaluatedDesign] = field(default_factory=list)
    infeasible: int = 0
    screened: int = 0


class SearchDriver:
    """Screen-then-refine explorer over lazy candidate streams.

    Args:
        evaluator: the exact Tier-1 engine (a serial
            :class:`CandidateEvaluator` is built when omitted); a
            re-run on an engine over the same store answers finished
            work from it.
        chunk_size: candidates materialized at a time (at least 1).
        screen: Tier-0 mode, one of :data:`SCREEN_MODES`.
    """

    def __init__(
        self,
        evaluator: Optional[CandidateEvaluator] = None,
        chunk_size: int = 1024,
        screen: Optional[str] = "latency",
    ):
        if chunk_size is None or chunk_size < 1:
            raise DesignSpaceError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if screen not in SCREEN_MODES:
            raise DesignSpaceError(
                f"Unknown screen mode {screen!r}; expected one of "
                f"{SCREEN_MODES}"
            )
        self.evaluator = evaluator or CandidateEvaluator()
        self.chunk_size = chunk_size
        self.screen = screen
        #: Counters of the most recent :meth:`run`.
        self.report = SearchReport()

    # -- chunk scoring ---------------------------------------------------------

    def _score_chunk(
        self,
        chunk: List[StencilDesign],
        budget: ResourceBudget,
        frontier: SearchFrontier,
        run_stats: EvaluationStats,
    ) -> _ChunkOutcome:
        engine = self.evaluator
        if self.screen is None:
            promoted = chunk
            resources = None
            infeasible = screened = 0
        else:
            with obs.span("search.tier0", candidates=len(chunk)):
                feasible, bounds, estimates = engine.screen_batch(
                    chunk, budget
                )
            promoted = []
            resources = []
            infeasible = screened = 0
            for j, design in enumerate(chunk):
                if not feasible[j]:
                    infeasible += 1
                    continue
                if self.screen == "latency":
                    admitted = frontier.admits_cycles(bounds[j])
                else:
                    admitted = frontier.admits(
                        bounds[j], estimates[j].total.bram18
                    )
                if admitted:
                    promoted.append(design)
                    resources.append(estimates[j])
                else:
                    screened += 1
        tier0 = EvaluationStats(
            candidates=infeasible + screened,
            infeasible=infeasible,
            screened=screened,
            promoted=len(promoted),
        )
        engine.absorb_stats(tier0)
        run_stats.merge(tier0)
        tier1 = EvaluationStats()
        if promoted:
            with obs.span("search.tier1", promoted=len(promoted)):
                # Tier-0's estimates travel with the promoted designs,
                # so Tier-1 runs the resource estimator on none of them.
                results = engine.evaluate_batch(
                    promoted, budget, stats=tier1, resources=resources
                )
        else:
            results = []
        engine.absorb_stats(tier1, publish=False)
        run_stats.merge(tier1)
        survivors = [r for r in results if r is not None]
        # Tier-1 re-checks feasibility with the identical integer
        # estimate, so with screening on nothing is rejected here; with
        # screening off its rejects are this chunk's infeasible count.
        if self.screen is None:
            infeasible = len(promoted) - len(survivors)
        return _ChunkOutcome(
            survivors=survivors,
            infeasible=infeasible,
            screened=screened,
        )

    # -- the drive loop --------------------------------------------------------

    def run(
        self,
        candidates: Iterable[StencilDesign],
        budget: ResourceBudget,
    ) -> DSEResult:
        """Search a candidate stream; return the frontier's result.

        The returned :class:`DSEResult` carries the incumbent best
        (bitwise-equal to the exhaustive best), the frontier members
        as ``candidates``, and the band under ``frontier``;
        ``evaluated``/``feasible`` count the streamed and feasible
        candidates.
        """
        frontier = SearchFrontier()
        run_stats = EvaluationStats()
        report = SearchReport()
        start = time.perf_counter()
        stream = iter(candidates)
        with obs.span(
            "search.run",
            chunk_size=self.chunk_size,
            screen=self.screen or "off",
        ) as run_span:
            while True:
                chunk = list(itertools.islice(stream, self.chunk_size))
                if not chunk:
                    break
                outcome = self._score_chunk(
                    chunk, budget, frontier, run_stats
                )
                frontier.extend(outcome.survivors)
                report.chunks += 1
                report.candidates += len(chunk)
                report.infeasible += outcome.infeasible
                report.screened += outcome.screened
                report.promoted += len(outcome.survivors)
                resident = len(chunk) + len(frontier) + 1
                report.peak_resident = max(
                    report.peak_resident, resident
                )
                obs.inc("search.chunks")
                obs.set_gauge("search.band_size", len(frontier))
                obs.set_gauge(
                    "search.peak_resident", report.peak_resident
                )
            run_span.set(
                chunks=report.chunks, promoted=report.promoted
            )
        run_stats.wall_time_s = time.perf_counter() - start
        report.tier1_evaluations = run_stats.evaluated
        report.band_size = len(frontier)
        report.wall_time_s = run_stats.wall_time_s
        self.report = report
        if obs.enabled():
            _log.debug(
                "search: %s chunks, %s", report.chunks, run_stats.summary()
            )
        if frontier.best is None:
            raise DesignSpaceError(
                f"No feasible design within budget {budget.label} "
                f"({report.candidates} candidates evaluated)"
            )
        return DSEResult(
            best=frontier.best,
            evaluated=report.candidates,
            feasible=report.candidates - report.infeasible,
            candidates=frontier.members(),
            stats=run_stats,
            frontier=frontier.band,
        )
