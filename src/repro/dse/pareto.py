"""Performance/resource Pareto-frontier utilities.

The frontier is the (predicted cycles, BRAM blocks) trade-off the
paper's Table 3 stresses.  Scoring raw designs for a frontier goes
through the shared :class:`~repro.dse.evaluator.CandidateEvaluator`
engine (:func:`pareto_explore`), so frontier construction reuses the
same signature caches as the ``optimize_*`` searches instead of
carrying its own evaluation loop.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dse.constraints import ResourceBudget
from repro.dse.evaluator import CandidateEvaluator, EvaluatedDesign
from repro.errors import DesignSpaceError
from repro.store.backing import BackingStore
from repro.tiling.design import StencilDesign

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dse.search import SearchDriver


def pareto_front(
    candidates: Sequence[EvaluatedDesign],
) -> List[EvaluatedDesign]:
    """Non-dominated candidates in (predicted cycles, BRAM), both minimized.

    Candidates with exactly equal objective pairs are deduplicated
    first, keeping the design with the lowest canonical signature (so
    the pick is deterministic regardless of input order; the
    signatures are rendered only on a collision) — the returned
    frontier never contains two entries with the same objectives.

    The distinct pairs are then swept once in ascending (cycles, BRAM)
    order.  Only an earlier pair can dominate a later one, and it does
    exactly when its BRAM is no larger, so a pair is kept if and only
    if its BRAM is strictly below the running minimum: O(n log n).

    Args:
        candidates: evaluated designs.

    Returns:
        The Pareto-optimal subset, by ascending cycles (all distinct).
    """
    best: Dict[Tuple[float, int], EvaluatedDesign] = {}
    for candidate in candidates:
        key = (candidate.predicted_cycles, candidate.resources.total.bram18)
        kept = best.get(key)
        if kept is None or repr(candidate.design.signature()) < repr(
            kept.design.signature()
        ):
            best[key] = candidate
    front: List[EvaluatedDesign] = []
    floor = math.inf
    for key in sorted(best):
        if key[1] < floor:
            front.append(best[key])
            floor = key[1]
    return front


def pareto_explore(
    designs: Sequence[StencilDesign],
    budget: ResourceBudget,
    evaluator: Optional[CandidateEvaluator] = None,
    store: Optional[BackingStore] = None,
    driver: Optional["SearchDriver"] = None,
) -> List[EvaluatedDesign]:
    """Evaluate raw designs through the engine and return their front.

    Args:
        designs: unscored candidate designs (any iterable; with a
            tiered ``driver`` the stream is consumed chunk by chunk
            and never materialized).
        budget: resource ceiling; infeasible designs are excluded.
        evaluator: shared engine (a serial one is built when omitted).
        store: persistent backing store for the freshly-built engine —
            frontier scoring warm-starts from (and writes through to)
            disk.  Ignored when ``evaluator`` is supplied; attach the
            store to that evaluator instead.
        driver: optional :class:`~repro.dse.search.SearchDriver`.  A
            tiered driver must screen in ``"pareto"`` mode (or not at
            all) — the latency screen discards low-BRAM points the
            frontier needs.

    Returns:
        The Pareto-optimal subset of the feasible designs.
    """
    if driver is not None and driver.chunk_size is not None:
        if driver.screen == "latency":
            raise DesignSpaceError(
                "pareto_explore needs a driver with screen='pareto' "
                "(or None); the latency screen drops frontier points"
            )
        try:
            result = driver.run(designs, budget)
        except DesignSpaceError as exc:
            if "No feasible design" in str(exc):
                return []
            raise
        return list(result.frontier)
    engine = (
        driver.evaluator
        if driver is not None
        else evaluator or CandidateEvaluator(store=store)
    )
    scored = [
        result
        for result in engine.evaluate_batch(list(designs), budget)
        if result is not None
    ]
    return pareto_front(scored)
