"""Performance/resource Pareto-frontier utilities.

The frontier is the (predicted cycles, BRAM blocks) trade-off the
paper's Table 3 stresses.  :func:`pareto_front` builds it from designs
the shared :class:`~repro.dse.evaluator.CandidateEvaluator` engine has
already scored; the tiered :class:`~repro.dse.search.SearchDriver`
keeps one incrementally under its ``"pareto"`` screen.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.dse.evaluator import EvaluatedDesign


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
