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

    Candidates with exactly equal objective pairs are grouped; a pair
    that reaches the front keeps the design with the lowest canonical
    signature (first in input order among equal signatures), so the
    pick is deterministic regardless of input order — the returned
    frontier never contains two entries with the same objectives.
    Signatures are rendered only for tied pairs on the front: a tie
    the front does not reach never decides anything, and program
    signatures are long.

    The distinct pairs are swept once in ascending (cycles, BRAM)
    order.  Only an earlier pair can dominate a later one, and it does
    exactly when its BRAM is no larger, so a pair is kept if and only
    if its BRAM is strictly below the running minimum: O(n log n).

    Args:
        candidates: evaluated designs.

    Returns:
        The Pareto-optimal subset, by ascending cycles (all distinct).
    """
    first: Dict[Tuple[float, int], EvaluatedDesign] = {}
    ties: Dict[Tuple[float, int], List[EvaluatedDesign]] = {}
    for candidate in candidates:
        key = (candidate.predicted_cycles, candidate.resources.total.bram18)
        kept = first.setdefault(key, candidate)
        if kept is not candidate:
            ties.setdefault(key, [kept]).append(candidate)
    front: List[EvaluatedDesign] = []
    floor = math.inf
    for key in sorted(first):
        if key[1] < floor:
            tied = ties.get(key)
            front.append(
                first[key] if tied is None else min(tied, key=_signature_text)
            )
            floor = key[1]
    return front


def _signature_text(candidate: EvaluatedDesign) -> str:
    return repr(candidate.design.signature())
