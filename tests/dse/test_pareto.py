"""Tests for Pareto-front utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.optimizer import EvaluatedDesign
from repro.dse.pareto import pareto_front
from repro.fpga.estimator import DesignResources
from repro.fpga.resources import ResourceVector
from repro.stencil import jacobi_2d
from repro.tiling import make_baseline_design


def make_candidate(cycles, bram, tile=(8, 8), depth=2):
    spec = jacobi_2d(grid=(32, 32), iterations=4)
    design = make_baseline_design(spec, tile, (2, 2), depth)
    resources = DesignResources(
        total=ResourceVector(bram18=bram),
        kernels=ResourceVector(bram18=bram),
        pipes=ResourceVector(),
    )
    return EvaluatedDesign(design, cycles, resources)


class TestParetoFront:
    def test_dominated_point_removed(self):
        a = make_candidate(100, 10)
        b = make_candidate(200, 20)  # dominated by a
        front = pareto_front([a, b])
        assert front == [a]

    def test_tradeoff_points_kept(self):
        fast_big = make_candidate(100, 50)
        slow_small = make_candidate(200, 10)
        front = pareto_front([fast_big, slow_small])
        assert set(id(c) for c in front) == {
            id(fast_big),
            id(slow_small),
        }

    def test_sorted_by_cycles(self):
        candidates = [
            make_candidate(300, 5),
            make_candidate(100, 50),
            make_candidate(200, 20),
        ]
        front = pareto_front(candidates)
        cycles = [c.predicted_cycles for c in front]
        assert cycles == sorted(cycles)

    def test_duplicate_objectives_deduplicated(self):
        # Duplicated designs with identical objectives collapse to one
        # frontier entry — a duplicate adds no trade-off information.
        a = make_candidate(100, 10)
        b = make_candidate(100, 10)
        front = pareto_front([a, b])
        assert len(front) == 1
        assert front[0].predicted_cycles == 100

    def test_duplicate_objectives_do_not_shadow_the_front(self):
        # Historically a tied pair excluded *each other* from the
        # dominance scan, letting dominated duplicates survive; the
        # frontier must stay duplicate-free and correct.
        tied_a = make_candidate(100, 10)
        tied_b = make_candidate(100, 10)
        dominated = make_candidate(200, 20)
        front = pareto_front([tied_a, dominated, tied_b])
        assert len(front) == 1
        assert front[0].predicted_cycles == 100

    def test_duplicate_pick_is_deterministic(self):
        # Distinct designs with equal objectives: the kept one is the
        # lowest canonical signature, regardless of input order.
        a = make_candidate(100, 10, tile=(8, 8))
        b = make_candidate(100, 10, tile=(16, 4))
        expected = min(
            (a, b), key=lambda c: repr(c.design.signature())
        )
        for ordering in ([a, b], [b, a]):
            front = pareto_front(ordering)
            assert len(front) == 1
            assert front[0] is expected

    def test_empty_input(self):
        assert pareto_front([]) == []

    def test_ties_off_the_front_are_not_rendered(self):
        # Signatures decide only ties that reach the front; rendering
        # the dominated ones (long program signatures) decides nothing.
        class Unrendered:
            def signature(self):
                raise AssertionError("rendered a tie off the front")

        def unrendered(cycles, bram):
            resources = make_candidate(cycles, bram).resources
            return EvaluatedDesign(Unrendered(), cycles, resources)

        winner = make_candidate(100, 10)
        dominated = [unrendered(200, 20) for _ in range(5)]
        tied = [make_candidate(50, 30, tile=t) for t in ((8, 8), (16, 4))]
        front = pareto_front(dominated + [winner] + tied)
        assert front == [
            min(tied, key=lambda c: repr(c.design.signature())),
            winner,
        ]


def _dominates(a, b):
    """True when ``a`` is no worse in every objective and better in one."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def quadratic_front(candidates):
    """The O(n^2) dominance scan the sweep replaced (the test oracle).

    Equal objective pairs collapse to the lowest ``repr`` signature;
    every surviving pair is checked against every other; the front is
    sorted by cycles.
    """
    best = {}
    for candidate in candidates:
        values = (
            candidate.predicted_cycles,
            float(candidate.resources.total.bram18),
        )
        kept = best.get(values)
        if kept is None or repr(candidate.design.signature()) < repr(
            kept.design.signature()
        ):
            best[values] = candidate
    points = list(best.items())
    front = [
        (values, candidate)
        for values, candidate in points
        if not any(_dominates(other, values) for other, _ in points)
    ]
    front.sort(key=lambda pair: pair[0][0])
    return [candidate for _values, candidate in front]


#: Few distinct values per objective, so random draws are full of
#: duplicate tuples, tied cycles and tied BRAM counts; distinct
#: designs make the duplicate tie-break observable.
_points = st.lists(
    st.tuples(
        st.sampled_from([100.0, 150.5, 200.0, 250.0, 300.0]),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([(8, 8), (16, 4), (4, 16)]),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=40,
)


class TestSweepMatchesQuadraticOracle:
    @settings(max_examples=200, deadline=None)
    @given(_points)
    def test_random_inputs(self, points):
        candidates = [
            make_candidate(cycles, bram, tile=tile, depth=depth)
            for cycles, bram, tile, depth in points
        ]
        front = pareto_front(candidates)
        expected = quadratic_front(candidates)
        assert [id(c) for c in front] == [id(c) for c in expected]
        cycles = [c.predicted_cycles for c in front]
        assert cycles == sorted(set(cycles))
