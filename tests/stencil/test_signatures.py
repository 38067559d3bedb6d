"""Signature caching on the frozen pattern and spec dataclasses.

``StencilPattern.signature()`` and ``StencilSpec.signature()`` store
their tuple on the instance the first time they run.  The cache must
never outlive the values it was computed from: a ``replace`` copy
computes its own, and a pickled copy carries an equal one.
"""

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.dse import CandidateEvaluator, optimize_full
from repro.stencil import get_benchmark, jacobi_2d


def fresh_signature(obj):
    """The signature recomputed on a copy that has no cache yet."""
    return dataclasses.replace(obj).signature()


class TestCachedSignatures:
    def test_repeated_calls_return_the_cached_tuple(self, small_fdtd2d):
        assert small_fdtd2d.signature() is small_fdtd2d.signature()
        pattern = small_fdtd2d.pattern
        assert pattern.signature() is pattern.signature()

    def test_replace_on_spec_recomputes(self, small_jacobi2d):
        before = small_jacobi2d.signature()
        changed = dataclasses.replace(small_jacobi2d, iterations=5)
        assert changed.signature() != before
        assert changed.signature()[3] == 5
        assert small_jacobi2d.with_grid((48, 48)).signature()[2] == (48, 48)
        # The original's cache is untouched.
        assert small_jacobi2d.signature() is before

    def test_replace_on_pattern_recomputes(self, small_jacobi2d):
        pattern = small_jacobi2d.pattern
        before = pattern.signature()
        renamed = dataclasses.replace(pattern, name="renamed")
        assert renamed.signature() != before
        assert renamed.signature()[0] == "renamed"
        spec = dataclasses.replace(small_jacobi2d, pattern=renamed)
        assert spec.signature()[1] == renamed.signature()

    def test_cache_equals_a_fresh_computation(self, small_hotspot2d):
        small_hotspot2d.signature()
        assert small_hotspot2d.signature() == fresh_signature(
            small_hotspot2d
        )
        pattern = small_hotspot2d.pattern
        assert pattern.signature() == fresh_signature(pattern)

    def test_cache_does_not_change_equality(self, small_jacobi2d):
        twin = jacobi_2d(grid=(32, 32), iterations=8)
        small_jacobi2d.signature()  # cached on one side only
        assert twin == small_jacobi2d
        assert twin.signature() == small_jacobi2d.signature()

    @pytest.mark.parametrize(
        "name", ["jacobi-1d", "hotspot-2d", "fdtd-2d", "jacobi-3d"]
    )
    def test_pickled_spec_round_trips(self, name):
        spec = get_benchmark(name)
        cached = spec.signature()
        copy = pickle.loads(pickle.dumps(spec))
        assert copy.signature() == cached
        assert copy.signature() == fresh_signature(copy)
        assert copy.pattern.signature() == fresh_signature(copy.pattern)


def _search_in_child(conn):
    """Receive a spec, search it, send the result back, as a service
    replica does (replicas are ``spawn``-started processes)."""
    spec = conn.recv()
    result = optimize_full(
        spec,
        evaluator=CandidateEvaluator(),
        max_kernels=4,
        max_fused_depth=4,
    )
    conn.send((spec.signature(), result["heterogeneous"]))
    conn.close()


def test_results_cross_a_process_pipe():
    spec = jacobi_2d(grid=(64, 64), iterations=8)
    spec.signature()  # cached before it is pickled
    local = optimize_full(
        spec,
        evaluator=CandidateEvaluator(),
        max_kernels=4,
        max_fused_depth=4,
    )["heterogeneous"]
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    worker = ctx.Process(target=_search_in_child, args=(child,))
    worker.start()
    try:
        parent.send(spec)
        assert parent.poll(120)
        child_signature, remote = parent.recv()
    finally:
        worker.join(30)
        if worker.is_alive():
            worker.kill()
    assert worker.exitcode == 0
    assert child_signature == spec.signature()
    assert remote.best.design.signature() == local.best.design.signature()
    assert remote.best.predicted_cycles == local.best.predicted_cycles
    assert remote.best.resources == local.best.resources
    assert remote.best.design.spec.signature() == fresh_signature(
        remote.best.design.spec
    )
