"""Trace contexts: minting, header round-trips, thread propagation.

Also the zero-cost regression guards: with observability disabled, the
instrumented hot paths must neither allocate a ``TraceContext`` nor
slow down past the no-op overhead bound.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.obs import trace as trace_mod
from repro.obs.trace import TraceContext


class TestTraceContext:
    def test_mint_is_unique_and_wellformed(self):
        a = TraceContext.mint()
        b = TraceContext.mint()
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 32
        assert int(a.trace_id, 16) >= 0  # hex

    def test_header_round_trip(self):
        ctx = TraceContext.mint(user="alice", tier="gold")
        headers = ctx.to_headers()
        back = TraceContext.from_headers(headers)
        assert back.trace_id == ctx.trace_id
        assert back.baggage_dict() == {"user": "alice", "tier": "gold"}

    def test_parent_seq_is_not_propagated_over_http(self):
        # Span sequence ids are process-local; a context that crossed
        # the wire must not point at the sender's spans.
        ctx = TraceContext.mint().with_parent(42)
        back = TraceContext.from_headers(ctx.to_headers())
        assert back.parent_seq is None

    def test_baggage_values_survive_url_quoting(self):
        ctx = TraceContext.mint(note="a=b,c d%e")
        back = TraceContext.from_headers(ctx.to_headers())
        assert back.baggage_dict() == {"note": "a=b,c d%e"}

    @pytest.mark.parametrize(
        "headers",
        [
            {},
            {"X-Repro-Trace-Id": "nope"},
            {"X-Repro-Trace-Id": "abc"},  # too short
            {"X-Repro-Trace-Id": "Z" * 32},  # not hex
        ],
    )
    def test_absent_or_malformed_headers_decode_to_none(self, headers):
        assert TraceContext.from_headers(headers) is None

    def test_case_insensitive_dict_lookup(self):
        ctx = TraceContext.mint()
        headers = {"x-repro-trace-id": ctx.trace_id}
        back = TraceContext.from_headers(headers)
        assert back is not None and back.trace_id == ctx.trace_id


class TestActivation:
    def test_activation_installs_and_restores(self):
        outer = TraceContext.mint()
        inner = TraceContext.mint()
        assert trace_mod.current() is None
        with trace_mod.activate(outer):
            assert trace_mod.current() is outer
            with trace_mod.activate(inner):
                assert trace_mod.current() is inner
            assert trace_mod.current() is outer
        assert trace_mod.current() is None

    def test_activate_none_is_shared_noop(self):
        assert trace_mod.activate(None) is trace_mod.NOOP_ACTIVATION
        with trace_mod.activate(None):
            assert trace_mod.current() is None

    def test_context_is_thread_local(self):
        ctx = TraceContext.mint()
        seen = {}

        def probe():
            seen["other"] = trace_mod.current()

        with trace_mod.activate(ctx):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other"] is None


class TestSpanStamping:
    def test_spans_record_active_trace_id(self):
        obs.enable()
        ctx = TraceContext.mint()
        with trace_mod.activate(ctx):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        with obs.span("untraced"):
            pass
        by_name = {s.name: s for s in obs.recorder.spans()}
        assert by_name["outer"].trace_id == ctx.trace_id
        assert by_name["inner"].trace_id == ctx.trace_id
        assert by_name["untraced"].trace_id is None
        # Hierarchy is preserved alongside the stamp.
        assert by_name["inner"].parent_seq == by_name["outer"].seq

    def test_thread_root_span_parents_to_fork_point(self):
        obs.enable()
        ctx = TraceContext.mint()
        with trace_mod.activate(ctx):
            with obs.span("fanout"):
                forked = ctx.with_parent(obs.current_span_seq())

                def work():
                    with trace_mod.activate(forked):
                        with obs.span("pooled"):
                            pass

                thread = threading.Thread(target=work)
                thread.start()
                thread.join()
        by_name = {s.name: s for s in obs.recorder.spans()}
        assert by_name["pooled"].trace_id == ctx.trace_id
        assert by_name["pooled"].parent_seq == by_name["fanout"].seq
        assert by_name["pooled"].thread != by_name["fanout"].thread

    def test_filtered_chrome_trace_contains_only_the_request(self):
        obs.enable()
        ctx = TraceContext.mint()
        with trace_mod.activate(ctx):
            with obs.span("mine"):
                pass
        with obs.span("other"):
            pass
        trace = obs.build_chrome_trace(trace_id=ctx.trace_id)
        slices = [
            e for e in trace["traceEvents"] if e.get("ph") == "X"
        ]
        assert [e["name"] for e in slices] == ["mine"]
        assert all(
            e["args"]["trace_id"] == ctx.trace_id for e in slices
        )
        assert trace["otherData"]["trace_id"] == ctx.trace_id


class TestZeroCost:
    """Obs disabled => tracing must not allocate or slow the hot path."""

    def test_no_trace_context_allocation_on_hot_path(
        self, monkeypatch, small_jacobi2d
    ):
        """The evaluator hot path mints no TraceContext when obs is off."""
        from repro.dse import CandidateEvaluator, ResourceBudget
        from repro.fpga.resources import VIRTEX7_690T
        from repro.tiling import make_baseline_design

        def forbid(cls, **_kw):
            raise AssertionError(
                "TraceContext allocated with observability disabled"
            )

        monkeypatch.setattr(TraceContext, "mint", classmethod(forbid))
        monkeypatch.setattr(
            TraceContext,
            "__init__",
            lambda self, *a, **kw: forbid(type(self)),
        )
        assert not obs.enabled()
        designs = [
            make_baseline_design(small_jacobi2d, (8, 8), (2, 2), h)
            for h in (2, 3, 4)
        ]
        evaluator = CandidateEvaluator()
        budget = ResourceBudget.from_device(VIRTEX7_690T)
        scored = evaluator.evaluate_batch(designs, budget)
        assert len(scored) == len(designs)
        assert any(s is not None for s in scored)

    def test_disabled_span_path_stays_noop(self):
        assert obs.span("anything") is obs.NOOP_SPAN

    def test_noop_overhead_bound_with_tracing_in_place(self):
        """Same bound as test_spans: tracing must not regress it."""
        n = 50_000

        def bare():
            start = time.perf_counter()
            for _ in range(n):
                pass
            return time.perf_counter() - start

        def instrumented():
            start = time.perf_counter()
            for _ in range(n):
                with obs.span("hot"):
                    pass
            return time.perf_counter() - start

        bare_t = min(bare() for _ in range(3))
        inst_t = min(instrumented() for _ in range(3))
        assert (inst_t - bare_t) / n < 2e-6
