"""Shared helpers for the benchmark harness.

Every benchmark regenerates a piece of the paper's evaluation and
asserts its qualitative shape, while pytest-benchmark times the
regeneration itself.  Results are accumulated in ``_REPRO_RESULTS`` and
printed at the end of the session so ``pytest benchmarks/
--benchmark-only`` emits the paper-vs-measured tables.

Observability is enabled for the whole benchmark session in
metrics-only mode (``capture_events=False`` keeps the per-kernel
simulator timelines out of memory), so every bench run ends with the
run-report summary — evaluator cache hit-rate, infeasible rate, and
the model-predict latency histogram — alongside the reproduction tables.
Set ``REPRO_BENCH_NO_OBS=1`` to time the bare no-op path instead.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro import obs

_REPRO_RESULTS: Dict[str, List[str]] = {}

_OBS_ON = os.environ.get("REPRO_BENCH_NO_OBS", "") in ("", "0")


def record_result(section: str, line: str) -> None:
    """Collect one line of reproduction output for the session report."""
    _REPRO_RESULTS.setdefault(section, []).append(line)


@pytest.fixture
def record():
    """Fixture exposing :func:`record_result`."""
    return record_result


class CounterDelta:
    """Counter snapshot/delta view over the default metrics registry.

    ``mark()`` pins the reference point; ``delta()`` returns each
    counter's increase since the mark, and ``rate(num, den)`` the
    ratio of two deltas — how benches report engine rates (cache hits,
    infeasible candidates) for just their own work.
    """

    def __init__(self):
        self._before: Dict[str, float] = {}
        self.mark()

    def mark(self) -> None:
        self._before = dict(obs.get_registry().report()["counters"])

    def delta(self) -> Dict[str, float]:
        after = obs.get_registry().report()["counters"]
        return {
            name: value - self._before.get(name, 0)
            for name, value in after.items()
            if value - self._before.get(name, 0)
        }

    def rate(self, numerator: str, denominator: str) -> float:
        deltas = self.delta()
        total = deltas.get(denominator, 0)
        return deltas.get(numerator, 0) / total if total else 0.0


@pytest.fixture
def metrics_delta():
    """A fresh :class:`CounterDelta` marked at test setup."""
    return CounterDelta()


def pytest_sessionstart(session):
    """Record metrics (not span/event streams) for every bench."""
    if _OBS_ON:
        obs.enable(capture_events=False, capture_spans=False)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the accumulated reproduction tables after the timings."""
    if _REPRO_RESULTS:
        terminalreporter.section("paper reproduction results")
        for section in sorted(_REPRO_RESULTS):
            terminalreporter.write_line("")
            terminalreporter.write_line(f"== {section} ==")
            for line in _REPRO_RESULTS[section]:
                terminalreporter.write_line(line)
    if _OBS_ON and obs.enabled():
        terminalreporter.section("observability metrics")
        for line in obs.render_report_markdown().splitlines():
            terminalreporter.write_line(line)
