"""repro.obs — the unified observability layer.

One dependency-free subsystem for seeing where a run spends its time,
threaded through every layer of the framework (frontend → DSE → model
→ simulator → CLI):

- **Spans** — ``with obs.span("dse.explore", candidates=n):``
  hierarchical wall-time regions with attributes
  (:mod:`repro.obs.spans`).
- **Metrics** — counters, gauges, and histograms with percentile
  summaries in a process-wide registry (:mod:`repro.obs.metrics`).
- **Structured logging** — stdlib logging under the ``repro.*``
  namespace, env-configurable, optional JSON lines
  (:mod:`repro.obs.log`).
- **Exporters** — a merged Chrome-trace/Perfetto file (DSE spans and
  simulator kernel-phase timelines in one view), a JSON-lines event
  stream, and a structured run report (:mod:`repro.obs.export`).

Everything is **off by default**: instrumented hot paths check
:func:`enabled` and fall through a shared no-op, so the disabled cost
is one branch.  Turn recording on with :func:`enable` (or
``REPRO_OBS=1``), run, then export::

    from repro import obs

    obs.enable()
    ...  # any framework work: optimize_*, simulate, extract, ...
    obs.export_chrome_trace("trace.json")   # open in ui.perfetto.dev
    print(obs.render_report_markdown())

Naming conventions and the full CLI/env surface are documented in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.core import (
    capture_events,
    capture_spans,
    disable,
    enable,
    enabled,
    next_pid,
    next_seq,
    record_chrome_events,
    recorder,
    reset,
)
from repro.obs.export import (
    REPORT_SCHEMA,
    ChromeTraceBuilder,
    build_chrome_trace,
    export_chrome_trace,
    export_jsonl,
    export_run_report,
    read_jsonl,
    render_report_markdown,
    run_report,
    spans_to_chrome_events,
)
from repro.obs.log import (
    JsonLinesFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    inc,
    observe,
    percentile,
    set_gauge,
)
from repro.obs.prom import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    ExpositionError,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.record import (
    FlightRecord,
    TelemetryJournal,
    latest_snapshot,
    peak_rss_kb,
    read_telemetry,
    recent_flights,
    thread_cpu_s,
)
from repro.obs.spans import NOOP_SPAN, Span, SpanRecord, current_span_seq, span
from repro.obs.trace import (
    NOOP_ACTIVATION,
    TraceContext,
    activate as activate_trace,
    current as current_trace,
)

__all__ = [
    # switch + recorder
    "enabled",
    "enable",
    "disable",
    "reset",
    "recorder",
    "capture_events",
    "capture_spans",
    "record_chrome_events",
    "next_seq",
    "next_pid",
    # spans
    "span",
    "Span",
    "SpanRecord",
    "NOOP_SPAN",
    "current_span_seq",
    # trace context
    "TraceContext",
    "activate_trace",
    "current_trace",
    "NOOP_ACTIVATION",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "inc",
    "set_gauge",
    "observe",
    "percentile",
    # logging
    "get_logger",
    "configure_logging",
    "JsonLinesFormatter",
    # exporters
    "REPORT_SCHEMA",
    "ChromeTraceBuilder",
    "spans_to_chrome_events",
    "build_chrome_trace",
    "export_chrome_trace",
    "export_jsonl",
    "read_jsonl",
    "run_report",
    "export_run_report",
    "render_report_markdown",
    # prometheus exposition
    "render_prometheus",
    "parse_prometheus",
    "ExpositionError",
    "PROMETHEUS_CONTENT_TYPE",
    # flight records + telemetry journal
    "FlightRecord",
    "TelemetryJournal",
    "read_telemetry",
    "latest_snapshot",
    "recent_flights",
    "peak_rss_kb",
    "thread_cpu_s",
]
