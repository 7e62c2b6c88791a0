"""One telemetry plane for the whole stack (metrics, traces, logs).

Three dependency-free pillars, threaded through every layer of the
reproduction:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  labeled :class:`Counter` / :class:`Gauge` instruments with mergeable,
  shape-checked point-in-time snapshots (fleet workers ship their
  registries to the coordinator inside ``Results``/``Heartbeat``
  frames) and a Prometheus text-format exposition writer.
* :mod:`repro.obs.tracing` — lightweight :class:`Span` objects whose
  parent ids propagate from ``run_plan`` through batches to individual
  ``EvalCell`` executions, across the serial/process/remote
  executors, over the wire and into HTTP request handlers; dumped as
  JSON lines via the CLI ``--trace FILE``.
* :mod:`repro.obs.logging` — a structured-JSON log formatter and
  :func:`configure_logging`, wired into all four CLIs
  (``--log-format json|text``, ``--log-level``).

:mod:`repro.obs.http` mounts it: a shared ``/metrics`` handler body for
the object server and :class:`~repro.serving.server.ModelServer`, plus
the coordinator's read-only :class:`StatusServer`
(``/metrics`` + ``/healthz``).
"""

from repro.obs.logging import JsonFormatter, configure_logging
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsSnapshot,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.tracing import (
    TRACER,
    Span,
    SpanContext,
    Tracer,
    span_into,
    write_trace,
)

__all__ = [
    "REGISTRY",
    "TRACER",
    "Counter",
    "Gauge",
    "JsonFormatter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "SpanContext",
    "Tracer",
    "configure_logging",
    "parse_prometheus",
    "render_prometheus",
    "span_into",
    "write_trace",
]
