"""Unified telemetry for the evolve→deploy pipeline.

Zero-dependency observability layer: nested tracing spans
(:mod:`repro.obs.tracer`), the Prometheus text rendering of a run's
measurement dataclasses (:mod:`repro.obs.metrics`), the injectable
wall-clock shim (:mod:`repro.obs.clock`), and exporters for JSONL /
Chrome-trace (Perfetto) / Prometheus text (:mod:`repro.obs.export`).

Tracing is off by default and costs a single global check per
instrumented site.  Turn it on around a region::

    from repro import obs

    tracer = obs.Tracer(track="driver")
    previous = obs.activate(tracer)
    try:
        run()                      # instrumented code records spans
    finally:
        obs.activate(previous) if previous else obs.deactivate()
    obs.write_chrome_trace(tracer.events(), "trace.json")

or pass ``--trace-out`` / ``--chrome-trace`` / ``--metrics-out`` to
``repro learn`` / ``repro serve``.  See ``docs/observability.md``.
"""

from repro.obs import clock
from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import DEFAULT_BUCKETS, to_prometheus
from repro.obs.tracer import (
    NULL_SPAN,
    SpanEvent,
    Tracer,
    activate,
    current,
    deactivate,
    instant,
    span,
)

__all__ = [
    "clock",
    "NULL_SPAN",
    "SpanEvent",
    "Tracer",
    "activate",
    "current",
    "deactivate",
    "instant",
    "span",
    "DEFAULT_BUCKETS",
    "to_prometheus",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
