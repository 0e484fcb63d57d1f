"""Exporters for collected traces and metrics.

Three formats, all stdlib-only:

* **JSONL** — one :class:`~repro.obs.tracer.SpanEvent` dict per line;
  greppable, streamable, the lossless archival form.
* **Chrome trace event JSON** — the ``{"traceEvents": [...]}`` format
  consumed by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
  Each distinct event *track* becomes one named thread row (``tid``), so
  a 4-clan async run renders as four parallel clan timelines above the
  driver/serve rows.  Interval events use phase ``"X"`` (complete),
  point events phase ``"i"`` (instant); timestamps are microseconds
  rebased to the earliest event so Perfetto opens at t=0.
* **Prometheus text exposition** — rendered by
  :func:`repro.obs.metrics.to_prometheus`; the writer here just puts it
  on disk for a file-based scrape or CI artifact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs.tracer import SpanEvent


def _track_order(tracks: Iterable[str]) -> list[str]:
    """Stable display order: driver first, clans, replicas, then the rest
    (each group sorted by numeric suffix where present)."""

    def sort_key(track: str) -> tuple[int, str, int]:
        prefix, _, suffix = track.partition(":")
        rank = {"driver": 0, "clan": 1, "replica": 2}.get(prefix, 3)
        try:
            index = int(suffix)
        except ValueError:
            index = 0
        return (rank, prefix, index)

    return sorted(set(tracks), key=sort_key)


def to_chrome_trace(
    events: Sequence[SpanEvent], *, dropped: int = 0
) -> dict:
    """Build a Chrome-trace-format document from collected events."""
    tracks = _track_order(event.track for event in events)
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    origin = min((event.start_s for event in events), default=0.0)
    trace_events: list[dict] = []
    for track in tracks:
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tids[track],
                "args": {"name": track},
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": 1,
                "tid": tids[track],
                "args": {"sort_index": tids[track]},
            }
        )
    for event in events:
        ts = round((event.start_s - origin) * 1e6, 3)
        entry = {
            "name": event.name,
            "cat": event.track.partition(":")[0],
            "pid": 1,
            "tid": tids[event.track],
            "ts": ts,
            "args": dict(event.args),
        }
        if event.kind == "instant":
            entry["ph"] = "i"
            entry["s"] = "t"  # thread-scoped tick mark
        else:
            entry["ph"] = "X"
            entry["dur"] = round(event.dur_s * 1e6, 3)
        trace_events.append(entry)
    doc: dict = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }
    if dropped:
        doc["otherData"]["dropped_events"] = dropped
    return doc


def write_chrome_trace(
    events: Sequence[SpanEvent], path: str | Path, *, dropped: int = 0
) -> Path:
    """Write :func:`to_chrome_trace` output; open the file in Perfetto."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_chrome_trace(events, dropped=dropped)),
        encoding="utf-8",
    )
    return path


def write_jsonl(events: Sequence[SpanEvent], path: str | Path) -> Path:
    """Write one event dict per line, in collection order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict()))
            handle.write("\n")
    return path


def read_jsonl(path: str | Path) -> list[SpanEvent]:
    """Load a JSONL event log back into :class:`SpanEvent` objects."""
    events: list[SpanEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(SpanEvent.from_dict(json.loads(line)))
    return events


def write_prometheus(text: str, path: str | Path) -> Path:
    """Write Prometheus exposition ``text`` (see
    :func:`repro.obs.metrics.to_prometheus`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
