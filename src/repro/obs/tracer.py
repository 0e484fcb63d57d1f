"""Nested tracing spans for the evolve→deploy pipeline.

A :class:`Tracer` records :class:`SpanEvent` intervals — ``with
span("generation", gen=3): ...`` — onto named *tracks* (one per clan,
replica, or driver thread) so a whole heterogeneous run can be laid out
on a timeline.  Three properties drive the design:

* **Free when off.**  The module-level :func:`span`/:func:`instant`
  helpers check one global and return a shared no-op context manager
  when no tracer is active; instrumented hot paths pay an attribute
  test, not an allocation.  ``repro`` runs untraced by default.
* **Thread- and task-safe nesting.**  The current span stack lives in a
  :mod:`contextvars` context variable, so concurrent threads and
  asyncio tasks each see their own ancestry; the completed-event buffer
  is lock-guarded.
* **Deterministic payloads.**  Recording only reads
  :mod:`repro.obs.clock` — never an RNG stream — so enabling tracing
  leaves every evolution trajectory byte-identical to the untraced run
  (asserted by ``tests/test_obs_integration.py``).

Cross-process collection: worker clans and fleet replicas run their own
``Tracer`` (track-tagged ``"clan:3"`` / ``"replica:1"``), periodically
:meth:`~Tracer.drain` it into a list of primitive dicts, and ship the
batch over their existing control pipes; the driver merges batches with
:meth:`~Tracer.absorb`, which preserves each track's arrival order.
Exporters for the merged trace live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs import clock

#: ancestry of the running spans in this thread/task: a tuple of span
#: names, innermost last.  Tuples (not lists) so forked tasks snapshot
#: the stack instead of sharing it.
_STACK: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


@dataclass
class SpanEvent:
    """One completed interval (or point event) on a track.

    Plain mutable dataclass — no slots — so instances pickle cleanly
    across the 3.10–3.13 support matrix; cross-process shipping uses
    :meth:`as_dict` anyway to keep pipe payloads primitive.
    """

    #: span name, e.g. ``"generation"``, ``"speciate"``, ``"batch_flush"``
    name: str
    #: timeline the event belongs to, e.g. ``"driver"``, ``"clan:2"``
    track: str
    #: start timestamp from :func:`repro.obs.clock.perf`, seconds
    start_s: float
    #: duration in seconds (0.0 for instant events)
    dur_s: float
    #: nesting depth at entry (0 = top level in its thread/task)
    depth: int = 0
    #: name of the enclosing span, if any
    parent: str | None = None
    #: free-form annotations (``gen=3``, ``size=8``, ``seq=5``)
    args: dict[str, Any] = field(default_factory=dict)
    #: ``"span"`` for intervals, ``"instant"`` for point events
    kind: str = "span"

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "track": self.track,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "depth": self.depth,
            "parent": self.parent,
            "args": dict(self.args),
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanEvent":
        return cls(
            name=payload["name"],
            track=payload["track"],
            start_s=payload["start_s"],
            dur_s=payload["dur_s"],
            depth=payload.get("depth", 0),
            parent=payload.get("parent"),
            args=dict(payload.get("args") or {}),
            kind=payload.get("kind", "span"),
        )


class _NullSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def add(self, **args: Any) -> None:
        """Accept (and drop) late annotations, mirroring :class:`_Span`."""


NULL_SPAN = _NullSpan()


class _Span:
    """A live interval; created by :meth:`Tracer.span`, closed on exit."""

    __slots__ = (
        "_tracer", "name", "track", "args",
        "_start", "_token", "_depth", "_parent",
    )

    def __init__(
        self, tracer: "Tracer", name: str, track: str, args: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.track = track
        self.args = args

    def add(self, **args: Any) -> None:
        """Attach annotations discovered mid-span (e.g. batch size)."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        stack = _STACK.get()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        self._token = _STACK.set(stack + (self.name,))
        self._start = clock.perf()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = clock.perf()
        _STACK.reset(self._token)
        self._tracer._record(
            SpanEvent(
                name=self.name,
                track=self.track,
                start_s=self._start,
                dur_s=end - self._start,
                depth=self._depth,
                parent=self._parent,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Collects span/instant events onto tracks; thread-safe.

    ``track`` names the default timeline for events recorded through
    this tracer; per-call ``track=`` overrides let one in-process tracer
    host several timelines (the logical engines tag each clan's phases
    ``clan:<id>`` this way).  ``max_events`` bounds memory on very long
    runs — past it new events are counted in :attr:`dropped` instead of
    stored, and the exporters surface the loss.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        track: str = "driver",
        max_events: int = 1_000_000,
    ) -> None:
        self.enabled = enabled
        self.track = track
        self.max_events = max_events
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._events: list[SpanEvent] = []
        # guarded-by: _lock
        self.dropped = 0

    # -- recording -----------------------------------------------------------

    def span(self, name: str, *, track: str | None = None, **args: Any):
        """Open a nested interval: ``with tracer.span("speciate"): ...``."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, track or self.track, args)

    def instant(
        self, name: str, *, track: str | None = None, **args: Any
    ) -> None:
        """Record a point event (clan death, respawn, deploy)."""
        if not self.enabled:
            return
        stack = _STACK.get()
        self._record(
            SpanEvent(
                name=name,
                track=track or self.track,
                start_s=clock.perf(),
                dur_s=0.0,
                depth=len(stack),
                parent=stack[-1] if stack else None,
                args=args,
                kind="instant",
            )
        )

    def _record(self, event: SpanEvent) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
            else:
                self._events.append(event)

    # -- collection ----------------------------------------------------------

    def events(self) -> list[SpanEvent]:
        """Snapshot of everything recorded so far (insertion order)."""
        with self._lock:
            return list(self._events)

    def drain(self) -> list[dict[str, Any]]:
        """Pop all buffered events as primitive dicts for pipe shipping."""
        with self._lock:
            batch = [event.as_dict() for event in self._events]
            self._events.clear()
        return batch

    def absorb(
        self,
        batch: Iterable[Mapping[str, Any]],
        *,
        track: str | None = None,
    ) -> int:
        """Merge a drained batch (from another process) into this trace.

        Events are appended in batch order, so as long as each producer
        drains in order — the pipes are FIFO — every per-track sequence
        is preserved in the merged trace.  ``track`` re-tags events that
        were recorded before the producer knew its identity.
        """
        absorbed = 0
        for payload in batch:
            event = SpanEvent.from_dict(payload)
            if track is not None:
                event.track = track
            self._record(event)
            absorbed += 1
        return absorbed

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0


#: the process-wide active tracer, or None (tracing off — the default)
_active: Tracer | None = None


def activate(tracer: Tracer) -> Tracer | None:
    """Install ``tracer`` as the process-wide active tracer; returns the
    previous one (restore it in ``finally`` to scope tracing)."""
    global _active
    previous = _active
    _active = tracer
    return previous


def deactivate() -> Tracer | None:
    """Turn tracing off; returns the tracer that was active."""
    return activate(None)  # type: ignore[arg-type]


def current() -> Tracer | None:
    """The active tracer, or None when tracing is off."""
    return _active


def span(name: str, *, track: str | None = None, **args: Any):
    """Module-level ``with obs.span("generation", gen=g): ...``.

    The disabled fast path is one global load and one ``is None`` /
    ``enabled`` test before returning the shared :data:`NULL_SPAN`.
    """
    tracer = _active
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return _Span(tracer, name, track or tracer.track, args)


def instant(name: str, *, track: str | None = None, **args: Any) -> None:
    """Module-level point event; no-op when tracing is off."""
    tracer = _active
    if tracer is None or not tracer.enabled:
        return
    tracer.instant(name, track=track, **args)
