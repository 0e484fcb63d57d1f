"""Micro-batching: coalesce concurrent requests into one forward pass.

The scalar interpreter costs one Python call per gene per request; the
batched engine amortises that over a whole observation batch (PR 1
measured ~14x at population scale). A serving gateway sees *concurrent*
requests, and the :class:`MicroBatcher` turns them into batches without
charging anyone for the privilege:

* **Work-conserving collector.** The moment the collector is free it
  flushes whatever is queued, up to ``max_batch`` rows, through one
  ``policy_batch`` call. Requests that arrive during a forward pass
  form the next batch, so batches still grow with load — but an idle
  batcher never parks a request on a timer. There is no coalescing
  window: a measured sweep found none that won any end-to-end metric
  (``docs/serving.md``, "Why there is no coalescing window").
* **Block-native queue.** The queue holds *blocks* — a
  ``(k, n_inputs)`` float64 matrix with one future and one
  ``submitted_at``. :meth:`MicroBatcher.submit` is the 1-row block;
  :meth:`MicroBatcher.submit_block` is what a fleet replica feeds a
  whole forwarded chunk through, so a 256-row chunk costs one future
  and a handful of array slices rather than 256 of everything. The
  collector packs rows from consecutive blocks, splitting a block
  across flushes when it must; a block's answer is one run per flush
  that served it, expandable to per-row columns.

Per-request semantics are unchanged — each row's action equals what
the champion named in its version column would have produced for that
observation alone through the scalar interpreter (the hypothesis suite
in ``tests/test_serve_batcher.py`` drives arbitrary interleavings of
single and block submits against per-row
``FeedForwardNetwork.activate``).
"""

from __future__ import annotations

import asyncio
import threading
from array import array
from collections import deque
from dataclasses import dataclass

from repro.obs import clock
from repro.obs import tracer as obs

try:
    import numpy as np
except ImportError:  # pragma: no cover - serving requires the numpy engine
    np = None

# The serving defaults, defined once: every constructor that takes the
# knobs (``MicroBatcher``, ``InferenceGateway``, ``ServingFleet``,
# ``ContinuousService``) and ``repro serve --max-batch`` default to
# these (``tests/test_serve_batcher.py`` asserts they agree). Both are
# fixed for a batcher's lifetime.

#: most rows coalesced into one forward pass
DEFAULT_MAX_BATCH = 32
#: rows queued ahead of the collector before new ones are shed
DEFAULT_MAX_PENDING = 4096
#: answered-row latencies a batcher keeps for its quantiles
LATENCY_WINDOW = 65536


class ServiceClosed(RuntimeError):
    """Raised by ``submit`` after ``close`` has begun."""


class Overloaded(RuntimeError):
    """Raised by ``submit`` when the pending queue is full (request shed)."""


@dataclass(frozen=True)
class ServedAction:
    """One answered inference request."""

    #: greedy action (argmax over the champion's output activations)
    action: int
    #: registry version of the champion that served the whole batch
    champion_version: int
    #: submit-to-answer latency, seconds (includes queueing)
    latency_s: float
    #: how many requests shared this forward pass
    batch_size: int
    #: fleet replica that served it (None when served by a direct,
    #: in-process gateway rather than a :class:`~repro.serve.fleet
    #: .ServingFleet`)
    replica: int | None = None


class ServedBlock:
    """One submitted block: its accepted rows and, once its future
    resolves, the answer to them.

    ``rows`` is the head of the submitted matrix that was queued
    (``accepted`` of them); the tail beyond it was shed at
    ``max_pending``. ``runs`` holds one ``(actions, version, size,
    latency_s)`` per flush that served part of the block, in row order:
    the greedy actions of those rows, the champion version and row
    count of that forward pass, and the submit-to-answer latency its
    rows saw. A block that fits one flush has one run; one split across
    flushes may name more than one version — never a decreasing
    sequence, since flushes run in order.
    """

    __slots__ = ("rows", "runs", "_future", "_submitted_at", "_taken")

    def __init__(self, rows, future, submitted_at):
        self.rows = rows
        self.runs = []
        self._future = future
        self._submitted_at = submitted_at
        #: rows already packed into a flush
        self._taken = 0

    @property
    def accepted(self) -> int:
        return len(self.rows)

    def columns(self):
        """Per-row ``(actions, versions, sizes, latencies_s)`` arrays,
        each ``accepted`` long — row ``i`` describes ``rows[i]``."""
        runs = self.runs
        counts = [len(run[0]) for run in runs]

        def column(field, dtype):
            values = np.array([run[field] for run in runs], dtype=dtype)
            return np.repeat(values, counts)

        actions = (
            np.concatenate([run[0] for run in runs])
            if runs
            else np.empty(0, dtype=np.int64)
        )
        return (
            actions,
            column(1, np.int64),
            column(2, np.int64),
            column(3, np.float64),
        )


class MicroBatcher:
    """Coalesce awaiting ``submit`` calls into batched forward passes.

    ``infer`` is the pluggable execution hook: it takes a
    ``(batch, n_inputs)`` float64 array and returns ``(version,
    actions)`` where ``actions`` is a ``(batch,)`` integer array. The
    gateway supplies a hook that snapshots the champion registry once
    per batch, which is what makes a whole batch attributable to exactly
    one champion version.

    Lifecycle: ``start`` spawns the collector task on the running loop;
    ``close`` stops intake, **drains every already-accepted row**
    (including the rest of a half-flushed block), then returns —
    accepted requests are never dropped (see
    ``tests/test_serve_gateway.py``).
    """

    def __init__(
        self,
        infer,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        if np is None:  # pragma: no cover - exercised only without numpy
            raise RuntimeError(
                "numpy is required for the serving subsystem (the gateway "
                "batches through the NumPy inference engine)"
            )
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._infer = infer
        self.max_batch = max_batch
        self.max_pending = max_pending
        #: accepted blocks in arrival order; the head stays queued until
        #: its last row is packed into a flush (loop thread only)
        self._blocks: deque[ServedBlock] = deque()
        #: rows in ``_blocks`` not yet packed into a flush — what
        #: ``max_pending`` bounds
        self._pending_rows = 0
        #: pending while the collector sleeps; resolved by an arriving
        #: block or by ``close``
        self._wakeup: asyncio.Future | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        # flushes mutate the counters on the loop thread while stats
        # scrapers may snapshot from any other thread; one lock per
        # batch keeps the snapshot coherent
        self._metrics_lock = threading.Lock()
        #: flush size -> flush count — guarded-by: _metrics_lock
        self.batch_size_histogram: dict[int, int] = {}
        #: the last ``LATENCY_WINDOW`` answered-row latencies, a float64
        #: ring: ``_ring_head`` is where the next one goes, and the
        #: window is the oldest-first ``_ring_count`` entries ending
        #: just before it (see :attr:`latencies_s`)
        self._ring = np.zeros(LATENCY_WINDOW)  # guarded-by: _metrics_lock
        self._ring_head = 0  # guarded-by: _metrics_lock
        self._ring_count = 0  # guarded-by: _metrics_lock
        #: all three count rows
        self.accepted = 0  # guarded-by: _metrics_lock
        self.served = 0  # guarded-by: _metrics_lock
        self.shed = 0  # guarded-by: _metrics_lock

    async def start(self) -> None:
        """Spawn the collector on the running event loop."""
        if self._task is not None:
            raise RuntimeError("batcher already started")
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def submit(self, observation) -> ServedAction:
        """Queue one observation; resolves with its batched answer."""
        future = self._enqueue(np.array([observation], dtype=np.float64))
        if future is None:
            raise Overloaded(f"{self.max_pending} requests already pending")
        answer = await future
        actions, version, size, latency_s = answer.runs[0]
        return ServedAction(
            action=int(actions[0]),
            champion_version=version,
            latency_s=latency_s,
            batch_size=size,
        )

    async def submit_block(self, observations) -> ServedBlock:
        """Queue a ``(k, n_inputs)`` block; resolves with its answer
        (see :meth:`enqueue_block`)."""
        return await self.enqueue_block(observations)

    def enqueue_block(self, observations) -> asyncio.Future:
        """Queue a ``(k, n_inputs)`` block now; the future of its
        answer, a :class:`ServedBlock` — await it, or answer from its
        done-callback with no task at all (a fleet replica does).

        Rows are accepted while the pending queue has room: the head of
        the block that fits is queued and answered, the tail is shed
        (``ServedBlock.accepted`` says where the cut fell). The block is
        read when it is flushed, so the caller must not write to it in
        the meantime.
        """
        rows = np.asarray(observations, dtype=np.float64)
        future = self._enqueue(rows)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            future.set_result(ServedBlock(rows[:0], None, 0.0))
        return future

    def _enqueue(self, rows) -> asyncio.Future | None:
        """Queue the head of ``rows`` that fits under ``max_pending``
        and shed the rest; the future of the queued block (it resolves
        with the block), or None when no row fits."""
        if self._task is None:
            raise RuntimeError("batcher not started")
        if self._closed:
            raise ServiceClosed("gateway is closing; request rejected")
        if rows.ndim != 2:
            raise ValueError(
                "a block is a (k, n_inputs) matrix, got shape "
                f"{rows.shape}"
            )
        offered = len(rows)
        accepted = min(offered, max(0, self.max_pending - self._pending_rows))
        with self._metrics_lock:
            self.accepted += accepted
            self.shed += offered - accepted
        if not accepted:
            return None
        future = asyncio.get_running_loop().create_future()
        self._blocks.append(
            ServedBlock(
                rows if accepted == offered else rows[:accepted],
                future,
                clock.perf(),
            )
        )
        self._pending_rows += accepted
        self._wake()
        return future

    async def close(self) -> None:
        """Stop intake, drain every accepted row, stop the collector.

        Nothing joins the queue once intake has stopped, so the
        collector answers everything in flight — the rest of a
        half-flushed block included — and exits when the queue is empty,
        mirroring the stale-message drain the worker pool does on
        shutdown.
        """
        if self._task is None or self._closed:
            return
        self._closed = True
        self._wake()
        await self._task

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.done():
            self._wakeup.set_result(None)

    async def _run(self) -> None:
        """Pack queued rows into flushes until closed and drained.

        Work-conserving: a flush takes what is queued *now*, up to
        ``max_batch`` rows, splitting a block when it does not fit. The
        collector sleeps only on an empty queue, until a block arrives
        or ``close`` is called.
        """
        loop = asyncio.get_running_loop()
        blocks = self._blocks
        while blocks or not self._closed:
            if not blocks:
                self._wakeup = loop.create_future()
                try:
                    await self._wakeup
                finally:
                    self._wakeup = None
                continue
            parts = []
            room = self.max_batch
            while room and blocks:
                head = blocks[0]
                taken = head._taken
                rest = len(head.rows) - taken
                if head._future.done():
                    # cancelled by its caller, or failed by an earlier
                    # flush: nobody is waiting for the remaining rows
                    take = rest
                else:
                    take = min(rest, room)
                    parts.append((head, taken, taken + take))
                    head._taken = taken + take
                    room -= take
                self._pending_rows -= take
                if take == rest:
                    blocks.popleft()
            if parts:
                self._flush(parts)

    def _flush(self, parts: list[tuple[ServedBlock, int, int]]) -> None:
        """One batched forward pass over ``(block, lo, hi)`` row ranges;
        give every block its run and resolve the completed ones.

        Any failure — blocks of different widths breaking the stack as
        much as a backend error — fails only this flush's blocks; the
        collector itself must survive to serve the next batch.
        """
        size = sum(hi - lo for _, lo, hi in parts)
        flush_span = obs.span("batch_flush", size=size)
        with flush_span:
            try:
                observations = [
                    block.rows if hi - lo == len(block.rows)
                    else block.rows[lo:hi]
                    for block, lo, hi in parts
                ]
                version, actions = self._infer(
                    observations[0] if len(parts) == 1
                    else np.concatenate(observations)
                )
            except Exception as exc:
                flush_span.add(error=type(exc).__name__)
                for block, _, _ in parts:
                    if not block._future.done():
                        block._future.set_exception(exc)
                return
            # the champion version is the deployment sequence number the
            # whole batch was served under
            flush_span.add(version=version)
        now = clock.perf()
        with self._metrics_lock:
            self.batch_size_histogram[size] = (
                self.batch_size_histogram.get(size, 0) + 1
            )
            ring = self._ring
            head = self._ring_head
            for block, lo, hi in parts:
                # the block's rows all saw one latency: fill their run
                # of slots, wrapping at the end of the ring (a run past
                # a whole ring leaves it all that latency)
                latency = now - block._submitted_at
                end = head + hi - lo
                if end <= LATENCY_WINDOW:
                    ring[head:end] = latency
                else:
                    ring[head:] = latency
                    end -= LATENCY_WINDOW
                    ring[:end] = latency
                head = end % LATENCY_WINDOW
            self._ring_head = head
            self._ring_count = min(LATENCY_WINDOW, self._ring_count + size)
            self.served += size
        start = 0
        for block, lo, hi in parts:
            stop = start + hi - lo
            latency_s = now - block._submitted_at
            block.runs.append((actions[start:stop], version, size, latency_s))
            start = stop
            if hi == len(block.rows) and not block._future.done():
                block._future.set_result(block)

    # holds-lock: _metrics_lock
    def _window(self) -> array:
        """The ring's latencies oldest first, as a fresh float64 column."""
        if self._ring_count < LATENCY_WINDOW:
            return array("d", self._ring[: self._ring_count].tobytes())
        head = self._ring_head
        window = array("d", self._ring[head:].tobytes())
        window.frombytes(self._ring[:head].tobytes())
        return window

    @property
    def latencies_s(self) -> array:
        """The last ``LATENCY_WINDOW`` answered-row latencies (seconds),
        in answer order: a copy, safe from any thread."""
        with self._metrics_lock:
            return self._window()

    def metrics_snapshot(self) -> tuple[int, int, int, array, dict]:
        """Coherent ``(accepted, served, shed, latencies, histogram)``.

        Safe from any thread — the same lock that guards flush-side
        updates guards the copies, so a scraper never reads the ring or
        the dict mid-mutation. ``latencies`` is :attr:`latencies_s`.
        """
        with self._metrics_lock:
            return (
                self.accepted,
                self.served,
                self.shed,
                self._window(),
                dict(self.batch_size_histogram),
            )
