"""The asyncio front door: ``submit(obs) -> action`` over a hot registry.

The gateway glues the two serving halves together: every flushed batch
snapshots the :class:`~repro.serve.registry.ChampionRegistry` exactly
once and runs the whole batch through that champion's pre-compiled
batched network. A hot-swap therefore lands *between* batches — requests
already coalesced finish on the champion they were batched under, the
next batch picks up the new one, and no request ever sees a half-swapped
policy. (A block queued through :meth:`InferenceGateway.enqueue_block`
may be split across batches and so straddle a swap; each of its rows
names the version that served it.)
"""

from __future__ import annotations

import asyncio

from repro.core.metrics import ServiceStats, percentiles
from repro.obs import clock
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    MicroBatcher,
    ServedAction,
)
from repro.serve.registry import ChampionRegistry


class InferenceGateway:
    """Micro-batched inference over the currently deployed champion.

    >>> # inside a running event loop:
    >>> # gateway = InferenceGateway(registry)
    >>> # await gateway.start()
    >>> # served = await gateway.submit(observation)
    >>> # served.action, served.champion_version

    ``stats()`` may be called from any thread (it only reads counters
    and bounded sample windows); ``submit`` must be awaited on the loop
    that ``start`` ran on.
    """

    def __init__(
        self,
        registry: ChampionRegistry,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        close_registry: bool = True,
    ):
        """``close_registry=False`` leaves the registry open after
        :meth:`close` — for gateways that *borrow* a registry (several
        gateways over one champion store, benchmark repeats) rather than
        own it like :class:`~repro.serve.service.ContinuousService`."""
        self.registry = registry
        self._close_registry = close_registry
        self._batcher = MicroBatcher(
            self._infer,
            max_batch=max_batch,
            max_pending=max_pending,
        )
        self._started_at: float | None = None
        self._closed = False

    def _infer(self, observations):
        """One batch, one registry snapshot, one forward pass."""
        record = self.registry.current()
        return record.version, record.network.policy_batch(observations)

    async def start(self) -> None:
        """Start the batching collector on the running event loop."""
        await self._batcher.start()
        self._started_at = clock.perf()

    async def submit(self, observation) -> ServedAction:
        """Answer one observation with the current champion's action.

        Raises :class:`~repro.serve.batcher.Overloaded` when the pending
        queue is full (counted as shed) and
        :class:`~repro.serve.batcher.ServiceClosed` after ``close``.
        """
        return await self._batcher.submit(observation)

    def enqueue_block(self, observations) -> asyncio.Future:
        """Queue a ``(k, n_inputs)`` block of observations; the future
        of its per-row answer columns (see :meth:`~repro.serve.batcher
        .MicroBatcher.enqueue_block`) — the path a fleet replica serves
        forwarded chunks through. Rows the pending queue has no room for
        are shed from the tail (``ServedBlock.accepted``), not raised."""
        return self._batcher.enqueue_block(observations)

    async def close(self) -> None:
        """Drain in-flight batches, then close the registry.

        Ordering is the whole point (and is tested): every request
        accepted before ``close`` is answered — through a registry that
        is still open — and only then does the registry refuse further
        reads. Mirrors the stale-message drain ``WorkerPool.shutdown``
        does for free-running clans.
        """
        if self._closed:
            return
        self._closed = True
        await self._batcher.close()
        if self._close_registry:
            self.registry.close()

    def stats(self) -> ServiceStats:
        """Current service-quality snapshot (callable from any thread —
        the batcher snapshot and the registry reads are each taken
        under their own lock)."""
        elapsed = (
            clock.perf() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        accepted, served, shed, latencies, histogram = (
            self._batcher.metrics_snapshot()
        )
        p50, p95 = percentiles(latencies, 50, 95)
        return ServiceStats(
            requests=accepted,
            served=served,
            shed=shed,
            qps=served / elapsed if elapsed > 0 else 0.0,
            p50_latency_s=p50,
            p95_latency_s=p95,
            batch_size_histogram=histogram,
            champion_version=self.registry.version,
            swaps=self.registry.swaps,
            # raw reservoir rides along so fleet rollups can re-rank
            # merged samples instead of averaging percentiles
            latency_window=latencies,
        )
