"""Versioned champion store with atomic hot-swap and rollback.

The registry is the deployment side of the evolve->deploy loop: evolution
(any thread) publishes genomes, serving (the gateway's event loop) reads
the current champion. Every publish pre-compiles the genome once through
:func:`repro.neat.network.compile_batched` — the same lowering the
evaluation stack uses — so the serving hot path never compiles, and a
swap is a single reference assignment under a lock: readers either see
the old champion or the new one, never a half-built record.

State stays bounded by what can be served: a record holds its genome as
canonical wire bytes, and only the current record and the
``rollback_depth`` records it can roll back to are kept compiled (plan
and executor). Every other version keeps what attributes it and its
genome wire, from which :meth:`ChampionRegistry.record_for` rebuilds
the record on demand.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.cluster.serialization import decode_genome, encode_genome
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.network import (
    BatchedFeedForwardNetwork,
    BatchedPlan,
    FeedForwardNetwork,
    PlanCache,
    compile_batched,
)


class RegistryClosed(RuntimeError):
    """Raised by registry operations after :meth:`ChampionRegistry.close`."""


@dataclass(frozen=True)
class ChampionRecord:
    """One deployed (or previously deployed) champion.

    The record is immutable and self-contained: ``network`` wraps the
    pre-compiled plan and is safe to share across concurrent readers
    (``activate_batch`` allocates per call; the plan arrays are never
    written after compilation). ``scalar_network`` builds a *fresh*
    interpreter — :class:`~repro.neat.network.FeedForwardNetwork` keeps
    per-instance state, so parity checkers must not share one across
    threads.
    """

    #: monotonically increasing deployment version (1 = first publish)
    version: int
    #: the champion genome's canonical wire bytes
    #: (:func:`~repro.cluster.serialization.encode_genome`, taken at
    #: publish: later mutation of the source genome cannot corrupt a
    #: deployed record)
    genome_wire: bytes
    #: fitness the genome was promoted with (-inf for bootstrap deploys)
    fitness: float
    #: evolution generation that produced it (-1 for bootstrap deploys)
    generation: int
    #: provenance label, e.g. ``"bootstrap"`` or ``"clan0"``
    source: str
    #: the lowered plan (compiled exactly once, at publish)
    plan: BatchedPlan
    #: batched engine over ``plan`` — the serving hot path
    network: BatchedFeedForwardNetwork
    #: config the plan was compiled against
    config: NEATConfig

    @property
    def genome(self) -> Genome:
        """A fresh copy of the champion genome, decoded from its wire."""
        return decode_genome(self.genome_wire)

    def scalar_network(self) -> FeedForwardNetwork:
        """A fresh reference interpreter for this champion.

        Built per call because the scalar interpreter mutates internal
        state during ``activate`` — see the thread-safety notes in
        :mod:`repro.neat.network`.
        """
        return FeedForwardNetwork.create(self.genome, self.config)


@dataclass(frozen=True, slots=True)
class _Published:
    """What every published version keeps for its whole life, by
    version: the record's attribution fields and its genome's canonical
    wire bytes (:func:`~repro.cluster.serialization.encode_genome`)."""

    fitness: float
    generation: int
    source: str
    genome_wire: bytes


class Subscription:
    """One subscriber of a :class:`ChampionRegistry` deployment stream.

    Deliveries are ``callback(seq, record)`` where ``seq`` is the
    registry's global deployment sequence number — it increases on
    *every* deployment change (publish and rollback alike), so a
    subscriber that applies records iff ``seq`` exceeds the last one it
    applied can never regress to an older deployment, even when a
    rollback redeploys an older *version*. Per subscriber, deliveries
    are strictly ``seq``-ordered regardless of which threads publish:
    entries are enqueued under the registry lock (fixing the global
    order) and drained FIFO under a per-subscriber delivery lock.
    """

    __slots__ = ("callback", "_pending", "_delivery_lock", "active")

    def __init__(self, callback: Callable[[int, ChampionRecord], None]):
        self.callback = callback
        self._pending: deque[tuple[int, ChampionRecord]] = deque()
        self._delivery_lock = threading.Lock()
        self.active = True


class ChampionRegistry:
    """Thread-safe, versioned store of deployed champions.

    >>> from repro.neat.config import NEATConfig
    >>> from repro.neat.population import Population
    >>> config = NEATConfig.for_env("CartPole-v0", pop_size=4)
    >>> registry = ChampionRegistry(config)
    >>> pop = Population(config, seed=0)
    >>> record = registry.publish(pop.genomes[0], source="bootstrap")
    >>> registry.current().version
    1

    Publishes may come from any thread (the evolution callback of
    :meth:`repro.cluster.runtime.DistributedClanRuntime.run_async` runs
    on the service's evolution thread); reads come from the gateway's
    event loop. Compilation happens outside the lock — only the swap
    itself is serialised.
    """

    def __init__(self, config: NEATConfig, rollback_depth: int = 8):
        self.config = config
        self.rollback_depth = rollback_depth
        #: compiled-plan cache across publishes: champion lineages are
        #: usually weight-refinements of one topology, so successive
        #: publishes re-fill the cached layout instead of re-lowering
        #: (thread-safe; publishes may come from the evolution thread)
        self.plan_cache = PlanCache(maxsize=64)
        self._lock = threading.Lock()
        self._current: ChampionRecord | None = None  # guarded-by: _lock
        #: previously deployed records, oldest first (bounded)
        self._rollback: list[ChampionRecord] = []  # guarded-by: _lock
        #: every version ever published, compact — parity checkers
        #: resolve the champion a response was served by from this map
        self._published: dict[int, _Published] = {}  # guarded-by: _lock
        self._next_version = 1  # guarded-by: _lock
        self._rollbacks = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        #: global deployment sequence: +1 on every publish and rollback
        self._seq = 0  # guarded-by: _lock
        self._subscribers: list[Subscription] = []  # guarded-by: _lock

    def publish(
        self,
        genome: Genome,
        fitness: float | None = None,
        generation: int = -1,
        source: str = "manual",
    ) -> ChampionRecord:
        """Compile ``genome`` and atomically make it the current champion.

        Returns the new record. The previous champion (if any) is pushed
        onto the rollback stack.
        """
        plan = compile_batched(genome, self.config, cache=self.plan_cache)
        network = BatchedFeedForwardNetwork(plan)
        genome_wire = encode_genome(genome)
        if fitness is None:
            fitness = (
                genome.fitness
                if genome.fitness is not None
                else float("-inf")
            )
        with self._lock:
            if self._closed:
                raise RegistryClosed("registry is closed")
            record = ChampionRecord(
                version=self._next_version,
                genome_wire=genome_wire,
                fitness=fitness,
                generation=generation,
                source=source,
                plan=plan,
                network=network,
                config=self.config,
            )
            self._next_version += 1
            if self._current is not None:
                self._rollback.append(self._current)
                if len(self._rollback) > self.rollback_depth:
                    del self._rollback[0]
            self._published[record.version] = _Published(
                fitness, generation, source, genome_wire
            )
            self._current = record
            subscribers = self._enqueue_deployment(record)
        self._deliver(subscribers)
        return record

    def current(self) -> ChampionRecord:
        """The currently deployed champion (raises before first publish)."""
        with self._lock:
            if self._closed:
                raise RegistryClosed("registry is closed")
            if self._current is None:
                raise LookupError("no champion has been published")
            return self._current

    def record_for(self, version: int) -> ChampionRecord:
        """Look up any ever-published record by version (for parity
        checks against responses served by an older champion).

        The current record and the rollback stack's are returned as
        deployed. Any other version is rebuilt, outside the lock, from
        its genome wire: a fresh record per call, whose plan encodes to
        the same bytes as the one compiled at publish.
        """
        with self._lock:
            for record in (self._current, *self._rollback):
                if record is not None and record.version == version:
                    return record
            published = self._published.get(version)
        if published is None:
            raise LookupError(f"no champion record for version {version}")
        plan = compile_batched(
            decode_genome(published.genome_wire), self.config
        )
        return ChampionRecord(
            version=version,
            genome_wire=published.genome_wire,
            fitness=published.fitness,
            generation=published.generation,
            source=published.source,
            plan=plan,
            network=BatchedFeedForwardNetwork(plan),
            config=self.config,
        )

    def rollback(self) -> ChampionRecord:
        """Redeploy the previously deployed champion.

        The bad record stays in :meth:`record_for` (responses it served
        must stay attributable) but leaves the deployment path. Raises
        ``LookupError`` with nothing to roll back to.
        """
        with self._lock:
            if self._closed:
                raise RegistryClosed("registry is closed")
            if not self._rollback:
                raise LookupError("no previous champion to roll back to")
            self._current = self._rollback.pop()
            self._rollbacks += 1
            restored = self._current
            subscribers = self._enqueue_deployment(restored)
        self._deliver(subscribers)
        return restored

    # -- deployment pub/sub -------------------------------------------------

    # holds-lock: _lock
    def _enqueue_deployment(self, record: ChampionRecord):
        """Bump the deployment seq and queue the change to every
        subscriber. Must run under ``self._lock`` — that is what fixes
        one global delivery order across concurrent publishers."""
        self._seq += 1
        for sub in self._subscribers:
            sub._pending.append((self._seq, record))
        return list(self._subscribers)

    def _deliver(self, subscribers: list[Subscription]) -> None:
        """Drain queued deployments to each subscriber, in seq order.

        Runs *outside* the registry lock (callbacks may be slow — e.g.
        the serving fleet pipes a compiled plan to every replica). The
        per-subscriber delivery lock serialises concurrent drains: a
        publisher that loses the race blocks briefly, then finds the
        winner already delivered its entry — order is preserved either
        way.
        """
        for sub in subscribers:
            with sub._delivery_lock:
                while True:
                    with self._lock:
                        if not sub._pending or not sub.active:
                            break
                        seq, record = sub._pending.popleft()
                    sub.callback(seq, record)

    def subscribe(
        self,
        callback: Callable[[int, ChampionRecord], None],
        replay_current: bool = True,
    ) -> Subscription:
        """Stream every deployment change (publish *and* rollback) to
        ``callback(seq, record)``, in deployment order.

        ``replay_current=True`` (default) delivers the currently
        deployed record immediately — a late subscriber starts from the
        live state instead of waiting for the next swap. Callbacks run
        on whichever thread caused the deployment; keep them quick and
        never call back into the registry from one (the per-subscriber
        delivery lock is held).
        """
        with self._lock:
            if self._closed:
                raise RegistryClosed("registry is closed")
            subscription = Subscription(callback)
            if replay_current and self._current is not None:
                subscription._pending.append((self._seq, self._current))
            self._subscribers.append(subscription)
        self._deliver([subscription])
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Stop deliveries to ``subscription`` (idempotent)."""
        with self._lock:
            subscription.active = False
            if subscription in self._subscribers:
                self._subscribers.remove(subscription)

    @property
    def seq(self) -> int:
        """Global deployment sequence (0 before the first publish;
        +1 on every publish and rollback)."""
        with self._lock:
            return self._seq

    def deployment(self) -> tuple[int, ChampionRecord]:
        """The current ``(seq, record)`` pair, read atomically.

        Reading ``seq`` and ``current()`` separately can tear across a
        concurrent publish; catch-up logic (a respawned fleet replica
        deciding which seq it must ack before taking traffic) needs the
        pair from one lock acquisition. Raises ``LookupError`` before
        the first publish.
        """
        with self._lock:
            if self._closed:
                raise RegistryClosed("registry is closed")
            if self._current is None:
                raise LookupError("no champion has been published")
            return self._seq, self._current

    @property
    def version(self) -> int:
        """Version of the current champion (0 before first publish)."""
        with self._lock:
            return self._current.version if self._current else 0

    @property
    def swaps(self) -> int:
        """Deployment changes after the first publish (incl. rollbacks)."""
        with self._lock:
            published = self._next_version - 1
            return max(0, published - 1) + self._rollbacks

    def close(self) -> None:
        """Refuse further publishes and deployment reads.

        The gateway calls this *after* draining in-flight batches — see
        :meth:`repro.serve.gateway.InferenceGateway.close` — so no
        request that was accepted ever observes a closed registry.
        :meth:`record_for` keeps working: already-served responses must
        stay attributable (post-run parity audits rely on it).
        """
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
