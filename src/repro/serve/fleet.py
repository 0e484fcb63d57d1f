"""Horizontally scaled serving: N gateway replicas behind one registry.

One asyncio gateway caps serving throughput at a single event loop and a
single GIL — nowhere near the paper's "heavy traffic" framing. The
:class:`ServingFleet` runs N full :class:`~repro.serve.gateway
.InferenceGateway` replicas in worker *processes* (each with its own
loop, micro-batcher and compiled champion) behind a seeded deterministic
load balancer in the parent.

Champion propagation is a versioned publish/subscribe channel: the fleet
subscribes to the parent :class:`~repro.serve.registry.ChampionRegistry`
deployment stream and forwards every change — compiled plan on the
sparse wire codec of :mod:`repro.cluster.serialization` — down each
replica's pipe. Replicas apply a change iff its deployment *sequence
number* exceeds the last one applied, and the pipe is FIFO, so
propagation is monotone: once a replica acks seq ``s`` it can never
serve a deployment older than ``s`` — even across a rollback, which
lowers the champion *version* but still raises the *seq*.

The request path is block-native on both sides of the pipe, and each
end runs its pipe on its event loop as a :class:`~repro.cluster
.transport.Channel`: no reader thread, no queue, no task per message.
The parent keeps one waiter — ``(observation, future, submitted_at,
retries)`` — per request and forwards each replica's backlog in chunks;
a chunk crosses as an ``"infer"`` raw column frame (:func:`~repro
.cluster.serialization.encode_chunk`: its id and one ``(k, n_inputs)``
float64 matrix, no pickling). The replica feeds the matrix to its
micro-batcher as *one block* (one future, no per-request task or
object; see :mod:`repro.serve.batcher`) and, from that future's
done-callback, replies with an ``"answers"`` frame — a ``(3,
accepted)`` int64 matrix of action, champion version and batch size per
answered row — which the parent fans out to the waiting futures in
order. Rows past ``accepted`` were shed by the replica's pending queue.

Overload surfaces at two levels: each replica sheds via its own bounded
micro-batcher queue, and the parent sheds (``fleet_shed``) when a
replica's in-flight window is full — callers see the same
:class:`~repro.serve.batcher.Overloaded` either way. Batching is
work-conserving, with no coalescing window and nothing to tune (see
:mod:`repro.serve.batcher`).

Replicas run on the clans' :class:`~repro.cluster.transport
.ProcessGroup` (fork, pipes, reaping, span collection); this module is
the serving policy. A replica's channel reports its death once, at EOF
or a broken pipe. From there the fleet *heals* rather than merely
isolates (mirroring the cluster runtime):

- requests pending on the dead replica are transparently re-dispatched
  to a surviving replica with seeded jitter, up to ``SUBMIT_RETRIES``
  per request (``requests_retried`` counts them) — callers only see
  :class:`ReplicaDied` once the retry budget or the whole fleet is
  exhausted;
- the replica is respawned with exponential backoff up to
  ``max_replica_respawns`` times, caught up to the current deployment
  seq (the cached latest deployment is replayed down its fresh pipe,
  exactly like the registry's late-subscribe replay), and only admitted
  back into the balancer once it acks that seq — a respawned replica can
  never serve a stale champion;
- a per-replica circuit breaker (``breaker_threshold`` consecutive
  deaths opens it for ``breaker_reset_s``) keeps a flapping replica out
  of the rotation until it cools down, then half-opens it for a trial;
- a deployment-repair loop re-sends the cached deployment to any live
  replica whose acked seq lags (healing a dropped/corrupted publish
  message — re-delivery is idempotent thanks to the monotone guard).
  Every publish carries a CRC-32 of its plan wire, computed once per
  deployment: a replica refuses a plan whose bytes do not match before
  decoding it, so a flipped bit that still decodes can never serve a
  different policy under the same version.

All of it is driven by protocol events, not wall-clock sampling, so an
undisturbed fleet behaves bit-identically with healing on or off. The
optional ``chaos`` injector (:mod:`repro.chaos`) intercepts the publish
and infer send paths for replayable fault scenarios.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import random
import time
import zlib
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.serialization import (
    decode_batched_plan,
    decode_chunk,
    encode_batched_plan,
    encode_chunk,
)
from repro.cluster.transport import ProcessGroup, open_channel, ship_spans
from repro.core.metrics import ServiceStats
from repro.neat.network import BatchedFeedForwardNetwork
from repro.obs import clock
from repro.obs import tracer as obs_tracer
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    Overloaded,
    ServedAction,
    ServiceClosed,
)
from repro.serve.gateway import InferenceGateway
from repro.serve.registry import ChampionRegistry, Subscription


class ReplicaDied(RuntimeError):
    """A replica process exited (or its pipe broke) with work in flight."""


#: longest ``close`` waits for the replicas' final ``closed`` replies
CLOSE_TIMEOUT_S = 30.0
#: transparent re-dispatches per request before it sees ReplicaDied
SUBMIT_RETRIES = 2
#: upper bound of the seeded jitter that decorrelates a retry burst
#: from the survivors' in-progress batches (thundering-herd guard)
RETRY_JITTER_S = 0.002
#: period of the deployment-repair (anti-entropy) loop
DEPLOY_REPAIR_S = 0.25


# ---------------------------------------------------------------------------
# Replica process side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ReplicaRecord:
    """The replica-side view of a deployment: version + compiled net."""

    version: int
    network: BatchedFeedForwardNetwork


class _ReplicaChampionStore:
    """Duck-typed champion registry living inside a replica process.

    Provides the read surface :class:`InferenceGateway` needs
    (``current()``, ``version``, ``swaps``, ``close()``) over records
    installed from the parent's deployment stream. ``install`` enforces
    the monotone-seq guard: a deployment is applied iff its seq exceeds
    the last applied one, so re-ordered or replayed publishes can never
    regress the replica to an older deployment. It is only ever used on
    the replica's one thread, its event loop.
    """

    def __init__(self):
        self._current: _ReplicaRecord | None = None
        self._seq = -1
        self.swaps = 0
        self._closed = False

    def install(
        self, seq: int, version: int, plan_wire: bytes, crc: int
    ) -> bool:
        """Apply deployment ``seq`` (decoding the wire plan); returns
        whether it was applied (False = stale, ignored). Raises
        ``ValueError`` — and keeps the current record — when the plan
        does not match its CRC-32 ``crc`` or does not decode."""
        if zlib.crc32(plan_wire) != crc:
            raise ValueError(f"deployment {seq}: plan checksum mismatch")
        network = BatchedFeedForwardNetwork(decode_batched_plan(plan_wire))
        if seq <= self._seq:
            return False
        if self._current is not None:
            self.swaps += 1
        self._seq = seq
        self._current = _ReplicaRecord(version=version, network=network)
        return True

    def current(self) -> _ReplicaRecord:
        if self._closed:
            raise ServiceClosed("replica store is closed")
        if self._current is None:
            raise LookupError("no champion deployed to this replica")
        return self._current

    @property
    def version(self) -> int:
        return self._current.version if self._current else 0

    def close(self) -> None:
        self._closed = True


def _chunk_reply(block) -> tuple:
    """The reply columns of one chunk — which rode the batcher as one
    block, one future and no per-request task — from that future.

    Returns ``(status, accepted, actions, versions, sizes)``: with
    status ``"ok"`` the three integer arrays hold one entry per
    accepted row (the head of the chunk; rows past ``accepted`` were
    shed by the replica's pending queue) — greedy action, champion
    version and flush size. Any other status (``"closed"``, or the repr
    of the exception that failed the block) applies to the whole chunk.
    """
    try:
        served = block.result()
    except ServiceClosed:
        return ("closed", 0, None, None, None)
    except Exception as exc:
        return (repr(exc), 0, None, None, None)
    actions, versions, sizes, _ = served.columns()
    return ("ok", served.accepted, actions, versions, sizes)


async def _answer_chunk(gateway: InferenceGateway, observations) -> tuple:
    """Serve one chunk and await its reply columns — what a replica
    sends from the block's done-callback."""
    block = gateway.enqueue_block(observations)
    with contextlib.suppress(Exception):
        await block
    return _chunk_reply(block)


async def _replica_serve(
    conn,
    replica_id: int,
    max_batch: int,
    max_pending: int,
    trace: bool = False,
) -> None:
    """Event loop body of one replica process: every message is handled
    in its channel's callback, with no thread and no queue between."""
    tracer = None
    if trace:
        # the parent had a tracer active when the fleet started, so this
        # replica records its own track and ships drained batches home
        tracer = obs_tracer.Tracer(track=f"replica:{replica_id}")
        obs_tracer.activate(tracer)
    store = _ReplicaChampionStore()
    gateway = InferenceGateway(
        store, max_batch=max_batch, max_pending=max_pending
    )
    await gateway.start()
    stop = asyncio.get_running_loop().create_future()

    def answer(chunk_id, block) -> None:
        status, _, actions, versions, sizes = _chunk_reply(block)
        if status == "ok":
            columns = np.stack((actions, versions, sizes))
            channel.send(("answers", encode_chunk(chunk_id, columns, "<i8")))
        else:
            channel.send(("failed", (chunk_id, status)))
        ship_spans(channel, tracer)

    def on_message(kind, payload) -> None:
        if kind == "infer":
            chunk_id, observations = decode_chunk(payload, "<f8")
            gateway.enqueue_block(observations).add_done_callback(
                functools.partial(answer, chunk_id)
            )
        elif kind == "publish":
            seq, version, plan_wire, crc = payload
            try:
                store.install(seq, version, plan_wire, crc)
            except ValueError:
                # refused unacked: the deploy-repair loop resends the
                # parent's intact wire, and the current record serves on
                return
            channel.send(("published", (seq, version)))
        elif kind == "stats":
            channel.send(("stats", gateway.stats()))
        elif not stop.done():
            # "close", or "died": the parent vanished
            stop.set_result(kind)

    channel = await open_channel(conn, on_message)
    closing = (await stop) == "close"
    # FIFO pipe: every chunk sent before "close" is queued already. The
    # drain resolves their blocks, and their done-callbacks (scheduled
    # as each flush resolves them) run before the collector's exit
    # wakes this coroutine: every answer is sent before "closed"
    await gateway.close()
    if closing:
        ship_spans(channel, tracer)
        channel.send(("closed", gateway.stats()))
    # flush the buffered replies: the process exits right after
    await channel.close()


def _replica_main(conn, replica_id: int, *args) -> None:
    asyncio.run(_replica_serve(conn, replica_id, *args))  # pragma: no cover


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _ReplicaHandle:
    """Parent-side bookkeeping for one replica process."""

    __slots__ = (
        "id",
        "channel",
        "outbox",
        "flush_scheduled",
        "inflight",
        "inflight_count",
        "acked_seq",
        "alive",
        "last_stats",
        "final_stats",
        "stats_future",
        "closed_future",
        "version_trace",
        "catching_up",
        "respawns",
        "breaker_failures",
        "breaker_open_until",
    )

    def __init__(self, replica_id: int):
        self.id = replica_id
        #: the replica's pipe on the loop (replaced by each respawn)
        self.channel = None
        #: accepted-but-unsent ``(observation, future, submitted_at,
        #: retries)`` — the observation rides along so a request caught
        #: on a dying replica can be re-dispatched elsewhere
        self.outbox: deque = deque()
        self.flush_scheduled = False
        #: chunk_id -> list of ``(observation, future, submitted_at,
        #: retries)``
        self.inflight: dict[int, list] = {}
        self.inflight_count = 0
        #: highest deployment seq this replica has acked
        self.acked_seq = 0
        self.alive = True
        self.last_stats: ServiceStats | None = None
        self.final_stats: ServiceStats | None = None
        self.stats_future: asyncio.Future | None = None
        #: set by ``close``; resolved by the replica's ``closed`` reply
        #: or by its death, whichever comes first
        self.closed_future: asyncio.Future | None = None
        #: champion versions in served order (consecutive dedup) — the
        #: stale-serve audit asserts this never regresses between acks
        self.version_trace: list[int] = []
        #: a respawned replica is alive but held out of the balancer
        #: until it acks the current deployment seq
        self.catching_up = False
        #: respawns consumed (bounded by ``max_replica_respawns``)
        self.respawns = 0
        #: consecutive deaths without an answered request in between —
        #: reaching ``breaker_threshold`` opens the circuit breaker
        self.breaker_failures = 0
        #: monotonic deadline until which the breaker stays open
        self.breaker_open_until = 0.0


class ServingFleet:
    """N gateway replicas in worker processes behind one registry.

    Usage (inside an event loop)::

        registry = ChampionRegistry(config)
        fleet = ServingFleet(registry, replicas=4)
        await fleet.start()            # subscribes to the registry
        registry.publish(genome)       # propagates to every replica
        await fleet.wait_deployed()    # all replicas acked
        served = await fleet.submit(observation)
        ...
        await fleet.close()            # drains replicas; registry stays
                                       # open (the caller owns it)

    ``submit`` must be awaited on the loop ``start`` ran on; deployment
    propagation may come from any thread (the registry subscription
    callback runs on whichever thread published). The balancer is a
    seeded uniform pick over live replicas — deterministic for a given
    submission sequence, which is what lets the scaling benchmark replay
    identical load against 1 and 4 replicas.
    """

    def __init__(
        self,
        registry: ChampionRegistry,
        replicas: int = 2,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        seed: int = 0,
        max_inflight: int = 4096,
        chunk_size: int = 256,
        max_replica_respawns: int = 2,
        respawn_backoff_s: float = 0.05,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 1.0,
        chaos=None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_replica_respawns < 0:
            raise ValueError("max_replica_respawns must be >= 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self.registry = registry
        self.replicas = replicas
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.seed = seed
        #: per-replica cap on accepted-but-unanswered requests; beyond
        #: it the *parent* sheds (fleet backpressure)
        self.max_inflight = max_inflight
        #: requests forwarded per pipe frame (amortises per-frame costs)
        self.chunk_size = chunk_size
        #: self-healing policy (see the module docstring)
        self.max_replica_respawns = max_replica_respawns
        self.respawn_backoff_s = respawn_backoff_s
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        #: parent-side sheds (replica window full); replica-side sheds
        #: live in each replica's own stats
        self.fleet_shed = 0
        #: healing counters (exported as repro_replica_respawns_total /
        #: repro_requests_retried_total — see obs/metrics.py)
        self.replica_respawns = 0
        self.requests_retried = 0
        self._rng = random.Random(seed)
        #: retry placement draws come from a *separate* seeded
        #: stream so healing never shifts the balancer's deterministic
        #: pick sequence for healthy traffic
        self._retry_rng = random.Random(seed ^ 0x9E3779B1)
        #: optional :class:`repro.chaos.ChaosInjector` consulted on the
        #: publish and infer send paths (None = zero interference)
        self._chaos = chaos
        self._handles: dict[int, _ReplicaHandle] = {}
        #: cached sorted live-replica ids — the submit hot path picks
        #: from this instead of rescanning handles per request; rebuilt
        #: on replica death (see ``_rebuild_live``)
        self._live: list[_ReplicaHandle] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._subscription: Subscription | None = None
        self._group: ProcessGroup | None = None
        self._next_chunk_id = 0
        self._deploy_waiters: list[tuple[int, asyncio.Future]] = []
        self._scrape_lock: asyncio.Lock | None = None
        self._started_at: float | None = None
        self._closed = False
        self._close_done = False
        #: latest deployment ``(seq, version, wire, crc32 of wire)`` —
        #: replayed to respawned replicas and by the deployment-repair
        #: loop
        self._last_deployment: tuple[int, int, bytes, int] | None = None
        #: replica ids with a respawn in flight (death observed, new
        #: process not yet admitted)
        self._respawning: set[int] = set()
        self._respawn_tasks: set[asyncio.Task] = set()
        self._repair_task: asyncio.Task | None = None
        #: requests parked while *no* replica is routable but a respawn
        #: is in flight — drained on re-admission, failed on give-up
        self._parked: deque = deque()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Spawn replicas, attach their pipes to this loop, subscribe to
        the registry (replaying the current deployment, if any)."""
        if self._loop is not None:
            raise RuntimeError("fleet already started")
        self._loop = asyncio.get_running_loop()
        self._scrape_lock = asyncio.Lock()
        # replicas trace iff the parent has a tracer to absorb into
        trace = obs_tracer.current() is not None
        self._group = ProcessGroup(
            self.replicas,
            _replica_main,
            (self.max_batch, self.max_pending, trace),
        )
        self._handles = {i: _ReplicaHandle(i) for i in range(self.replicas)}
        for handle in self._handles.values():
            await self._attach(handle)
        self._rebuild_live()
        self._started_at = clock.perf()
        self._repair_task = self._loop.create_task(
            self._deploy_repair_loop()
        )
        self._subscription = self.registry.subscribe(
            self._on_deployment, replay_current=True
        )

    async def _attach(self, handle: _ReplicaHandle) -> None:
        """Run the replica's pipe on this loop, into :meth:`_on_message`."""
        handle.channel = await self._group.attach(
            handle.id, functools.partial(self._on_message, handle)
        )

    async def close(self) -> None:
        """Drain every replica, collect final stats, reap processes.

        The registry is **not** closed — the fleet borrows it (the
        owning service or caller closes it after the fleet is down).
        """
        if self._closed:
            return
        self._closed = True
        if self._subscription is not None:
            self.registry.unsubscribe(self._subscription)
        if self._repair_task is not None:
            self._repair_task.cancel()
        for task in list(self._respawn_tasks):
            task.cancel()
        live = [h for h in self._handles.values() if h.alive]
        for handle in live:
            handle.closed_future = self._loop.create_future()
            self._flush_outbox(handle)
            handle.channel.send(("close", None))
        if live:
            await asyncio.wait(
                [handle.closed_future for handle in live],
                timeout=CLOSE_TIMEOUT_S,
            )
        for handle in self._handles.values():
            handle.channel.close()
        if self._group is not None:
            await self._loop.run_in_executor(None, self._group.close)
        closed = ServiceClosed("fleet closed with work in flight")
        for handle in self._handles.values():
            self._fail_pending(handle, closed)
        while self._parked:
            _, future, _, _ = self._parked.popleft()
            if not future.done():
                future.set_exception(closed)
        self._close_done = True

    # -- deployment propagation ---------------------------------------------

    def _on_deployment(self, seq: int, record) -> None:
        """Registry subscription callback (any publisher thread).

        Encodes the compiled plan (and its CRC-32) once and applies the
        fault plan here, then hops the sends onto the loop, the one
        thread that writes to the channels. Hops run in call order and
        each pipe is FIFO, so with the registry's per-subscriber
        ordering each replica receives deployments in global seq order;
        the replica-side monotone guard makes application idempotent on
        top.
        """
        if self._closed:
            return
        wire = encode_batched_plan(record.plan)
        crc = zlib.crc32(wire)
        self._last_deployment = (seq, record.version, wire, crc)
        if self._chaos is not None:
            registry_decision = self._chaos.on_event(
                "registry", None, "publish"
            )
            if registry_decision.delay_s > 0.0:
                # registry-publish delay: holds delivery to the whole
                # fleet (the publisher thread is the delivery thread)
                time.sleep(registry_decision.delay_s)
        sends = []
        for handle in self._handles.values():
            if not handle.alive:
                continue
            payload = wire
            deliveries = 1
            if self._chaos is not None:
                decision = self._chaos.on_event(
                    "replica", handle.id, "publish"
                )
                if decision.intercepts:
                    if decision.kill:
                        self._group.kill(handle.id)
                    if decision.delay_s > 0.0:
                        time.sleep(decision.delay_s)
                    if decision.corrupt:
                        # a corrupted plan fails its checksum in the
                        # replica, which refuses it unacked; the deploy-
                        # repair loop must resend the intact wire
                        payload = self._chaos.corrupt_bytes(wire)
                    deliveries = decision.deliveries
            message = ("publish", (seq, record.version, payload, crc))
            sends += [(handle, message)] * deliveries
        self._loop.call_soon_threadsafe(self._send_all, sends)

    @staticmethod
    def _send_all(sends) -> None:
        for handle, message in sends:
            handle.channel.send(message)

    async def wait_deployed(self, seq: int | None = None) -> None:
        """Wait until every *live* replica has acked deployment ``seq``
        (default: the registry's current seq). Raises
        :class:`ReplicaDied` if no replica is left alive."""
        if seq is None:
            seq = self.registry.seq
        if self._deploy_satisfied(seq):
            return
        future = self._loop.create_future()
        self._deploy_waiters.append((seq, future))
        await future

    def _deploy_satisfied(self, seq: int) -> bool:
        live = [h for h in self._handles.values() if h.alive]
        if not live:
            if self._respawning:
                return False  # heal in progress — keep waiting
            raise ReplicaDied("no live replicas")
        return all(h.acked_seq >= seq for h in live)

    def _check_deploy_waiters(self) -> None:
        still_waiting = []
        for seq, future in self._deploy_waiters:
            if future.done():
                continue
            try:
                satisfied = self._deploy_satisfied(seq)
            except ReplicaDied as exc:
                future.set_exception(exc)
                continue
            if satisfied:
                future.set_result(None)
            else:
                still_waiting.append((seq, future))
        self._deploy_waiters = still_waiting

    # -- request path -------------------------------------------------------

    async def submit(self, observation) -> ServedAction:
        """Answer one observation on a balanced replica.

        Raises :class:`~repro.serve.batcher.Overloaded` when the chosen
        replica's in-flight window is full (fleet backpressure; also
        raised when the replica itself sheds), :class:`ReplicaDied` only
        when a request exhausts its transparent retry budget (or the
        whole fleet is dead with no respawn in flight), and
        :class:`~repro.serve.batcher.ServiceClosed` after ``close``.
        """
        if self._loop is None:
            raise RuntimeError("fleet not started")
        if self._closed:
            raise ServiceClosed("fleet is closing; request rejected")
        future = self._loop.create_future()
        # the observation is forwarded as-is (the replica's own
        # micro-batcher normalises it); the parent hot path stays lean —
        # it is shared by every replica and caps fleet scaling
        if not isinstance(observation, (list, tuple)):
            observation = list(observation)
        if not self._live:
            if not self._respawning:
                raise ReplicaDied("no live replicas")
            # the whole fleet is down but a respawn is in flight: park
            # the request; it is drained on re-admission (bounded by the
            # same in-flight window as a live replica)
            if len(self._parked) >= self.max_inflight:
                self.fleet_shed += 1
                raise Overloaded(f"{len(self._parked)} requests parked")
            self._parked.append(
                (observation, future, self._loop.time(), 0)
            )
            return await future
        handle = self._rng.choice(self._live)
        pending = handle.inflight_count + len(handle.outbox)
        if pending >= self.max_inflight:
            self.fleet_shed += 1
            raise Overloaded(
                f"replica {handle.id}: {pending} requests in flight"
            )
        handle.outbox.append(
            (observation, future, self._loop.time(), 0)
        )
        if not handle.flush_scheduled:
            handle.flush_scheduled = True
            self._loop.call_soon(self._flush_outbox, handle)
        return await future

    def _flush_outbox(self, handle: _ReplicaHandle) -> None:
        """Forward the accepted backlog in chunks (loop thread only).

        A chunk crosses the pipe as one raw ``(k, n_inputs)`` float64
        frame; the waiters keep their own observation so a chunk that
        is lost, or caught on a dying replica, can be re-dispatched.
        """
        handle.flush_scheduled = False
        if not handle.alive:
            return  # the death handler moved the outbox elsewhere
        outbox = handle.outbox
        while outbox:
            waiters = [
                outbox.popleft()
                for _ in range(min(self.chunk_size, len(outbox)))
            ]
            try:
                observations = np.array(
                    [entry[0] for entry in waiters], dtype=np.float64
                )
            except (TypeError, ValueError) as exc:
                # a non-numeric or ragged observation fails the chunk it
                # rides in, as it fails its batch in a direct gateway
                for _, future, _, _ in waiters:
                    if not future.done():
                        future.set_exception(exc)
                continue
            chunk_id = self._next_chunk_id
            self._next_chunk_id += 1
            message = ("infer", encode_chunk(chunk_id, observations, "<f8"))
            if self._chaos is not None:
                decision = self._chaos.on_event(
                    "replica", handle.id, "infer"
                )
                if decision.intercepts:
                    if decision.kill:
                        self._group.kill(handle.id)
                    if decision.deliveries == 0:
                        # a lost infer chunk: heal by re-dispatching its
                        # requests, exactly like an in-flight death
                        self._redispatch(
                            waiters,
                            handle,
                            ReplicaDied(
                                f"replica {handle.id} lost a chunk"
                            ),
                        )
                        continue
                    if decision.deliveries > 1:
                        # duplicate chunk: the second answer finds no
                        # waiters and is dropped (idempotent)
                        handle.channel.send(message)
            handle.inflight[chunk_id] = waiters
            handle.inflight_count += len(waiters)
            handle.channel.send(message)

    def _on_message(self, handle: _ReplicaHandle, kind, payload) -> None:
        """Dispatch one replica reply or death (loop thread only)."""
        if kind == "answers":
            chunk_id, columns = decode_chunk(payload, "<i8")
            waiters = self._answered(handle, chunk_id)
            self._fan_out(handle, waiters, *columns.tolist())
        elif kind == "failed":
            chunk_id, status = payload
            if status == "closed":
                error = ServiceClosed(f"replica {handle.id} was closing")
            else:
                error = RuntimeError(f"replica {handle.id} failed: {status}")
            for _, future, _, _ in self._answered(handle, chunk_id):
                if not future.done():
                    future.set_exception(error)
        elif kind == "died":
            self._on_replica_death(handle)
        elif kind == "published":
            seq, _version = payload
            handle.acked_seq = max(handle.acked_seq, seq)
            if handle.catching_up:
                last = self._last_deployment
                if last is None or handle.acked_seq >= last[0]:
                    # caught up to the current deployment: the respawned
                    # replica can never serve a stale champion, so it is
                    # safe to route traffic to it again
                    handle.catching_up = False
                    self._admit(handle)
            self._check_deploy_waiters()
        elif kind == "stats":
            handle.last_stats = payload
            if handle.stats_future and not handle.stats_future.done():
                handle.stats_future.set_result(None)
        elif kind == "closed":
            # the replica's last word: its exit is no death
            handle.channel.close()
            handle.final_stats = payload
            handle.last_stats = payload
            if handle.closed_future and not handle.closed_future.done():
                handle.closed_future.set_result(None)

    @staticmethod
    def _answered(handle: _ReplicaHandle, chunk_id: int):
        """Take one chunk's waiters off ``handle`` (a duplicate finds none)."""
        waiters = handle.inflight.pop(chunk_id, ())
        handle.inflight_count -= len(waiters)
        return waiters

    def _fan_out(self, handle, waiters, actions, versions, sizes) -> None:
        """Resolve one answered chunk's futures from its columns: row
        ``i`` answers waiter ``i``; waiters past the answered rows were
        shed by the replica. A caller-cancelled future is skipped."""
        now = self._loop.time()
        trace = handle.version_trace
        replica = handle.id
        for (_, future, submitted_at, _), action, version, size in zip(
            waiters, actions, versions, sizes
        ):
            if future.done():
                continue
            if not trace or trace[-1] != version:
                trace.append(version)
            future.set_result(
                ServedAction(
                    action=action,
                    champion_version=version,
                    latency_s=now - submitted_at,
                    batch_size=size,
                    replica=replica,
                )
            )
        accepted = len(actions)
        if accepted:
            # an answered request closes the circuit breaker: the
            # replica is demonstrably serving again
            handle.breaker_failures = 0
        for _, future, _, _ in waiters[accepted:]:
            if not future.done():
                future.set_exception(
                    Overloaded(f"replica {replica} shed the request")
                )

    def _rebuild_live(self) -> None:
        """Recompute the routable set: alive, caught up, breaker closed."""
        now = clock.monotonic()
        self._live = sorted(
            (
                h
                for h in self._handles.values()
                if h.alive
                and not h.catching_up
                and not (
                    h.breaker_failures >= self.breaker_threshold
                    and now < h.breaker_open_until
                )
            ),
            key=lambda h: h.id,
        )

    def _on_replica_death(self, handle: _ReplicaHandle) -> None:
        """Loop-thread handler for a replica's one reported death (EOF or
        a broken pipe on its channel).

        Mirrors the cluster runtime's supervision policy: re-dispatch
        the casualty's pending requests to survivors (transparent
        retry), then respawn the replica with backoff — unless its
        respawn budget is spent, in which case the slot is abandoned and
        only then do stranded requests see :class:`ReplicaDied`.
        """
        handle.alive = False
        handle.catching_up = False
        self._rebuild_live()
        error = ReplicaDied(f"replica {handle.id} died")
        # circuit breaker: another death without an answered request in
        # between; reaching the threshold keeps the slot out of the
        # rotation for breaker_reset_s after it next comes back
        handle.breaker_failures += 1
        if handle.breaker_failures >= self.breaker_threshold:
            handle.breaker_open_until = (
                clock.monotonic() + self.breaker_reset_s
            )
        respawnable = (
            not self._closed
            and handle.respawns < self.max_replica_respawns
        )
        pending = list(handle.inflight.values())
        handle.inflight.clear()
        handle.inflight_count = 0
        if handle.outbox:
            pending.append(list(handle.outbox))
            handle.outbox.clear()
        for waiters in pending:
            self._redispatch(waiters, handle, error, parkable=respawnable)
        if handle.stats_future and not handle.stats_future.done():
            handle.stats_future.set_result(None)
        if handle.closed_future and not handle.closed_future.done():
            handle.closed_future.set_result(None)
        if respawnable:
            handle.respawns += 1
            self._respawning.add(handle.id)
            task = self._loop.create_task(self._respawn_replica(handle))
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)
        else:
            self._give_up_parked()
        self._check_deploy_waiters()

    def _redispatch(
        self,
        waiters: list,
        source: _ReplicaHandle | None,
        error: Exception,
        parkable: bool = True,
    ) -> None:
        """Retry requests stranded on ``source`` elsewhere, with jitter.

        Each request carries its retry count; one that exhausts
        ``SUBMIT_RETRIES`` fails with ``error`` instead of bouncing
        forever. With no routable survivor the requests park if a
        respawn is (or will be) in flight, else fail. Stats cannot
        double-count a retried request: the dead replica never reported
        an outcome for it, so only the replica that finally answers
        counts it.
        """
        targets = [h for h in self._live if h is not source]
        touched = set()
        for entry in waiters:
            observation, future, submitted_at, retries = entry
            if future.done():
                continue
            if retries >= SUBMIT_RETRIES:
                future.set_exception(error)
                continue
            if not targets:
                if parkable or self._respawning:
                    self._parked.append(
                        (observation, future, submitted_at, retries + 1)
                    )
                else:
                    future.set_exception(error)
                continue
            self.requests_retried += 1
            target = self._retry_rng.choice(targets)
            target.outbox.append(
                (observation, future, submitted_at, retries + 1)
            )
            touched.add(target.id)
        for replica_id in sorted(touched):
            target = self._handles[replica_id]
            if not target.flush_scheduled:
                target.flush_scheduled = True
                self._loop.call_later(
                    self._retry_rng.uniform(0.0, RETRY_JITTER_S),
                    self._flush_outbox,
                    target,
                )

    async def _respawn_replica(self, handle: _ReplicaHandle) -> None:
        """Supervisor task: back off, fork a replacement, catch it up."""
        backoff = self.respawn_backoff_s * (2 ** (handle.respawns - 1))
        if backoff:
            await asyncio.sleep(backoff)
        if self._closed:
            self._respawning.discard(handle.id)
            return
        await self._loop.run_in_executor(
            None, self._group.respawn, handle.id
        )
        await self._attach(handle)
        handle.acked_seq = 0
        handle.final_stats = None
        last = self._last_deployment
        handle.catching_up = last is not None
        handle.alive = True
        self.replica_respawns += 1
        self._respawning.discard(handle.id)
        if last is not None:
            # catch-up: replay the cached current deployment (the
            # fleet-side analogue of the registry's late-subscribe
            # replay); admission waits for its ack
            handle.channel.send(("publish", last))
        else:
            self._admit(handle)

    def _admit(self, handle: _ReplicaHandle) -> None:
        """(Re-)enter a caught-up replica into the rotation and drain
        any parked requests onto it."""
        self._rebuild_live()
        if handle not in self._live:
            return  # breaker still open — the repair loop re-admits
        if self._parked:
            parked, self._parked = self._parked, deque()
            # neutral source: parked work may (and with one replica,
            # must) land on the newly admitted replica itself
            self._redispatch(
                list(parked), None, ReplicaDied("no live replicas")
            )
        self._check_deploy_waiters()

    def _give_up_parked(self) -> None:
        """Fail parked requests when no respawn can save them."""
        if self._respawning or self._live:
            return
        error = ReplicaDied("no live replicas")
        while self._parked:
            _, future, _, _ = self._parked.popleft()
            if not future.done():
                future.set_exception(error)

    async def _deploy_repair_loop(self) -> None:
        """Periodic anti-entropy: re-send the cached deployment to any
        live replica whose acked seq lags, and re-admit replicas whose
        breaker cooldown has elapsed.

        Re-delivery is idempotent (replica-side monotone seq guard), so
        this heals a dropped or corrupted publish message without any
        bookkeeping of *which* message was lost. When every replica is
        caught up the loop sends nothing and perturbs nothing.
        """
        while not self._closed:
            await asyncio.sleep(DEPLOY_REPAIR_S)
            # half-open: a breaker whose cooldown elapsed re-enters the
            # rotation; its next answered request closes it fully
            before = {h.id for h in self._live}
            self._rebuild_live()
            for handle in self._live:
                if handle.id not in before:
                    self._admit(handle)
            last = self._last_deployment
            if last is None:
                continue
            seq = last[0]
            for handle in self._handles.values():
                if (
                    handle.alive
                    and not handle.catching_up
                    and handle.acked_seq < seq
                ):
                    handle.channel.send(("publish", last))

    def _fail_pending(
        self, handle: _ReplicaHandle, error: Exception
    ) -> None:
        """Terminally fail everything pending on ``handle`` (close path)."""
        for waiters in handle.inflight.values():
            for _, future, _, _ in waiters:
                if not future.done():
                    future.set_exception(error)
        handle.inflight.clear()
        handle.inflight_count = 0
        while handle.outbox:
            _, future, _, _ = handle.outbox.popleft()
            if not future.done():
                future.set_exception(error)

    # -- introspection ------------------------------------------------------

    async def scrape(self) -> ServiceStats:
        """Refresh per-replica stats over the pipes (one ``stats`` round
        trip to every live replica); return the rollup."""
        async with self._scrape_lock:
            live = [h for h in self._handles.values() if h.alive]
            for handle in live:
                handle.stats_future = self._loop.create_future()
                handle.channel.send(("stats", None))
            if live:
                await asyncio.wait(
                    [h.stats_future for h in live], timeout=5.0
                )
            for handle in live:
                handle.stats_future = None
        return self.stats()

    def stats(self) -> ServiceStats:
        """Fleet-wide rollup of the latest known per-replica stats.

        Percentiles come from merged raw reservoirs
        (:meth:`~repro.core.metrics.ServiceStats.merge`); parent-side
        sheds (``fleet_shed``) are folded into the shed/request counts.
        Call :meth:`scrape` first for fresh numbers — this reads the
        cached snapshots.
        """
        parts = [
            handle.final_stats or handle.last_stats
            for handle in self._handles.values()
        ]
        merged = ServiceStats.merge([p for p in parts if p is not None])
        if self.fleet_shed:
            merged = replace(
                merged,
                requests=merged.requests + self.fleet_shed,
                shed=merged.shed + self.fleet_shed,
            )
        return merged

    def replica_stats(self) -> dict[int, ServiceStats | None]:
        """Latest known per-replica snapshots (None = never scraped)."""
        return {
            handle.id: handle.final_stats or handle.last_stats
            for handle in self._handles.values()
        }

    def version_traces(self) -> dict[int, list[int]]:
        """Per-replica champion versions in served order (consecutive
        dedup) — the raw material of the stale-serve audit."""
        return {
            handle.id: list(handle.version_trace)
            for handle in self._handles.values()
        }

    def breaker_states(self) -> dict[int, float]:
        """Per-replica circuit-breaker state as a gauge value:
        ``0.0`` closed (healthy), ``1.0`` open (not routable),
        ``0.5`` half-open (cooldown elapsed, awaiting a successful
        answer to close)."""
        now = clock.monotonic()
        states = {}
        for handle in self._handles.values():
            if handle.breaker_failures >= self.breaker_threshold:
                states[handle.id] = (
                    1.0 if now < handle.breaker_open_until else 0.5
                )
            else:
                states[handle.id] = 0.0
        return states

    def health(self) -> dict:
        """Self-healing counters for reporting/metrics ingest."""
        return {
            "replica_respawns": self.replica_respawns,
            "requests_retried": self.requests_retried,
            "fleet_shed": self.fleet_shed,
            "breaker_states": self.breaker_states(),
            "live_replicas": self.live_replicas,
            "faults_injected": (
                self._chaos.injected_counts()
                if self._chaos is not None
                else {}
            ),
        }

    @property
    def live_replicas(self) -> list[int]:
        return [h.id for h in self._live]
