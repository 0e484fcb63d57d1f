"""Clan hosts: one OS process per simulated Pi, or all in this one.

The logical protocol engines in :mod:`repro.core.protocols` place compute
and account for communication; this module *executes* CLAN_DDA's clans.
Each clan is served by one transport-free :class:`ClanSession`:
``clan_init`` / ``clan_restore`` seed it, and ``clan_run`` is the one
command that runs generations, a window of them with a report after
each (one-generation windows for the barrier driver, long ones for the
barrier-free one). A :class:`WorkerPool` runs the sessions on one of two
hosts: long-lived forked workers (the persistent agents of the paper's
testbed), each looping its session over a pipe in the canonical 32-bit
wire format of :mod:`repro.cluster.serialization`, or an
:class:`InProcessGroup` in the caller's process (the logical CLAN_DDA
engine's host).

Fault tolerance (``docs/fault_tolerance.md``): worker death surfaces as
:class:`WorkerDied` and hangs as :class:`WorkerTimeout`; a failed slot
is relaunched with :meth:`WorkerPool.respawn` and re-seeded from a clan
checkpoint with ``clan_restore``. When to do so is decided one layer up,
in :class:`repro.cluster.runtime.DistributedClanRuntime`.

Both process tiers — these clans and the serving replicas of
:mod:`repro.serve.fleet` — fork through one :class:`ProcessGroup` (fork,
pipes, reader, kill, respawn, reaping). Clans are read with
:meth:`ProcessGroup.read`, replicas through a :class:`Channel` on the
event loop at each end.
"""

from __future__ import annotations

import asyncio
import collections
import multiprocessing as mp
import os
import pickle
import socket
import struct
import threading
import time
import traceback
from multiprocessing import connection as mp_connection

from repro.cluster.worker_clan import WorkerClan
from repro.neat.config import NEATConfig
from repro.neat.evaluation import GenomeEvaluator
from repro.obs import tracer as obs


class WorkerFailure(RuntimeError):
    """A worker process failed (died or stopped responding).

    Carries the failed worker's index so supervisors can respawn the
    right slot; the message stays human-readable for unsupervised
    callers, where the exception propagates like any other error.
    """

    def __init__(self, worker: int, message: str):
        super().__init__(message)
        self.worker = worker


class WorkerDied(WorkerFailure):
    """The worker process is gone: pipe EOF, broken pipe, or a liveness
    check found the process dead (e.g. SIGKILLed by the OS)."""


class WorkerTimeout(WorkerFailure):
    """The worker process is alive but did not answer within the
    per-command timeout — the hang/stall failure mode."""


def ship_spans(conn, tracer) -> None:
    """Send ``tracer``'s events since the last call home as one
    ``("spans", batch)`` message (none when ``tracer`` is None);
    :meth:`ProcessGroup.read` absorbs it on the other side."""
    if tracer is not None and (spans := tracer.drain()):
        conn.send(("spans", spans))


#: a frame's header: body bytes, kind-name bytes, and 1 when the body
#: is a raw ``bytes`` value rather than a pickled one
_FRAME = struct.Struct("<IBB")


def encode_frame(message) -> bytes:
    """One ``(kind, value)`` message as a length-prefixed frame: header,
    kind name, then the value — as is when it is ``bytes`` (a raw column
    frame, see :mod:`repro.cluster.serialization`), pickled otherwise."""
    kind, value = message
    raw = type(value) is bytes
    name = kind.encode()
    body = value if raw else pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(body), len(name), raw) + name + body


class Channel(asyncio.Protocol):
    """One pipe as framed ``(kind, value)`` messages on an event loop.

    ``on_message(kind, value)`` gets each message as it arrives —
    ``"spans"`` are absorbed into the active tracer instead — and then
    exactly one ``("died", None)`` at EOF or a broken pipe, unless the
    channel was closed or retired first. All of it runs on the loop.

    Back-pressure: :meth:`send` never blocks and never raises. What the
    pipe cannot take yet waits in the transport's buffer, so two ends
    that both write a lot cannot deadlock; the protocol on top bounds
    what it leaves in flight (``docs/serving.md``). A send on a closed
    channel is dropped: its death is, or was, reported.
    """

    def __init__(self, sock, on_message):
        self.sock = sock
        self.transport = None
        self._on_message = on_message
        self._partial = b""
        #: set once the death is reported, or must never be
        self._silent = False
        self._lost = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._lost = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        if self._partial:
            data = self._partial + data
        offset, end = 0, len(data)
        while end - offset >= _FRAME.size:
            size, name_size, raw = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size + name_size
            if start + size > end:
                break  # the rest of this frame is still on its way
            kind = str(data[offset + _FRAME.size:start], "ascii")
            value = data[start:start + size]
            offset = start + size
            if not raw:
                value = pickle.loads(value)
            if kind != "spans":
                self._on_message(kind, value)
            elif (tracer := obs.current()) is not None:
                tracer.absorb(value)
        self._partial = data[offset:]

    def connection_lost(self, exc) -> None:
        self._lost.set_result(None)
        if not self._silent:
            self._silent = True
            self._on_message("died", None)

    def send(self, message) -> None:
        """Queue one ``(kind, value)`` message (see the class doc)."""
        if not self.transport.is_closing():
            self.transport.write(encode_frame(message))

    def retire(self) -> None:
        """Report nothing from now on (any thread): the pipe is retired."""
        self._silent = True

    def close(self) -> asyncio.Future:
        """Stop reading, flush what is buffered, then close the pipe;
        the returned future resolves once it is closed. Reports no
        death."""
        self._silent = True
        self.transport.close()
        return self._lost


async def open_channel(conn, on_message) -> Channel:
    """``conn``'s pipe as a :class:`Channel` on the running loop (a
    child's end; :meth:`ProcessGroup.attach` is the parent's). It uses a
    non-blocking duplicate of the descriptor: ``conn`` is done with."""
    sock = socket.socket(fileno=os.dup(conn.fileno()))
    channel = Channel(sock, on_message)
    await asyncio.get_running_loop().connect_accepted_socket(
        lambda: channel, sock
    )
    return channel


def _child_main(target, conn, slot: int, args: tuple, parent_ends) -> None:
    # the fork copied the parent's end of every pipe in the group: held
    # open here, they would hide the parent's close from this child and
    # its siblings, so no child would ever read EOF
    for end in parent_ends:
        end.close()
    # the fork copied the parent's active tracer: whatever a child
    # recorded into that copy would never be shipped home
    obs.deactivate()
    try:
        target(conn, slot, *args)
    finally:
        conn.close()


class ProcessGroup:
    """``n`` forked children, each on one pipe to the parent.

    Slot ``i`` runs ``target(conn, i, *args)`` and starts untraced. The
    group holds the process mechanics both tiers share, and no protocol.
    A slot whose pipe hits EOF is *dead*: :meth:`read` skips it until
    :meth:`respawn` replaces its process. A slot can instead be driven
    by a :class:`Channel` on an event loop (:meth:`attach`). Span
    batches that children send with :func:`ship_spans` are absorbed
    here and nowhere else.
    """

    def __init__(self, n: int, target, args: tuple = ()):
        self._target = target
        self._args = args
        self._ctx = mp.get_context("fork")
        #: guards the liveness bookkeeping the reader shares with the
        #: threads that kill or respawn; never held across a blocking call
        self._state_lock = threading.Lock()
        #: sends to one slot may come from several threads
        self._send_locks = [threading.Lock() for _ in range(n)]
        self.conns = []  # guarded-by: _state_lock
        self.procs = []  # guarded-by: _state_lock
        #: slots whose pipe hit EOF, or marked dead by the caller
        self.dead: set[int] = set()  # guarded-by: _state_lock
        #: pipes a respawn replaced (see :meth:`respawn`)
        self._retired = []  # guarded-by: _state_lock
        #: ``(slot, channel)`` per attach, retired ones too: each fork
        #: closes its copies of their sockets, like the pipe ends
        self._channels = []  # guarded-by: _state_lock
        for slot in range(n):
            conn, proc = self._fork(slot, self.conns)
            self.conns.append(conn)
            self.procs.append(proc)

    def _fork(self, slot: int, inherited: list):
        """Start ``slot``'s process; the child closes its copies of
        ``inherited`` (the group's parent-side ends) and of its own."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_child_main,
            args=(
                self._target, child_conn, slot, self._args,
                [parent_conn, *inherited],
            ),
            name=f"{self._target.__name__.strip('_')}-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    async def attach(self, slot: int, on_message) -> Channel:
        """Run ``slot``'s pipe as a :class:`Channel` on the running loop,
        and from then on only through it; close the channel, on its
        loop, before :meth:`close`. A :meth:`respawn` retires it: the
        new pipe needs an attach of its own."""
        with self._state_lock:
            conn = self.conns[slot]
        channel = await open_channel(conn, on_message)
        with self._state_lock:
            self._channels.append((slot, channel))
        return channel

    def send(self, slot: int, message) -> None:
        """Send to ``slot``; ``OSError`` when its pipe broke."""
        with self._send_locks[slot]:
            self.conns[slot].send(message)

    def recv(self, slot: int, timeout: float | None = None):
        """The next message from ``slot``, or None when none arrives
        within ``timeout`` seconds (None = wait forever). EOF marks the
        slot dead and raises ``EOFError``."""
        conn = self.conns[slot]
        if timeout is not None and not conn.poll(timeout):
            return None
        try:
            return conn.recv()
        except (EOFError, OSError):
            self.mark_dead(slot)
            raise EOFError(f"slot {slot}: pipe closed") from None

    def read(self, timeout: float | None = None):
        """Yield ``(slot, kind, value)`` for each message that arrives
        within ``timeout`` seconds (None = wait forever), as it arrives.

        One wait for any live pipe, then each ready pipe is drained
        without blocking. EOF marks the slot dead and yields exactly one
        ``(slot, "died", None)``; a pipe a respawn retired meanwhile is
        dropped unread; ``"spans"`` go to the active tracer instead.
        """
        with self._state_lock:
            by_conn = {
                conn: slot
                for slot, conn in enumerate(self.conns)
                if slot not in self.dead
            }
        for conn in mp_connection.wait(list(by_conn), timeout):
            slot = by_conn[conn]
            while self.conns[slot] is conn:
                try:
                    kind, value = conn.recv()
                except (EOFError, OSError):
                    if self.mark_dead(slot, conn):
                        yield slot, "died", None
                    break
                if kind != "spans":
                    yield slot, kind, value
                elif (tracer := obs.current()) is not None:
                    tracer.absorb(value)
                if not conn.poll():
                    break

    def mark_dead(self, slot: int, conn=None) -> bool:
        """Skip ``slot`` in :meth:`read` until respawned; False when it
        already was dead, or ``conn`` is no longer its pipe."""
        with self._state_lock:
            if slot in self.dead or conn not in (None, self.conns[slot]):
                return False
            self.dead.add(slot)
            return True

    def is_alive(self, slot: int) -> bool:
        return slot not in self.dead and self.procs[slot].is_alive()

    def kill(self, slot: int) -> None:
        """SIGKILL ``slot``'s process and reap it; :meth:`read` reports
        the death as EOF unless the slot is marked dead first."""
        proc = self.procs[slot]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5)

    def respawn(self, slot: int) -> None:
        """Replace ``slot``'s process (killed if still running) with a
        fresh fork. The old pipe reports no death and stays open until
        :meth:`close`: a concurrent :meth:`read` may be waiting on it. An
        attached channel is retired, and closes at the old EOF."""
        self.mark_dead(slot)
        with self._state_lock:
            for attached, channel in self._channels:
                if attached == slot:
                    channel.retire()
        self.kill(slot)
        with self._state_lock:
            inherited = self.conns + self._retired
            inherited += [channel.sock for _, channel in self._channels]
        conn, proc = self._fork(slot, inherited)
        with self._state_lock:
            self._retired.append(self.conns[slot])
            self.conns[slot] = conn
            self.procs[slot] = proc
            self.dead.discard(slot)

    def close(self) -> None:
        """Close every pipe, retired ones too, and reap every process;
        one that outlives a 5 s join is terminated."""
        with self._state_lock:
            conns = self.conns + self._retired
        for conn in conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)


class ClanSession:
    """One clan's command dispatch, with no transport under it.

    :meth:`handle` serves one ``(command, payload)`` and answers with
    ``send((kind, value))``; between two generations of a ``clan_run``
    window, ``poll()`` names a command that arrived meanwhile (None:
    none). A ``traced`` session honours a window's ``trace`` flag with a
    tracer of its own and sends its span batches home (the forked
    worker's); an untraced one records into whatever tracer is active,
    on the clan's own track.
    """

    def __init__(self, env_id, config, evaluator, send, poll, traced=False):
        self._clan_args = (env_id, config, evaluator)
        self.send, self.poll, self.traced = send, poll, traced
        self.clan = None  # created by 'clan_init' or 'clan_restore'

    def handle(self, command: str, payload) -> bool:
        """Serve one command; False once it was ``stop``."""
        clan = self.clan
        if clan is None and command in (
            "clan_checkpoint", "clan_run", "clan_best"
        ):
            raise RuntimeError(f"{command} before clan_init")
        if command == "stop":
            self.send(("stopped", None))
            return False
        if command == "clan_run":
            return self._run(clan, payload)
        if command == "ping":
            reply = "pong"
        elif command == "clan_init":
            self.clan = WorkerClan(*self._clan_args, **payload)
            # the initial checkpoint: the centre can respawn a worker
            # that dies before its first streamed one
            reply = self.clan.checkpoint_payload()
        elif command == "clan_restore":
            self.clan = WorkerClan.restore(*self._clan_args, payload)
            reply = self.clan.last_generation
        elif command == "clan_checkpoint":
            reply = clan.checkpoint_payload()
        elif command == "clan_best":
            # None before this clan's first generation: a barrier-free
            # run can converge on another clan's first report
            has_run = clan.best_fitness > float("-inf")
            reply = clan.best_genome_wire() if has_run else None
        elif command == "clan_halt":
            return True  # a halt that raced past the end of clan_run
        else:
            raise ValueError(f"unknown command {command!r}")
        self.send(("ok", reply))
        return True

    def _run(self, clan: WorkerClan, payload: dict) -> bool:
        """A window of generations, one ``("progress", step)`` each,
        ended by its budget, by reaching the threshold (None: the
        barrier driver checks it on the folded record instead) or by a
        ``clan_halt``; False when a ``stop`` raced into it."""
        start = payload["start_generation"]
        threshold = payload["threshold"]
        tracer = None
        if self.traced and payload.get("trace", False):
            tracer = obs.Tracer(track=f"clan:{clan.clan_id}")
            obs.activate(tracer)
        # champions stream when the clan's best-ever fitness improves,
        # so the centre can hot-swap a deployed policy mid-run
        stream_champions = payload.get("stream_champions", False)
        # a checkpoint follows generation g iff (g + 1) % K == 0 (K = 0:
        # never), however the driver splits generations into windows
        period = payload.get("checkpoint_period", 0)
        ran = 0
        for generation in range(start, start + payload["max_generations"]):
            nudge = self.poll()
            if nudge == "stop":
                if tracer is not None:
                    obs.deactivate()
                self.send(("stopped", None))
                return False
            if nudge == "clan_halt":
                break
            previous_best = clan.best_fitness
            step = clan.run_generation(generation)
            ran += 1
            if stream_champions and clan.best_fitness > previous_best:
                # before its generation's report: a threshold-crossing
                # report never arrives before the genome behind it
                self.send(("champion", {
                    "clan_id": clan.clan_id,
                    "generation": generation,
                    "fitness": clan.best_fitness,
                    "genome_wire": clan.best_genome_wire(),
                }))
            self.send(("progress", step))
            ship_spans(self, tracer)
            if period and (generation + 1) % period == 0:
                # after the report it describes
                self.send(("checkpoint", clan.checkpoint_payload()))
            if threshold is not None and step.stats.best_fitness >= threshold:
                break
        ship_spans(self, tracer)
        if tracer is not None:
            obs.deactivate()
        self.send(("done", ran))
        return True


def _worker_main(
    conn, worker: int, config: NEATConfig, evaluator: GenomeEvaluator
) -> None:
    """Worker process loop: serve clan commands until 'stop'."""
    session = ClanSession(
        evaluator.env_id, config, evaluator, conn.send,
        lambda: conn.recv()[0] if conn.poll() else None, traced=True,
    )
    try:
        while True:
            command, payload = conn.recv()
            if command == "inject_stall":
                # failure injection: wedge this process for `payload`
                # seconds without replying (stall detection, timeouts)
                time.sleep(payload)
            elif not session.handle(command, payload):
                break
    except EOFError:
        pass  # the parent closed the pipe: nobody is left to serve
    except Exception:  # pragma: no cover - surfaced to the parent
        conn.send(("error", traceback.format_exc()))


class InProcessGroup:
    """What a :class:`WorkerPool` uses of a :class:`ProcessGroup`, over
    one :class:`ClanSession` per slot in this process: no fork, thread
    or sleep. :meth:`send` runs the command at once (an exception
    propagates from it) and :meth:`read` yields the queued answers in
    slot order. :meth:`kill` drops a slot's session: sends then break,
    and :meth:`read` reports one ``"died"`` unless the slot is marked
    dead first. :meth:`respawn` gives the slot an empty session. There
    is no process to stall: ``inject_stall`` is an unknown command.
    """

    def __init__(self, n: int, env_id: str, config, evaluator):
        self._queues = [collections.deque() for _ in range(n)]
        self._new = lambda slot: ClanSession(
            env_id, config, evaluator, self._queues[slot].append,
            lambda: None,
        )
        self._sessions = [self._new(slot) for slot in range(n)]
        self.dead: set[int] = set()

    @property
    def clans(self) -> list:
        """Each slot's clan (None while it has none), in slot order."""
        return [session and session.clan for session in self._sessions]

    def send(self, slot: int, message) -> None:
        if self._sessions[slot] is None:
            raise BrokenPipeError(f"slot {slot}: its session was killed")
        if not self._sessions[slot].handle(*message):
            self._sessions[slot] = None  # stopped, as a process exits

    def recv(self, slot: int, timeout: float | None = None):
        # None when nothing is queued: nothing can arrive later
        if self._queues[slot]:
            return self._queues[slot].popleft()
        if self._sessions[slot] is not None:
            return None
        self.mark_dead(slot)
        raise EOFError(f"slot {slot}: session killed")

    def read(self, timeout: float | None = None):
        idle = True
        for slot, queue in enumerate(self._queues):
            while queue and slot not in self.dead:
                idle = False
                yield (slot, *queue.popleft())
            if self._sessions[slot] is None and self.mark_dead(slot):
                idle = False
                yield slot, "died", None
        if idle and timeout is None:
            # a process group would wait forever (a dropped command)
            raise RuntimeError("in-process read: nothing can arrive")

    def mark_dead(self, slot: int) -> bool:
        fresh = slot not in self.dead
        self.dead.add(slot)
        return fresh

    def is_alive(self, slot: int) -> bool:
        return slot not in self.dead and self._sessions[slot] is not None

    def kill(self, slot: int) -> None:
        self._sessions[slot] = None

    def respawn(self, slot: int) -> None:
        self._queues[slot].clear()
        self._sessions[slot] = self._new(slot)
        self.dead.discard(slot)

    def close(self) -> None:
        self._sessions = [None] * len(self._sessions)


class WorkerPool:
    """The clan protocol on a :class:`ProcessGroup` of agent processes,
    or on an :class:`InProcessGroup`.

    Use as a context manager to guarantee shutdown::

        with WorkerPool(2, "CartPole-v0", config) as pool:
            checkpoints = pool.broadcast("clan_init", payloads)
            window = {"start_generation": 0, "max_generations": 1,
                      "threshold": None}
            pool.send(0, "clan_run", window)  # streams progress, done
            reports = pool.wait_any()
    """

    def __init__(
        self,
        n_workers: int,
        env_id: str,
        config: NEATConfig,
        evaluator_seed: int = 0,
        episodes: int = 1,
        max_steps: int | None = None,
        backend: str = "scalar",
        eval_mode: str = "per_genome",
        chaos=None,
        evaluator=None,
    ):
        """``evaluator``, when given, hosts every clan in this process
        on that one instance (an :class:`InProcessGroup`, no fork, and
        the evaluator arguments before ``chaos`` are unused); otherwise
        each clan forks its own copy of an evaluator built here. A
        ``chaos`` plan holding a worker ``stall`` or ``drop`` fault is
        refused (``ValueError``) on the in-process host."""
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        #: optional :class:`repro.chaos.ChaosInjector`. Consulted once
        #: per outbound command in :meth:`_request` — the single choke
        #: point every parent->worker message flows through — so a fault
        #: plan can kill/stall a worker or drop a command at an exact,
        #: replayable protocol event. ``None`` (the default) adds no
        #: branches beyond one ``is None`` check.
        self._chaos = chaos
        self.config = config
        if evaluator is None:
            # built here, in the parent, so bad engine arguments raise
            # their own ValueError before any fork; never used in this
            # process, so every (re)spawned worker forks an identical,
            # untouched copy
            evaluator = GenomeEvaluator(
                env_id, episodes=episodes, max_steps=max_steps,
                seed=evaluator_seed, backend=backend, eval_mode=eval_mode,
            )
            self._group = ProcessGroup(
                n_workers, _worker_main, (config, evaluator)
            )
        else:
            # a hosted clan only heals from a kill: there is no process
            # to stall, and a dropped command leaves nothing to time out
            for fault in chaos.plan.faults if chaos is not None else ():
                if fault.scope == "worker" and fault.action != "kill":
                    raise ValueError(
                        f"fault {fault.describe()!r} cannot run on the "
                        "in-process host: only kill faults heal there"
                    )
            self._group = InProcessGroup(n_workers, env_id, config, evaluator)
        self._stopped = False

    @property
    def _procs(self) -> list:
        return self._group.procs  # a forked pool's processes, by slot

    # -- commands ----------------------------------------------------------

    def _mark_dead(self, worker: int) -> WorkerDied:
        self._group.mark_dead(worker)
        return WorkerDied(worker, f"worker {worker} died (pipe closed)")

    def _request(self, worker: int, command: str, payload) -> None:
        if worker in self._group.dead:
            raise WorkerDied(worker, f"worker {worker} is dead")
        if self._chaos is not None and not self._apply_chaos(
            worker, command
        ):
            return  # command dropped by the fault plan
        try:
            self._group.send(worker, (command, payload))
        except OSError:
            raise self._mark_dead(worker) from None

    def _apply_chaos(self, worker: int, command: str) -> bool:
        """Consult the fault plan for one outbound command; False when
        it is dropped (a reply timeout surfaces it, like a lost
        message). A ``kill`` lands *before* the send, so the death is
        seen through the normal channels: a failed send or a ``died``.
        """
        decision = self._chaos.on_event("worker", worker, command)
        if not decision.intercepts:
            return True
        if decision.stall_s > 0.0:
            try:
                self._group.send(worker, ("inject_stall", decision.stall_s))
            except OSError:
                raise self._mark_dead(worker) from None
        if decision.kill:
            self._group.kill(worker)
        return decision.deliveries > 0

    def _collect(self, worker: int, timeout: float | None = None):
        """Wait up to ``timeout`` seconds for one reply. Raises
        :class:`WorkerTimeout` when the worker is alive but silent,
        :class:`WorkerDied` when it is gone, and ``RuntimeError`` for an
        error it reported (with its traceback)."""
        try:
            reply = self._group.recv(worker, timeout)
        except EOFError:
            raise self._mark_dead(worker) from None
        if reply is None:
            if not self._group.is_alive(worker):
                raise self._mark_dead(worker)
            raise WorkerTimeout(
                worker,
                f"worker {worker} gave no reply within {timeout}s",
            )
        status, value = reply
        if status == "error":
            raise RuntimeError(f"worker {worker} failed:\n{value}")
        return value

    def broadcast(
        self, command: str, payloads: list, timeout: float | None = None
    ) -> list:
        """Send one command per worker, collect all replies in order."""
        if len(payloads) != self.n_workers:
            raise ValueError("need exactly one payload per worker")
        for worker, payload in enumerate(payloads):
            self._request(worker, command, payload)
        return [
            self._collect(worker, timeout=timeout)
            for worker in range(self.n_workers)
        ]

    def send(self, worker: int, command: str, payload=None) -> None:
        """Fire one command at one worker; :meth:`wait_any` collects
        what it streams back."""
        self._request(worker, command, payload)

    def wait_any(
        self, timeout: float | None = None
    ) -> list[tuple[int, str, object]]:
        """Every message readable from any live worker, as ``(worker,
        status, value)`` triples, after waiting up to ``timeout`` seconds
        (None = forever) for the first. An ``"error"`` raises; a dead
        worker yields one ``"died"`` and is skipped until respawned.
        """
        out: list[tuple[int, str, object]] = []
        for worker, status, value in self._group.read(timeout):
            if status == "error":
                raise RuntimeError(f"worker {worker} failed:\n{value}")
            out.append((worker, status, value))
        return out

    # -- liveness / recovery ------------------------------------------------

    def is_alive(self, worker: int) -> bool:
        return self._group.is_alive(worker)

    def ping(self, worker: int, timeout: float = 5.0) -> bool:
        """Heartbeat probe: True iff the worker answers within ``timeout``.

        Only meaningful on an idle worker (commands are served in order,
        so a busy worker answers late and a hung one never does).
        """
        try:
            self._request(worker, "ping", None)
            return self._collect(worker, timeout=timeout) == "pong"
        except WorkerFailure:
            return False

    def kill(self, worker: int) -> None:
        """Terminate a (presumed hung) worker and mark it dead; what it
        still had queued is dropped. :meth:`respawn` brings it back."""
        self._group.mark_dead(worker)
        self._group.kill(worker)

    def respawn(self, worker: int) -> None:
        """Give a failed slot a fresh worker with no clan: the supervisor
        re-seeds it with ``clan_restore`` from a checkpoint."""
        self._group.respawn(worker)

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for worker in range(self.n_workers):
            if worker in self._group.dead:
                continue
            try:
                self._group.send(worker, ("stop", None))
                # drain until the stop ack: a free-running clan_run may
                # have queued unsolicited progress/done messages nobody
                # collected (e.g. run_async aborted early)
                while self._group.recv(worker)[0] != "stopped":
                    pass
            except (EOFError, OSError):
                pass
        self._group.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
