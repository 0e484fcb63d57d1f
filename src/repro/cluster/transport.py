"""Real multiprocess transport: one OS process per simulated Pi.

The logical protocol engines in :mod:`repro.core.protocols` place compute
and account for communication; this module actually *executes* CLAN_DDA's
clans in parallel across worker processes, shipping genomes over pipes in
the canonical 32-bit wire format of :mod:`repro.cluster.serialization` —
the same bytes the cost model counts.

Workers are long-lived (started once, fed commands) to match the
persistent agents of the paper's testbed. Each worker hosts one clan
(CLAN_DDA): ``clan_init`` / ``clan_restore`` seed it, and ``clan_run`` is
the one command that runs generations: a window of them, streaming a
report after each one. The barrier driver sends one-generation windows,
the barrier-free driver long ones. ``ping`` and ``inject_stall`` probe
liveness.

Fault tolerance (``docs/fault_tolerance.md``): worker death surfaces as
:class:`WorkerDied` (pipe EOF / liveness check) and hangs as
:class:`WorkerTimeout` (per-command timeouts, ``ping`` probes); a failed
worker slot can be relaunched in place with :meth:`WorkerPool.respawn` and
re-seeded from a clan checkpoint via the ``clan_restore`` command. The
supervision policy itself (when to respawn, from which checkpoint) lives
one layer up in :class:`repro.cluster.runtime.DistributedClanRuntime`.

Both process tiers — these clans and the serving replicas of
:mod:`repro.serve.fleet` — run on one :class:`ProcessGroup` (fork,
pipes, reader, kill, respawn, reaping); :class:`WorkerPool` is the
clan protocol on top of it. Clans are read with :meth:`ProcessGroup.read`,
replicas through a :class:`Channel` on the event loop at each end.
"""

from __future__ import annotations

import asyncio
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


def _worker_main(
    conn, worker: int, config: NEATConfig, evaluator: GenomeEvaluator
) -> None:
    """Worker process loop: serve clan commands until 'stop'."""
    clan = None  # lazily created by 'clan_init'
    try:
        while True:
            command, payload = conn.recv()
            if clan is None and command in (
                "clan_checkpoint", "clan_run", "clan_best"
            ):
                raise RuntimeError(f"{command} before clan_init")
            if command == "stop":
                conn.send(("stopped", None))
                break
            elif command == "ping":
                # liveness probe: a hung worker never answers, a healthy
                # one answers immediately (heartbeat for the supervisor)
                conn.send(("ok", "pong"))
            elif command == "inject_stall":
                # failure-injection hook (tests/benchmarks only): wedge
                # this worker for `payload` seconds without replying, so
                # stall detection and per-command timeouts can be
                # exercised deterministically
                time.sleep(payload)
            elif command == "clan_init":
                clan = WorkerClan(
                    env_id=evaluator.env_id,
                    config=config,
                    evaluator=evaluator,
                    **payload,
                )
                # the reply is the clan's initial checkpoint, so the
                # centre can respawn a worker that dies before its first
                # streamed checkpoint
                conn.send(("ok", clan.checkpoint_payload()))
            elif command == "clan_restore":
                clan = WorkerClan.restore(
                    env_id=evaluator.env_id,
                    config=config,
                    evaluator=evaluator,
                    payload=payload,
                )
                conn.send(("ok", clan.last_generation))
            elif command == "clan_checkpoint":
                conn.send(("ok", clan.checkpoint_payload()))
            elif command == "clan_run":
                # run a window of generations, streaming one ("progress",
                # step) per generation. Stops on budget, on reaching the
                # threshold (None: the barrier driver checks it on the
                # folded record instead), or on a "clan_halt" nudge.
                start = payload["start_generation"]
                budget = payload["max_generations"]
                threshold = payload["threshold"]
                # opt-in tracing: record this clan's phase spans and ship
                # each generation's batch home, tagged with this track
                clan_tracer = None
                if payload.get("trace", False):
                    clan_tracer = obs.Tracer(track=f"clan:{clan.clan_id}")
                    obs.activate(clan_tracer)
                # opt-in (older payloads lack the key): stream the clan's
                # champion genome whenever its best-ever fitness improves,
                # so the centre can hot-swap a deployed policy mid-run
                stream_champions = payload.get("stream_champions", False)
                # stream a full clan checkpoint after generation g iff
                # (g + 1) % K == 0 (K = 0: never), however the driver
                # splits generations into windows — the supervisor's
                # respawn source when this process dies or stalls
                checkpoint_period = payload.get("checkpoint_period", 0)
                ran = 0
                stopping = False
                for generation in range(start, start + budget):
                    if conn.poll():
                        nudge, _ = conn.recv()
                        if nudge == "stop":
                            # shutdown raced into the free-run: honour the
                            # stop handshake instead of nudging
                            stopping = True
                            break
                        if nudge == "clan_halt":
                            break
                    previous_best = clan.best_fitness
                    step = clan.run_generation(generation)
                    ran += 1
                    if stream_champions and clan.best_fitness > (
                        previous_best
                    ):
                        # champion precedes its generation's progress
                        # report, so a threshold-crossing report never
                        # arrives before the genome that caused it
                        champion = {
                            "clan_id": clan.clan_id,
                            "generation": generation,
                            "fitness": clan.best_fitness,
                            "genome_wire": clan.best_genome_wire(),
                        }
                        conn.send(("champion", champion))
                    conn.send(("progress", step))
                    ship_spans(conn, clan_tracer)
                    if (
                        checkpoint_period
                        and (generation + 1) % checkpoint_period == 0
                    ):
                        # after the progress report, so the checkpoint
                        # never describes a generation the centre has not
                        # been told about
                        conn.send(("checkpoint", clan.checkpoint_payload()))
                    if (
                        threshold is not None
                        and step.stats.best_fitness >= threshold
                    ):
                        break
                if not stopping:
                    ship_spans(conn, clan_tracer)
                obs.deactivate()
                if stopping:
                    conn.send(("stopped", None))
                    break
                conn.send(("done", ran))
            elif command == "clan_halt":
                # a halt that raced past the end of clan_run; nothing to do
                pass
            elif command == "clan_best":
                # a barrier-free run can converge on one clan's first
                # report while this one has reported nothing yet; the
                # centre skips a None and uses the other clans' bests
                has_run = clan.best_fitness > float("-inf")
                conn.send(
                    ("ok", clan.best_genome_wire() if has_run else None)
                )
            else:
                raise ValueError(f"unknown command {command!r}")
    except EOFError:
        pass  # the parent closed the pipe: nobody is left to serve
    except Exception:  # pragma: no cover - surfaced to the parent
        conn.send(("error", traceback.format_exc()))


class WorkerPool:
    """The clan protocol on a :class:`ProcessGroup` of agent processes.

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
    ):
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
        #: built here, in the parent, so bad engine arguments raise their
        #: own ValueError before any fork; never used in this process, so
        #: every (re)spawned worker forks an identical, untouched copy
        self._evaluator = GenomeEvaluator(
            env_id,
            episodes=episodes,
            max_steps=max_steps,
            seed=evaluator_seed,
            backend=backend,
            eval_mode=eval_mode,
        )
        self._group = ProcessGroup(
            n_workers, _worker_main, (config, self._evaluator)
        )
        #: the worker processes by slot (respawn swaps entries in place)
        self._procs = self._group.procs
        self._stopped = False

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
        """Consult the fault plan for one outbound command.

        Returns False when the command must be dropped (the caller's
        reply timeout then surfaces it as a hang, exactly like a lost
        message would). A ``kill`` fault terminates the worker process
        *before* the send, so the death is observed through the normal
        channels — failed send or pipe EOF — not through a side door.
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
        """Wait for one reply; ``timeout`` (seconds) bounds the wait.

        Raises :class:`WorkerTimeout` when the worker is alive but
        silent past the deadline (hang), :class:`WorkerDied` when its
        pipe is closed or its process is gone, and ``RuntimeError`` for
        an error the worker itself reported (with its traceback).
        """
        try:
            reply = self._group.recv(worker, timeout)
        except EOFError:
            raise self._mark_dead(worker) from None
        if reply is None:
            if not self._group.procs[worker].is_alive():
                raise self._mark_dead(worker)
            raise WorkerTimeout(
                worker,
                f"worker {worker} gave no reply within {timeout}s",
            )
        status, value = reply
        if status == "error":
            raise RuntimeError(
                f"worker {worker} failed:\n{value}"
            )
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
        """Fire one command at one worker without waiting for a reply.

        Pair with :meth:`wait_any` for asynchronous protocols (streaming
        ``clan_run`` progress, ``clan_halt`` nudges).
        """
        self._request(worker, command, payload)

    def wait_any(
        self, timeout: float | None = None
    ) -> list[tuple[int, str, object]]:
        """Collect every message currently readable from any live worker.

        Blocks up to ``timeout`` seconds (None = forever) for at least one
        message, then drains without blocking. Returns
        ``(worker, status, value)`` triples; a worker ``"error"`` status
        raises immediately, like the synchronous paths. A worker whose
        pipe hits EOF (process death) yields one ``"died"`` triple and is
        excluded from future waits until :meth:`respawn` replaces it —
        the signal the runtime's supervision loop acts on. Span batches
        of traced clans are absorbed on the way (see
        :meth:`ProcessGroup.read`).
        """
        out: list[tuple[int, str, object]] = []
        for worker, status, value in self._group.read(timeout):
            if status == "error":
                raise RuntimeError(f"worker {worker} failed:\n{value}")
            out.append((worker, status, value))
        return out

    # -- liveness / recovery ------------------------------------------------

    def is_alive(self, worker: int) -> bool:
        """Whether the worker's process is currently running."""
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
        """Forcibly terminate a (presumed hung) worker process.

        Marks the slot dead; messages still queued in its pipe are
        dropped. Pair with :meth:`respawn` to bring the slot back.
        """
        self._group.mark_dead(worker)
        self._group.kill(worker)

    def respawn(self, worker: int) -> None:
        """Replace a failed worker slot with a fresh process.

        The new process forks the same untouched evaluator as the
        original but holds no clan state: the supervisor re-seeds it with
        ``clan_restore`` (from a checkpoint) before resuming work.
        """
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
