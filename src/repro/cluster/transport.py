"""Real multiprocess transport: one OS process per simulated Pi.

The logical protocol engines in :mod:`repro.core.protocols` place compute
and account for communication; this module actually *executes* CLAN_DDA's
clans in parallel across worker processes, shipping genomes over pipes in
the canonical 32-bit wire format of :mod:`repro.cluster.serialization` —
the same bytes the cost model counts.

Workers are long-lived (started once, fed per-generation commands) to match
the persistent agents of the paper's testbed. Each worker hosts one clan
(CLAN_DDA): ``clan_init`` / ``clan_restore`` seed it, ``clan_step`` runs one
lock-step generation and ``clan_run`` free-runs generations, streaming a
report after each one. ``ping`` and ``inject_stall`` probe liveness.

Fault tolerance (``docs/fault_tolerance.md``): worker death surfaces as
:class:`WorkerDied` (pipe EOF / liveness check) and hangs as
:class:`WorkerTimeout` (per-command timeouts, ``ping`` probes); a failed
worker slot can be relaunched in place with :meth:`WorkerPool.respawn` and
re-seeded from a clan checkpoint via the ``clan_restore`` command. The
supervision policy itself (when to respawn, from which checkpoint) lives
one layer up in :class:`repro.cluster.runtime.DistributedClanRuntime`.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import traceback
from multiprocessing import connection as mp_connection

from repro.neat.config import NEATConfig
from repro.neat.evaluation import GenomeEvaluator


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


def _worker_main(
    conn, config: NEATConfig, evaluator: GenomeEvaluator
) -> None:
    """Worker process loop: serve clan commands until 'stop'."""
    clan = None  # lazily created by 'clan_init'
    try:
        while True:
            command, payload = conn.recv()
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
                from repro.cluster.worker_clan import WorkerClan

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
                from repro.cluster.worker_clan import WorkerClan

                clan = WorkerClan.restore(
                    env_id=evaluator.env_id,
                    config=config,
                    evaluator=evaluator,
                    payload=payload,
                )
                conn.send(("ok", clan.last_generation))
            elif command == "clan_checkpoint":
                if clan is None:
                    raise RuntimeError("clan_checkpoint before clan_init")
                conn.send(("ok", clan.checkpoint_payload()))
            elif command == "clan_step":
                if clan is None:
                    raise RuntimeError("clan_step before clan_init")
                summary = clan.run_generation(payload)
                conn.send(("ok", summary))
            elif command == "clan_run":
                # barrier-free driver: run generations continuously,
                # streaming one ("progress", summary) per generation; the
                # centre never joins the pool per generation. Stops on
                # budget, on own convergence, or on a "clan_halt" nudge.
                if clan is None:
                    raise RuntimeError("clan_run before clan_init")
                start = payload["start_generation"]
                budget = payload["max_generations"]
                threshold = payload["threshold"]
                # opt-in tracing: record this clan's phase spans and ship
                # each generation's batch back over the pipe as an
                # unsolicited ("spans", batch) message; the driver merges
                # batches into the global trace tagged with this track
                clan_tracer = None
                previous_tracer = None
                if payload.get("trace", False):
                    from repro.obs import tracer as obs

                    clan_tracer = obs.Tracer(
                        track=f"clan:{clan.clan_id}"
                    )
                    previous_tracer = obs.activate(clan_tracer)
                # opt-in (older payloads lack the key): stream the clan's
                # champion genome whenever its best-ever fitness improves,
                # so the centre can hot-swap a deployed policy mid-run
                stream_champions = payload.get("stream_champions", False)
                # stream a full clan checkpoint every K completed
                # generations (0 = never) — the supervisor's respawn
                # source when this process dies or stalls
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
                    summary = clan.run_generation(generation)
                    ran += 1
                    if stream_champions and clan.best_fitness > (
                        previous_best
                    ):
                        # champion precedes its generation's progress
                        # report, so a threshold-crossing report never
                        # arrives before the genome that caused it
                        conn.send(
                            (
                                "champion",
                                {
                                    "clan_id": clan.clan_id,
                                    "generation": generation,
                                    "fitness": clan.best_fitness,
                                    "genome_wire": clan.best_genome_wire(),
                                },
                            )
                        )
                    conn.send(("progress", summary))
                    if clan_tracer is not None:
                        spans = clan_tracer.drain()
                        if spans:
                            conn.send(("spans", spans))
                    if checkpoint_period and ran % checkpoint_period == 0:
                        # after the progress report, so the checkpoint
                        # never describes a generation the centre has not
                        # been told about
                        conn.send(
                            ("checkpoint", clan.checkpoint_payload())
                        )
                    if summary.best_fitness >= threshold:
                        break
                if clan_tracer is not None:
                    from repro.obs import tracer as obs

                    spans = clan_tracer.drain()
                    if spans and not stopping:
                        conn.send(("spans", spans))
                    if previous_tracer is not None:
                        obs.activate(previous_tracer)
                    else:
                        obs.deactivate()
                if stopping:
                    conn.send(("stopped", None))
                    break
                conn.send(("done", ran))
            elif command == "clan_halt":
                # a halt that raced past the end of clan_run; nothing to do
                pass
            elif command == "clan_best":
                if clan is None:
                    raise RuntimeError("clan_best before clan_init")
                # a barrier-free run can converge on one clan's first
                # report while this one has reported nothing yet; the
                # centre skips a None and uses the other clans' bests
                has_run = clan.best_fitness > float("-inf")
                conn.send(
                    ("ok", clan.best_genome_wire() if has_run else None)
                )
            else:
                raise ValueError(f"unknown command {command!r}")
    except Exception:  # pragma: no cover - surfaced to the parent
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class WorkerPool:
    """A fleet of agent processes connected by pipes.

    Use as a context manager to guarantee shutdown::

        with WorkerPool(2, "CartPole-v0", config) as pool:
            checkpoints = pool.broadcast("clan_init", payloads)
            summaries = pool.broadcast("clan_step", [0, 0])
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
        self._ctx = mp.get_context(
            "fork" if hasattr(mp, "get_context") else None
        )
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
        #: serialises liveness bookkeeping: the supervision loop and a
        #: closing service may mark deaths / respawn slots from
        #: different threads. Never held across a blocking join/recv.
        self._state_lock = threading.Lock()
        self._conns = []  # guarded-by: _state_lock
        self._procs = []  # guarded-by: _state_lock
        #: dead worker indices (EOF seen or killed); excluded from
        #: wait_any until respawned — guarded-by: _state_lock
        self._dead: set[int] = set()
        for _ in range(n_workers):
            conn, proc = self._spawn_worker()
            self._conns.append(conn)
            self._procs.append(proc)
        self._stopped = False

    def _spawn_worker(self):
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config, self._evaluator),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    # -- commands ----------------------------------------------------------

    def _mark_dead(self, worker: int) -> WorkerDied:
        with self._state_lock:
            self._dead.add(worker)
        return WorkerDied(worker, f"worker {worker} died (pipe closed)")

    def _request(self, worker: int, command: str, payload) -> None:
        if worker in self._dead:
            raise WorkerDied(worker, f"worker {worker} is dead")
        if self._chaos is not None and not self._apply_chaos(
            worker, command
        ):
            return  # command dropped by the fault plan
        try:
            self._conns[worker].send((command, payload))
        except (BrokenPipeError, OSError):
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
                self._conns[worker].send(("inject_stall", decision.stall_s))
            except (BrokenPipeError, OSError):
                raise self._mark_dead(worker) from None
        if decision.kill:
            proc = self._procs[worker]
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5)
        return decision.deliveries > 0

    def _collect(self, worker: int, timeout: float | None = None):
        """Wait for one reply; ``timeout`` (seconds) bounds the wait.

        Raises :class:`WorkerTimeout` when the worker is alive but
        silent past the deadline (hang), :class:`WorkerDied` when its
        pipe is closed or its process is gone, and ``RuntimeError`` for
        an error the worker itself reported (with its traceback).
        """
        conn = self._conns[worker]
        if timeout is not None and not conn.poll(timeout):
            if not self._procs[worker].is_alive():
                raise self._mark_dead(worker)
            raise WorkerTimeout(
                worker,
                f"worker {worker} gave no reply within {timeout}s",
            )
        try:
            status, value = conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            raise self._mark_dead(worker) from None
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
        the signal the runtime's supervision loop acts on.
        """
        by_conn = {
            self._conns[worker]: worker
            for worker in range(self.n_workers)
            if worker not in self._dead
        }
        ready = mp_connection.wait(list(by_conn), timeout)
        out: list[tuple[int, str, object]] = []
        for conn in ready:
            worker = by_conn[conn]
            while True:
                try:
                    status, value = conn.recv()
                except (EOFError, ConnectionResetError, OSError):
                    with self._state_lock:
                        self._dead.add(worker)
                    out.append((worker, "died", None))
                    break
                if status == "error":
                    raise RuntimeError(f"worker {worker} failed:\n{value}")
                out.append((worker, status, value))
                if not conn.poll():
                    break
        return out

    # -- liveness / recovery ------------------------------------------------

    def is_alive(self, worker: int) -> bool:
        """Whether the worker's process is currently running."""
        return (
            worker not in self._dead and self._procs[worker].is_alive()
        )

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
        proc = self._procs[worker]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5)
        with self._state_lock:
            self._dead.add(worker)
        try:
            self._conns[worker].close()
        except OSError:  # pragma: no cover - defensive
            pass

    def respawn(self, worker: int) -> None:
        """Replace a failed worker slot with a fresh process.

        The new process forks the same untouched evaluator as the
        original but holds no clan state: the supervisor re-seeds it with
        ``clan_restore`` (from a checkpoint) before resuming work.
        """
        old = self._procs[worker]
        try:
            self._conns[worker].close()
        except OSError:  # pragma: no cover - defensive
            pass
        if old.is_alive():
            old.terminate()
            old.join(timeout=5)
            if old.is_alive():  # pragma: no cover - defensive
                old.kill()
                old.join(timeout=5)
        else:
            old.join(timeout=5)
        conn, proc = self._spawn_worker()
        with self._state_lock:
            self._conns[worker] = conn
            self._procs[worker] = proc
            self._dead.discard(worker)

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for worker, conn in enumerate(self._conns):
            try:
                if worker not in self._dead:
                    conn.send(("stop", None))
                    # drain until the stop ack: a free-running clan_run
                    # may have queued unsolicited progress/done messages
                    # nobody collected (e.g. run_async aborted early)
                    while True:
                        status, _value = conn.recv()
                        if status == "stopped":
                            break
            except (BrokenPipeError, EOFError, OSError):
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
