"""CLAN_DDA's one clan driver, on either clan host.

:class:`DistributedClanRuntime` fans the clans out to a
:class:`~repro.cluster.transport.WorkerPool` and supervises them: each
clan runs complete local generations in ``clan_run`` windows, and a clan
that dies is respawned from its latest checkpoint. By default every clan
is a forked process and the runtime measures real wall-clock; given an
``evaluator`` it hosts the clans in this process instead, which is how
the logical :class:`repro.core.protocols.CLAN_DDA` engine runs. Every
clan is the same :class:`~repro.cluster.worker_clan.WorkerClan`, built
from the same :func:`~repro.core.partition.clan_init_payloads`, and a
barrier generation folds the steps the clans report with
:meth:`CLAN_DDA.fold`, so both hosts write the same records. (CLAN_DCS
and CLAN_DDS are reproduced by the logical engines plus the timing
model.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import clock
from repro.obs import tracer as obs
from repro.cluster.serialization import decode_genome
from repro.cluster.transport import WorkerDied, WorkerFailure, WorkerPool
from repro.core.metrics import ChurnStats, GenerationRecord
from repro.core.partition import clan_init_payloads
from repro.core.protocols import CLAN_DDA
from repro.neat.checkpoint import decode_genome_hex
from repro.envs.registry import workload_spec
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.population import EvolutionStep
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class ChampionEvent:
    """A new global-best genome surfaced by a barrier-free run.

    Emitted by :meth:`DistributedClanRuntime.run_async` every time a clan
    report improves on the best champion the centre has seen so far — the
    hook the serving subsystem (:mod:`repro.serve`) uses to hot-swap a
    deployed policy mid-traffic, and what the ``repro serve`` summary
    prints per swap.
    """

    #: clan that produced the champion
    clan_id: int
    #: the clan-local generation that produced it
    generation: int
    #: key of the champion genome
    genome_key: int
    #: champion fitness (strictly increasing across a run's events)
    fitness: float
    #: the decoded champion genome itself
    genome: Genome


@dataclass
class RealRunStats:
    """Wall-clock measurements from a clan run.

    Barrier-free runs (:meth:`DistributedClanRuntime.run_async`) also fill
    ``per_clan_generations`` (which diverge on heterogeneous hosts), and
    ``best_fitness_per_generation`` then holds the best-so-far at each
    clan report's arrival, not per global generation.
    """

    generations: int = 0
    wall_time_s: float = 0.0
    best_fitness: float = float("-inf")
    converged: bool = False
    per_generation_s: list[float] = field(default_factory=list)
    best_fitness_per_generation: list[float] = field(default_factory=list)
    per_clan_generations: list[int] = field(default_factory=list)
    #: champion-changed events in arrival order (run_async with champion
    #: streaming only); fitness is strictly increasing along this list
    champions: list[ChampionEvent] = field(default_factory=list)
    #: device-churn counters (deaths, respawns, lost/re-assigned
    #: generations, recovery latencies) filled by the supervision loop;
    #: all-zero on an undisturbed run
    churn: ChurnStats = field(default_factory=ChurnStats)
    #: one CLAN_DDA record per barrier generation (``run`` only)
    records: list[GenerationRecord] = field(default_factory=list)


class DistributedClanRuntime:
    """CLAN_DDA's supervised clans: each worker hosts a full clan."""

    def __init__(
        self,
        env_id: str,
        n_clans: int,
        config: NEATConfig | None = None,
        seed: int = 0,
        max_steps: int | None = None,
        backend: str = "scalar",
        eval_mode: str = "per_genome",
        max_respawns: int = 2,
        heartbeat_timeout_s: float | None = 30.0,
        checkpoint_period: int = 1,
        respawn_backoff_s: float = 0.05,
        command_timeout_s: float = 30.0,
        chaos=None,
        evaluator=None,
    ):
        """``backend="batched"`` makes every clan evaluate its members with
        the NumPy engine (episodes step in lockstep on the worker);
        ``eval_mode="population"`` makes each clan evaluate its whole
        membership as one vectorized sweep per generation.

        Fault tolerance (on by default, ``docs/fault_tolerance.md``): a
        clan that dies or stalls is respawned from its latest checkpoint
        up to ``max_respawns`` times per clan per run, with exponential
        backoff from ``respawn_backoff_s``, then abandoned.
        ``heartbeat_timeout_s`` bounds how long a clan may go without
        reporting before it is presumed hung and killed (None: no stall
        detection). A clan checkpoints after generation ``g`` iff ``(g +
        1) % checkpoint_period == 0``, under either driver.
        ``command_timeout_s`` bounds request/reply commands (restore,
        best-genome collection). Recovery is exact, so an undisturbed
        run's trajectory is unchanged by any of these settings.

        ``chaos`` (a :class:`repro.chaos.ChaosInjector`) goes to the
        worker pool (``docs/chaos.md``), and so does ``evaluator``: given
        one, the clans run in this process (CLAN_DDA's host).
        """
        if checkpoint_period < 1:
            raise ValueError("checkpoint_period must be >= 1")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self.env_id = env_id
        self.config = config or NEATConfig.for_env(env_id)
        payloads = clan_init_payloads(self.config, seed, n_clans)
        self.n_clans = n_clans
        self.seed = seed
        self.rngs = RngFactory(seed)
        self.solved_threshold = workload_spec(env_id).solved_threshold
        self.max_respawns = max_respawns
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.checkpoint_period = checkpoint_period
        self.respawn_backoff_s = respawn_backoff_s
        self.command_timeout_s = command_timeout_s
        #: clans abandoned after exhausting their respawn budget; they
        #: take no further part in runs, and best-genome collection falls
        #: back to their last checkpoint
        self._lost: set[int] = set()

        self.pool = WorkerPool(
            n_clans,
            env_id,
            self.config,
            evaluator_seed=self.rngs.seed_for("episodes") % (2**31),
            max_steps=max_steps,
            backend=backend,
            eval_mode=eval_mode,
            chaos=chaos,
            evaluator=evaluator,
        )
        # clan_init replies with each clan's *initial* checkpoint, so a
        # worker that dies before its first streamed checkpoint can still
        # be respawned from generation zero
        try:
            replies = self.pool.broadcast("clan_init", payloads)
        except BaseException:
            # the caller never gets a runtime to shut down
            self.pool.shutdown()
            raise
        #: the latest checkpoint of every clan, by clan id: the respawn
        #: source, and the clan state a logical engine checkpoints
        self.checkpoints: dict[int, dict] = dict(enumerate(replies))
        self._generation = 0

    def run(
        self,
        max_generations: int,
        fitness_threshold: float | None = None,
    ) -> RealRunStats:
        """Run barrier generations (:meth:`barrier_generation`) into
        ``stats.records`` until one's record crosses the threshold (the
        clans never check it); churn is tallied on ``stats.churn``."""
        threshold = (
            self.solved_threshold
            if fitness_threshold is None
            else fitness_threshold
        )
        stats = RealRunStats()
        start = clock.perf()
        respawns_used = {w: 0 for w in range(self.n_clans)}
        for _ in range(max_generations):
            gen_start = clock.perf()
            with obs.span("generation", gen=self._generation):
                _steps, record = self.barrier_generation(stats, respawns_used)
            stats.records.append(record)
            best = record.best_fitness
            stats.per_generation_s.append(clock.perf() - gen_start)
            stats.best_fitness_per_generation.append(best)
            stats.generations += 1
            stats.best_fitness = max(stats.best_fitness, best)
            if best >= threshold:
                stats.converged = True
                break
        stats.wall_time_s = clock.perf() - start
        return stats

    def barrier_generation(
        self, stats: RealRunStats, respawns_used: dict[int, int]
    ) -> tuple[list, GenerationRecord]:
        """Run generation ``g`` as the one-generation window
        ``clan_run(g, 1)`` of every live clan; return each clan's step
        in clan order and their :meth:`CLAN_DDA.fold`, which counts the
        window's clan deaths and respawns.

        Supervised: a clan that dies or stalls past
        ``heartbeat_timeout_s`` is respawned from its latest checkpoint
        and re-runs the window (bit-identical: every RNG stream is
        generation-named); after ``max_respawns`` failures it is
        abandoned, its step is None, and its budget goes to no survivor.
        """
        churn = stats.churn
        deaths, respawns = churn.deaths, churn.respawns
        steps = [None] * self.n_clans
        self._run_windows(stats, respawns_used, 1, steps.__setitem__)
        if not any(steps):
            raise RuntimeError("no live clans remain (all lost to churn)")
        self._generation += 1
        record, _ = CLAN_DDA.fold(steps, self.n_clans, None)
        record.clan_deaths = churn.deaths - deaths
        record.clan_respawns = churn.respawns - respawns
        return steps, record

    def restore(self, generation: int, checkpoints: dict[int, dict]) -> None:
        """Continue at ``generation`` from ``checkpoints`` (one per clan,
        by clan id): every clan restores its own."""
        self.checkpoints = dict(checkpoints)
        self.pool.broadcast(
            "clan_restore",
            [self.checkpoints[c] for c in range(self.n_clans)],
            timeout=self.command_timeout_s,
        )
        self._generation = generation

    def _run_windows(
        self,
        stats: RealRunStats,
        respawns_used: dict[int, int],
        budget: int,
        on_step: Callable[[int, EvolutionStep], None],
        threshold: float | None = None,
        on_champion: Callable[[ChampionEvent], None] | None = None,
        stop: threading.Event | None = None,
    ) -> None:
        """Send every live clan the window ``clan_run(g, budget)``, ``g``
        the fleet's generation count, and supervise it until all drain.

        ``on_step(clan, step)`` sees each clan generation once, in
        arrival order. Reports double as heartbeats; a respawned clan is
        re-sent ``clan_run`` from its checkpoint and its replays are
        filtered out. A report crossing ``threshold``, or a set
        ``stop``, halts every clan after its in-flight generation. With
        a threshold (not the barrier's windows), an abandoned clan's
        unspent budget goes to the first survivor that drains its own.
        """
        churn = stats.churn
        start = self._generation
        live = [w for w in range(self.n_clans) if w not in self._lost]
        if not live:
            raise RuntimeError("no live clans remain (all lost to churn)")
        active: set[int] = set()
        #: highest generation number each clan has *completed and
        #: reported* — replays after a respawn re-report the same
        #: numbers and are filtered against this
        max_done = dict.fromkeys(live, start - 1)
        #: inclusive final generation each clan owes (grows when a lost
        #: clan's budget is re-assigned)
        clan_end = dict.fromkeys(live, start + budget - 1)
        last_seen: dict[int, float] = {}
        reassign_pool = 0
        halt_sent = False
        champion_best = float("-inf")

        def send(worker: int, first: int, count: int) -> None:
            active.add(worker)
            last_seen[worker] = clock.perf()
            payload = {
                "start_generation": first,
                "max_generations": count,
                "threshold": threshold,
                "stream_champions": on_champion is not None,
                "checkpoint_period": self.checkpoint_period,
                # workers trace (and ship span batches back) iff the
                # driver process has an active tracer to merge them into
                "trace": obs.current() is not None,
            }
            try:
                self.pool.send(worker, "clan_run", payload)
            except WorkerDied:
                fail(worker)

        def halt() -> None:
            nonlocal halt_sent
            if halt_sent:
                return
            halt_sent = True
            for other in sorted(active):
                try:
                    self.pool.send(other, "clan_halt")
                except WorkerDied:
                    fail(other)

        def fail(worker: int) -> None:
            """Death handler: respawn from checkpoint or abandon."""
            nonlocal reassign_pool
            active.discard(worker)
            resume = self._note_death(worker, churn, max_done[worker])
            if halt_sent or stats.converged:
                # winding down anyway; recovery would re-do work only to
                # halt it again
                return
            if self._respawn(worker, churn, respawns_used, resume):
                if resume <= clan_end[worker]:
                    send(worker, resume, clan_end[worker] - resume + 1)
            elif threshold is not None:
                # abandoned: a survivor inherits its unspent budget
                reassign_pool += max(
                    0, clan_end[worker] - max(max_done[worker], resume - 1)
                )

        for worker in live:
            send(worker, start, budget)

        # a blocking wait is fine without a stop event or heartbeat; with
        # either, wake up periodically so stops and stall detection are
        # honoured promptly
        wait_timeout = (
            None
            if stop is None and self.heartbeat_timeout_s is None
            else 0.05
        )
        while active:
            if stop is not None and stop.is_set():
                halt()
            for worker, status, value in self.pool.wait_any(wait_timeout):
                last_seen[worker] = clock.perf()
                if status == "checkpoint":
                    self.checkpoints[worker] = value
                elif status == "champion":
                    # clans stream their *local* improvements; only
                    # global improvements become events (this also
                    # filters re-streamed champions from replays)
                    if value["fitness"] > champion_best:
                        champion_best = value["fitness"]
                        genome = decode_genome(value["genome_wire"])
                        event = ChampionEvent(
                            clan_id=value["clan_id"],
                            generation=value["generation"],
                            genome_key=genome.key,
                            fitness=value["fitness"],
                            genome=genome,
                        )
                        stats.champions.append(event)
                        on_champion(event)
                elif status == "progress":
                    if value.stats.generation <= max_done[worker]:
                        # bit-identical replay of an already-counted
                        # generation after a respawn
                        continue
                    max_done[worker] = value.stats.generation
                    on_step(worker, value)
                    if (
                        threshold is not None
                        and value.stats.best_fitness >= threshold
                    ):
                        stats.converged = True
                        halt()
                elif status == "done":
                    if (
                        reassign_pool > 0
                        and not halt_sent
                        and not stats.converged
                    ):
                        # inherit a lost clan's unspent budget: keep
                        # free-running past our own end
                        extra, reassign_pool = reassign_pool, 0
                        clan_end[worker] = max_done[worker] + extra
                        churn.reassigned_generations += extra
                        send(worker, max_done[worker] + 1, extra)
                    else:
                        active.discard(worker)
                elif status == "died":
                    fail(worker)
            if self.heartbeat_timeout_s is not None:
                now = clock.perf()
                for worker in sorted(active):
                    if now - last_seen[worker] > self.heartbeat_timeout_s:
                        # silent past the heartbeat window: presumed
                        # hung — kill, then recover like a death
                        self.pool.kill(worker)
                        fail(worker)

    def _note_death(
        self, worker: int, churn: "ChurnStats", max_done: int
    ) -> int:
        """Count the death of a clan that had completed ``max_done``;
        returns the generation its latest checkpoint resumes at."""
        churn.deaths += 1
        obs.instant("clan_death", clan=worker, gen=max_done + 1)
        completed = self.checkpoints[worker].get("completed_generation")
        resume = 0 if completed is None else completed + 1
        # completed-but-uncheckpointed generations must be re-run (or
        # die with the clan)
        churn.lost_generations += max(0, max_done - resume + 1)
        return resume

    def _respawn(
        self,
        worker: int,
        churn: "ChurnStats",
        respawns_used: dict[int, int],
        resume: int,
    ) -> bool:
        """Bring a dead clan back from its latest checkpoint, which
        resumes at generation ``resume``; the caller re-sends its window.
        False when the clan's respawn budget is spent: it is abandoned
        for good instead.
        """
        if respawns_used[worker] >= self.max_respawns:
            self._lost.add(worker)
            churn.clans_lost += 1
            obs.instant("clan_lost", clan=worker)
            return False
        respawns_used[worker] += 1
        started = clock.perf()
        backoff = self.respawn_backoff_s * (
            2 ** (respawns_used[worker] - 1)
        )
        if backoff:
            time.sleep(backoff)
        self.pool.respawn(worker)
        self.pool._request(
            worker, "clan_restore", self.checkpoints[worker]
        )
        self.pool._collect(worker, timeout=self.command_timeout_s)
        churn.respawns += 1
        churn.recovery_latency_s.append(clock.perf() - started)
        obs.instant("respawn", clan=worker, resume=resume)
        return True

    def run_async(
        self,
        max_generations: int,
        fitness_threshold: float | None = None,
        on_champion: Callable[[ChampionEvent], None] | None = None,
        stop: threading.Event | None = None,
    ) -> RealRunStats:
        """Barrier-free execution: no per-generation pool join.

        Every clan free-runs up to ``max_generations`` local generations
        in one ``clan_run`` window, streaming its step after each one;
        the first report that crosses the threshold nudges the other
        clans to halt after their in-flight generation, so fast clans
        never wait for stragglers (``docs/asynchrony.md``).

        ``on_champion`` turns on champion streaming: one
        :class:`ChampionEvent` per *global* improvement (strictly
        increasing fitness), also kept on ``stats.champions``; it runs on
        the caller's thread between report arrivals (:mod:`repro.serve`
        hot-swaps the deployed policy with it). Setting ``stop`` halts
        every clan the same way, and the call returns once they drain.

        Clans drift apart in generation count: ``stats.generations`` is
        the *maximum* clan count and ``stats.records`` stays empty (no
        generation of every clan exists). Supervision is
        :meth:`barrier_generation`'s, except that an abandoned clan's
        remaining budget goes to the first survivor that drains its own.
        """
        threshold = (
            self.solved_threshold
            if fitness_threshold is None
            else fitness_threshold
        )
        stats = RealRunStats()
        stats.per_clan_generations = [0] * self.n_clans
        start = clock.perf()
        run_start = self._generation

        def on_step(worker: int, step: EvolutionStep) -> None:
            stats.per_clan_generations[worker] = (
                step.stats.generation - run_start + 1
            )
            stats.best_fitness = max(
                stats.best_fitness, step.stats.best_fitness
            )
            stats.best_fitness_per_generation.append(stats.best_fitness)

        self._run_windows(
            stats,
            {w: 0 for w in range(self.n_clans)},
            max_generations,
            on_step,
            threshold,
            on_champion,
            stop,
        )
        stats.generations = max(stats.per_clan_generations, default=0)
        self._generation += stats.generations
        stats.wall_time_s = clock.perf() - start
        return stats

    def best_genome(self) -> Genome:
        """Gather per-clan champions and return the global best.

        Dead or abandoned clans contribute their last checkpointed
        champion, so a run that lost clans still yields its best genome.
        """
        champions = []
        for worker in range(self.n_clans):
            wire = None
            if worker not in self._lost and self.pool.is_alive(worker):
                try:
                    self.pool._request(worker, "clan_best", None)
                    wire = self.pool._collect(
                        worker, timeout=self.command_timeout_s
                    )
                except WorkerFailure:
                    wire = None
            if wire is not None:
                champions.append(decode_genome(wire))
                continue
            best_hex = self.checkpoints[worker].get("best_hex")
            if best_hex is not None:
                champions.append(decode_genome_hex(best_hex))
        if not champions:
            raise RuntimeError("no generation has run yet")
        return max(champions, key=lambda g: g.fitness)

    def shutdown(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "DistributedClanRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
