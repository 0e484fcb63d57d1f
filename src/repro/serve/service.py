"""The closed loop: evolve in the background, serve in the foreground.

:class:`ContinuousService` is the subsystem the paper's title promises —
*continuous* learning. A barrier-free clan fleet
(:class:`~repro.cluster.runtime.DistributedClanRuntime`) evolves on
worker processes while the gateway answers traffic on the event loop;
every time the fleet reports a new global-best genome, the service
compiles and publishes it to the champion registry, and the very next
micro-batch is served by the improved policy. Traffic never pauses: a
swap is one reference assignment between batches.

Deployment timeline::

    t=0   bootstrap champion (seed genome, unevaluated) published
    t=0   gateway starts answering; evolution thread launches clans
    t>0   every global-best report -> publish -> hot-swap mid-traffic
    close stop evolution, drain in-flight batches, close the registry
"""

from __future__ import annotations

import asyncio
import threading

from repro.cluster.runtime import (
    ChampionEvent,
    DistributedClanRuntime,
    RealRunStats,
)
from repro.neat.config import NEATConfig
from repro.obs import tracer as obs
from repro.neat.population import Population
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    ServedAction,
)
from repro.serve.fleet import ServingFleet
from repro.serve.gateway import InferenceGateway
from repro.serve.registry import ChampionRegistry, ChampionRecord


class ContinuousService:
    """Serve a workload's champion while clans keep evolving it.

    Usage (inside an event loop)::

        service = ContinuousService("CartPole-v0", n_clans=2,
                                    pop_size=24, max_generations=40)
        await service.start()
        served = await service.submit(observation)
        ...
        await service.close()

    The evolution side runs :meth:`DistributedClanRuntime.run_async` on
    a daemon thread with champion streaming on; promotions go through
    the thread-safe registry, so the gateway's event loop never blocks
    on evolution and vice versa.
    """

    def __init__(
        self,
        env_id: str,
        n_clans: int = 2,
        pop_size: int | None = None,
        config: NEATConfig | None = None,
        seed: int = 0,
        max_generations: int = 50,
        fitness_threshold: float | None = None,
        max_steps: int | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_respawns: int = 2,
        heartbeat_timeout_s: float | None = 30.0,
        checkpoint_period: int = 1,
        max_evolution_restarts: int = 1,
        replicas: int = 1,
        max_replica_respawns: int = 2,
    ):
        if config is None:
            overrides = {}
            if pop_size is not None:
                overrides["pop_size"] = pop_size
            config = NEATConfig.for_env(env_id, **overrides)
        elif pop_size is not None and config.pop_size != pop_size:
            raise ValueError(
                "pass either config or pop_size, not conflicting values"
            )
        self.env_id = env_id
        self.config = config
        self.n_clans = n_clans
        self.seed = seed
        self.max_generations = max_generations
        self.fitness_threshold = fitness_threshold
        self.max_steps = max_steps
        #: fault-tolerance knobs forwarded to the clan runtime (see
        #: ``docs/fault_tolerance.md``)
        self.max_respawns = max_respawns
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.checkpoint_period = checkpoint_period
        #: how many times a *crashed* evolution thread may be relaunched
        #: on a fresh runtime before the error is surfaced at close();
        #: evolution death no longer silently stops hot-swaps
        self.max_evolution_restarts = max_evolution_restarts
        #: fresh-runtime relaunches actually performed
        self.evolution_restarts = 0
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        #: serving-tier self-healing budget, forwarded to the fleet
        #: (replica deaths become transparent retries + respawns; see
        #: the "Serving-tier self-healing" section of
        #: ``docs/fault_tolerance.md``); 0 restores isolate-only
        self.max_replica_respawns = max_replica_respawns
        self.registry = ChampionRegistry(config)
        #: present only in single-replica mode; the fleet path serves
        #: through worker-process gateways instead
        self.gateway: InferenceGateway | None = None
        #: present only with ``replicas > 1``
        self.fleet: ServingFleet | None = None
        if replicas > 1:
            # the fleet borrows the registry (service closes it last)
            self.fleet = ServingFleet(
                self.registry,
                replicas=replicas,
                max_batch=max_batch,
                max_pending=max_pending,
                seed=seed,
                max_replica_respawns=max_replica_respawns,
            )
        else:
            self.gateway = InferenceGateway(
                self.registry,
                max_batch=max_batch,
                max_pending=max_pending,
                # the service drains the gateway, then closes the
                # registry itself — one close path for both topologies
                close_registry=False,
            )
        #: ``(record, event)`` per promotion, in promotion order
        self.promotions: list[tuple[ChampionRecord, ChampionEvent]] = []
        self._runtime: DistributedClanRuntime | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._evolution_result: RealRunStats | None = None
        self._evolution_error: BaseException | None = None
        self._published_best = float("-inf")
        self._closed = False

    def _make_runtime(self) -> DistributedClanRuntime:
        """One place to build (and rebuild, after a crash) the fleet."""
        return DistributedClanRuntime(
            self.env_id,
            self.n_clans,
            config=self.config,
            seed=self.seed,
            max_steps=self.max_steps,
            # the fast cell — the one engine path the perf ledger
            # measures; champions are identical to per-genome evaluation
            backend="batched",
            eval_mode="population",
            max_respawns=self.max_respawns,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            checkpoint_period=self.checkpoint_period,
        )

    async def start(self) -> ChampionRecord:
        """Deploy a bootstrap champion, start serving, start evolving.

        The bootstrap champion is genome 0 of the same seeded population
        the clan fleet is partitioned from — deterministic, deployable
        before any evaluation has happened, and guaranteed to be
        replaced by the first evolution report (whose fitness beats the
        bootstrap's -inf). Returns the bootstrap record.
        """
        if self._thread is not None:
            raise RuntimeError("service already started")
        seed_population = Population(self.config, seed=self.seed)
        bootstrap = seed_population.genomes[min(seed_population.genomes)]
        if self.fleet is not None:
            # start (and subscribe) the fleet first so the bootstrap
            # publish streams straight down the replica pipes; block
            # until every replica has acked it — traffic must never
            # race an empty replica store
            await self.fleet.start()
        record = self.registry.publish(
            bootstrap,
            fitness=float("-inf"),
            generation=-1,
            source="bootstrap",
        )
        if self.fleet is not None:
            await self.fleet.wait_deployed()
        else:
            await self.gateway.start()
        self._runtime = self._make_runtime()
        self._thread = threading.Thread(
            target=self._evolve, name="clan-evolution", daemon=True
        )
        self._thread.start()
        return record

    def _evolve(self) -> None:
        while True:
            try:
                self._evolution_result = self._runtime.run_async(
                    self.max_generations,
                    fitness_threshold=self.fitness_threshold,
                    on_champion=self._promote,
                    stop=self._stop,
                )
                return
            except BaseException as exc:
                # the runtime's own supervision absorbs clan churn; only
                # an unrecoverable crash (supervisor bug, total fleet
                # loss) lands here. Relaunch on a fresh runtime — the
                # seed makes it deterministic, and _promote's monotone
                # guard keeps the replay from downgrading the deployed
                # champion — up to the restart budget; then surface the
                # error at close()/evolution_done().
                if (
                    self._stop.is_set()
                    or self.evolution_restarts
                    >= self.max_evolution_restarts
                ):
                    self._evolution_error = exc
                    return
                self.evolution_restarts += 1
                try:
                    self._runtime.shutdown()
                except Exception:  # pragma: no cover - defensive
                    pass
                self._runtime = self._make_runtime()

    def _promote(self, event: ChampionEvent) -> None:
        """Champion-changed hook: compile + atomically hot-swap.

        Runs on the evolution thread; the registry lock makes the swap
        safe against concurrent gateway snapshots. Publishes only strict
        fitness improvements over what is already deployed, so a
        restarted evolution run replaying its deterministic prefix never
        hot-swaps the gateway back to a worse champion.
        """
        if event.fitness <= self._published_best:
            return
        self._published_best = event.fitness
        record = self.registry.publish(
            event.genome,
            fitness=event.fitness,
            generation=event.generation,
            source=f"clan{event.clan_id}",
        )
        obs.instant(
            "deploy",
            seq=self.registry.seq,
            version=record.version,
            clan=event.clan_id,
            gen=event.generation,
        )
        self.promotions.append((record, event))

    async def submit(self, observation) -> ServedAction:
        """Answer one observation with the current champion's action."""
        if self.fleet is not None:
            return await self.fleet.submit(observation)
        return await self.gateway.submit(observation)

    def stats(self):
        """The service's :class:`~repro.core.metrics.ServiceStats` —
        the gateway's snapshot, or the fleet rollup (cached; use
        :meth:`scrape` for fresh per-replica numbers)."""
        if self.fleet is not None:
            return self.fleet.stats()
        return self.gateway.stats()

    async def scrape(self):
        """Refresh and return stats (pipes a scrape through the fleet;
        equivalent to :meth:`stats` in single-replica mode)."""
        if self.fleet is not None:
            return await self.fleet.scrape()
        return self.gateway.stats()

    def replica_stats(self):
        """Per-replica snapshots (``{0: stats}`` in single-replica
        mode, so summary printers need not special-case topology)."""
        if self.fleet is not None:
            return self.fleet.replica_stats()
        return {0: self.gateway.stats()}

    def health(self) -> dict:
        """Serving-tier self-healing counters (respawns, retries,
        breaker states — see :meth:`ServingFleet.health`). Empty-ish in
        single-replica mode, where there is no fleet to heal."""
        if self.fleet is not None:
            return self.fleet.health()
        return {
            "replica_respawns": 0,
            "requests_retried": 0,
            "fleet_shed": 0,
            "breaker_states": {},
            "live_replicas": [0],
            "faults_injected": {},
        }

    async def evolution_done(self) -> RealRunStats:
        """Wait for the evolution budget to finish; returns its stats."""
        if self._thread is None:
            raise RuntimeError("service not started")
        await asyncio.get_running_loop().run_in_executor(
            None, self._thread.join
        )
        if self._evolution_error is not None:
            raise self._evolution_error
        return self._evolution_result

    async def close(self) -> RealRunStats | None:
        """Wind down: halt evolution, drain traffic, close the registry.

        Order matters and mirrors the run_async stale-message drain:
        (1) nudge clans to halt and join the evolution thread, so no
        promotion lands mid-drain; (2) drain the gateway — every
        accepted request is answered while the registry is still open;
        (3) close the registry. Returns the evolution stats (None if the
        service never started).
        """
        if self._closed:
            return self._evolution_result
        self._closed = True
        result = None
        if self._thread is not None:
            self._stop.set()
            await asyncio.get_running_loop().run_in_executor(
                None, self._thread.join
            )
            result = self._evolution_result
        if self._runtime is not None:
            self._runtime.shutdown()
        if self.fleet is not None:
            await self.fleet.close()
        else:
            await self.gateway.close()
        self.registry.close()
        if self._evolution_error is not None:
            raise self._evolution_error
        return result
