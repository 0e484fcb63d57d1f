"""Genome fitness evaluation against an environment (Inference block).

``GenomeEvaluator`` rolls a compiled genome policy through episodes of a
registered environment and reports both fitness and the step count — the
step count feeds the paper's gene-cost model (inference cost is genes
processed *per time-step*).

Two inference backends are supported (see ``docs/backends.md``):

* ``"scalar"`` — the dict-and-loop interpreter
  (:class:`~repro.neat.network.FeedForwardNetwork`); episodes run
  sequentially on one environment instance.
* ``"batched"`` — the NumPy engine
  (:class:`~repro.neat.network.BatchedFeedForwardNetwork`); all of a
  genome's episodes step in lockstep, so every environment time-step costs
  one vectorized forward pass instead of ``episodes`` interpreted ones.

Orthogonally, two evaluation modes shape how a *population* is evaluated
(see ``docs/vectorization.md``):

* ``"per_genome"`` (default) — one genome at a time against scalar
  environments; the bit-exact reference for the paper's trajectories.
* ``"population"`` — every genome's compiled plan is stacked into one
  ragged super-batch (:class:`~repro.neat.network.StackedPopulationNetwork`)
  and all genomes x episodes roll forward together against an
  array-native :class:`~repro.envs.vector.VectorEnvironment`, retiring
  lanes as episodes finish. Requires ``backend="batched"``.

The backends agree to float64 rounding (~1e-15 per forward pass; they sum
incoming links in different orders), so greedy actions — and therefore
fitness trajectories — match in practice and throughout the test suite. A
policy whose two best outputs tie within one ulp could in principle pick
differently across backends; the scalar interpreter stays the reference
for the paper's bit-exactness claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.envs.base import rollout
from repro.envs.registry import make, make_vector
from repro.obs import tracer as obs
from repro.neat.arrays import lower_population
from repro.neat.network import (
    BatchedFeedForwardNetwork,
    FeedForwardNetwork,
    PlanCache,
    StackedPopulationNetwork,
    compile_batched,
)
from repro.utils.rng import episode_seed

if TYPE_CHECKING:
    from repro.neat.config import NEATConfig
    from repro.neat.genome import Genome

#: inference backends accepted by :class:`GenomeEvaluator`
BACKENDS = ("scalar", "batched")
#: population-evaluation modes accepted by :class:`GenomeEvaluator`
EVAL_MODES = ("per_genome", "population")


@dataclass(frozen=True)
class FitnessResult:
    """Outcome of evaluating one genome."""

    genome_key: int
    fitness: float
    steps: int
    total_reward: float
    solved: bool


class GenomeEvaluator:
    """Evaluates genomes on one workload.

    ``episode_seed`` policy: every genome in a given generation faces the
    same episode seed(s) so fitness comparisons within a generation are
    fair; the seed advances each generation to prevent overfitting to one
    initial condition. This matches how neat-python gym harnesses are
    typically written and keeps distributed evaluation deterministic: any
    agent evaluating genome g in generation t gets the same result.

    ``max_steps=1`` reproduces the paper's single-step-inference study
    (section IV-D).
    """

    def __init__(
        self,
        env_id: str,
        episodes: int = 1,
        max_steps: int | None = None,
        seed: int = 0,
        env_factory=None,
        backend: str = "scalar",
        eval_mode: str = "per_genome",
    ):
        """``env_factory``, when given, supplies the evaluation environment
        instead of the registry — the adaptive loop uses it to learn inside
        a *drifted* deployment environment rather than the pristine one.
        Factory environments have no array-native twin, so they are
        incompatible with ``eval_mode="population"``."""
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        if backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {backend!r}; known: {known}"
            )
        if eval_mode not in EVAL_MODES:
            known = ", ".join(EVAL_MODES)
            raise ValueError(
                f"unknown eval_mode {eval_mode!r}; known: {known}"
            )
        if eval_mode == "population":
            if backend != "batched":
                raise ValueError(
                    "eval_mode='population' stacks compiled batched "
                    "plans; it requires backend='batched'"
                )
            if env_factory is not None:
                raise ValueError(
                    "eval_mode='population' needs a registered "
                    "vectorized environment; env_factory environments "
                    "must use eval_mode='per_genome'"
                )
        self.env_id = env_id
        self.episodes = episodes
        self.max_steps = max_steps
        self.seed = seed
        self.backend = backend
        self.eval_mode = eval_mode
        #: cross-generation compiled-plan cache (batched backend only):
        #: children that keep their parent's topology re-use its lowered
        #: layout, bit-identical to a fresh compile (docs/genetics.md)
        self.plan_cache = PlanCache() if backend == "batched" else None
        self._env_factory = env_factory
        self._env = env_factory() if env_factory is not None else make(env_id)
        #: lockstep episode environments, built lazily by the batched backend
        self._batch_envs: list | None = None
        #: vectorized environment, built lazily by the population mode and
        #: cached per lane count (populations shrink/grow across
        #: generations)
        self._vector_envs: dict[int, object] = {}
        self._solved_threshold = self._env.solved_threshold

    def with_backend(self, backend: str) -> "GenomeEvaluator":
        """A new evaluator identical to this one but for ``backend``."""
        if backend == self.backend:
            return self
        return GenomeEvaluator(
            self.env_id,
            episodes=self.episodes,
            max_steps=self.max_steps,
            seed=self.seed,
            env_factory=self._env_factory,
            backend=backend,
            eval_mode=(
                self.eval_mode if backend == "batched" else "per_genome"
            ),
        )

    def with_eval_mode(self, eval_mode: str) -> "GenomeEvaluator":
        """A new evaluator identical to this one but for ``eval_mode``."""
        if eval_mode == self.eval_mode:
            return self
        return GenomeEvaluator(
            self.env_id,
            episodes=self.episodes,
            max_steps=self.max_steps,
            seed=self.seed,
            env_factory=self._env_factory,
            backend=self.backend,
            eval_mode=eval_mode,
        )

    def episode_seed(self, generation: int, episode: int) -> int:
        """Deterministic seed for (generation, episode)."""
        return episode_seed(self.seed, generation, episode)

    def evaluate(
        self, genome: "Genome", config: "NEATConfig", generation: int = 0
    ) -> FitnessResult:
        """Roll out ``genome`` and return its fitness and step count."""
        if self.backend == "batched":
            network = BatchedFeedForwardNetwork.create(
                genome, config, cache=self.plan_cache
            )
            episodes = self._rollout_lockstep(network, generation)
        else:
            network = FeedForwardNetwork.create(genome, config)
            episodes = [
                rollout(
                    self._env,
                    network.policy,
                    max_steps=self.max_steps,
                    seed=self.episode_seed(generation, episode),
                )
                for episode in range(self.episodes)
            ]
        total_fitness = sum(ep.fitness for ep in episodes)
        total_steps = sum(ep.steps for ep in episodes)
        total_reward = sum(ep.total_reward for ep in episodes)
        mean_fitness = total_fitness / self.episodes
        mean_reward = total_reward / self.episodes
        return FitnessResult(
            genome_key=genome.key,
            fitness=mean_fitness,
            steps=total_steps,
            total_reward=mean_reward,
            solved=mean_reward >= self._solved_threshold,
        )

    def evaluate_many(
        self,
        genomes: Iterable["Genome"],
        config: "NEATConfig",
        generation: int = 0,
    ) -> dict[int, FitnessResult]:
        """Evaluate a batch of genomes, keyed by genome key.

        In ``per_genome`` mode the population loop stays in Python and
        the configured backend applies within each genome (the batched
        backend steps all episodes in lockstep). In ``population`` mode
        every genome's compiled plan is stacked into one super-batch and
        all genomes x episodes roll forward together against the
        vectorized environment.
        """
        genomes = list(genomes)
        if self.eval_mode == "population" and genomes:
            plans = self._compile_block(genomes, config)
            with obs.span(
                "population_sweep",
                genomes=len(genomes),
                episodes=self.episodes,
            ):
                return self._population_sweep(
                    plans, [g.key for g in genomes], generation
                )
        return {
            genome.key: self.evaluate(genome, config, generation)
            for genome in genomes
        }

    def _compile_block(
        self, genomes: list["Genome"], config: "NEATConfig"
    ) -> list:
        """Plans for ``genomes``: one columnar lowering of the block,
        one :func:`compile_batched` per view. The lowered buffers die
        with this frame — before the sweep allocates its tensors."""
        with obs.span("compile", genomes=len(genomes)):
            return [
                compile_batched(view, config, cache=self.plan_cache)
                for view in lower_population(genomes)
            ]

    def _population_sweep(
        self,
        plans: Sequence,
        genome_keys: Sequence[int],
        generation: int,
    ) -> dict[int, FitnessResult]:
        """Roll every plan's episodes forward together as one stacked sweep.

        Lane layout is genome-major: genome ``g``'s episodes occupy lanes
        ``[g * episodes, (g + 1) * episodes)``, and episode ``e`` of
        *every* genome runs under ``episode_seed(generation, e)`` — the
        same seeding policy as :meth:`evaluate`, which is what makes the
        two modes' results comparable genome-for-genome.
        """
        import numpy as np

        stacked = StackedPopulationNetwork(plans)
        n_genomes = len(genome_keys)
        episodes = self.episodes
        n_lanes = n_genomes * episodes
        vec = self._vector_envs.get(n_lanes)
        if vec is None:
            vec = make_vector(self.env_id, n_lanes)
            self._vector_envs[n_lanes] = vec
        seeds = [
            self.episode_seed(generation, episode)
            for _ in range(n_genomes)
            for episode in range(episodes)
        ]
        obs_all = vec.reset_batch(seeds)
        cap = (
            vec.max_episode_steps
            if self.max_steps is None
            else min(self.max_steps, vec.max_episode_steps)
        )
        # bookkeeping is indexed by *original* lane id; ``lane_ids`` maps
        # the (possibly compacted) environment's lanes back to it
        totals = np.zeros(n_lanes, dtype=np.float64)
        steps = np.zeros(n_lanes, dtype=np.int64)
        done = np.zeros(n_lanes, dtype=bool)
        truncated = np.zeros(n_lanes, dtype=bool)
        fitness = np.zeros(n_lanes, dtype=np.float64)
        lane_ids = np.arange(n_lanes)
        compacted = False
        #: stacked-subset hysteresis: keep evaluating the last (super)set
        #: until the alive count drops by a quarter — re-slicing the
        #: stacked tensors every retirement would dominate early steps
        subset: "np.ndarray | None" = None
        obs3 = np.zeros(
            (n_genomes, episodes, obs_all.shape[1]), dtype=np.float64
        )
        obs3.reshape(n_lanes, -1)[:] = obs_all
        actions = np.zeros(n_lanes, dtype=np.int64)
        for _ in range(cap):
            active = ~done
            n_active = int(active.sum())
            if n_active == 0:
                break
            if subset is not None or n_active < n_genomes * episodes:
                alive = np.nonzero(
                    active.reshape(n_genomes, episodes).any(axis=1)
                )[0]
                if subset is None:
                    if alive.size <= 0.75 * n_genomes:
                        subset = alive
                elif alive.size <= 0.75 * len(subset):
                    subset = alive
            if subset is None:
                acts = stacked.policy_all(obs3)
            else:
                acts = actions.reshape(n_genomes, episodes)
                acts[subset] = stacked.policy_all(
                    obs3[subset], genome_idx=subset
                )
            step_actions = acts.reshape(n_lanes)[lane_ids]
            obs_cur, rewards, done_cur, trunc_cur = vec.step_batch(
                step_actions
            )
            if compacted:
                obs3.reshape(n_lanes, -1)[lane_ids] = obs_cur
                totals[lane_ids] += rewards
                steps[lane_ids] += ~done[lane_ids]
                done[lane_ids] = done_cur
                truncated[lane_ids] = trunc_cur
            else:
                obs3.reshape(n_lanes, -1)[:] = obs_cur
                totals += rewards
                steps += active
                done = done_cur
                truncated = trunc_cur
            # compact the environment once most of its lanes are dead:
            # shaped fitness of the dropped lanes is recorded first
            # (their aux state is frozen at episode end)
            live = ~done_cur
            n_live = int(live.sum())
            if n_live and n_live <= 0.5 * len(lane_ids) and (
                len(lane_ids) >= 16
            ):
                term_cur = done_cur & ~trunc_cur
                fit_cur = vec.shaped_fitness_batch(
                    totals[lane_ids], steps[lane_ids], term_cur
                )
                dropped = np.nonzero(done_cur)[0]
                fitness[lane_ids[dropped]] = fit_cur[dropped]
                keep = np.nonzero(live)[0]
                vec = vec.extract_lanes(keep)
                lane_ids = lane_ids[keep]
                compacted = True
        # a time-limit truncation is not a true terminal state
        terminated = done & ~truncated
        fitness[lane_ids] = vec.shaped_fitness_batch(
            totals[lane_ids], steps[lane_ids], terminated[lane_ids]
        )
        results: dict[int, FitnessResult] = {}
        for g, key in enumerate(genome_keys):
            lanes = range(g * episodes, (g + 1) * episodes)
            # accumulate in episode order with Python floats, matching
            # evaluate's sum() over the episode list exactly
            total_fitness = sum(float(fitness[lane]) for lane in lanes)
            total_steps = sum(int(steps[lane]) for lane in lanes)
            total_reward = sum(float(totals[lane]) for lane in lanes)
            mean_fitness = total_fitness / episodes
            mean_reward = total_reward / episodes
            results[key] = FitnessResult(
                genome_key=key,
                fitness=mean_fitness,
                steps=total_steps,
                total_reward=mean_reward,
                solved=mean_reward >= self._solved_threshold,
            )
        return results

    # -- batched lockstep rollout ------------------------------------------

    def _episode_envs(self) -> list:
        """One environment instance per lockstep episode (lazily built)."""
        if self._batch_envs is None:
            factory = (
                self._env_factory
                if self._env_factory is not None
                else (lambda: make(self.env_id))
            )
            self._batch_envs = [self._env] + [
                factory() for _ in range(self.episodes - 1)
            ]
        return self._batch_envs

    def _rollout_lockstep(
        self, network: BatchedFeedForwardNetwork, generation: int
    ) -> list:
        """Step all episodes together, one batched forward pass per tick.

        Reproduces :func:`repro.envs.base.rollout` exactly — same seeds,
        same step cap, same truncation semantics — but stacks the live
        episodes' observations into one ``activate_batch`` call.
        """
        from repro.envs.base import EpisodeResult

        envs = self._episode_envs()
        observations: list = [None] * len(envs)
        for episode, env in enumerate(envs):
            env.seed(self.episode_seed(generation, episode))
            observations[episode] = env.reset()
        cap = (
            envs[0].max_episode_steps
            if self.max_steps is None
            else min(self.max_steps, envs[0].max_episode_steps)
        )
        totals = [0.0] * len(envs)
        steps = [0] * len(envs)
        terminated = [False] * len(envs)
        rewards: list[list[float]] = [[] for _ in envs]
        active = list(range(len(envs)))
        for _ in range(cap):
            if not active:
                break
            actions = network.policy_batch(
                [observations[episode] for episode in active]
            )
            still_active = []
            for action, episode in zip(actions, active):
                obs, reward, done, info = envs[episode].step(int(action))
                observations[episode] = obs
                totals[episode] += reward
                rewards[episode].append(reward)
                steps[episode] += 1
                if done:
                    # a time-limit truncation is not a true terminal state
                    terminated[episode] = not info.get("truncated", False)
                else:
                    still_active.append(episode)
            active = still_active
        return [
            EpisodeResult(
                total_reward=totals[episode],
                steps=steps[episode],
                terminated=terminated[episode],
                fitness=envs[episode].shaped_fitness(
                    totals[episode], steps[episode], terminated[episode]
                ),
                rewards=rewards[episode],
            )
            for episode in range(len(envs))
        ]
