"""The CLAN protocol engines (paper Fig 2).

Each engine runs real NEAT while logging where every compute block executes
and every message that would cross the WiFi network, producing one
:class:`~repro.core.metrics.GenerationRecord` per generation. Engines are
*logical* distributed executions: the algorithm, placement and communication
are exact, while wall-clock time is assigned later by the cluster timing
models (:mod:`repro.cluster.analytic` / :mod:`repro.cluster.simulator`).
A physically parallel backend with one OS process per agent lives in
:mod:`repro.cluster.runtime`. Every engine drives the one generation loop,
:meth:`repro.neat.population.Population.run_generation`: over the whole
population (Serial, DCS, DDS) or over one clan-shaped population per agent
(DDA) — the class a worker process hosts too.

Design note — placement-independent evolution: child genomes are formed
from RNG streams keyed by ``(seed, generation, child key)`` (see
:meth:`repro.neat.population.Population.run_generation`), so
SerialNEAT, CLAN_DCS and CLAN_DDS produce *bit-identical* populations for
the same seed. Distribution changes who computes, not what is computed —
the tests assert this. CLAN_DDA genuinely changes the algorithm
(asynchronous speciation over clans), which is why the paper studies its
convergence cost separately (Fig 7b).
"""

from __future__ import annotations

from repro.obs import tracer as obs
from repro.core.messages import CENTER, Message, MessageType
from repro.core.metrics import AgentLoad, GenerationRecord, RunResult
from repro.core.partition import (
    assign_genomes,
    clan_seeds,
    contiguous_blocks,
)
from repro.cluster.serialization import genome_wire_floats
from repro.envs.registry import workload_spec
from repro.neat.config import NEATConfig
from repro.neat.evaluation import FitnessResult, GenomeEvaluator
from repro.neat.genome import Genome
from repro.neat.population import Population
from repro.neat.reproduction import GenerationPlan
from repro.utils.rng import RngFactory

#: 32-bit words per reported fitness entry: (genome key, fitness)
FITNESS_ENTRY_FLOATS = 2
#: 32-bit words per spawn-count entry: (species key, count)
SPAWN_ENTRY_FLOATS = 2
#: 32-bit words per child spec on the wire: (child, species, parent1,
#: parent2-or-sentinel)
CHILD_SPEC_FLOATS = 4


class ProtocolBase:
    """Shared engine scaffolding: evaluator, config, convergence tracking."""

    name = "Base"

    def __init__(
        self,
        env_id: str,
        n_agents: int,
        config: NEATConfig | None = None,
        seed: int = 0,
        max_steps: int | None = None,
        episodes: int = 1,
        evaluator: GenomeEvaluator | None = None,
        backend: str = "scalar",
        eval_mode: str = "per_genome",
    ):
        if n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        self.env_id = env_id
        self.n_agents = n_agents
        self.config = config or NEATConfig.for_env(env_id)
        self.seed = seed
        self.rngs = RngFactory(seed)
        # an injected evaluator (e.g. a shared cache for n-sweeps) must be
        # seeded identically to the default one or trajectories change
        self.evaluator = evaluator or self.default_evaluator(
            env_id, seed, episodes=episodes, max_steps=max_steps,
            backend=backend, eval_mode=eval_mode,
        )
        self.solved_threshold = workload_spec(env_id).solved_threshold
        self.generation = 0
        self.records: list[GenerationRecord] = []
        self.best_fitness = float("-inf")
        self.best_genome: Genome | None = None

    @staticmethod
    def default_evaluator(
        env_id: str,
        seed: int,
        episodes: int = 1,
        max_steps: int | None = None,
        backend: str = "scalar",
        eval_mode: str = "per_genome",
    ) -> GenomeEvaluator:
        """The evaluator a protocol seeded with ``seed`` would build.

        ``backend`` selects the inference engine (``"scalar"`` or
        ``"batched"``); ``eval_mode`` selects how each agent evaluates
        its genome block (``"per_genome"`` or the vectorized
        ``"population"`` sweep). The engines agree to float64 rounding,
        so fitness trajectories match in practice (the suite asserts it
        on real workloads); keep the default scalar interpreter where
        bit-exact reproduction of the paper figures is the point.
        """
        return GenomeEvaluator(
            env_id,
            episodes=episodes,
            max_steps=max_steps,
            seed=RngFactory(seed).seed_for("episodes") % (2**31),
            backend=backend,
            eval_mode=eval_mode,
        )

    # -- template methods -----------------------------------------------------

    def run_generation(self) -> GenerationRecord:
        raise NotImplementedError

    def run(
        self,
        max_generations: int,
        fitness_threshold: float | None = None,
        on_generation=None,
    ) -> RunResult:
        """Run generations until convergence or the budget expires.

        ``fitness_threshold`` defaults to the workload's gym convergence
        criterion. ``on_generation(engine, record)``, if given, fires
        after every completed generation — the hook crash-resumable
        runs stream per-generation checkpoints through (it must not
        mutate engine state; it runs between generations, where the
        engine is at a clean replayable boundary).
        """
        threshold = (
            self.solved_threshold
            if fitness_threshold is None
            else fitness_threshold
        )
        result = RunResult(
            protocol=self.name, env_id=self.env_id, n_agents=self.n_agents
        )
        cache = getattr(self.evaluator, "plan_cache", None)
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        for _ in range(max_generations):
            with obs.span("generation", gen=self.generation):
                record = self.run_generation()
            result.records.append(record)
            if on_generation is not None:
                on_generation(self, record)
            if record.best_fitness >= threshold:
                result.converged = True
                result.generations_to_converge = record.generation + 1
                break
        result.best_fitness = self.best_fitness
        if cache is not None:
            result.plan_cache_hits = cache.hits - hits_before
            result.plan_cache_misses = cache.misses - misses_before
        return result

    # -- shared helpers -------------------------------------------------------

    def _new_record(self) -> GenerationRecord:
        return GenerationRecord(
            generation=self.generation,
            protocol=self.name,
            n_agents=self.n_agents,
            agent_loads=[AgentLoad() for _ in range(self.n_agents)],
        )

    def _close_generation(self, record, stats) -> GenerationRecord:
        """Copy the population's generation summary onto ``record``,
        note its best-ever genome and advance (one-population engines)."""
        record.speciation_comparisons = stats.speciation_comparisons
        record.best_fitness = stats.best_fitness
        record.mean_fitness = stats.mean_fitness
        record.n_species = stats.n_species
        record.population_size = stats.population_size
        record.solved = stats.solved
        self._note_best(self.population.best_genome)
        self.generation += 1
        self.records.append(record)
        return record

    @staticmethod
    def _log_genomes(record, msg_type, source, destination, genomes, **tags):
        """Log one genome shipment with its wire and gene sizes."""
        genomes = list(genomes)
        record.messages.append(
            Message(
                msg_type,
                source,
                destination,
                n_floats=sum(genome_wire_floats(g) for g in genomes),
                n_genes=sum(g.gene_count() for g in genomes),
                n_units=len(genomes),
                **tags,
            )
        )

    def _note_best(self, genome: Genome) -> None:
        if genome.fitness is not None and genome.fitness > self.best_fitness:
            self.best_fitness = genome.fitness
            self.best_genome = genome.copy()

    def _evaluate_block_on_agent(
        self,
        genomes: list[Genome],
        load: AgentLoad,
        generation: int,
    ) -> dict[int, FitnessResult]:
        """Evaluate one agent's whole genome block as a single sweep.

        The evaluator's ``eval_mode`` decides execution: per-genome
        rollouts or one vectorized population sweep. Either way the
        gene-op/message accounting is charged per genome, so the cost
        model sees identical work regardless of how it was executed.

        Injected evaluators (``evaluator=`` kwarg) may implement only
        ``evaluate``; they are looped per genome like before.
        """
        evaluate_many = getattr(self.evaluator, "evaluate_many", None)
        if evaluate_many is not None:
            results = evaluate_many(genomes, self.config, generation)
        else:
            results = {
                genome.key: self.evaluator.evaluate(
                    genome, self.config, generation
                )
                for genome in genomes
            }
        for genome in genomes:
            result = results[genome.key]
            load.inference_gene_ops += genome.gene_count() * max(
                result.steps, 1
            )
            load.env_steps += result.steps
            load.genomes_evaluated += 1
        return results


class SerialNEAT(ProtocolBase):
    """Baseline: everything on a single device, zero communication."""

    name = "Serial"

    def __init__(self, env_id: str, **kwargs):
        kwargs.setdefault("n_agents", 1)
        if kwargs["n_agents"] != 1:
            raise ValueError("SerialNEAT runs on exactly one device")
        super().__init__(env_id, **kwargs)
        self.population = Population(self.config, seed=self.seed)

    def run_generation(self) -> GenerationRecord:
        record = self._new_record()
        load = record.agent_loads[0]

        def evaluate(genomes, generation):
            return self._evaluate_block_on_agent(genomes, load, generation)

        stats = self.population.run_generation(evaluate)
        load.speciation_gene_ops = stats.speciation_genes
        load.reproduction_gene_ops = stats.reproduction_genes
        return self._close_generation(record, stats)


class CLAN_DCS(ProtocolBase):
    """Distributed inference, Central reproduction, Synchronous speciation.

    Every generation the centre ships each agent its shard of genomes
    (``Sending Genomes``), agents run inference and return fitness
    (``Sending Fitness``); speciation, planning and reproduction all happen
    on the centre (paper Fig 2b).
    """

    name = "CLAN_DCS"

    def __init__(self, env_id: str, n_agents: int, **kwargs):
        super().__init__(env_id, n_agents=n_agents, **kwargs)
        self.population = Population(self.config, seed=self.seed)

    def run_generation(self) -> GenerationRecord:
        record = self._new_record()

        def evaluate(genomes, generation):
            by_key = {g.key: g for g in genomes}
            shard_map = assign_genomes(by_key, self.n_agents)
            shards: list[list[Genome]] = [[] for _ in range(self.n_agents)]
            for key, agent in shard_map.items():
                shards[agent].append(by_key[key])
            results: dict[int, FitnessResult] = {}
            for agent, shard in enumerate(shards):
                if not shard:
                    continue
                self._log_genomes(
                    record, MessageType.SENDING_GENOMES, CENTER, agent, shard
                )
                load = record.agent_loads[agent]
                with obs.span(
                    "evaluate", track=f"clan:{agent}", genomes=len(shard)
                ):
                    results.update(
                        self._evaluate_block_on_agent(
                            shard, load, generation
                        )
                    )
                record.messages.append(
                    Message(
                        MessageType.SENDING_FITNESS,
                        agent,
                        CENTER,
                        n_floats=FITNESS_ENTRY_FLOATS * len(shard),
                        n_units=len(shard),
                    )
                )
            return results

        stats = self.population.run_generation(evaluate)
        record.center_speciation_gene_ops = stats.speciation_genes
        record.center_reproduction_gene_ops = stats.reproduction_genes
        record.center_planning_ops = stats.population_size
        return self._close_generation(record, stats)


class CLAN_DDS(ProtocolBase):
    """Distributed inference + reproduction, Synchronous speciation.

    Children are formed *on the agents*; because speciation stays
    synchronous on the centre, every formed child must be shipped back
    (``Sending Children``) and every chosen parent shipped out
    (``Sending Parent Genomes``) when not already resident — the repeated
    back-and-forth the paper identifies as DDS's downfall (Fig 2c, Fig 4).
    """

    name = "CLAN_DDS"

    def __init__(self, env_id: str, n_agents: int, **kwargs):
        super().__init__(env_id, n_agents=n_agents, **kwargs)
        # the centre's algorithm state is a Population (same seed => same
        # trajectory as SerialNEAT); this engine adds placement on top
        self.population = Population(self.config, seed=self.seed)
        #: genome key -> agent currently holding a live copy
        self.residency: dict[int, int] = assign_genomes(
            self.population.genomes, self.n_agents
        )
        self._initial_distribution_pending = True

    def run_generation(self) -> GenerationRecord:
        record = self._new_record()

        if self._initial_distribution_pending:
            self._log_genome_shipment(
                record,
                MessageType.SENDING_GENOMES,
                self.population.genomes,
                self.residency,
            )
            self._initial_distribution_pending = False

        def evaluate(genomes, generation):
            results: dict[int, FitnessResult] = {}
            per_agent_counts = [0] * self.n_agents
            blocks: list[list[Genome]] = [[] for _ in range(self.n_agents)]
            for genome in genomes:
                agent = self.residency[genome.key]
                blocks[agent].append(genome)
                per_agent_counts[agent] += 1
            for agent, block in enumerate(blocks):
                if block:
                    with obs.span(
                        "evaluate",
                        track=f"clan:{agent}",
                        genomes=len(block),
                    ):
                        results.update(
                            self._evaluate_block_on_agent(
                                block,
                                record.agent_loads[agent],
                                generation,
                            )
                        )
            for agent, count in enumerate(per_agent_counts):
                if count:
                    record.messages.append(
                        Message(
                            MessageType.SENDING_FITNESS,
                            agent,
                            CENTER,
                            n_floats=FITNESS_ENTRY_FLOATS * count,
                            n_units=count,
                        )
                    )
            return results

        # Inference (distributed) + Speciation & planning (centre), via the
        # shared Population loop; reproduction placement is reconstructed
        # from the plan below.
        previous_genomes = dict(self.population.genomes)
        stats = self.population.run_generation(evaluate)
        plan = self.population.last_plan
        record.center_speciation_gene_ops = stats.speciation_genes
        record.center_planning_ops = stats.population_size
        self._place_reproduction(record, plan, previous_genomes)
        return self._close_generation(record, stats)

    # -- placement ------------------------------------------------------------

    def _log_genome_shipment(
        self,
        record: GenerationRecord,
        msg_type: MessageType,
        genomes: dict[int, Genome],
        destination: dict[int, int],
    ) -> None:
        """Log centre -> agent genome transfers grouped per agent."""
        per_agent: dict[int, list[Genome]] = {}
        for key, genome in genomes.items():
            per_agent.setdefault(destination[key], []).append(genome)
        for agent in sorted(per_agent):
            self._log_genomes(
                record, msg_type, CENTER, agent, per_agent[agent]
            )

    def _place_reproduction(
        self,
        record: GenerationRecord,
        plan: GenerationPlan,
        parents_view: dict[int, Genome],
    ) -> None:
        """Assign child formation to agents; log the plan/parent traffic."""
        new_population = self.population.genomes  # already formed
        child_agents = assign_genomes(
            [spec.child_key for spec in plan.children], self.n_agents
        )

        # plan messages: spawn counts + parent lists go to every agent with
        # work assigned
        children_per_agent: dict[int, list] = {}
        for spec in plan.children:
            children_per_agent.setdefault(
                child_agents[spec.child_key], []
            ).append(spec)

        new_residency: dict[int, int] = {}
        for elite_key in plan.elites:
            new_residency[elite_key] = self.residency[elite_key]

        for agent in sorted(children_per_agent):
            specs = children_per_agent[agent]
            record.messages.append(
                Message(
                    MessageType.SENDING_SPAWN_COUNT,
                    CENTER,
                    agent,
                    n_floats=SPAWN_ENTRY_FLOATS * len(plan.spawn_counts),
                )
            )
            record.messages.append(
                Message(
                    MessageType.SENDING_PARENT_LIST,
                    CENTER,
                    agent,
                    n_floats=CHILD_SPEC_FLOATS * len(specs),
                )
            )
            # parents not resident on this agent must be shipped there
            needed: dict[int, Genome] = {}
            for spec in specs:
                for parent_key in (spec.parent1_key, spec.parent2_key):
                    if parent_key is None:
                        continue
                    if self.residency.get(parent_key) != agent:
                        needed[parent_key] = parents_view[parent_key]
            if needed:
                self._log_genomes(
                    record, MessageType.SENDING_PARENT_GENOMES, CENTER,
                    agent, needed.values(),
                )

            # child formation work on this agent + children shipped back
            load = record.agent_loads[agent]
            children_floats = 0
            children_genes = 0
            for spec in specs:
                child = new_population[spec.child_key]
                genes = (
                    parents_view[spec.parent1_key].gene_count()
                    + child.gene_count()
                )
                if spec.parent2_key is not None:
                    genes += parents_view[spec.parent2_key].gene_count()
                load.reproduction_gene_ops += genes
                children_floats += genome_wire_floats(child)
                children_genes += child.gene_count()
                new_residency[spec.child_key] = agent
            record.messages.append(
                Message(
                    MessageType.SENDING_CHILDREN,
                    agent,
                    CENTER,
                    n_floats=children_floats,
                    n_genes=children_genes,
                    n_units=len(specs),
                )
            )

        self.residency = new_residency


class CLAN_DDA(ProtocolBase):
    """Distributed inference + reproduction, Asynchronous speciation.

    The population is split once into ``n_agents`` clans; each agent runs
    the full NEAT loop (I, S, planning, R) on its clan independently and
    only reports fitness to the centre. Genomes cross the network exactly
    once, at initialisation — the paper's key communication saving
    (Fig 2d, Fig 4). Optional ``resync_period`` implements the "periodic
    global speciation" the paper flags as future work: every k generations
    all clans are gathered, re-partitioned and redistributed.
    """

    name = "CLAN_DDA"

    def __init__(
        self,
        env_id: str,
        n_agents: int,
        resync_period: int | None = None,
        **kwargs,
    ):
        super().__init__(env_id, n_agents=n_agents, **kwargs)
        if self.config.pop_size < 2 * n_agents:
            raise ValueError(
                f"population of {self.config.pop_size} cannot form "
                f"{n_agents} clans of >= 2 members"
            )
        if resync_period is not None and resync_period < 1:
            raise ValueError("resync_period must be >= 1")
        self.resync_period = resync_period

        # the centre builds the same initial population as serial NEAT and
        # partitions it into contiguous clans, one population per agent
        self._clans = [
            Population(self.config, **clan)
            for clan in clan_seeds(self.config, self.seed, n_agents)
        ]

    @property
    def clan_sizes(self) -> list[int]:
        return [clan.size for clan in self._clans]

    def run_generation(self) -> GenerationRecord:
        record = self._new_record()

        if self.generation == 0:
            # genomes cross the network exactly once, at initialisation
            for clan in self._clans:
                self._log_genomes(
                    record, MessageType.SENDING_GENOMES, CENTER,
                    clan.clan_id, clan.genomes.values(),
                )

        clan_stats = []
        for clan in self._clans:
            load = record.agent_loads[clan.clan_id]

            def evaluate(genomes, generation):
                return self._evaluate_block_on_agent(
                    genomes, load, generation
                )

            stats = clan.run_generation(evaluate, self.generation)
            load.speciation_gene_ops += stats.speciation_genes
            load.reproduction_gene_ops += stats.reproduction_genes
            record.speciation_comparisons += stats.speciation_comparisons
            record.messages.append(
                Message(
                    MessageType.SENDING_FITNESS,
                    clan.clan_id,
                    CENTER,
                    n_floats=FITNESS_ENTRY_FLOATS * clan.size,
                    n_units=clan.size,
                )
            )
            clan_stats.append(stats)
            self._note_best(clan.best_genome)

        if (
            self.resync_period is not None
            and self.generation > 0
            and self.generation % self.resync_period == 0
        ):
            with obs.span("resync", gen=self.generation):
                self._global_resync(record)

        total_members = sum(s.population_size for s in clan_stats)
        record.best_fitness = max(s.best_fitness for s in clan_stats)
        record.mean_fitness = (
            sum(s.fitness_sum for s in clan_stats) / total_members
        )
        record.n_species = sum(s.n_species for s in clan_stats)
        record.population_size = total_members
        record.solved = any(s.solved for s in clan_stats)
        self.generation += 1
        self.records.append(record)
        return record

    def _global_resync(self, record: GenerationRecord) -> None:
        """Gather all clans, re-partition, redistribute (extension).

        Runs after the generation's local evolution, so every message is
        tagged ``phase="resync"`` — without the tag the timing models file
        the gather/redistribute under the pre-inference ``children_up`` /
        ``genomes_down`` phases and (in pipelined mode) wrongly gate the
        *next* inference start on this end-of-generation traffic.
        """
        merged: dict[int, Genome] = {}
        for clan in self._clans:
            self._log_genomes(
                record, MessageType.SENDING_CHILDREN, clan.clan_id,
                CENTER, clan.genomes.values(), phase="resync",
            )
            merged.update(clan.genomes)

        blocks = contiguous_blocks(sorted(merged), self.n_agents)
        for clan, block in zip(self._clans, blocks):
            with obs.span(
                "resync", track=f"clan:{clan.clan_id}", members=len(block)
            ):
                members = {key: merged[key] for key in block}
                self._log_genomes(
                    record, MessageType.SENDING_GENOMES, CENTER,
                    clan.clan_id, members.values(), phase="resync",
                )
                clan.adopt_members(members)


_PROTOCOLS = {
    "Serial": SerialNEAT,
    "CLAN_DCS": CLAN_DCS,
    "CLAN_DDS": CLAN_DDS,
    "CLAN_DDA": CLAN_DDA,
}


def available_protocols() -> tuple[str, ...]:
    """Names accepted by :func:`make_protocol`."""
    return tuple(_PROTOCOLS)


def make_protocol(name: str, env_id: str, n_agents: int = 1, **kwargs):
    """Instantiate a protocol engine by name."""
    try:
        cls = _PROTOCOLS[name]
    except KeyError:
        known = ", ".join(_PROTOCOLS)
        raise KeyError(f"unknown protocol {name!r}; known: {known}") from None
    if cls is SerialNEAT:
        return cls(env_id, **kwargs)
    return cls(env_id, n_agents=n_agents, **kwargs)
