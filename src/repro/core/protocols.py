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

Design note — evolve once, account many: child genomes are formed from RNG
streams keyed by ``(seed, generation, child key)`` (see
:meth:`repro.neat.population.Population.run_generation`), so where a child
is formed never changes what it is. SerialNEAT, CLAN_DCS and CLAN_DDS
*are* one evolution (:func:`evolve`) plus a per-protocol pure ``fold`` of
each :class:`EvolutionStep` into its record; the figure cache folds one
recorded evolution at every cluster size (:func:`fold_trajectory`).
CLAN_DDA genuinely changes the algorithm (asynchronous speciation over
clans: its clans *are* its placement), which is why the paper studies its
convergence cost separately (Fig 7b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import tracer as obs
from repro.core.messages import CENTER, Message, MessageType
from repro.core.metrics import AgentLoad, GenerationRecord, RunResult
from repro.core.partition import (
    assign_genomes,
    clan_seeds,
    contiguous_blocks,
    round_robin,
)
from repro.cluster.serialization import genome_wire_floats, wire_floats
from repro.envs.registry import workload_spec
from repro.neat.config import NEATConfig
from repro.neat.evaluation import FitnessResult, GenomeEvaluator
from repro.neat.genome import Genome
from repro.neat.population import GenerationStats, Population
from repro.utils.rng import RngFactory

#: 32-bit words per reported fitness entry: (genome key, fitness)
FITNESS_ENTRY_FLOATS = 2
#: 32-bit words per spawn-count entry: (species key, count)
SPAWN_ENTRY_FLOATS = 2
#: 32-bit words per child spec on the wire: (child, species, parent1,
#: parent2-or-sentinel)
CHILD_SPEC_FLOATS = 4


def _evaluate(evaluator, genomes, config, generation):
    """``{key: FitnessResult}`` for ``genomes``: one ``evaluate_many``
    sweep, or a per-genome loop for injected evaluators that implement
    only ``evaluate``."""
    evaluate_many = getattr(evaluator, "evaluate_many", None)
    if evaluate_many is not None:
        return evaluate_many(genomes, config, generation)
    return {
        genome.key: evaluator.evaluate(genome, config, generation)
        for genome in genomes
    }


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
        # an injected evaluator must be seeded like the default one (see
        # default_evaluator) or the trajectory changes
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

        Its episode seeds derive from ``seed``, so any evaluator built
        here for the same seed replays the same episodes. ``backend``
        selects the inference engine (``"scalar"`` or ``"batched"``);
        ``eval_mode`` selects how a genome block is evaluated
        (``"per_genome"`` or the vectorized ``"population"`` sweep). The
        engines agree to float64 rounding, so fitness trajectories match
        in practice (the suite asserts it on real workloads).
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
        """Evaluate one agent's whole genome block as a single sweep,
        charging the gene-op accounting per genome."""
        results = _evaluate(self.evaluator, genomes, self.config, generation)
        for genome in genomes:
            _charge(load, genome.gene_count(), results[genome.key].steps)
        return results


# -- the shared evolution of the one-population engines ----------------------


@dataclass(frozen=True)
class EvolutionStep:
    """One generation of the shared evolution: everything a placement
    fold reads, as integers — no genome. A genome's gene count (the
    paper's cost unit) is ``nodes + connections``; its wire size is
    :func:`~repro.cluster.serialization.wire_floats` of the two."""

    #: ``(key, nodes, connections, env steps)`` per evaluated genome, in
    #: population order
    evaluated: tuple[tuple[int, int, int, int], ...]
    #: keys carried into the next generation unchanged
    elites: tuple[int, ...]
    #: ``(key, nodes, connections, parent1, parent2 or None)`` per
    #: formed child, in plan order
    children: tuple[tuple[int, int, int, int, int | None], ...]
    #: entries of the plan's spawn-count table
    spawn_entries: int
    stats: GenerationStats


def evolve(population: Population, evaluator) -> EvolutionStep:
    """Run one generation of ``population``, evaluating every genome in
    one sweep, and keep what the placement folds read."""
    evaluated: list[tuple[int, int, int, int]] = []

    def evaluate(genomes, generation):
        results = _evaluate(evaluator, genomes, population.config, generation)
        evaluated.extend(
            (g.key, len(g.nodes), len(g.connections), results[g.key].steps)
            for g in genomes
        )
        return results

    stats = population.run_generation(evaluate)
    plan = population.last_plan
    children = []
    for spec in plan.children:
        child = population.genomes[spec.child_key]
        children.append((
            spec.child_key, len(child.nodes), len(child.connections),
            spec.parent1_key, spec.parent2_key,
        ))
    return EvolutionStep(
        evaluated=tuple(evaluated),
        elites=tuple(plan.elites),
        children=tuple(children),
        spawn_entries=len(plan.spawn_counts),
        stats=stats,
    )


def _step_record(step: EvolutionStep, protocol: str, n_agents: int):
    """A record carrying ``step``'s population summary, no placement yet."""
    stats = step.stats
    return GenerationRecord(
        generation=stats.generation,
        protocol=protocol,
        n_agents=n_agents,
        agent_loads=[AgentLoad() for _ in range(n_agents)],
        best_fitness=stats.best_fitness,
        mean_fitness=stats.mean_fitness,
        n_species=stats.n_species,
        population_size=stats.population_size,
        solved=stats.solved,
        speciation_comparisons=stats.speciation_comparisons,
    )


def _charge(load: AgentLoad, genes: int, steps: int) -> None:
    """Charge one genome's inference to the agent that ran it."""
    load.inference_gene_ops += genes * max(steps, 1)
    load.env_steps += steps
    load.genomes_evaluated += 1


def _shipment(msg_type, source, destination, rows) -> Message:
    """One transfer of the genomes ``rows`` describe (an
    :class:`EvolutionStep` row: ``(key, nodes, connections, ...)``)."""
    return Message(
        msg_type,
        source,
        destination,
        n_floats=sum(wire_floats(n, c) for _key, n, c, *_ in rows),
        n_genes=sum(n + c for _key, n, c, *_ in rows),
        n_units=len(rows),
    )


def _fitness_report(agent: int, count: int) -> Message:
    """An agent reporting ``count`` genomes' fitness to the centre."""
    return Message(
        MessageType.SENDING_FITNESS,
        agent,
        CENTER,
        n_floats=FITNESS_ENTRY_FLOATS * count,
        n_units=count,
    )


def _by_agent(rows, agent_of):
    """``(agent, rows of genomes on it)`` in agent order, keeping row
    order."""
    groups: dict[int, list] = {}
    for row in rows:
        groups.setdefault(agent_of[row[0]], []).append(row)
    return sorted(groups.items())


class _SharedEvolution(ProtocolBase):
    """A one-population engine: :func:`evolve` plus this protocol's
    ``fold(step, n_agents, placement) -> (record, placement)``, a pure
    function of the step and the fold state the previous step left
    (``None`` before the first)."""

    def __init__(self, env_id: str, n_agents: int, **kwargs):
        super().__init__(env_id, n_agents=n_agents, **kwargs)
        self.population = Population(self.config, seed=self.seed)
        #: the fold's state carried between generations
        self._placement = None

    def run_generation(self) -> GenerationRecord:
        step = evolve(self.population, self.evaluator)
        record, self._placement = self.fold(
            step, self.n_agents, self._placement
        )
        self._note_best(self.population.best_genome)
        self.generation += 1
        self.records.append(record)
        return record


class SerialNEAT(_SharedEvolution):
    """Baseline: everything on a single device, zero communication."""

    name = "Serial"

    def __init__(self, env_id: str, n_agents: int = 1, **kwargs):
        if n_agents != 1:
            raise ValueError("SerialNEAT runs on exactly one device")
        super().__init__(env_id, n_agents, **kwargs)

    @classmethod
    def fold(cls, step, n_agents, placement):
        record = _step_record(step, cls.name, n_agents)
        load, stats = record.agent_loads[0], step.stats
        # one agent ran everything: the population's own totals
        load.inference_gene_ops = stats.inference_genes
        load.env_steps = stats.inference_steps
        load.genomes_evaluated = stats.population_size
        load.speciation_gene_ops = stats.speciation_genes
        load.reproduction_gene_ops = stats.reproduction_genes
        return record, placement


class CLAN_DCS(_SharedEvolution):
    """Distributed inference, Central reproduction, Synchronous speciation.

    Every generation the centre ships each agent its shard of genomes
    (``Sending Genomes``), agents run inference and return fitness
    (``Sending Fitness``); speciation, planning and reproduction all happen
    on the centre (paper Fig 2b).
    """

    name = "CLAN_DCS"

    @classmethod
    def fold(cls, step, n_agents, placement):
        record = _step_record(step, cls.name, n_agents)
        # round-robin over sorted keys: the assign_genomes sharding
        shards = round_robin(sorted(step.evaluated), n_agents)
        for agent, shard in enumerate(shards):
            if not shard:
                continue
            record.messages.append(
                _shipment(MessageType.SENDING_GENOMES, CENTER, agent, shard)
            )
            for _key, nodes, connections, steps in shard:
                _charge(record.agent_loads[agent], nodes + connections, steps)
            record.messages.append(_fitness_report(agent, len(shard)))
        stats = step.stats
        record.center_speciation_gene_ops = stats.speciation_genes
        record.center_reproduction_gene_ops = stats.reproduction_genes
        record.center_planning_ops = stats.population_size
        return record, placement


class CLAN_DDS(_SharedEvolution):
    """Distributed inference + reproduction, Synchronous speciation.

    Children are formed *on the agents*; because speciation stays
    synchronous on the centre, every formed child must be shipped back
    (``Sending Children``) and every chosen parent shipped out
    (``Sending Parent Genomes``) when not already resident — the repeated
    back-and-forth the paper identifies as DDS's downfall (Fig 2c, Fig 4).
    The fold's state is the residency map.
    """

    name = "CLAN_DDS"

    @property
    def residency(self) -> dict[int, int]:
        """Genome key -> agent currently holding a live copy."""
        if self._placement is None:
            # not distributed yet: where the first generation will go
            return assign_genomes(self.population.genomes, self.n_agents)
        return self._placement

    @classmethod
    def fold(cls, step, n_agents, residency):
        record = _step_record(step, cls.name, n_agents)
        if residency is None:
            # the population is distributed once, before its first
            # inference
            residency = assign_genomes(
                (row[0] for row in step.evaluated), n_agents
            )
            for agent, rows in _by_agent(step.evaluated, residency):
                record.messages.append(
                    _shipment(
                        MessageType.SENDING_GENOMES, CENTER, agent, rows
                    )
                )

        # inference wherever each genome lives; speciation and planning
        # on the centre
        for key, nodes, connections, steps in step.evaluated:
            load = record.agent_loads[residency[key]]
            _charge(load, nodes + connections, steps)
        for agent, load in enumerate(record.agent_loads):
            if load.genomes_evaluated:
                record.messages.append(
                    _fitness_report(agent, load.genomes_evaluated)
                )
        record.center_speciation_gene_ops = step.stats.speciation_genes
        record.center_planning_ops = step.stats.population_size

        # reproduction: children formed round-robin over the agents;
        # spawn counts + parent lists go to every agent with work
        parents = {row[0]: row for row in step.evaluated}
        child_agents = assign_genomes(
            (row[0] for row in step.children), n_agents
        )
        new_residency = {key: residency[key] for key in step.elites}
        for agent, children in _by_agent(step.children, child_agents):
            record.messages.append(
                Message(
                    MessageType.SENDING_SPAWN_COUNT,
                    CENTER,
                    agent,
                    n_floats=SPAWN_ENTRY_FLOATS * step.spawn_entries,
                )
            )
            record.messages.append(
                Message(
                    MessageType.SENDING_PARENT_LIST,
                    CENTER,
                    agent,
                    n_floats=CHILD_SPEC_FLOATS * len(children),
                )
            )
            # parents not resident on this agent must be shipped there
            needed: dict[int, tuple] = {}
            for *_child, parent1, parent2 in children:
                for parent in (parent1, parent2):
                    if parent is not None and residency[parent] != agent:
                        needed[parent] = parents[parent]
            if needed:
                record.messages.append(
                    _shipment(
                        MessageType.SENDING_PARENT_GENOMES, CENTER, agent,
                        list(needed.values()),
                    )
                )
            # child formation work (both parents read, the child
            # written) on this agent + children shipped back
            load = record.agent_loads[agent]
            for key, nodes, connections, parent1, parent2 in children:
                for parent in (parent1, parent2):
                    if parent is not None:
                        _key, p_nodes, p_connections, _steps = parents[parent]
                        load.reproduction_gene_ops += p_nodes + p_connections
                load.reproduction_gene_ops += nodes + connections
                new_residency[key] = agent
            record.messages.append(
                _shipment(
                    MessageType.SENDING_CHILDREN, agent, CENTER, children
                )
            )
        return record, new_residency


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
            record.messages.append(_fitness_report(clan.clan_id, clan.size))
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


def fold_trajectory(
    name: str, n_agents: int, steps
) -> list[GenerationRecord]:
    """``name``'s records at ``n_agents`` for a recorded evolution: what
    a fresh engine of that protocol would log over ``steps`` (from
    :func:`evolve` on the same seed), without evolving again."""
    cls = _PROTOCOLS[name]
    if n_agents < 1 or (cls is SerialNEAT and n_agents != 1):
        raise ValueError(f"{name} cannot run on {n_agents} agents")
    records = []
    placement = None
    for step in steps:
        record, placement = cls.fold(step, n_agents, placement)
        records.append(record)
    return records


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
