"""The NEAT generation loop (paper Fig 2a) — the only one in the tree.

One generation = Inference -> Speciation -> Generation planning ->
Reproduction. :class:`Population` owns the genome set, species partition and
innovation bookkeeping, and emits a :class:`GenerationStats` record per
generation carrying the gene-cost counters behind the paper's Fig 3.

A CLAN_DDA clan (paper Fig 2d) *is* a population: the same loop over given
members, with genome keys, node ids and species ids drawn from the clan's
residue class (``clan_id`` modulo ``n_clans``) so concurrently evolving
clans never collide without talking to each other. Serial NEAT is clan 0
of 1. The logical engine (:class:`repro.core.protocols.CLAN_DDA`) and the
worker-hosted :class:`repro.cluster.worker_clan.WorkerClan` both host this
class, so their parity is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.reproduction import (
    brood_rng,
    execute_plan,
    plan_generation,
)
from repro.neat.species import SpeciesSet
from repro.obs import tracer as obs
from repro.utils.rng import RngFactory

if TYPE_CHECKING:
    from repro.neat.config import NEATConfig
    from repro.neat.evaluation import FitnessResult


#: maps (genomes, generation) -> {genome_key: FitnessResult}
EvaluateFn = Callable[[list[Genome], int], dict[int, "FitnessResult"]]


@dataclass
class GenerationStats:
    """Everything measured in one generation.

    Gene counts follow the paper's cost metric (section III-B): compute and
    communication costs grow proportionally to the number of genes
    processed, a gene being a 32-bit datastructure.
    """

    generation: int
    best_fitness: float
    mean_fitness: float
    #: the exact sum behind ``mean_fitness`` (CLAN_DDA pools clan sums)
    fitness_sum: float
    best_genome_key: int
    n_species: int
    population_size: int
    solved: bool
    # inference block
    inference_genes: int
    inference_steps: int
    # speciation block
    speciation_genes: int
    speciation_comparisons: int
    # reproduction block
    reproduction_genes: int
    children_formed: int
    # genome shape summary (drives communication cost models)
    total_genome_genes: int
    mean_genome_genes: float
    max_genome_genes: int


def summarise_population(
    population: dict[int, Genome]
) -> tuple[int, float, int]:
    """(total genes, mean genes, max genes) across a population."""
    counts = [genome.gene_count() for genome in population.values()]
    total = sum(counts)
    return total, total / len(counts), max(counts)


class Population:
    """A NEAT population and its generation loop.

    ``Population(config, seed)`` is serial NEAT: ``config.pop_size`` fresh
    genomes keyed ``0..pop_size-1``. Passing ``members`` builds a clan
    instead: it evolves the given genomes (``config`` is re-sized to
    them), ``seed`` is the clan's own RNG root, and ``(clan_id, n_clans,
    next_genome_key)`` place its genome keys, node ids and species ids
    on a stride-``n_clans`` lattice disjoint from every sibling clan's.

    >>> from repro.neat import NEATConfig, Population
    >>> config = NEATConfig.for_env("CartPole-v0", pop_size=20)
    >>> pop = Population(config, seed=1)
    >>> len(pop.genomes)
    20
    """

    def __init__(
        self,
        config: "NEATConfig",
        seed: int = 0,
        *,
        members: Iterable[Genome] | None = None,
        clan_id: int = 0,
        n_clans: int = 1,
        next_genome_key: int | None = None,
    ):
        self.rngs = RngFactory(seed)
        self.clan_id = clan_id
        self.n_clans = n_clans
        if members is None:
            members = []
            for key in range(config.pop_size):
                genome = Genome(key)
                genome.configure_new(
                    config, self.rngs.get(f"genome-init:{key}")
                )
                members.append(genome)
        else:
            members = list(members)
            config = config.evolve_with(pop_size=len(members))
        self.config = config
        self.genomes: dict[int, Genome] = {g.key: g for g in members}
        self._next_key = (
            len(members) if next_genome_key is None else next_genome_key
        )
        self.innovation = InnovationTracker(
            next_node_id=config.num_outputs,
            agent_offset=clan_id,
            agent_stride=n_clans,
        )
        for genome in members:
            self.innovation.observe_node_id(genome.max_node_id())
        self.species_set = SpeciesSet(
            species_id_offset=clan_id, species_id_stride=n_clans
        )
        #: the next generation this population would run on its own
        #: count (a hosting runtime may dictate another number)
        self.generation = 0
        self.best_genome: Genome | None = None
        self.history: list[GenerationStats] = []
        #: the plan that produced the *current* population (set after the
        #: first generation); the protocol engines' placement reads it
        self.last_plan = None

    @property
    def seed(self) -> int:
        return self.rngs.root_seed

    def _allocate_key(self) -> int:
        key = self._next_key
        self._next_key += self.n_clans
        return key

    def adopt_members(self, members: dict[int, Genome]) -> None:
        """Re-home the population on ``members`` (CLAN_DDA global resync).

        The species partition restarts empty — its ids keep counting
        from where they were, so they stay unique — and node ids seen on
        the migrants are observed so future splits never reuse them.
        """
        self.genomes = members
        self.species_set = SpeciesSet(
            species_id_offset=self.species_set._next_species_id,
            species_id_stride=self.n_clans,
        )
        for genome in members.values():
            self.innovation.observe_node_id(genome.max_node_id())
        self.config = self.config.evolve_with(pop_size=len(members))

    # -- generation loop ----------------------------------------------------

    def run_generation(
        self, evaluate: EvaluateFn, generation: int | None = None
    ) -> GenerationStats:
        """Run one full generation and advance the population.

        ``generation`` names the RNG streams and the evaluation seed; it
        defaults to the population's own count. A hosting runtime passes
        it instead — a barrier step, a bit-identical replay after a
        respawn, or a clan restarted at the fleet's generation.
        """
        if generation is None:
            generation = self.generation
        track = f"clan:{self.clan_id}"
        with obs.span(
            "evaluate", track=track, gen=generation,
            genomes=len(self.genomes),
        ):
            results = evaluate(list(self.genomes.values()), generation)
        missing = set(self.genomes) - set(results)
        if missing:
            raise ValueError(
                f"evaluator returned no fitness for genomes {sorted(missing)}"
            )

        inference_genes = 0
        inference_steps = 0
        for key, genome in self.genomes.items():
            result = results[key]
            genome.fitness = result.fitness
            genes = genome.gene_count()
            inference_genes += genes * max(result.steps, 1)
            inference_steps += result.steps

        best = max(
            self.genomes.values(), key=lambda g: (g.fitness, -g.key)
        )
        if (
            self.best_genome is None
            or best.fitness > self.best_genome.fitness
        ):
            self.best_genome = best.copy()

        with obs.span("speciate", track=track, gen=generation):
            speciation_stats = self.species_set.speciate(
                self.genomes,
                generation,
                self.config,
                self.rngs.get(f"speciate:{generation}"),
            )

        with obs.span("reproduce", track=track, gen=generation):
            plan = plan_generation(
                self.config,
                self.species_set,
                generation,
                self.rngs.get(f"plan:{generation}"),
                self._allocate_key,
            )
            # a child's stream is a pure function of (seed, generation,
            # child key): formed on any cluster node it is the child
            # serial NEAT would form, which is what keeps the distributed
            # protocols exactly equivalent to the serial algorithm
            next_population, repro_stats = execute_plan(
                plan,
                self.genomes,
                self.config,
                lambda spec: self.rngs.get(
                    f"child:{generation}:{spec.child_key}"
                ),
                self.innovation,
                np_rng=brood_rng(self.config, self.rngs, generation),
            )
        self.last_plan = plan

        total_genes, mean_genes, max_genes = summarise_population(
            self.genomes
        )
        fitness_sum = sum(g.fitness for g in self.genomes.values())
        stats = GenerationStats(
            generation=generation,
            best_fitness=best.fitness,
            mean_fitness=fitness_sum / len(self.genomes),
            fitness_sum=fitness_sum,
            best_genome_key=best.key,
            n_species=speciation_stats.n_species,
            population_size=len(self.genomes),
            solved=any(r.solved for r in results.values()),
            inference_genes=inference_genes,
            inference_steps=inference_steps,
            speciation_genes=speciation_stats.genes_compared,
            speciation_comparisons=speciation_stats.comparisons,
            reproduction_genes=repro_stats.genes_processed,
            children_formed=repro_stats.children_formed,
            total_genome_genes=total_genes,
            mean_genome_genes=mean_genes,
            max_genome_genes=max_genes,
        )
        self.history.append(stats)

        self.genomes = next_population
        self.innovation.advance_generation()
        self.generation = generation + 1
        return stats

    def run(
        self,
        evaluate: EvaluateFn,
        max_generations: int,
        fitness_threshold: float | None = None,
    ) -> list[GenerationStats]:
        """Run until ``fitness_threshold`` is reached or generations expire."""
        stats_log: list[GenerationStats] = []
        for _ in range(max_generations):
            stats = self.run_generation(evaluate)
            stats_log.append(stats)
            if (
                fitness_threshold is not None
                and stats.best_fitness >= fitness_threshold
            ):
                break
        return stats_log

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> dict:
        """The population's complete state between generations.

        The innovation tracker's split window is empty at that boundary
        (it needs only its counter) and every RNG stream is derived by
        name from ``seed``, so :meth:`restore` + the next generation is
        bit-identical to never having stopped. Genomes stay objects;
        the two on-disk shapes — the population document of
        :mod:`repro.neat.checkpoint` and the clan payload of
        :mod:`repro.cluster.worker_clan` — encode them their own way.
        """
        # imported lazily: repro.neat.checkpoint imports this module
        from repro.neat.checkpoint import species_to_blob

        return {
            "seed": self.seed,
            "clan_id": self.clan_id,
            "n_clans": self.n_clans,
            "generation": self.generation,
            "genomes": list(self.genomes.values()),
            "next_genome_key": self._next_key,
            "next_node_id": self.innovation.next_node_id,
            "next_species_id": self.species_set._next_species_id,
            "species": [
                species_to_blob(species, self.genomes)
                for species in self.species_set.iter_species()
            ],
            "best_genome": self.best_genome,
        }

    @classmethod
    def restore(cls, config: "NEATConfig", state: dict) -> "Population":
        """Rebuild a population from :meth:`snapshot` state."""
        from repro.neat.checkpoint import species_from_blob

        population = cls(
            config,
            state["seed"],
            members=state["genomes"],
            clan_id=state["clan_id"],
            n_clans=state["n_clans"],
            next_genome_key=state["next_genome_key"],
        )
        population.generation = state["generation"]
        # the constructor derives the id counters from the membership;
        # ids handed out in earlier generations (or seen on migrants)
        # may run ahead of what the surviving members imply
        population.innovation.observe_node_id(state["next_node_id"] - 1)
        population.species_set._next_species_id = state["next_species_id"]
        for blob in state["species"]:
            species_from_blob(
                blob, population.genomes, population.species_set
            )
        population.best_genome = state["best_genome"]
        return population

    # -- introspection --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.genomes)
