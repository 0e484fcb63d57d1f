"""Clan state hosted inside a worker process (real CLAN_DDA backend).

A ``WorkerClan`` hosts one clan-shaped
:class:`~repro.neat.population.Population` — the same class, and so the
same generation loop, that the logical
:class:`repro.core.protocols.CLAN_DDA` engine hosts in-process — and hides
the formats of the pipe around it: members arrive as canonical wire bytes,
each generation leaves as a :class:`ClanGenerationSummary`, and the
checkpoint payload is JSON-serialisable hex. Kept in its own module so
worker processes import it lazily without dragging the whole
``repro.core`` package into the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.serialization import (
    decode_genomes,
    encode_genome,
    encode_genomes,
)
from repro.neat.checkpoint import decode_genome_hex, encode_genome_hex
from repro.neat.config import NEATConfig
from repro.neat.evaluation import GenomeEvaluator
from repro.neat.population import Population

#: format version of the per-clan checkpoint payload (independent of the
#: population checkpoint version in :mod:`repro.neat.checkpoint`, but the
#: species blobs reuse its v2 state format)
CLAN_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ClanGenerationSummary:
    """What a clan reports to the centre after one local generation."""

    clan_id: int
    generation: int
    best_fitness: float
    mean_fitness: float
    n_species: int
    n_members: int
    solved: bool


class WorkerClan:
    """One clan evolving independently inside a worker process.

    Algorithm state (``config``, ``species_set``, ``innovation``,
    ``rngs``, ``clan_id``, ...) is the hosted population's and reads
    through to it.
    """

    def __init__(
        self,
        env_id: str,
        config: NEATConfig,
        evaluator: GenomeEvaluator,
        clan_id: int,
        n_clans: int,
        members_wire: bytes,
        rng_seed: int,
        next_genome_key: int,
        num_outputs: int,
    ):
        # ``num_outputs`` rides in the clan_init payload; the population
        # reads the same number from ``config``
        self.env_id = env_id
        self.evaluator = evaluator
        self.population = Population(
            config,
            rng_seed,
            members=decode_genomes(members_wire),
            clan_id=clan_id,
            n_clans=n_clans,
            next_genome_key=next_genome_key,
        )

    def __getattr__(self, name):
        # only reached for names the clan itself lacks
        if name == "population":
            raise AttributeError(name)
        return getattr(self.population, name)

    @property
    def members(self) -> dict:
        return self.population.genomes

    @property
    def last_generation(self) -> int | None:
        """Number of the last *completed* local generation (None before
        any generation has run) — checkpoints resume at the next one."""
        completed = self.population.generation
        return completed - 1 if completed else None

    def _evaluate(self, genomes, generation):
        # the evaluator's configured backend applies here: with
        # backend="batched" each member's episodes run in lockstep through
        # the NumPy engine instead of the scalar interpreter
        return self.evaluator.evaluate_many(
            genomes, self.population.config, generation
        )

    def run_generation(self, generation: int) -> ClanGenerationSummary:
        """One full local generation: I -> S -> plan -> R."""
        stats = self.population.run_generation(self._evaluate, generation)
        # a worker lives as long as its fleet: each generation is
        # reported and dropped, never accumulated
        self.population.history.clear()
        return ClanGenerationSummary(
            clan_id=self.population.clan_id,
            generation=generation,
            best_fitness=stats.best_fitness,
            mean_fitness=stats.mean_fitness,
            n_species=stats.n_species,
            n_members=len(self.members),
            solved=stats.solved,
        )

    @property
    def best_fitness(self) -> float:
        """Fitness of the clan's best-ever genome (-inf before any run).

        The barrier-free worker loop compares this across generations to
        decide when to stream a champion-changed message to the centre.
        """
        best = self.population.best_genome
        return float("-inf") if best is None else best.fitness

    def best_genome_wire(self) -> bytes:
        """The clan's best-ever genome, serialised (for final collection)."""
        if self.population.best_genome is None:
            raise RuntimeError("no generation has run yet")
        return encode_genome(self.population.best_genome)

    # -- checkpoint / restore (fault tolerance) ---------------------------

    def checkpoint_payload(self) -> dict:
        """Everything a fresh worker process needs to resume this clan.

        Taken *between* generations, from the population's
        :meth:`~repro.neat.population.Population.snapshot`: the restored
        clan re-running generation ``completed_generation + 1`` is
        bit-identical to the original having run it — the property the
        supervision loop of
        :class:`repro.cluster.runtime.DistributedClanRuntime` relies on.
        Genome payloads are hex-encoded canonical wire bytes (the
        checkpoint-v2 convention), so the payload is JSON-serialisable.
        """
        state = self.population.snapshot()
        best = state["best_genome"]
        return {
            "version": CLAN_CHECKPOINT_VERSION,
            "clan_id": state["clan_id"],
            "n_clans": state["n_clans"],
            "completed_generation": self.last_generation,
            "members_hex": encode_genomes(
                sorted(state["genomes"], key=lambda g: g.key)
            ).hex(),
            "rng_seed": state["seed"],
            "next_genome_key": state["next_genome_key"],
            "next_node_id": state["next_node_id"],
            "next_species_id": state["next_species_id"],
            "species": state["species"],
            "best_hex": None if best is None else encode_genome_hex(best),
        }

    @classmethod
    def restore(
        cls,
        env_id: str,
        config: NEATConfig,
        evaluator: GenomeEvaluator,
        payload: dict,
    ) -> "WorkerClan":
        """Rebuild a clan from :meth:`checkpoint_payload` state."""
        version = payload.get("version")
        if version != CLAN_CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported clan checkpoint version {version!r}"
            )
        completed = payload["completed_generation"]
        best = payload["best_hex"]
        clan = cls.__new__(cls)
        clan.env_id = env_id
        clan.evaluator = evaluator
        clan.population = Population.restore(
            config,
            {
                "seed": payload["rng_seed"],
                "clan_id": payload["clan_id"],
                "n_clans": payload["n_clans"],
                "generation": 0 if completed is None else completed + 1,
                "genomes": decode_genomes(
                    bytes.fromhex(payload["members_hex"])
                ),
                "next_genome_key": payload["next_genome_key"],
                "next_node_id": payload["next_node_id"],
                "next_species_id": payload["next_species_id"],
                "species": payload["species"],
                "best_genome": (
                    None if best is None else decode_genome_hex(best)
                ),
            },
        )
        return clan
