"""One CLAN_DDA clan, as a worker process and the logical engine host it.

A ``WorkerClan`` hosts one clan-shaped
:class:`~repro.neat.population.Population` and hides the formats of the
pipe around it: members arrive as canonical wire bytes, each generation
leaves as the all-integer :class:`~repro.neat.population.EvolutionStep`
that :meth:`repro.core.protocols.CLAN_DDA.fold` turns into the paper's
record, and the checkpoint payload is JSON-serialisable hex. Every clan
session of :mod:`repro.cluster.transport` hosts one, forked or in the
process of the logical :class:`repro.core.protocols.CLAN_DDA` engine, so
both hosts walk the same trajectory and write the same records. Kept in
its own module so worker processes import it lazily without dragging the
whole ``repro.core`` package into the hot path.
"""

from __future__ import annotations

from repro.cluster.serialization import (
    decode_genomes,
    encode_genome,
    encode_genomes,
)
from repro.neat.checkpoint import decode_genome_hex, encode_genome_hex
from repro.neat.config import NEATConfig
from repro.neat.evaluation import GenomeEvaluator
from repro.neat.population import EvolutionStep, Population, evolve

#: format version of the per-clan checkpoint payload (independent of the
#: population checkpoint version in :mod:`repro.neat.checkpoint`, but the
#: species blobs reuse its v2 state format)
CLAN_CHECKPOINT_VERSION = 1


class WorkerClan:
    """One clan evolving independently, in a worker process or in the
    logical CLAN_DDA engine's process.

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
        self._host(env_id, evaluator, Population(
            config,
            rng_seed,
            members=decode_genomes(members_wire),
            clan_id=clan_id,
            n_clans=n_clans,
            next_genome_key=next_genome_key,
        ))

    def _host(
        self,
        env_id: str,
        evaluator: GenomeEvaluator,
        population: Population,
    ) -> None:
        self.env_id = env_id
        self.evaluator = evaluator
        # a CLAN_DDA clan records its phase spans on its own track,
        # whichever tracer is active (the driver's in the logical engine,
        # the worker process's own)
        population.track = f"clan:{population.clan_id}"
        self.population = population

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

    def run_generation(self, generation: int) -> EvolutionStep:
        """One full local generation: I -> S -> plan -> R."""
        step = evolve(self.population, self.evaluator, generation)
        # a worker lives as long as its fleet: each generation is
        # reported and dropped, never accumulated
        self.population.history.clear()
        return step

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
        clan._host(env_id, evaluator, Population.restore(
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
        ))
        return clan
