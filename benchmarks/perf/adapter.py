"""Every engine-selection knob and constructor call the benchmark makes.

The workloads pin today's fast cell (``backend="batched"``,
``eval_mode="population"``, ``genetics="vectorized"``). ROADMAP item
3(c) will make that the only production path and remove the knobs; when
it does, this module is the one place a follow-up benchmark issue has
to touch. Nothing else in ``benchmarks/perf`` names a knob or builds an
engine, runtime, registry or fleet.
"""

from __future__ import annotations

import random

from repro.cluster.runtime import DistributedClanRuntime
from repro.cluster.serialization import encode_genomes
from repro.cluster.worker_clan import WorkerClan
from repro.core.partition import contiguous_blocks
from repro.core.protocols import ProtocolBase, make_protocol
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.population import Population
from repro.serve import ChampionRegistry, ServingFleet
from repro.utils.rng import RngFactory

from benchmarks.perf import spec

#: the fast cell; threshold stays disabled so work is fixed by the seed
ENGINE = {"backend": "batched", "eval_mode": "population"}
GENETICS = "vectorized"
NO_THRESHOLD = float("inf")


def neat_config(env_id: str) -> NEATConfig:
    return NEATConfig.for_env(
        env_id, pop_size=spec.POP_SIZE, genetics=GENETICS
    )


def learn_engine(env_id: str, seed: int):
    """The serial engine of ``learn_small`` / ``learn_large``."""
    return make_protocol(
        "Serial", env_id, config=neat_config(env_id), seed=seed, **ENGINE
    )


def scalar_evaluator(env_id: str, seed: int):
    """The scalar-interpreter oracle an engine seeded ``seed`` is
    checked against (same episode seeds, reference backend)."""
    return ProtocolBase.default_evaluator(env_id, seed, backend="scalar")


def clan_runtime(seed: int) -> DistributedClanRuntime:
    """``clans_async``: forked clans under default supervision."""
    return DistributedClanRuntime(
        spec.CLANS["env_id"],
        spec.CLANS["n_clans"],
        config=neat_config(spec.CLANS["env_id"]),
        seed=seed,
        **ENGINE,
    )


def probe_clan(seed: int, clan_id: int = 0) -> WorkerClan:
    """One clan of ``clan_runtime(seed)`` hosted in this process.

    Mirrors the ``clan_init`` payload ``DistributedClanRuntime`` sends
    its workers, so the probe replays exactly the generations clan
    ``clan_id`` runs behind the pipe.
    """
    env_id, n_clans = spec.CLANS["env_id"], spec.CLANS["n_clans"]
    config = neat_config(env_id)
    rngs = RngFactory(seed)
    genomes = Population(config, seed=seed).genomes
    block = contiguous_blocks(sorted(genomes), n_clans)[clan_id]
    return WorkerClan(
        env_id=env_id,
        config=config,
        evaluator=ProtocolBase.default_evaluator(env_id, seed, **ENGINE),
        clan_id=clan_id,
        n_clans=n_clans,
        members_wire=encode_genomes([genomes[key] for key in block]),
        rng_seed=rngs.child(f"clan:{clan_id}").root_seed,
        next_genome_key=config.pop_size + clan_id,
        num_outputs=config.num_outputs,
    )


def champion_config() -> NEATConfig:
    """Growth-only mutation rates: champions big enough that replica
    compute, not pipe overhead, sets the serving numbers (the
    ``bench_serving_scaling`` recipe)."""
    return NEATConfig.for_env(
        "CartPole-v0",
        node_add_prob=0.4,
        conn_add_prob=0.55,
        node_delete_prob=0.0,
        conn_delete_prob=0.0,
    )


def champion(config: NEATConfig, seed: int, key: int) -> Genome:
    rng = random.Random(seed)
    tracker = InnovationTracker(next_node_id=config.num_outputs)
    genome = Genome(key)
    genome.configure_new(config, rng)
    for _ in range(spec.SERVE["mutations"]):
        genome.mutate(config, rng, tracker)
        tracker.advance_generation()
    return genome


def registry_and_fleet(config: NEATConfig, seed: int):
    """``serve_fleet``: default batching knobs, two replicas."""
    registry = ChampionRegistry(config)
    fleet = ServingFleet(
        registry, replicas=spec.SERVE["replicas"], seed=seed
    )
    return registry, fleet
