"""Unit tests for the in-worker clan (real CLAN_DDA state)."""

import pytest

from repro.cluster.serialization import decode_genome, encode_genomes
from repro.cluster.worker_clan import WorkerClan
from repro.core.partition import contiguous_blocks
from repro.core.protocols import ProtocolBase
from repro.neat.config import NEATConfig
from repro.neat.population import Population
from repro.utils.rng import RngFactory


@pytest.fixture
def setup():
    config = NEATConfig.for_env("CartPole-v0", pop_size=16)
    seed = 6
    rngs = RngFactory(seed)
    population = Population(config, seed=seed)
    blocks = contiguous_blocks(sorted(population.genomes), 2)
    evaluator = ProtocolBase.default_evaluator("CartPole-v0", seed)
    members = [population.genomes[key] for key in blocks[0]]
    clan = WorkerClan(
        env_id="CartPole-v0",
        config=config,
        evaluator=evaluator,
        clan_id=0,
        n_clans=2,
        members_wire=encode_genomes(members),
        rng_seed=rngs.child("clan:0").root_seed,
        next_genome_key=config.pop_size,
        num_outputs=config.num_outputs,
    )
    return clan, config


class TestWorkerClan:
    def test_clan_config_sized_to_members(self, setup):
        clan, config = setup
        assert clan.config.pop_size == 8
        assert len(clan.members) == 8

    def test_generation_preserves_clan_size(self, setup):
        clan, _config = setup
        for generation in range(3):
            step = clan.run_generation(generation)
            assert len(step.evaluated) == 8
            assert len(step.elites) + len(step.children) == 8

    def test_summary_fields(self, setup):
        clan, _config = setup
        stats = clan.run_generation(0).stats
        assert stats.generation == 0
        assert stats.population_size == 8
        assert stats.best_fitness >= stats.mean_fitness
        assert stats.n_species >= 1

    def test_new_keys_respect_stride(self, setup):
        clan, config = setup
        clan.run_generation(0)
        new_keys = [k for k in clan.members if k >= config.pop_size]
        assert new_keys
        assert all(key % 2 == 0 for key in new_keys)  # clan 0 of 2

    def test_best_genome_wire_round_trips(self, setup):
        clan, _config = setup
        clan.run_generation(0)
        champion = decode_genome(clan.best_genome_wire())
        assert champion.fitness is not None

    def test_best_requires_a_generation(self, setup):
        clan, _config = setup
        with pytest.raises(RuntimeError):
            clan.best_genome_wire()
