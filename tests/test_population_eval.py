"""Population-mode evaluation: stacked inference + vectorized rollouts.

The contract under test: ``eval_mode="population"`` produces *exactly*
the same :class:`FitnessResult` per genome as the per-genome batched
path (same seeds, same lane trajectories, same aggregation), for every
workload, episode count and protocol engine. The scalar interpreter is
additionally compared on the classic-control workloads, where the two
inference engines agree bit-for-bit in practice.
"""

import numpy as np
import pytest

from repro.core.protocols import make_protocol
from repro.neat.config import NEATConfig
from repro.neat.evaluation import EVAL_MODES, GenomeEvaluator
from repro.neat.network import (
    BatchedFeedForwardNetwork,
    StackedPopulationNetwork,
    compile_batched,
)
from repro.neat.population import Population

from tests.conftest import make_evolved_genome


def evolved_population(env_id, n=10, mutations=25):
    config = NEATConfig.for_env(env_id, pop_size=max(n, 4))
    genomes = [
        make_evolved_genome(config, seed=i, mutations=mutations, key=i)
        for i in range(n)
    ]
    return config, genomes


class TestStackedNetwork:
    def test_matches_per_genome_batched_outputs(self, cartpole_config):
        genomes = [
            make_evolved_genome(cartpole_config, seed=i, mutations=30,
                                key=i)
            for i in range(8)
        ]
        plans = [compile_batched(g, cartpole_config) for g in genomes]
        stacked = StackedPopulationNetwork(plans)
        rng = np.random.default_rng(0)
        obs = rng.uniform(-2, 2, size=(8, 5, 4))
        out = stacked.activate_all(obs)
        acts = stacked.policy_all(obs)
        for g, plan in enumerate(plans):
            net = BatchedFeedForwardNetwork(plan)
            expected = net.activate_batch(obs[g])
            np.testing.assert_allclose(out[g], expected, atol=1e-12)
            assert np.array_equal(acts[g], net.policy_batch(obs[g]))

    def test_genome_subset_matches_full(self, cartpole_config):
        genomes = [
            make_evolved_genome(cartpole_config, seed=i, mutations=30,
                                key=i)
            for i in range(8)
        ]
        stacked = StackedPopulationNetwork.create(genomes, cartpole_config)
        rng = np.random.default_rng(1)
        obs = rng.uniform(-2, 2, size=(8, 3, 4))
        full = stacked.policy_all(obs)
        idx = np.asarray([1, 4, 6])
        sub = stacked.policy_all(obs[idx], genome_idx=idx)
        assert np.array_equal(sub, full[idx])
        # and again after the cache has been primed with another subset
        idx2 = np.asarray([0, 6])
        sub2 = stacked.policy_all(obs[idx2], genome_idx=idx2)
        assert np.array_equal(sub2, full[idx2])

    def test_generic_aggregations_supported(self):
        config = NEATConfig(
            num_inputs=3,
            num_outputs=2,
            pop_size=8,
            node_add_prob=0.4,
            conn_add_prob=0.5,
            aggregation_mutate_rate=0.5,
            allowed_aggregations=("sum", "product", "max", "mean"),
        )
        genomes = [
            make_evolved_genome(config, seed=i, mutations=40, key=i)
            for i in range(6)
        ]
        plans = [compile_batched(g, config) for g in genomes]
        assert any(
            layer.generic_nodes for plan in plans for layer in plan.layers
        ), "mutation burst should produce at least one non-sum node"
        stacked = StackedPopulationNetwork(plans)
        rng = np.random.default_rng(2)
        obs = rng.uniform(-1, 1, size=(6, 4, 3))
        out = stacked.activate_all(obs)
        for g, plan in enumerate(plans):
            expected = BatchedFeedForwardNetwork(plan).activate_batch(
                obs[g]
            )
            np.testing.assert_allclose(out[g], expected, atol=1e-12)

    def test_arity_mismatch_rejected(self, cartpole_config, small_config):
        a = make_evolved_genome(cartpole_config, seed=0, key=0)
        b = make_evolved_genome(small_config, seed=0, key=1)
        with pytest.raises(ValueError, match="arity"):
            StackedPopulationNetwork(
                [
                    compile_batched(a, cartpole_config),
                    compile_batched(b, small_config),
                ]
            )

    def test_empty_plan_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            StackedPopulationNetwork([])


class TestEvaluatorPopulationMode:
    @pytest.mark.parametrize(
        "env_id",
        (
            "CartPole-v0",
            "MountainCar-v0",
            "LunarLander-v2",
            "Airraid-ram-v0",
            "Amidar-ram-v0",
            "Alien-ram-v0",
        ),
    )
    @pytest.mark.parametrize("episodes", (1, 3))
    def test_matches_per_genome_batched_exactly(self, env_id, episodes):
        config, genomes = evolved_population(env_id)
        per_genome = GenomeEvaluator(
            env_id, episodes=episodes, seed=7, backend="batched"
        )
        population = GenomeEvaluator(
            env_id, episodes=episodes, seed=7, backend="batched",
            eval_mode="population",
        )
        expected = per_genome.evaluate_many(genomes, config, generation=3)
        got = population.evaluate_many(genomes, config, generation=3)
        assert got == expected

    @pytest.mark.parametrize(
        "env_id", ("CartPole-v0", "MountainCar-v0")
    )
    def test_matches_scalar_reference(self, env_id):
        config, genomes = evolved_population(env_id)
        scalar = GenomeEvaluator(env_id, episodes=2, seed=5)
        population = GenomeEvaluator(
            env_id, episodes=2, seed=5, backend="batched",
            eval_mode="population",
        )
        assert population.evaluate_many(
            genomes, config, generation=1
        ) == scalar.evaluate_many(genomes, config, generation=1)

    def test_single_step_study_parity(self):
        """max_steps=1 (the paper's single-step-inference study)."""
        config, genomes = evolved_population("CartPole-v0")
        per_genome = GenomeEvaluator(
            "CartPole-v0", max_steps=1, seed=2, backend="batched"
        )
        population = GenomeEvaluator(
            "CartPole-v0", max_steps=1, seed=2, backend="batched",
            eval_mode="population",
        )
        assert population.evaluate_many(
            genomes, config
        ) == per_genome.evaluate_many(genomes, config)

    def test_generation_seed_advances(self):
        config, genomes = evolved_population("CartPole-v0", n=4)
        evaluator = GenomeEvaluator(
            "CartPole-v0", seed=3, backend="batched",
            eval_mode="population",
        )
        gen0 = evaluator.evaluate_many(genomes, config, generation=0)
        gen1 = evaluator.evaluate_many(genomes, config, generation=1)
        assert gen0 != gen1  # fresh initial conditions per generation

    def test_empty_batch(self):
        evaluator = GenomeEvaluator(
            "CartPole-v0", backend="batched", eval_mode="population"
        )
        config = NEATConfig.for_env("CartPole-v0")
        assert evaluator.evaluate_many([], config) == {}

    def test_population_requires_batched_backend(self):
        with pytest.raises(ValueError, match="batched"):
            GenomeEvaluator("CartPole-v0", eval_mode="population")

    def test_population_rejects_env_factory(self):
        from repro.envs.cartpole import CartPoleEnv

        with pytest.raises(ValueError, match="env_factory"):
            GenomeEvaluator(
                "CartPole-v0",
                backend="batched",
                eval_mode="population",
                env_factory=CartPoleEnv,
            )

    def test_unknown_eval_mode_rejected(self):
        with pytest.raises(ValueError, match="eval_mode"):
            GenomeEvaluator("CartPole-v0", eval_mode="warp")
        assert EVAL_MODES == ("per_genome", "population")

    def test_with_eval_mode_round_trip(self):
        evaluator = GenomeEvaluator(
            "CartPole-v0", episodes=2, seed=9, backend="batched"
        )
        population = evaluator.with_eval_mode("population")
        assert population.eval_mode == "population"
        assert population.episodes == 2
        assert population.seed == 9
        assert population.with_eval_mode("population") is population
        back = population.with_eval_mode("per_genome")
        assert back.eval_mode == "per_genome"

    def test_with_backend_downgrades_eval_mode(self):
        population = GenomeEvaluator(
            "CartPole-v0", backend="batched", eval_mode="population"
        )
        scalar = population.with_backend("scalar")
        assert scalar.backend == "scalar"
        assert scalar.eval_mode == "per_genome"


class TestFullGenerationParity:
    def test_population_run_matches_per_genome_generation(self):
        """A full NEAT generation: identical fitness for every genome."""
        config = NEATConfig.for_env("CartPole-v0", pop_size=24)
        pop_a = Population(config, seed=6)
        pop_b = Population(config, seed=6)
        ev_a = GenomeEvaluator("CartPole-v0", episodes=2, seed=6,
                               backend="batched")
        ev_b = GenomeEvaluator(
            "CartPole-v0", episodes=2, seed=6, backend="batched",
            eval_mode="population",
        )

        def make_eval(evaluator, cfg):
            def evaluate(genomes, generation):
                return evaluator.evaluate_many(genomes, cfg, generation)

            return evaluate

        for _ in range(3):
            stats_a = pop_a.run_generation(make_eval(ev_a, config))
            stats_b = pop_b.run_generation(make_eval(ev_b, config))
            assert stats_a.best_fitness == stats_b.best_fitness
            assert stats_a.mean_fitness == stats_b.mean_fitness
        assert sorted(pop_a.genomes) == sorted(pop_b.genomes)

    @pytest.mark.parametrize(
        "protocol", ("Serial", "CLAN_DCS", "CLAN_DDS", "CLAN_DDA")
    )
    def test_protocol_trajectories_and_accounting_match(self, protocol):
        n_agents = 1 if protocol == "Serial" else 3
        a = make_protocol(
            protocol, "CartPole-v0", n_agents=n_agents, seed=4,
            episodes=2, backend="batched",
        )
        b = make_protocol(
            protocol, "CartPole-v0", n_agents=n_agents, seed=4,
            episodes=2, backend="batched", eval_mode="population",
        )
        run_a = a.run(3, fitness_threshold=1e9)
        run_b = b.run(3, fitness_threshold=1e9)
        for rec_a, rec_b in zip(run_a.records, run_b.records):
            assert rec_a.best_fitness == rec_b.best_fitness
            assert rec_a.mean_fitness == rec_b.mean_fitness
            assert rec_a.n_species == rec_b.n_species
            # message and flop accounting must be mode-independent
            assert len(rec_a.messages) == len(rec_b.messages)
            for msg_a, msg_b in zip(rec_a.messages, rec_b.messages):
                assert msg_a.n_floats == msg_b.n_floats
                assert msg_a.msg_type == msg_b.msg_type
            for load_a, load_b in zip(
                rec_a.agent_loads, rec_b.agent_loads
            ):
                assert (
                    load_a.inference_gene_ops == load_b.inference_gene_ops
                )
                assert load_a.env_steps == load_b.env_steps
                assert (
                    load_a.genomes_evaluated == load_b.genomes_evaluated
                )


class TestDistributedPopulationMode:
    def test_distributed_clan_runtime_population_mode(self):
        from repro.cluster.runtime import DistributedClanRuntime

        config = NEATConfig.for_env("CartPole-v0", pop_size=16)
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8,
            backend="batched", eval_mode="population",
        ) as runtime:
            stats = runtime.run(2, fitness_threshold=1e9)
        engine = make_protocol(
            "CLAN_DDA", "CartPole-v0", n_agents=2, config=config, seed=8,
            backend="batched", eval_mode="population",
        )
        logical = engine.run(2, fitness_threshold=1e9)
        assert stats.best_fitness_per_generation == [
            record.best_fitness for record in logical.records
        ]
