"""Equivalence of the batched NumPy engine with the scalar interpreter.

The batched backend must be a pure performance change: for any genome and
any observation, ``BatchedFeedForwardNetwork`` matches
``FeedForwardNetwork.activate`` within 1e-9 and picks the same greedy
action. The property-style sweeps below run seeded random genomes (all
activations and aggregations enabled) against random observation batches.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neat.activations import ACTIVATIONS, BATCHED_ACTIVATIONS
from repro.neat.aggregations import (
    AGGREGATIONS,
    BATCHED_AGGREGATIONS,
    EMPTY_AGGREGATION,
)
from repro.neat.config import NEATConfig
from repro.neat.evaluation import GenomeEvaluator
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome
from repro.neat.network import (
    BatchedFeedForwardNetwork,
    FeedForwardNetwork,
    StackedPopulationNetwork,
    compile_batched,
)

from tests.conftest import make_evolved_genome

TOLERANCE = 1e-9


def rich_config(**overrides) -> NEATConfig:
    """A config whose mutations explore every activation/aggregation."""
    params = dict(
        num_inputs=5,
        num_outputs=3,
        pop_size=20,
        node_add_prob=0.4,
        conn_add_prob=0.5,
        conn_delete_prob=0.15,
        activation_mutate_rate=0.3,
        aggregation_mutate_rate=0.3,
        allowed_activations=tuple(sorted(ACTIVATIONS)),
        allowed_aggregations=tuple(sorted(AGGREGATIONS)),
    )
    params.update(overrides)
    return NEATConfig(**params)


def assert_equivalent(genome, config, observations) -> None:
    scalar = FeedForwardNetwork.create(genome, config)
    batched = BatchedFeedForwardNetwork.create(genome, config)
    batch_out = batched.activate_batch(observations)
    for i, row in enumerate(observations):
        scalar_out = scalar.activate(list(row))
        np.testing.assert_allclose(
            batch_out[i], scalar_out, rtol=0.0, atol=TOLERANCE
        )
        assert scalar.policy(list(row)) == batched.policy(list(row))


class TestRegistryParity:
    def test_every_activation_has_a_batched_twin(self):
        assert set(BATCHED_ACTIVATIONS) == set(ACTIVATIONS)

    def test_every_aggregation_has_a_batched_twin(self):
        assert set(BATCHED_AGGREGATIONS) == set(AGGREGATIONS)
        assert set(EMPTY_AGGREGATION) == set(AGGREGATIONS)

    def test_batched_activations_match_scalar_pointwise(self):
        zs = np.linspace(-75.0, 75.0, 301)
        for name, scalar_fn in ACTIVATIONS.items():
            batched_out = BATCHED_ACTIVATIONS[name](zs.copy())
            for z, got in zip(zs, batched_out):
                assert got == pytest.approx(
                    scalar_fn(float(z)), abs=TOLERANCE
                ), name

    def test_empty_aggregation_matches_scalar(self):
        for name, scalar_fn in AGGREGATIONS.items():
            assert EMPTY_AGGREGATION[name] == scalar_fn([])


#: the activation formulas the in-place kernels replaced, as they were
#: written with ``np.clip``: the kernels must reproduce them bit for bit
CLIP_FORMULAS = {
    "sigmoid": lambda z: 1.0 / (
        1.0 + np.exp(-np.clip(4.9 * z, -60.0, 60.0))
    ),
    "tanh": lambda z: np.tanh(np.clip(2.5 * z, -60.0, 60.0)),
    "relu": lambda z: np.maximum(z, 0.0),
    "identity": lambda z: +z,
    "clamped": lambda z: np.clip(z, -1.0, 1.0),
    "gauss": lambda z: np.exp(
        -5.0 * np.clip(z, -3.4, 3.4) * np.clip(z, -3.4, 3.4)
    ),
    "sin": lambda z: np.sin(np.clip(5.0 * z, -60.0, 60.0)),
    "abs": np.abs,
}


def kernel_grid() -> np.ndarray:
    """100k values: a dense sweep, wide magnitudes of both signs, every
    clamp bound and the IEEE specials."""
    rng = np.random.default_rng(0)
    magnitudes = 10.0 ** rng.uniform(-320.0, 308.0, 40_000)
    bounds = [b / s for b in (60.0, 3.4, 1.0, 19.1) for s in (1, 2.5, 4.9, 5)]
    specials = [
        0.0, np.inf, np.nan, 1e308, 5e-324, 2.2250738585072014e-308,
        *bounds, *(np.nextafter(b, np.inf) for b in bounds),
    ]
    values = np.concatenate(
        [
            np.linspace(-75.0, 75.0, 40_000),
            rng.normal(0.0, 10.0, 20_000 - 2 * len(specials)),
            magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
            specials,
            np.negative(specials),
        ]
    )
    assert values.size == 100_000
    return values


class TestActivationKernels:
    @pytest.mark.parametrize("name", sorted(CLIP_FORMULAS))
    def test_bit_identical_to_clip_formulas(self, name):
        grid = kernel_grid()
        # short lengths exercise the ufuncs' SIMD remainder paths
        for values in (grid, grid[:1], grid[:7], grid[-13:]):
            with np.errstate(all="ignore"):
                expected = CLIP_FORMULAS[name](values.copy())
                work = values.copy()
                got = BATCHED_ACTIVATIONS[name](work)
            assert got is work, "kernels write their argument in place"
            nan = np.isnan(expected)
            np.testing.assert_array_equal(np.isnan(got), nan)
            np.testing.assert_array_equal(
                got[~nan].view(np.uint64), expected[~nan].view(np.uint64)
            )


#: every activation, and every aggregation weighted towards ``sum`` so
#: layers mix the matmul with per-node reductions
ALL_ACTIVATIONS = sorted(ACTIVATIONS)
MIXED_AGGREGATIONS = ("sum", "sum", "product", "max", "mean", "min")
DAG_CONFIG = NEATConfig(num_inputs=3, num_outputs=3, pop_size=2)


@st.composite
def dag_genomes(draw):
    """A random feed-forward genome: hidden nodes ``3..`` in key order,
    links from inputs or earlier hidden nodes, some disabled; hidden
    nodes that reach no output are pruned by the compiler, and output 2
    may be left with no incoming link."""
    n_hidden = draw(st.integers(0, 8))
    hidden = list(range(3, 3 + n_hidden))
    unit_response = draw(st.booleans())
    genome = Genome(0)
    for node in [0, 1, 2, *hidden]:
        genome.nodes[node] = NodeGene(
            node,
            draw(st.floats(-1.5, 1.5)),
            1.0 if unit_response else draw(st.floats(-1.5, 1.5)),
            draw(st.sampled_from(ALL_ACTIVATIONS)),
            draw(st.sampled_from(MIXED_AGGREGATIONS)),
        )
    sources = [-1, -2, -3, *hidden]
    targets = [*hidden, 0, 1, 2]
    starve_output = draw(st.booleans())
    links = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sources),
                st.sampled_from(targets),
                st.floats(-1.5, 1.5),
                st.sampled_from([True, True, True, False]),
            ),
            max_size=30,
        )
    )
    for source, target, weight, enabled in links:
        feeds_forward = source < 0 or target < 3 or source < target
        if feeds_forward and not (starve_output and target == 2):
            genome.connections[(source, target)] = ConnectionGene(
                (source, target), weight, enabled
            )
    return genome


class TestLayerRunnerProperty:
    @given(
        st.lists(dag_genomes(), min_size=1, max_size=4),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_interpreter_and_stacked_runner(
        self, genomes, batch, obs_seed
    ):
        config = DAG_CONFIG
        rng = np.random.default_rng(obs_seed)
        obs = rng.uniform(-2.0, 2.0, size=(len(genomes), batch, 3))
        plans = [compile_batched(genome, config) for genome in genomes]
        stacked_actions = StackedPopulationNetwork(plans).policy_all(obs)
        for g, (genome, plan) in enumerate(zip(genomes, plans)):
            scalar = FeedForwardNetwork.create(genome, config)
            runner = BatchedFeedForwardNetwork(plan)
            out = runner.activate_batch(obs[g])
            assert out.shape == (batch, config.num_outputs)
            for row, observation in enumerate(obs[g]):
                np.testing.assert_allclose(
                    out[row],
                    scalar.activate(list(observation)),
                    rtol=0.0,
                    atol=TOLERANCE,
                )
            actions = runner.policy_batch(obs[g])
            for row in np.nonzero(actions != stacked_actions[g])[0]:
                # the runners may sum a dot product in different orders:
                # they may only disagree where the top two outputs tie
                top_two = np.sort(out[row])[-2:]
                assert top_two[1] - top_two[0] <= TOLERANCE


class TestEquivalenceSweep:
    def test_random_evolved_genomes_match(self):
        config = rich_config()
        for seed in range(25):
            genome = make_evolved_genome(
                config, seed=seed, mutations=40, key=seed
            )
            obs = np.random.default_rng(seed).uniform(
                -3.0, 3.0, size=(16, config.num_inputs)
            )
            assert_equivalent(genome, config, obs)

    def test_fresh_genomes_match(self, small_config, rng):
        for key in range(10):
            genome = Genome(key)
            genome.configure_new(small_config, rng)
            obs = np.random.default_rng(key).normal(
                size=(8, small_config.num_inputs)
            )
            assert_equivalent(genome, small_config, obs)

    def test_every_aggregation_in_a_hand_built_genome(self):
        config = NEATConfig(num_inputs=2, num_outputs=1, pop_size=2)
        for aggregation in sorted(AGGREGATIONS):
            genome = Genome(0)
            genome.nodes[0] = NodeGene(0, 0.3, 1.0, "identity", "sum")
            genome.nodes[5] = NodeGene(5, -0.2, 1.0, "tanh", aggregation)
            genome.connections[(-1, 5)] = ConnectionGene((-1, 5), 0.7, True)
            genome.connections[(-2, 5)] = ConnectionGene((-2, 5), -1.3, True)
            genome.connections[(5, 0)] = ConnectionGene((5, 0), 2.0, True)
            obs = np.random.default_rng(7).uniform(-2, 2, size=(12, 2))
            assert_equivalent(genome, config, obs)

    def test_zero_fan_in_output_matches(self):
        # an output with no incoming links: sum gives 0, product gives 1
        config = NEATConfig(num_inputs=2, num_outputs=2, pop_size=2)
        genome = Genome(0)
        genome.nodes[0] = NodeGene(0, 0.5, 1.0, "identity", "sum")
        genome.nodes[1] = NodeGene(1, 0.5, 1.0, "identity", "product")
        obs = np.zeros((3, 2))
        assert_equivalent(genome, config, obs)
        batched = BatchedFeedForwardNetwork.create(genome, config)
        out = batched.activate_batch(obs)
        np.testing.assert_allclose(out[0], [0.5, 1.5])


class TestBatchedNetworkApi:
    def test_rejects_wrong_observation_width(self, small_config, genome):
        network = BatchedFeedForwardNetwork.create(genome, small_config)
        with pytest.raises(ValueError):
            network.activate_batch(np.zeros((4, small_config.num_inputs + 1)))
        with pytest.raises(ValueError):
            network.activate([0.0])

    def test_rejects_flat_observations(self, small_config, genome):
        network = BatchedFeedForwardNetwork.create(genome, small_config)
        with pytest.raises(ValueError):
            network.activate_batch(np.zeros(small_config.num_inputs))

    def test_cycle_detection_matches_scalar(self):
        config = NEATConfig(num_inputs=1, num_outputs=1, pop_size=2)
        genome = Genome(0)
        genome.nodes[0] = NodeGene(0, 0.0, 1.0, "tanh", "sum")
        genome.nodes[3] = NodeGene(3, 0.0, 1.0, "tanh", "sum")
        genome.nodes[4] = NodeGene(4, 0.0, 1.0, "tanh", "sum")
        genome.connections[(3, 4)] = ConnectionGene((3, 4), 1.0, True)
        genome.connections[(4, 3)] = ConnectionGene((4, 3), 1.0, True)
        genome.connections[(4, 0)] = ConnectionGene((4, 0), 1.0, True)
        with pytest.raises(ValueError):
            compile_batched(genome, config)

    def test_policy_batch_matches_scalar_policy(self):
        config = rich_config()
        genome = make_evolved_genome(config, seed=3, mutations=40)
        scalar = FeedForwardNetwork.create(genome, config)
        batched = BatchedFeedForwardNetwork.create(genome, config)
        obs = np.random.default_rng(3).uniform(
            -2, 2, size=(32, config.num_inputs)
        )
        actions = batched.policy_batch(obs)
        assert actions.shape == (32,)
        for i, row in enumerate(obs):
            assert int(actions[i]) == scalar.policy(list(row))

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("read_ahead", "not yet written"),
            ("unwritten_output", "no layer writes"),
            ("ungrouped_row", "partition its rows"),
        ],
    )
    def test_rejects_malformed_plans(self, defect, message):
        # the runner's value tensor is uninitialised memory, so a plan
        # (e.g. one decoded off the wire) that would read a slot before
        # any layer writes it, or leave a row without an activation, is
        # refused up front
        config = rich_config()
        plan = compile_batched(
            make_evolved_genome(config, seed=11, mutations=50), config
        )
        assert plan.n_layers >= 2
        if defect == "read_ahead":
            plan.layers[0].weights[0, plan.layers[1].node_slots[0]] = 1.0
        elif defect == "unwritten_output":
            plan.layers.pop()  # the deepest layer holds an output
        else:
            name, rows = plan.layers[0].act_groups[0]
            plan.layers[0].act_groups[0] = (name, rows[1:])
        with pytest.raises(ValueError, match=message):
            BatchedFeedForwardNetwork(plan)

    def test_plan_layers_respect_topology(self):
        config = rich_config()
        genome = make_evolved_genome(config, seed=11, mutations=50)
        plan = compile_batched(genome, config)
        seen = set(range(len(config.input_keys)))
        for layer in plan.layers:
            for row, slot in enumerate(layer.node_slots):
                sources = set(np.nonzero(layer.weights[row])[0].tolist())
                for _r, _agg, src_slots, _w in layer.generic_nodes:
                    if _r == row:
                        sources |= set(src_slots.tolist())
                assert sources <= seen, "layer reads a not-yet-written slot"
            seen |= set(int(s) for s in layer.node_slots)
        assert len(seen) == plan.total_slots


class TestEvaluatorBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            GenomeEvaluator("CartPole-v0", backend="tpu")

    def test_with_backend_round_trip(self):
        evaluator = GenomeEvaluator("CartPole-v0", episodes=2, seed=5)
        batched = evaluator.with_backend("batched")
        assert batched.backend == "batched"
        assert batched.episodes == 2 and batched.seed == 5
        assert evaluator.with_backend("scalar") is evaluator

    @pytest.mark.parametrize("env_id", ["CartPole-v0", "MountainCar-v0"])
    @pytest.mark.parametrize("episodes", [1, 3])
    def test_fitness_results_identical(self, env_id, episodes):
        config = NEATConfig.for_env(env_id)
        scalar_eval = GenomeEvaluator(
            env_id, episodes=episodes, seed=9, backend="scalar"
        )
        batched_eval = GenomeEvaluator(
            env_id, episodes=episodes, seed=9, backend="batched"
        )
        for seed in range(4):
            genome = make_evolved_genome(
                config, seed=seed, mutations=25, key=seed
            )
            for generation in (0, 3):
                scalar_result = scalar_eval.evaluate(
                    genome, config, generation
                )
                batched_result = batched_eval.evaluate(
                    genome, config, generation
                )
                assert scalar_result == batched_result

    def test_max_steps_cap_identical(self):
        config = NEATConfig.for_env("CartPole-v0")
        genome = make_evolved_genome(config, seed=2, mutations=15)
        for max_steps in (1, 7):
            scalar_result = GenomeEvaluator(
                "CartPole-v0", max_steps=max_steps, seed=4
            ).evaluate(genome, config)
            batched_result = GenomeEvaluator(
                "CartPole-v0",
                max_steps=max_steps,
                seed=4,
                backend="batched",
            ).evaluate(genome, config)
            assert scalar_result == batched_result

    def test_evaluate_many_matches_evaluate(self):
        config = NEATConfig.for_env("CartPole-v0")
        genomes = [
            make_evolved_genome(config, seed=s, mutations=15, key=s)
            for s in range(3)
        ]
        evaluator = GenomeEvaluator(
            "CartPole-v0", episodes=2, seed=1, backend="batched"
        )
        many = evaluator.evaluate_many(genomes, config, generation=1)
        for genome in genomes:
            assert many[genome.key] == evaluator.evaluate(
                genome, config, 1
            )
