"""Round-trip tests for the compiled batched-plan wire format.

``encode_batched_plan`` / ``decode_batched_plan`` must reproduce the plan
exactly: a serving replica evaluating a decoded plan gets bit-identical
outputs to the registry evaluating the original, which is what lets the
fleet ship plans instead of recompiling on every replica.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.serialization import (
    decode_batched_plan,
    encode_batched_plan,
)
from repro.neat.activations import ACTIVATIONS
from repro.neat.aggregations import AGGREGATIONS
from repro.neat.config import NEATConfig
from repro.neat.network import BatchedFeedForwardNetwork, compile_batched

from tests.conftest import make_evolved_genome


def rich_config() -> NEATConfig:
    return NEATConfig(
        num_inputs=4,
        num_outputs=3,
        pop_size=20,
        node_add_prob=0.4,
        conn_add_prob=0.5,
        activation_mutate_rate=0.3,
        aggregation_mutate_rate=0.3,
        allowed_activations=tuple(sorted(ACTIVATIONS)),
        allowed_aggregations=tuple(sorted(AGGREGATIONS)),
    )


def assert_plans_equal(original, decoded) -> None:
    assert decoded.input_keys == original.input_keys
    assert decoded.output_keys == original.output_keys
    assert decoded.total_slots == original.total_slots
    np.testing.assert_array_equal(
        decoded.output_slots, original.output_slots
    )
    assert decoded.n_layers == original.n_layers
    for got, want in zip(decoded.layers, original.layers):
        np.testing.assert_array_equal(got.node_slots, want.node_slots)
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.bias, want.bias)
        np.testing.assert_array_equal(got.response, want.response)
        assert len(got.act_groups) == len(want.act_groups)
        for (got_name, got_rows), (want_name, want_rows) in zip(
            got.act_groups, want.act_groups
        ):
            assert got_name == want_name
            np.testing.assert_array_equal(got_rows, want_rows)
        assert len(got.generic_nodes) == len(want.generic_nodes)
        for got_node, want_node in zip(got.generic_nodes, want.generic_nodes):
            assert got_node[0] == want_node[0]
            assert got_node[1] == want_node[1]
            np.testing.assert_array_equal(got_node[2], want_node[2])
            np.testing.assert_array_equal(got_node[3], want_node[3])


class TestPlanRoundTrip:
    def test_structure_survives_round_trip(self):
        config = rich_config()
        for seed in range(8):
            plan = compile_batched(
                make_evolved_genome(config, seed=seed, mutations=45), config
            )
            assert_plans_equal(plan, decode_batched_plan(
                encode_batched_plan(plan)
            ))

    def test_decoded_plan_outputs_bit_identical(self):
        config = rich_config()
        for seed in range(8):
            genome = make_evolved_genome(config, seed=seed, mutations=45)
            plan = compile_batched(genome, config)
            decoded = decode_batched_plan(encode_batched_plan(plan))
            obs = np.random.default_rng(seed).uniform(
                -3, 3, size=(16, config.num_inputs)
            )
            original_out = BatchedFeedForwardNetwork(plan).activate_batch(obs)
            decoded_out = BatchedFeedForwardNetwork(decoded).activate_batch(
                obs
            )
            # bit-identical, not merely close: same arrays, same op order
            np.testing.assert_array_equal(decoded_out, original_out)

    def test_minimal_unconnected_genome(self, small_config, rng):
        from repro.neat.genome import Genome

        genome = Genome(0)
        genome.configure_new(
            small_config.evolve_with(initial_connection="none"), rng
        )
        plan = compile_batched(genome, small_config)
        decoded = decode_batched_plan(encode_batched_plan(plan))
        assert_plans_equal(plan, decoded)
        obs = np.ones((2, small_config.num_inputs))
        np.testing.assert_array_equal(
            BatchedFeedForwardNetwork(decoded).activate_batch(obs),
            BatchedFeedForwardNetwork(plan).activate_batch(obs),
        )


class TestPlanStreamValidation:
    def test_truncated_stream_rejected(self):
        config = rich_config()
        plan = compile_batched(
            make_evolved_genome(config, seed=0, mutations=20), config
        )
        data = encode_batched_plan(plan)
        with pytest.raises(ValueError):
            decode_batched_plan(data[:4])

    def test_bad_magic_rejected(self):
        config = rich_config()
        plan = compile_batched(
            make_evolved_genome(config, seed=0, mutations=20), config
        )
        data = bytearray(encode_batched_plan(plan))
        data[0] ^= 0xFF
        with pytest.raises(ValueError):
            decode_batched_plan(bytes(data))

    def test_trailing_bytes_rejected(self):
        config = rich_config()
        plan = compile_batched(
            make_evolved_genome(config, seed=0, mutations=20), config
        )
        with pytest.raises(ValueError):
            decode_batched_plan(encode_batched_plan(plan) + b"\x00")
