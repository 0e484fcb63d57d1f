"""Property-based tests for the wire format."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.serialization import (
    decode_batched_plan,
    decode_genome,
    decode_genomes,
    encode_batched_plan,
    encode_genome,
    encode_genomes,
    genome_stream_bytes,
    genome_wire_floats,
)
from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.network import compile_batched

CONFIG = NEATConfig(num_inputs=4, num_outputs=3, pop_size=10)


@st.composite
def genome_strategy(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    mutations = draw(st.integers(min_value=0, max_value=30))
    fitness_code = draw(st.integers(min_value=-1, max_value=1000))
    rng = random.Random(seed)
    tracker = InnovationTracker(next_node_id=CONFIG.num_outputs)
    genome = Genome(draw(st.integers(min_value=0, max_value=2**20)))
    genome.configure_new(CONFIG, rng)
    for _ in range(mutations):
        genome.mutate(CONFIG, rng, tracker)
    genome.fitness = None if fitness_code < 0 else fitness_code / 7.0
    return genome


class TestRoundTripProperties:
    @given(genome_strategy())
    @settings(max_examples=50, deadline=None)
    def test_decode_inverts_encode(self, genome):
        decoded = decode_genome(encode_genome(genome))
        assert decoded.key == genome.key
        assert decoded.fitness == genome.fitness
        assert decoded.nodes == genome.nodes
        assert set(decoded.connections) == set(genome.connections)
        for key in genome.connections:
            assert decoded.connections[key] == genome.connections[key]

    @given(genome_strategy())
    @settings(max_examples=50, deadline=None)
    def test_stream_length_matches_prediction(self, genome):
        assert len(encode_genome(genome)) == genome_stream_bytes(genome)

    @given(genome_strategy())
    @settings(max_examples=50, deadline=None)
    def test_double_round_trip_is_fixed_point(self, genome):
        once = encode_genome(genome)
        twice = encode_genome(decode_genome(once))
        assert once == twice

    @given(genome_strategy())
    @settings(max_examples=50, deadline=None)
    def test_wire_floats_counts_genes(self, genome):
        # 4 header words + 5 per node + 4 per connection
        expected = (
            4 + 5 * len(genome.nodes) + 4 * len(genome.connections)
        )
        assert genome_wire_floats(genome) == expected

    @given(st.lists(genome_strategy(), max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_batch_round_trip(self, batch):
        decoded = decode_genomes(encode_genomes(batch))
        assert len(decoded) == len(batch)
        for original, copy in zip(batch, decoded):
            assert encode_genome(original) == encode_genome(copy)


class TestMalformedBatchProperties:
    """Any prefix of a batch, or a batch whose count word has one bit
    flipped, raises ``ValueError`` and nothing else."""

    @given(st.lists(genome_strategy(), min_size=3, max_size=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_prefix_raises_value_error(self, batch, data):
        wire = encode_genomes(batch)
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        with pytest.raises(ValueError):
            decode_genomes(wire[:cut])

    @given(
        st.lists(genome_strategy(), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_flipped_count_raises_value_error(self, batch, bit):
        wire = bytearray(encode_genomes(batch))
        wire[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ValueError):
            decode_genomes(bytes(wire))


def _count_offsets(plan) -> list[int]:
    """Byte offsets of every count word in ``encode_batched_plan(plan)``."""
    offsets = [4, 8, 12, 16]  # inputs, outputs, slots, layers
    offset = 20 + 4 * (len(plan.input_keys) + 2 * len(plan.output_keys))
    for layer in plan.layers:
        offsets += [offset, offset + 4, offset + 8]  # nodes, groups, generic
        offset += 12 + 20 * len(layer.node_slots)
        for row in layer.weights:
            offsets.append(offset)  # links of one row
            offset += 4 + 12 * int(np.count_nonzero(row))
        for _, rows in layer.act_groups:
            offsets.append(offset + 4)  # rows of one activation group
            offset += 8 + 4 * len(rows)
        for _, _, src_slots, _ in layer.generic_nodes:
            offsets.append(offset + 8)  # fan-in of one generic node
            offset += 12 + 12 * len(src_slots)
    assert offset == len(encode_batched_plan(plan))
    return offsets


class TestPlanDecodeIsTotal:
    """Whatever a damaged plan stream holds, decoding it raises
    ``ValueError`` and nothing else."""

    @given(genome_strategy())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_every_prefix_raises_value_error(self, genome):
        wire = encode_batched_plan(compile_batched(genome, CONFIG))
        for cut in range(len(wire)):
            with pytest.raises(ValueError):
                decode_batched_plan(wire[:cut])

    @given(genome_strategy(), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_one_flipped_count_bit_raises_value_error(self, genome, data):
        plan = compile_batched(genome, CONFIG)
        offset = data.draw(st.sampled_from(_count_offsets(plan)))
        bit = data.draw(st.integers(min_value=0, max_value=31))
        wire = bytearray(encode_batched_plan(plan))
        wire[offset + bit // 8] ^= 1 << bit % 8
        with pytest.raises(ValueError):
            decode_batched_plan(bytes(wire))
