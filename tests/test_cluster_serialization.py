"""Tests for the genome wire format."""

import hashlib
import struct

import pytest

from repro.cluster.serialization import (
    HEADER_WORDS,
    WORD_BYTES,
    decode_batched_plan,
    decode_genome,
    decode_genomes,
    encode_batched_plan,
    encode_genome,
    encode_genomes,
    genome_stream_bytes,
    genome_wire_bytes,
    genome_wire_floats,
)
from repro.neat.config import NEATConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome
from repro.neat.network import compile_batched
from repro.neat.population import Population

from tests.conftest import make_evolved_genome


@pytest.fixture
def config():
    return NEATConfig(num_inputs=4, num_outputs=2)


def genomes_equal(a: Genome, b: Genome) -> bool:
    return (
        a.key == b.key
        and a.fitness == b.fitness
        and a.nodes == b.nodes
        and set(a.connections) == set(b.connections)
        and all(a.connections[k] == b.connections[k] for k in a.connections)
    )


class TestRoundTrip:
    def test_fresh_genome(self, config, rng):
        genome = Genome(3)
        genome.configure_new(config, rng)
        assert genomes_equal(genome, decode_genome(encode_genome(genome)))

    def test_evolved_genome(self, config):
        genome = make_evolved_genome(config, seed=5, mutations=60, key=11)
        assert genomes_equal(genome, decode_genome(encode_genome(genome)))

    def test_fitness_preserved(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        genome.fitness = -123.456
        assert decode_genome(encode_genome(genome)).fitness == -123.456

    def test_unset_fitness_round_trips_as_none(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        genome.fitness = None
        assert decode_genome(encode_genome(genome)).fitness is None

    def test_disabled_connections_preserved(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        key = next(iter(genome.connections))
        genome.connections[key].enabled = False
        decoded = decode_genome(encode_genome(genome))
        assert not decoded.connections[key].enabled

    def test_bit_exact_weights(self, config):
        # the runtime depends on doubles surviving the round-trip exactly
        genome = make_evolved_genome(config, seed=9, mutations=40)
        decoded = decode_genome(encode_genome(genome))
        for key, gene in genome.connections.items():
            assert decoded.connections[key].weight == gene.weight

    def test_empty_genome(self):
        genome = Genome(7)
        decoded = decode_genome(encode_genome(genome))
        assert decoded.key == 7
        assert not decoded.nodes
        assert not decoded.connections

    def test_encode_is_canonical(self, config):
        # same content, different dict insertion order => same bytes
        genome = make_evolved_genome(config, seed=5, mutations=30)
        reordered = Genome(genome.key)
        reordered.fitness = genome.fitness
        for key in reversed(sorted(genome.nodes)):
            reordered.nodes[key] = genome.nodes[key].copy()
        for key in reversed(sorted(genome.connections)):
            reordered.connections[key] = genome.connections[key].copy()
        assert encode_genome(genome) == encode_genome(reordered)


class TestBatch:
    def test_batch_round_trip(self, config):
        batch = [
            make_evolved_genome(config, seed=i, mutations=20, key=i)
            for i in range(5)
        ]
        decoded = decode_genomes(encode_genomes(batch))
        assert len(decoded) == 5
        for original, copy in zip(batch, decoded):
            assert genomes_equal(original, copy)

    def test_empty_batch(self):
        assert decode_genomes(encode_genomes([])) == []

    def test_trailing_bytes_rejected(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        data = encode_genomes([genome]) + b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            decode_genomes(data)


def mixed_batch() -> list[Genome]:
    """Newborns and evolved genomes, with and without a fitness."""
    config = NEATConfig.for_env("LunarLander-v2", pop_size=6)
    batch = list(Population(config, seed=4).genomes.values())
    batch += [
        make_evolved_genome(config, seed=s, mutations=40, key=100 + s)
        for s in range(3)
    ]
    for i, genome in enumerate(batch):
        genome.fitness = None if i % 3 == 0 else i / 7.0
    return batch


class TestBatchCodecPinned:
    """The batch codec's bytes are canonical and fixed: a digest taken
    from the per-gene codec pins them."""

    BATCH_SHA256 = (
        "126a45a377bb2a67e1359c53da68c6ae63be92c34ee20cae3fbdd70c9a7b6818"
    )

    def test_encoding_is_pinned(self):
        wire = encode_genomes(mixed_batch())
        assert hashlib.sha256(wire).hexdigest() == self.BATCH_SHA256

    def test_round_trip_equal_and_reencodes_identically(self):
        batch = mixed_batch()
        wire = encode_genomes(batch)
        decoded = decode_genomes(wire)
        assert len(decoded) == len(batch)
        for original, copy in zip(batch, decoded):
            assert genomes_equal(original, copy)
            assert encode_genome(copy) == encode_genome(original)
        assert encode_genomes(decoded) == wire

    def test_keys_interned_within_a_batch(self):
        config = NEATConfig.for_env("CartPole-v0", pop_size=4)
        decoded = decode_genomes(
            encode_genomes(list(Population(config, seed=1).genomes.values()))
        )
        first, *rest = decoded
        for genome in rest:
            for key, gene in genome.connections.items():
                assert key is gene.key
                assert gene.key is first.connections[key].key


class TestMalformedBatch:
    """A malformed batch raises ``ValueError`` naming the offset, never
    a bare ``struct.error``."""

    @pytest.fixture
    def wire(self, config, rng):
        batch = []
        for key in range(3):
            genome = Genome(key)
            genome.configure_new(config, rng)
            batch.append(genome)
        return encode_genomes(batch)

    def test_truncated_count_word(self, wire):
        with pytest.raises(ValueError, match="offset 0"):
            decode_genomes(wire[:2])

    def test_truncated_length_word(self, wire):
        first = WORD_BYTES + int.from_bytes(wire[4:8], "little") + 4
        with pytest.raises(ValueError, match=f"offset {first}"):
            decode_genomes(wire[:first + 2])

    def test_overstated_count(self, wire):
        data = (2**31 - 1).to_bytes(4, "little") + wire[4:]
        with pytest.raises(ValueError, match=f"offset {len(wire)}"):
            decode_genomes(data)

    def test_negative_count(self, wire):
        data = (-1).to_bytes(4, "little", signed=True) + wire[4:]
        with pytest.raises(ValueError, match="offset 0"):
            decode_genomes(data)

    def test_overstated_length(self, wire):
        data = wire[:4] + (10**6).to_bytes(4, "little") + wire[8:]
        with pytest.raises(ValueError, match="offset 8"):
            decode_genomes(data)


class TestMalformedPlan:
    """A truncated compiled plan raises ``ValueError`` naming the offset,
    never a bare ``struct.error``: serving replicas decode plans straight
    off the wire."""

    @pytest.fixture
    def wire(self):
        config = NEATConfig.for_env("CartPole-v0", pop_size=8)
        genome = make_evolved_genome(config, seed=3, mutations=120, key=1)
        return encode_batched_plan(compile_batched(genome, config))

    def test_every_truncation_raises_value_error(self, wire):
        for cut in range(len(wire)):
            with pytest.raises(ValueError):
                decode_batched_plan(wire[:cut])

    def test_a_cut_layer_header_names_its_offset(self, wire):
        n_inputs, n_outputs = struct.unpack_from("<ii", wire, 4)
        first_layer = 20 + 4 * (n_inputs + 2 * n_outputs)
        with pytest.raises(ValueError, match=f"offset {first_layer}"):
            decode_batched_plan(wire[:first_layer + 6])


class TestValidation:
    def test_truncated_stream_rejected(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        data = encode_genome(genome)
        with pytest.raises(ValueError):
            decode_genome(data[:-4])

    def test_short_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            decode_genome(b"\x00" * 4)

    def test_negative_gene_counts_rejected(self, config, rng):
        # counts that cancel out to the right length are still refused
        genome = Genome(0)
        genome.configure_new(config, rng)
        data = bytearray(encode_genome(genome))
        n_conns = len(genome.connections)
        data[12:16] = (-5).to_bytes(4, "little", signed=True)
        data[16:20] = (n_conns + 7).to_bytes(4, "little")
        with pytest.raises(ValueError, match="length"):
            decode_genome(bytes(data[:20 + 20 * n_conns]))

    def test_negative_node_key_rejected(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        data = bytearray(encode_genome(genome))
        data[20:24] = (-3).to_bytes(4, "little", signed=True)
        with pytest.raises(ValueError, match="inputs are implicit"):
            decode_genome(bytes(data))

    def test_connection_into_an_input_rejected(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        data = bytearray(encode_genome(genome))
        out_key = 20 + 28 * len(genome.nodes) + 4
        data[out_key:out_key + 4] = (-2).to_bytes(4, "little", signed=True)
        with pytest.raises(ValueError, match="cannot end at an input"):
            decode_genome(bytes(data))

    def test_unknown_aggregation_id_rejected(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        data = bytearray(encode_genome(genome))
        data[20 + 24:20 + 28] = (999).to_bytes(4, "little")
        with pytest.raises(ValueError, match="aggregation id in node 0"):
            decode_genome(bytes(data))


class TestAccounting:
    def test_wire_floats_formula(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        expected = (
            HEADER_WORDS
            + NodeGene.FLOAT_FIELDS * len(genome.nodes)
            + ConnectionGene.FLOAT_FIELDS * len(genome.connections)
        )
        assert genome_wire_floats(genome) == expected

    def test_wire_bytes_is_words_times_four(self, config, rng):
        genome = Genome(0)
        genome.configure_new(config, rng)
        assert genome_wire_bytes(genome) == WORD_BYTES * genome_wire_floats(
            genome
        )

    def test_stream_bytes_matches_encoding(self, config):
        genome = make_evolved_genome(config, seed=2, mutations=25)
        assert genome_stream_bytes(genome) == len(encode_genome(genome))

    def test_wire_floats_grow_with_genes(self, config, rng):
        small = Genome(0)
        small.configure_new(config, rng)
        big = make_evolved_genome(config, seed=3, mutations=60)
        if big.gene_count() > small.gene_count():
            assert genome_wire_floats(big) > genome_wire_floats(small)
