"""The array-native plan compiler and the shared columnar lowering.

``compile_batched`` reads :mod:`repro.neat.arrays`' lowering whether it
is handed a ``Genome`` (lowered on entry) or one view of a block lowered
by the caller, and a :class:`PlanCache` hit fills the cached layout the
same way a miss fills a fresh one — so all routes must agree bit for
bit. (``tests/test_plan_golden.py`` pins those bytes to the compiler
this one replaced.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.serialization import encode_batched_plan
from repro.neat.arrays import lower_population
from repro.neat.config import NEATConfig
from repro.neat.genes import ConnectionGene
from repro.neat.genome import Genome
from repro.neat.network import (
    FeedForwardNetwork,
    PlanCache,
    compile_batched,
    structural_signature,
)

from tests.conftest import make_evolved_genome
from tests.test_plan_cache import assert_plans_identical, weight_only_child

#: every activation group and the non-``sum`` node path get exercised
MIXED = NEATConfig(
    num_inputs=3,
    num_outputs=2,
    pop_size=10,
    allowed_activations=("tanh", "sigmoid", "relu"),
    allowed_aggregations=("sum", "max", "product"),
    activation_mutate_rate=0.3,
    aggregation_mutate_rate=0.3,
    node_add_prob=0.3,
    conn_add_prob=0.5,
    enabled_mutate_rate=0.05,
)

LOWERINGS = {
    "batched": compile_batched,
    "scalar": FeedForwardNetwork.create,
}

seeds = st.integers(min_value=0, max_value=50_000)
mutation_counts = st.integers(min_value=0, max_value=50)


def with_disabled_extras(genome, rng, extras):
    """A copy carrying up to ``extras`` more *disabled* connections."""
    padded = genome.copy(new_key=genome.key + 1000)
    targets = sorted(padded.nodes)
    sources = targets + list(MIXED.input_keys)
    for _ in range(extras):
        key = (rng.choice(sources), rng.choice(targets))
        if key not in padded.connections:
            padded.connections[key] = ConnectionGene(
                key, weight=rng.uniform(-2, 2), enabled=False
            )
    return padded


class TestEveryRouteYieldsTheSamePlan:
    @given(st.lists(st.tuples(seeds, mutation_counts), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_block_views_match_genome_input(self, recipes):
        genomes = [
            make_evolved_genome(MIXED, seed=seed, mutations=count, key=key)
            for key, (seed, count) in enumerate(recipes)
        ]
        views = lower_population(genomes)
        for genome, view in zip(genomes, views):
            from_genome = compile_batched(genome, MIXED)
            from_view = compile_batched(view, MIXED)
            assert_plans_identical(from_view, from_genome)
            assert encode_batched_plan(from_view) == encode_batched_plan(
                from_genome
            )
            assert structural_signature(view, MIXED) == (
                structural_signature(genome, MIXED)
            )

    @given(seeds, mutation_counts, seeds)
    @settings(max_examples=40, deadline=None)
    def test_refill_from_a_weight_only_sibling(self, seed, count, jitter):
        genome = make_evolved_genome(MIXED, seed=seed, mutations=count)
        sibling = weight_only_child(genome, 99, seed=jitter)
        cache = PlanCache()
        compile_batched(sibling, MIXED, cache=cache)
        refilled = compile_batched(genome, MIXED, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert_plans_identical(refilled, compile_batched(genome, MIXED))

    @given(seeds, mutation_counts, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_disabled_connections_do_not_count(self, seed, count, extras):
        genome = make_evolved_genome(MIXED, seed=seed, mutations=count)
        padded = with_disabled_extras(genome, random.Random(seed), extras)
        assert structural_signature(padded, MIXED) == (
            structural_signature(genome, MIXED)
        )
        cache = PlanCache()
        plan = compile_batched(genome, MIXED, cache=cache)
        # the padded genome's connection rows sit at other positions;
        # the refill must still pick the enabled ones
        refilled = compile_batched(padded, MIXED, cache=cache)
        assert cache.hits == 1
        assert_plans_identical(refilled, plan)
        assert_plans_identical(compile_batched(padded, MIXED), plan)


class TestMalformedGenomesRaiseTypedErrors:
    @pytest.fixture
    def genome(self, small_config):
        return make_evolved_genome(small_config, seed=3, mutations=10)

    @pytest.mark.parametrize("lowering", sorted(LOWERINGS))
    def test_missing_source_node(self, lowering, genome, small_config):
        genome.connections[(77, 0)] = ConnectionGene((77, 0), 0.5, True)
        with pytest.raises(ValueError, match=r"\(77, 0\).*node 77"):
            LOWERINGS[lowering](genome, small_config)

    @pytest.mark.parametrize("lowering", sorted(LOWERINGS))
    def test_missing_output_node(self, lowering, genome, small_config):
        del genome.nodes[1]
        with pytest.raises(ValueError, match="output node 1"):
            LOWERINGS[lowering](genome, small_config)

    @pytest.mark.parametrize("lowering", sorted(LOWERINGS))
    def test_cycle(self, lowering, small_config):
        genome = Genome(0)
        genome.configure_new(small_config, random.Random(0))
        for key in (2, 3):
            genome.nodes[key] = genome.nodes[0].copy()
            genome.nodes[key].key = key
        for key in ((2, 3), (3, 2), (3, 0)):
            genome.connections[key] = ConnectionGene(key, 1.0, True)
        with pytest.raises(ValueError, match="cycle"):
            LOWERINGS[lowering](genome, small_config)

    def test_endpoint_outside_the_packed_key_space(
        self, genome, small_config
    ):
        key = (1 << 40, 0)
        genome.connections[key] = ConnectionGene(key, 0.5, False)
        with pytest.raises(ValueError, match="connection endpoints"):
            compile_batched(genome, small_config)


class CountingConfig(NEATConfig):
    """Counts reads of the two key-tuple properties, which build their
    tuple on every access."""

    reads = 0

    @property
    def input_keys(self):
        type(self).reads += 1
        return super().input_keys

    @property
    def output_keys(self):
        type(self).reads += 1
        return super().output_keys


@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
def test_key_tuples_are_read_once_per_lowering_not_per_gene(lowering):
    """A 128-input genome has 768 connections: a per-connection read of
    ``config.input_keys`` (a 128-tuple rebuild) made lowering
    O(inputs x connections). Counted, so it cannot return as a timing
    flake."""
    config = CountingConfig.for_env("Airraid-ram-v0")
    genome = Genome(0)
    genome.configure_new(config, random.Random(0))
    assert len(genome.connections) == 768
    CountingConfig.reads = 0
    LOWERINGS[lowering](genome, config)
    assert CountingConfig.reads <= 6
