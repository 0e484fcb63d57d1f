"""Tests for the Genome: construction, mutation, crossover, distance."""

import random

import pytest

from repro.neat.config import NEATConfig
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome, creates_cycle
from repro.neat.innovation import InnovationTracker
from repro.neat.population import Population
from repro.utils.rng import RngFactory

from tests.conftest import make_evolved_genome


class TestCreatesCycle:
    def test_self_loop(self):
        assert creates_cycle([], (1, 1))

    def test_simple_back_edge(self):
        assert creates_cycle([(1, 2)], (2, 1))

    def test_transitive_back_edge(self):
        assert creates_cycle([(1, 2), (2, 3)], (3, 1))

    def test_forward_edge_ok(self):
        assert not creates_cycle([(1, 2), (2, 3)], (1, 3))

    def test_disconnected_ok(self):
        assert not creates_cycle([(1, 2)], (3, 4))


class TestConstruction:
    def test_full_initial_connection(self, small_config, rng):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        expected = small_config.num_inputs * small_config.num_outputs
        assert len(genome.connections) == expected
        assert len(genome.nodes) == small_config.num_outputs

    def test_none_initial_connection(self, rng):
        config = NEATConfig(
            num_inputs=3, num_outputs=2, initial_connection="none"
        )
        genome = Genome(0)
        genome.configure_new(config, rng)
        assert not genome.connections
        assert len(genome.nodes) == 2

    def test_gene_count(self, genome, small_config):
        assert genome.gene_count() == len(genome.nodes) + len(
            genome.connections
        )

    def test_copy_preserves_fitness(self, genome):
        genome.fitness = 5.0
        assert genome.copy().fitness == 5.0

    def test_copy_with_new_key_clears_fitness(self, genome):
        genome.fitness = 5.0
        clone = genome.copy(new_key=99)
        assert clone.key == 99
        assert clone.fitness is None

    def test_copy_deep(self, genome):
        clone = genome.copy()
        first = next(iter(clone.connections.values()))
        first.weight += 10.0
        original = genome.connections[first.key]
        assert original.weight != first.weight


def per_gene_birth(key: int, config: NEATConfig, rng) -> Genome:
    """The reference birth: one ``random`` gene constructor per gene.

    Node genes first (bias, then response, per output key), then one
    weight per connection in (input, output) order.
    """
    genome = Genome(key)
    for out_key in config.output_keys:
        genome.nodes[out_key] = NodeGene.random(out_key, config, rng)
    if config.initial_connection == "full":
        for in_key in config.input_keys:
            for out_key in config.output_keys:
                conn_key = (in_key, out_key)
                genome.connections[conn_key] = ConnectionGene.random(
                    conn_key, config, rng
                )
    return genome


def assert_same_genes(actual: Genome, expected: Genome) -> None:
    assert actual.key == expected.key
    # insertion order too: it is what a newborn's dict iteration yields
    assert list(actual.nodes) == list(expected.nodes)
    assert list(actual.connections) == list(expected.connections)
    for key, gene in expected.nodes.items():
        assert actual.nodes[key] == gene
    for key, gene in expected.connections.items():
        assert actual.connections[key] == gene
        assert type(actual.connections[key].key[0]) is int


#: CartPole, LunarLander and Airraid make an even number of Gaussian
#: draws per birth; 3 inputs x 1 output makes 2 + 3 = 5, so
#: ``random.gauss`` is left holding its cached second value
BIRTH_CONFIGS = {
    "cartpole": NEATConfig.for_env("CartPole-v0"),
    "lunarlander": NEATConfig.for_env("LunarLander-v2"),
    "airraid": NEATConfig.for_env("Airraid-ram-v0"),
    "odd-draws": NEATConfig(num_inputs=3, num_outputs=1),
    "unconnected": NEATConfig(
        num_inputs=5, num_outputs=3, initial_connection="none"
    ),
    # wide init distributions against narrow bounds: many draws clamp
    "clamped": NEATConfig(
        num_inputs=6,
        num_outputs=4,
        weight_init_stdev=5.0,
        weight_min=-1.0,
        weight_max=1.0,
        bias_init_stdev=5.0,
        bias_min=-0.5,
        bias_max=0.5,
    ),
}


class TestBirthExactness:
    """``configure_new`` is draw-for-draw the per-gene reference: same
    genes, same dict order, and the same RNG state afterwards (callers
    such as serving-champion construction keep drawing on it)."""

    @pytest.mark.parametrize("name", sorted(BIRTH_CONFIGS))
    @pytest.mark.parametrize("primed", [False, True])
    def test_matches_per_gene_birth(self, name, primed):
        config = BIRTH_CONFIGS[name]
        reference_rng, rng = random.Random(17), random.Random(17)
        if primed:
            # a pending cached Gaussian must be the first one consumed
            reference_rng.gauss(0.0, 1.0)
            rng.gauss(0.0, 1.0)
        expected = per_gene_birth(5, config, reference_rng)
        genome = Genome(5)
        genome.configure_new(config, rng)
        assert_same_genes(genome, expected)
        assert rng.getstate() == reference_rng.getstate()
        # and the stream goes on identically
        assert rng.gauss(0.0, 1.0) == reference_rng.gauss(0.0, 1.0)

    def test_odd_draw_count_leaves_a_cached_gaussian(self):
        rng = random.Random(3)
        Genome(0).configure_new(BIRTH_CONFIGS["odd-draws"], rng)
        assert rng.getstate()[2] is not None

    @pytest.mark.parametrize("name", ["cartpole", "odd-draws", "unconnected"])
    def test_population_matches_per_gene_birth(self, name):
        config = BIRTH_CONFIGS[name].evolve_with(pop_size=12)
        population = Population(config, seed=8)
        rngs = RngFactory(8)
        assert list(population.genomes) == list(range(12))
        for key, genome in population.genomes.items():
            expected = per_gene_birth(
                key, config, rngs.get(f"genome-init:{key}")
            )
            assert_same_genes(genome, expected)

    def test_population_shares_key_tuples(self):
        config = BIRTH_CONFIGS["lunarlander"].evolve_with(pop_size=3)
        first, second, _ = Population(config, seed=1).genomes.values()
        for key, gene in first.connections.items():
            other = second.connections[key]
            assert gene.key is key
            assert other.key is gene.key
        assert config.input_keys is config.input_keys
        assert config.output_keys is config.output_keys

    def test_clamped_config_reaches_its_bounds(self):
        genome = Genome(0)
        genome.configure_new(BIRTH_CONFIGS["clamped"], random.Random(17))
        weights = {g.weight for g in genome.connections.values()}
        assert {-1.0, 1.0} <= weights


class TestMutations:
    def test_add_node_splits_connection(self, small_config, rng, innovation):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        n_nodes = len(genome.nodes)
        assert genome.mutate_add_node(small_config, rng, innovation)
        assert len(genome.nodes) == n_nodes + 1
        # exactly one connection disabled, two added
        disabled = [
            g for g in genome.connections.values() if not g.enabled
        ]
        assert len(disabled) == 1

    def test_add_node_preserves_initial_behaviour(
        self, small_config, rng, innovation
    ):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        old = dict(genome.connections)
        genome.mutate_add_node(small_config, rng, innovation)
        new_node = max(genome.nodes)
        into = genome.connections[
            next(k for k in genome.connections if k[1] == new_node)
        ]
        out_of = genome.connections[
            next(k for k in genome.connections if k[0] == new_node)
        ]
        split = next(
            g for k, g in genome.connections.items()
            if k in old and not g.enabled
        )
        assert into.weight == 1.0
        assert out_of.weight == split.weight

    def test_add_node_on_empty_genome_fails(self, rng, innovation):
        config = NEATConfig(
            num_inputs=2, num_outputs=1, initial_connection="none"
        )
        genome = Genome(0)
        genome.configure_new(config, rng)
        assert not genome.mutate_add_node(config, rng, innovation)

    def test_delete_node_removes_incident_connections(
        self, small_config, rng, innovation
    ):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        genome.mutate_add_node(small_config, rng, innovation)
        hidden = max(genome.nodes)
        # force deletion of the hidden node by removing others from play
        deleted = False
        for _ in range(50):
            if genome.mutate_delete_node(small_config, rng):
                deleted = True
                break
        assert deleted
        assert hidden not in genome.nodes
        assert all(hidden not in key for key in genome.connections)

    def test_delete_node_never_removes_outputs(self, small_config, rng):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        assert not genome.mutate_delete_node(small_config, rng)
        for key in small_config.output_keys:
            assert key in genome.nodes

    def test_add_connection_no_duplicates(self, small_config, rng):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        before = set(genome.connections)
        for _ in range(100):
            genome.mutate_add_connection(small_config, rng)
        after = set(genome.connections)
        assert before <= after
        assert len(after) == len(set(after))

    def test_add_connection_never_creates_cycle(
        self, small_config, rng, innovation
    ):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        for _ in range(200):
            genome.mutate_add_node(small_config, rng, innovation)
            genome.mutate_add_connection(small_config, rng)
        enabled = [g.key for g in genome.connections.values()]
        for key in enabled:
            others = [k for k in enabled if k != key]
            assert not creates_cycle(others, key)

    def test_delete_connection(self, small_config, rng):
        genome = Genome(0)
        genome.configure_new(small_config, rng)
        n = len(genome.connections)
        assert genome.mutate_delete_connection(small_config, rng)
        assert len(genome.connections) == n - 1

    def test_delete_connection_on_empty(self, rng):
        config = NEATConfig(
            num_inputs=2, num_outputs=1, initial_connection="none"
        )
        genome = Genome(0)
        genome.configure_new(config, rng)
        assert not genome.mutate_delete_connection(config, rng)

    def test_single_structural_mutation_mode(self, rng, innovation):
        config = NEATConfig(
            num_inputs=3,
            num_outputs=2,
            single_structural_mutation=True,
            node_add_prob=1.0,
            conn_add_prob=1.0,
            node_delete_prob=1.0,
            conn_delete_prob=1.0,
        )
        genome = Genome(0)
        genome.configure_new(config, rng)
        before_nodes = len(genome.nodes)
        before_conns = len(genome.connections)
        genome.mutate(config, rng, innovation)
        node_delta = abs(len(genome.nodes) - before_nodes)
        conn_delta = abs(len(genome.connections) - before_conns)
        # a single structural change: at most one node added/removed (add
        # node also adds two connections)
        assert node_delta <= 1


class TestCrossover:
    def test_requires_fitness(self, small_config, rng):
        a = Genome(0)
        a.configure_new(small_config, rng)
        b = Genome(1)
        b.configure_new(small_config, rng)
        with pytest.raises(ValueError):
            Genome.crossover(2, a, b, rng)

    def test_requires_fitter_first(self, genome_pair, rng):
        fit, unfit = genome_pair
        with pytest.raises(ValueError):
            Genome.crossover(2, unfit, fit, rng)

    def test_child_keys_subset_of_fitter_parent(self, small_config, rng):
        fit = make_evolved_genome(small_config, seed=1, key=0)
        unfit = make_evolved_genome(small_config, seed=2, key=1)
        fit.fitness, unfit.fitness = 3.0, 1.0
        child = Genome.crossover(2, fit, unfit, rng)
        assert set(child.nodes) == set(fit.nodes)
        assert set(child.connections) == set(fit.connections)

    def test_matching_gene_attributes_from_either_parent(
        self, genome_pair, rng
    ):
        fit, unfit = genome_pair
        key = next(iter(fit.connections))
        weights = set()
        for i in range(50):
            child = Genome.crossover(2, fit, unfit, random.Random(i))
            weights.add(child.connections[key].weight)
        assert weights == {
            fit.connections[key].weight,
            unfit.connections[key].weight,
        }

    def test_child_has_requested_key(self, genome_pair, rng):
        fit, unfit = genome_pair
        child = Genome.crossover(42, fit, unfit, rng)
        assert child.key == 42
        assert child.fitness is None


class TestDistance:
    def test_self_distance_zero(self, genome, small_config):
        assert genome.distance(genome, small_config) == 0.0

    def test_symmetric(self, small_config, rng):
        a = make_evolved_genome(small_config, seed=1, key=0)
        b = make_evolved_genome(small_config, seed=2, key=1)
        assert a.distance(b, small_config) == pytest.approx(
            b.distance(a, small_config)
        )

    def test_disjoint_genes_increase_distance(self, small_config, rng):
        a = Genome(0)
        a.configure_new(small_config, rng)
        b = a.copy(new_key=1)
        base = a.distance(b, small_config)
        tracker = InnovationTracker(next_node_id=small_config.num_outputs)
        b.mutate_add_node(small_config, rng, tracker)
        assert a.distance(b, small_config) > base

    def test_weight_difference_increases_distance(self, small_config, rng):
        a = Genome(0)
        a.configure_new(small_config, rng)
        b = a.copy(new_key=1)
        key = next(iter(b.connections))
        b.connections[key].weight += 5.0
        assert a.distance(b, small_config) > 0.0

    def test_identical_structures_zero_distance(self, small_config, rng):
        a = Genome(0)
        a.configure_new(small_config, rng)
        b = a.copy(new_key=1)
        assert a.distance(b, small_config) == 0.0


class TestBookkeeping:
    def test_complexity(self, genome):
        nodes, enabled = genome.complexity()
        assert nodes == len(genome.nodes)
        assert enabled <= len(genome.connections)

    def test_max_node_id(self, genome, small_config):
        assert genome.max_node_id() == max(small_config.output_keys)

    def test_max_node_id_empty(self):
        assert Genome(0).max_node_id() == -1
