"""Tests for the serial NEAT generation loop."""

import pytest

from repro.neat.config import NEATConfig
from repro.neat.evaluation import FitnessResult
from repro.neat.population import Population, summarise_population


def fake_evaluate(genomes, generation):
    """Fitness = genome key modulo prime (deterministic, no env)."""
    return {
        g.key: FitnessResult(
            genome_key=g.key,
            fitness=float(g.key % 17),
            steps=3,
            total_reward=float(g.key % 17),
            solved=False,
        )
        for g in genomes
    }


@pytest.fixture
def config():
    return NEATConfig(num_inputs=3, num_outputs=2, pop_size=30)


class TestConstruction:
    def test_initial_population_size(self, config):
        pop = Population(config, seed=0)
        assert pop.size == config.pop_size

    def test_unique_keys(self, config):
        pop = Population(config, seed=0)
        assert len(set(pop.genomes)) == config.pop_size

    def test_same_seed_same_population(self, config):
        a = Population(config, seed=3)
        b = Population(config, seed=3)
        for key in a.genomes:
            assert a.genomes[key].distance(b.genomes[key], config) == 0.0

    def test_different_seed_different_population(self, config):
        a = Population(config, seed=3)
        b = Population(config, seed=4)
        distances = [
            a.genomes[key].distance(b.genomes[key], config)
            for key in a.genomes
        ]
        assert any(d > 0 for d in distances)


class TestGenerationLoop:
    def test_population_size_invariant(self, config):
        pop = Population(config, seed=0)
        for _ in range(5):
            pop.run_generation(fake_evaluate)
            assert pop.size == config.pop_size

    def test_generation_counter(self, config):
        pop = Population(config, seed=0)
        pop.run_generation(fake_evaluate)
        pop.run_generation(fake_evaluate)
        assert pop.generation == 2

    def test_stats_fields(self, config):
        pop = Population(config, seed=0)
        stats = pop.run_generation(fake_evaluate)
        assert stats.generation == 0
        assert stats.best_fitness == 16.0  # max key % 17
        assert stats.population_size == config.pop_size
        assert stats.n_species >= 1
        assert stats.inference_genes > 0
        assert stats.speciation_genes > 0
        assert stats.reproduction_genes > 0

    def test_inference_genes_counts_steps(self, config):
        pop = Population(config, seed=0)
        evaluated = []

        def recording_evaluate(genomes, generation):
            evaluated.extend(genomes)
            return fake_evaluate(genomes, generation)

        stats = pop.run_generation(recording_evaluate)
        # the gene counts are read before reproduction replaces genomes
        total_genes = sum(genome.gene_count() for genome in evaluated)
        assert stats.inference_genes == total_genes * 3  # 3 steps each

    def test_missing_fitness_rejected(self, config):
        pop = Population(config, seed=0)

        def partial_evaluate(genomes, generation):
            results = fake_evaluate(genomes, generation)
            results.pop(next(iter(results)))
            return results

        with pytest.raises(ValueError, match="no fitness"):
            pop.run_generation(partial_evaluate)

    def test_best_genome_tracked(self, config):
        pop = Population(config, seed=0)
        pop.run_generation(fake_evaluate)
        assert pop.best_genome is not None
        assert pop.best_genome.fitness == 16.0

    def test_best_genome_is_copy(self, config):
        pop = Population(config, seed=0)
        pop.run_generation(fake_evaluate)
        best = pop.best_genome
        pop.run_generation(fake_evaluate)
        # mutating the population later never mutates the stored champion
        assert best.fitness == 16.0

    def test_last_plan_exposed(self, config):
        pop = Population(config, seed=0)
        pop.run_generation(fake_evaluate)
        assert pop.last_plan is not None
        assert pop.last_plan.next_population_size() == config.pop_size

    def test_history_accumulates(self, config):
        pop = Population(config, seed=0)
        pop.run_generation(fake_evaluate)
        pop.run_generation(fake_evaluate)
        assert [s.generation for s in pop.history] == [0, 1]

    def test_run_stops_at_threshold(self, config):
        pop = Population(config, seed=0)
        log = pop.run(fake_evaluate, max_generations=10, fitness_threshold=10)
        assert len(log) == 1  # 16 >= 10 immediately

    def test_run_respects_budget(self, config):
        pop = Population(config, seed=0)
        log = pop.run(
            fake_evaluate, max_generations=4, fitness_threshold=1e9
        )
        assert len(log) == 4


class TestSummarise:
    def test_summarise_population(self, config):
        pop = Population(config, seed=0)
        total, mean, largest = summarise_population(pop.genomes)
        assert total == sum(g.gene_count() for g in pop.genomes.values())
        assert mean == pytest.approx(total / config.pop_size)
        assert largest >= mean
