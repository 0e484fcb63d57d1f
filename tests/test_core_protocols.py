"""Tests for the CLAN protocol engines — the heart of the reproduction."""

import pytest

from repro.cluster.serialization import encode_genome
from repro.core.messages import MessageType
from repro.core.protocols import (
    CLAN_DCS,
    CLAN_DDA,
    CLAN_DDS,
    SerialNEAT,
    available_protocols,
    make_protocol,
)
from repro.neat.config import NEATConfig

ENV = "CartPole-v0"
GENS = 3


@pytest.fixture(scope="module")
def config():
    return NEATConfig.for_env(ENV, pop_size=32)


def population_bytes(population):
    return b"".join(
        encode_genome(population[key]) for key in sorted(population)
    )


@pytest.fixture(scope="module")
def runs(config):
    """One short run of every protocol with a shared seed."""
    out = {}
    for name, n in (
        ("Serial", 1),
        ("CLAN_DCS", 4),
        ("CLAN_DDS", 4),
        ("CLAN_DDA", 4),
    ):
        engine = make_protocol(name, ENV, n_agents=n, config=config, seed=21)
        result = engine.run(max_generations=GENS, fitness_threshold=1e9)
        out[name] = (engine, result)
    return out


class TestEquivalence:
    """Distribution changes placement, not the algorithm."""

    def test_dcs_population_identical_to_serial(self, runs):
        serial, _ = runs["Serial"]
        dcs, _ = runs["CLAN_DCS"]
        assert population_bytes(serial.population.genomes) == (
            population_bytes(dcs.population.genomes)
        )

    def test_dds_population_identical_to_serial(self, runs):
        serial, _ = runs["Serial"]
        dds, _ = runs["CLAN_DDS"]
        assert population_bytes(serial.population.genomes) == (
            population_bytes(dds.population.genomes)
        )

    def test_fitness_trajectories_identical(self, runs):
        fitness = {
            name: [r.best_fitness for r in result.records]
            for name, (_e, result) in runs.items()
        }
        assert fitness["Serial"] == fitness["CLAN_DCS"] == fitness["CLAN_DDS"]

    def test_dcs_identical_across_cluster_sizes(self, config):
        populations = []
        for n in (2, 5):
            engine = CLAN_DCS(ENV, n_agents=n, config=config, seed=21)
            engine.run(max_generations=2, fitness_threshold=1e9)
            populations.append(population_bytes(engine.population.genomes))
        assert populations[0] == populations[1]


class TestSerial:
    def test_no_messages(self, runs):
        _, result = runs["Serial"]
        assert all(not record.messages for record in result.records)

    def test_all_compute_on_single_agent(self, runs):
        _, result = runs["Serial"]
        for record in result.records:
            assert len(record.agent_loads) == 1
            load = record.agent_loads[0]
            assert load.inference_gene_ops > 0
            assert load.speciation_gene_ops > 0
            assert load.reproduction_gene_ops > 0

    def test_rejects_multiple_agents(self, config):
        with pytest.raises(ValueError):
            SerialNEAT(ENV, config=config, n_agents=2)


class TestDCS:
    def test_inference_distributed_across_agents(self, runs):
        _, result = runs["CLAN_DCS"]
        for record in result.records:
            active = [
                load for load in record.agent_loads
                if load.inference_gene_ops > 0
            ]
            assert len(active) == record.n_agents

    def test_evolution_stays_central(self, runs):
        _, result = runs["CLAN_DCS"]
        for record in result.records:
            assert record.center_speciation_gene_ops > 0
            assert record.center_reproduction_gene_ops > 0
            for load in record.agent_loads:
                assert load.reproduction_gene_ops == 0
                assert load.speciation_gene_ops == 0

    def test_messages_are_genomes_down_fitness_up(self, runs):
        _, result = runs["CLAN_DCS"]
        for record in result.records:
            types = {m.msg_type for m in record.messages}
            assert types == {
                MessageType.SENDING_GENOMES,
                MessageType.SENDING_FITNESS,
            }

    def test_genomes_shipped_every_generation(self, runs):
        _, result = runs["CLAN_DCS"]
        for record in result.records:
            genome_floats = sum(
                m.n_genes
                for m in record.messages
                if m.msg_type is MessageType.SENDING_GENOMES
            )
            assert genome_floats > 0

    def test_load_balanced_within_one_genome(self, runs, config):
        _, result = runs["CLAN_DCS"]
        for record in result.records:
            counts = [
                load.genomes_evaluated for load in record.agent_loads
            ]
            assert max(counts) - min(counts) <= 1
            assert sum(counts) == config.pop_size


class TestDDS:
    def test_children_formed_on_agents(self, runs):
        _, result = runs["CLAN_DDS"]
        for record in result.records:
            distributed = sum(
                load.reproduction_gene_ops for load in record.agent_loads
            )
            assert distributed > 0
            assert record.center_reproduction_gene_ops == 0

    def test_speciation_stays_central(self, runs):
        _, result = runs["CLAN_DDS"]
        for record in result.records:
            assert record.center_speciation_gene_ops > 0
            for load in record.agent_loads:
                assert load.speciation_gene_ops == 0

    def test_children_shipped_back_for_speciation(self, runs):
        _, result = runs["CLAN_DDS"]
        for record in result.records:
            children = sum(
                m.n_genes
                for m in record.messages
                if m.msg_type is MessageType.SENDING_CHILDREN
            )
            assert children > 0

    def test_plan_messages_present(self, runs):
        _, result = runs["CLAN_DDS"]
        for record in result.records:
            types = {m.msg_type for m in record.messages}
            assert MessageType.SENDING_SPAWN_COUNT in types
            assert MessageType.SENDING_PARENT_LIST in types

    def test_initial_distribution_only_once(self, runs):
        _, result = runs["CLAN_DDS"]
        first = result.records[0]
        genome_msgs = [
            m
            for m in first.messages
            if m.msg_type is MessageType.SENDING_GENOMES
        ]
        assert genome_msgs
        for record in result.records[1:]:
            assert not any(
                m.msg_type is MessageType.SENDING_GENOMES
                for m in record.messages
            )

    def test_comm_cost_exceeds_dcs(self, runs):
        # the paper's key DDS observation (Fig 4): naive distribution of
        # reproduction *increases* communication
        _, dcs = runs["CLAN_DCS"]
        _, dds = runs["CLAN_DDS"]
        assert (
            dds.mean_comm_floats_per_generation()
            > dcs.mean_comm_floats_per_generation()
        )


class TestDDA:
    def test_genomes_cross_network_only_at_init(self, runs):
        _, result = runs["CLAN_DDA"]
        for record in result.records[1:]:
            for message in record.messages:
                assert message.n_genes == 0, (
                    "genome payload after generation 0"
                )

    def test_only_fitness_after_init(self, runs):
        _, result = runs["CLAN_DDA"]
        for record in result.records[1:]:
            types = {m.msg_type for m in record.messages}
            assert types == {MessageType.SENDING_FITNESS}

    def test_lowest_communication(self, runs):
        _, dcs = runs["CLAN_DCS"]
        _, dds = runs["CLAN_DDS"]
        _, dda = runs["CLAN_DDA"]
        assert (
            dda.mean_comm_floats_per_generation()
            < dcs.mean_comm_floats_per_generation()
            < dds.mean_comm_floats_per_generation()
        )

    def test_clans_partition_population(self, config):
        engine = CLAN_DDA(ENV, n_agents=4, config=config, seed=21)
        assert sum(engine.clan_sizes) == config.pop_size
        assert max(engine.clan_sizes) - min(engine.clan_sizes) <= 1

    def test_all_evolution_on_agents(self, runs):
        _, result = runs["CLAN_DDA"]
        for record in result.records:
            assert record.center_speciation_gene_ops == 0
            assert record.center_reproduction_gene_ops == 0
            assert any(
                load.speciation_gene_ops > 0 for load in record.agent_loads
            )

    def test_genome_keys_never_collide_across_clans(self, config):
        engine = CLAN_DDA(ENV, n_agents=4, config=config, seed=21)
        engine.run(max_generations=4, fitness_threshold=1e9)
        all_keys = [
            key for clan in engine._clans for key in clan.genomes
        ]
        assert len(all_keys) == len(set(all_keys))

    def test_node_ids_never_collide_across_clans(self, config):
        engine = CLAN_DDA(ENV, n_agents=3, config=config, seed=21)
        engine.run(max_generations=5, fitness_threshold=1e9)
        hidden_owner = {}
        for clan in engine._clans:
            for genome in clan.genomes.values():
                for node_id in genome.nodes:
                    if node_id < config.num_outputs:
                        continue  # outputs shared by construction
                    owner = hidden_owner.setdefault(node_id, clan.clan_id)
                    assert owner == clan.clan_id

    def test_rejects_too_many_clans(self, config):
        with pytest.raises(ValueError):
            CLAN_DDA(ENV, n_agents=config.pop_size, config=config)


class TestDDAResync:
    def test_resync_ships_genomes_again(self, config):
        engine = CLAN_DDA(
            ENV, n_agents=4, config=config, seed=21, resync_period=2
        )
        result = engine.run(max_generations=4, fitness_threshold=1e9)
        resync_record = result.records[2]
        types = {m.msg_type for m in resync_record.messages}
        assert MessageType.SENDING_CHILDREN in types  # gather
        assert MessageType.SENDING_GENOMES in types  # redistribute

    def test_resync_preserves_population_size(self, config):
        engine = CLAN_DDA(
            ENV, n_agents=4, config=config, seed=21, resync_period=2
        )
        engine.run(max_generations=5, fitness_threshold=1e9)
        assert sum(engine.clan_sizes) == config.pop_size

    def test_invalid_period_rejected(self, config):
        with pytest.raises(ValueError):
            CLAN_DDA(ENV, n_agents=2, config=config, resync_period=0)


class TestRunControl:
    def test_convergence_stops_run(self, config):
        engine = SerialNEAT(ENV, config=config, seed=21)
        result = engine.run(max_generations=50, fitness_threshold=20.0)
        assert result.converged
        assert result.generations_to_converge == result.generations

    def test_default_threshold_is_gym_criterion(self, config):
        engine = SerialNEAT(ENV, config=config, seed=21)
        assert engine.solved_threshold == 195.0

    def test_records_accumulate_on_engine(self, runs):
        engine, result = runs["CLAN_DCS"]
        assert len(engine.records) == len(result.records)

    def test_best_genome_tracked(self, runs):
        engine, result = runs["CLAN_DDA"]
        assert engine.best_genome is not None
        assert engine.best_genome.fitness == result.best_fitness


class TestCostCounters:
    """Fig 3c counters surfaced on records and the run summary."""

    def test_records_carry_speciation_comparisons(self, runs):
        for name, (_engine, result) in runs.items():
            for record in result.records:
                assert record.speciation_comparisons > 0, name

    def test_run_result_aggregates(self, runs):
        _, result = runs["Serial"]
        assert result.total_speciation_comparisons() == sum(
            r.speciation_comparisons for r in result.records
        )
        assert result.total_speciation_gene_ops() == sum(
            r.total_speciation_gene_ops() for r in result.records
        )
        assert result.final_n_species() == result.records[-1].n_species

    def test_scalar_run_reports_no_plan_cache_traffic(self, runs):
        _, result = runs["Serial"]
        assert result.plan_cache_hits == 0
        assert result.plan_cache_misses == 0
        assert result.plan_cache_hit_rate() == 0.0

    def test_batched_run_reports_plan_cache_traffic(self, config):
        engine = SerialNEAT(ENV, config=config, seed=21, backend="batched")
        result = engine.run(max_generations=2, fitness_threshold=1e9)
        assert result.plan_cache_misses > 0
        assert (
            result.plan_cache_hits + result.plan_cache_misses
            >= 2 * config.pop_size
        )
        assert 0.0 <= result.plan_cache_hit_rate() <= 1.0

    def test_dda_sums_comparisons_over_clans(self, config):
        engine = CLAN_DDA(ENV, n_agents=4, config=config, seed=21)
        record = engine.run_generation()
        assert record.speciation_comparisons > 0


class TestVectorizedGeneticsEquivalence:
    """The engine switch changes execution, not the speciation result."""

    def test_generation_zero_partition_matches_scalar(self, config):
        scalar = SerialNEAT(ENV, config=config, seed=21)
        vectorized = SerialNEAT(
            ENV,
            config=config.evolve_with(genetics="vectorized"),
            seed=21,
        )
        record_s = scalar.run_generation()
        record_v = vectorized.run_generation()
        # identical initial population -> identical fitness, species
        # partition and comparison counts; broods diverge only in
        # attribute draws afterwards
        assert record_v.best_fitness == record_s.best_fitness
        assert record_v.n_species == record_s.n_species
        assert (
            record_v.speciation_comparisons
            == record_s.speciation_comparisons
        )
        assert (
            scalar.population.species_set.genome_to_species
            == vectorized.population.species_set.genome_to_species
        )


class TestFactory:
    def test_available_protocols(self):
        assert set(available_protocols()) == {
            "Serial",
            "CLAN_DCS",
            "CLAN_DDS",
            "CLAN_DDA",
        }

    def test_unknown_protocol(self):
        with pytest.raises(KeyError, match="CLAN_DCS"):
            make_protocol("CLAN_XXX", ENV)

    def test_factory_builds_each(self, config):
        for name in available_protocols():
            engine = make_protocol(
                name, ENV, n_agents=2, config=config, seed=0
            )
            assert engine.name == name
