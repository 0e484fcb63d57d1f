"""Property-based tests over protocol engine invariants.

Hypothesis drives cluster sizes and seeds; every drawn configuration must
preserve CLAN's structural invariants (conservation of population, exact
work partitioning, message-accounting consistency).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import CENTER, MessageType
from repro.core.protocols import CLAN_DCS, CLAN_DDA, CLAN_DDS
from repro.neat.config import NEATConfig
from repro.neat.evaluation import FitnessResult

POP = 20
_CONFIG = NEATConfig.for_env("CartPole-v0", pop_size=POP)


class _SyntheticEvaluator:
    """Deterministic arithmetic fitness: fast enough for hypothesis."""

    def evaluate(self, genome, config, generation):
        fitness = float((genome.gene_count() * 13 + generation * 7) % 101)
        return FitnessResult(genome.key, fitness, 3, fitness, False)


def engine_for(protocol_class, n_agents, seed):
    return protocol_class(
        "CartPole-v0",
        n_agents=n_agents,
        config=_CONFIG,
        seed=seed,
        evaluator=_SyntheticEvaluator(),
    )


agents = st.integers(min_value=1, max_value=10)
seeds = st.integers(min_value=0, max_value=10_000)


class TestProtocolInvariants:
    @given(st.sampled_from([CLAN_DCS, CLAN_DDS]), agents, seeds)
    @settings(max_examples=25, deadline=None)
    def test_population_conserved(self, protocol_class, n_agents, seed):
        engine = engine_for(protocol_class, n_agents, seed)
        result = engine.run(max_generations=2, fitness_threshold=1e9)
        for record in result.records:
            assert record.population_size == POP

    @given(agents, seeds)
    @settings(max_examples=25, deadline=None)
    def test_dcs_work_partition_exact(self, n_agents, seed):
        engine = engine_for(CLAN_DCS, n_agents, seed)
        result = engine.run(max_generations=2, fitness_threshold=1e9)
        for record in result.records:
            evaluated = sum(
                load.genomes_evaluated for load in record.agent_loads
            )
            assert evaluated == POP

    @given(st.integers(min_value=1, max_value=POP // 2), seeds)
    @settings(max_examples=25, deadline=None)
    def test_dda_clans_partition_population(self, n_clans, seed):
        engine = engine_for(CLAN_DDA, n_clans, seed)
        engine.run(max_generations=2, fitness_threshold=1e9)
        keys = [key for clan in engine._clans for key in clan.genomes]
        assert len(keys) == len(set(keys)) == POP

    @given(st.sampled_from([CLAN_DCS, CLAN_DDS, CLAN_DDA]), agents, seeds)
    @settings(max_examples=25, deadline=None)
    def test_message_endpoints_valid(self, protocol_class, n_agents, seed):
        if protocol_class is CLAN_DDA and POP < 2 * n_agents:
            return
        engine = engine_for(protocol_class, n_agents, seed)
        result = engine.run(max_generations=2, fitness_threshold=1e9)
        for record in result.records:
            for message in record.messages:
                endpoints = {message.src, message.dst}
                assert CENTER in endpoints
                other = (endpoints - {CENTER}).pop()
                assert 0 <= other < n_agents

    @given(agents, seeds)
    @settings(max_examples=20, deadline=None)
    def test_dda_steady_state_sends_no_genes(self, n_agents, seed):
        if POP < 2 * n_agents:
            return
        engine = engine_for(CLAN_DDA, n_agents, seed)
        result = engine.run(max_generations=3, fitness_threshold=1e9)
        for record in result.records[1:]:
            assert all(m.n_genes == 0 for m in record.messages)

    @given(agents, seeds)
    @settings(max_examples=20, deadline=None)
    def test_fitness_messages_cover_population(self, n_agents, seed):
        engine = engine_for(CLAN_DCS, n_agents, seed)
        result = engine.run(max_generations=1, fitness_threshold=1e9)
        record = result.records[0]
        reported = sum(
            m.n_units
            for m in record.messages
            if m.msg_type is MessageType.SENDING_FITNESS
        )
        assert reported == POP
