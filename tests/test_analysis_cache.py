"""Tests for run caching."""

import pytest

from repro.analysis.cache import RunCache
from repro.core.protocols import SerialNEAT, make_protocol
from repro.neat.config import NEATConfig
from repro.neat.evaluation import GenomeEvaluator
from repro.neat.population import Population

from tests.test_protocol_records import record_digest


@pytest.fixture
def config():
    return NEATConfig.for_env("CartPole-v0", pop_size=16)


def count_calls(monkeypatch, owner, name):
    """Count calls to ``owner.name`` for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestRunCache:
    def test_same_request_returns_same_records(self, config):
        cache = RunCache("CartPole-v0", config, seed=1)
        a = cache.records("CLAN_DCS", 2, 2)
        b = cache.records("CLAN_DCS", 2, 2)
        assert a is b

    def test_sweep_over_n_reuses_evaluations(self, config, monkeypatch):
        cache = RunCache("CartPole-v0", config, seed=1)
        cache.records("CLAN_DCS", 2, 2)
        rollouts = count_calls(monkeypatch, GenomeEvaluator, "evaluate")
        cache.records("CLAN_DCS", 4, 2)
        # identical trajectory at any n: zero new rollouts
        assert not rollouts

    def test_sweep_evolves_once(self, config, monkeypatch):
        generations = 3
        evolutions = count_calls(monkeypatch, Population, "run_generation")
        cache = RunCache("CartPole-v0", config, seed=1)
        cache.records("Serial", 1, generations)
        for protocol in ("CLAN_DCS", "CLAN_DDS"):
            for n in (1, 2, 4):
                cache.records(protocol, n, generations)
        assert len(evolutions) == generations

    @pytest.mark.parametrize(
        "protocol,n", [("Serial", 1), ("CLAN_DCS", 3), ("CLAN_DDS", 3)]
    )
    def test_shorter_and_longer_requests_are_prefixes(
        self, config, protocol, n
    ):
        engine = make_protocol(
            protocol, "CartPole-v0", n_agents=n, config=config, seed=1
        )
        fresh = [
            record_digest(r)
            for r in engine.run(4, fitness_threshold=float("inf")).records
        ]
        for order in ((4, 2), (2, 4)):
            cache = RunCache("CartPole-v0", config, seed=1)
            for generations in order:
                records = cache.records(protocol, n, generations)
                assert [record_digest(r) for r in records] == (
                    fresh[:generations]
                )

    def test_records_match_uncached_engine(self, config):
        cache = RunCache("CartPole-v0", config, seed=1)
        cached_records = cache.records("Serial", 1, 2)
        engine = SerialNEAT("CartPole-v0", config=config, seed=1)
        plain = engine.run(max_generations=2, fitness_threshold=float("inf"))
        assert [r.best_fitness for r in cached_records] == [
            r.best_fitness for r in plain.records
        ]
