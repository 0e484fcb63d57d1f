"""End-to-end continuous serving: evolve in the background, hot-swap
mid-traffic, and keep every served action attributable to (and in exact
agreement with) the champion that served it."""

import asyncio

import pytest

from repro.neat.config import NEATConfig
from repro.serve import (
    ContinuousService,
    LoadGenerator,
    ServiceClosed,
    observation_sampler,
)


@pytest.fixture(scope="module")
def config():
    return NEATConfig.for_env("CartPole-v0", pop_size=24)


def _run_service(config, n_requests=400, rate_hz=400.0, **kwargs):
    """Serve a Poisson load while evolution runs; returns everything the
    assertions need after a clean close."""

    async def run():
        service = ContinuousService(
            "CartPole-v0",
            n_clans=2,
            config=config,
            seed=0,
            max_generations=kwargs.pop("max_generations", 30),
            fitness_threshold=kwargs.pop("fitness_threshold", 1e9),
            max_batch=16,
            **kwargs,
        )
        bootstrap = await service.start()
        generator = LoadGenerator(
            service.submit,
            observation_sampler("CartPole-v0"),
            rate_hz=rate_hz,
            n_requests=n_requests,
            seed=7,
        )
        report = await generator.run()
        stats = service.stats()
        evolution = await service.close()
        return service, bootstrap, report, stats, evolution

    return asyncio.run(run())


class TestContinuousServing:
    @pytest.fixture(scope="class")
    def outcome(self, config):
        return _run_service(config)

    def test_bootstrap_champion_deploys_before_traffic(self, outcome):
        _, bootstrap, _, _, _ = outcome
        assert bootstrap.version == 1
        assert bootstrap.source == "bootstrap"
        assert bootstrap.fitness == float("-inf")

    def test_all_offered_requests_are_served(self, outcome):
        _, _, report, _, _ = outcome
        assert report.served == report.offered
        assert report.shed == 0
        assert report.rejected_closed == 0

    def test_at_least_one_hot_swap_mid_traffic(self, outcome):
        service, _, report, stats, _ = outcome
        assert len(service.promotions) >= 1
        # traffic actually observed more than the bootstrap champion
        assert len(report.distinct_versions) >= 2
        assert report.distinct_versions[0] == 1
        # the snapshot (taken before close) reads the registry's version
        # and swap count under two lock acquisitions, so a promotion may
        # land between them, and more may land before close()
        assert (
            stats.champion_version - 1
            <= stats.swaps
            <= len(service.promotions)
        )

    def test_served_actions_match_then_current_champion(self, outcome):
        """The acceptance criterion: every response equals the scalar
        inference of the exact champion version that served it."""
        service, _, report, _, _ = outcome
        scalar_cache = {}
        for served, obs in zip(report.responses, report.observations):
            version = served.champion_version
            if version not in scalar_cache:
                record = service.registry.record_for(version)
                scalar_cache[version] = record.scalar_network()
            assert served.action == scalar_cache[version].policy(obs)
        assert len(scalar_cache) >= 2

    def test_promotions_have_strictly_increasing_fitness(self, outcome):
        service, _, _, _, _ = outcome
        fitnesses = [
            record.fitness for record, _event in service.promotions
        ]
        assert fitnesses == sorted(fitnesses)
        assert len(set(fitnesses)) == len(fitnesses)
        for record, event in service.promotions:
            assert record.fitness == event.fitness
            assert record.generation == event.generation
            assert record.source == f"clan{event.clan_id}"

    def test_evolution_stats_returned_on_close(self, outcome):
        _, _, _, _, evolution = outcome
        assert evolution is not None
        assert evolution.generations >= 1
        assert len(evolution.champions) >= 1
        assert evolution.champions[-1].fitness == evolution.best_fitness

    def test_stats_snapshot_is_consistent(self, outcome):
        _, _, report, stats, _ = outcome
        assert stats.served == report.served
        assert stats.qps > 0
        assert stats.p50_latency_s <= stats.p95_latency_s
        # traffic need not sample every promoted version, but what it
        # saw is an increasing walk from the bootstrap to the snapshot
        versions = report.distinct_versions
        assert versions[0] == 1
        assert versions == sorted(set(versions))
        assert versions[-1] <= stats.champion_version


class TestServiceLifecycle:
    def test_submit_after_close_rejected(self, config):
        async def run():
            service = ContinuousService(
                "CartPole-v0",
                n_clans=2,
                config=config,
                seed=0,
                max_generations=2,
                fitness_threshold=1e9,
            )
            await service.start()
            await service.submit([0.0] * 4)
            await service.close()
            with pytest.raises(ServiceClosed):
                await service.submit([0.0] * 4)

        asyncio.run(run())

    def test_close_halts_evolution_early(self, config):
        """A service wound down mid-budget stops the clans instead of
        waiting out the full generation budget."""

        async def run():
            service = ContinuousService(
                "CartPole-v0",
                n_clans=2,
                config=config,
                seed=0,
                max_generations=10_000,
                fitness_threshold=1e9,
            )
            await service.start()
            await service.submit([0.0] * 4)
            return await service.close()

        evolution = asyncio.run(run())
        assert evolution is not None
        assert evolution.generations < 10_000

    def test_double_start_rejected(self, config):
        async def run():
            service = ContinuousService(
                "CartPole-v0",
                n_clans=2,
                config=config,
                seed=0,
                max_generations=2,
                fitness_threshold=1e9,
            )
            await service.start()
            with pytest.raises(RuntimeError):
                await service.start()
            await service.close()

        asyncio.run(run())

    def test_conflicting_pop_size_rejected(self, config):
        with pytest.raises(ValueError):
            ContinuousService(
                "CartPole-v0", config=config, pop_size=config.pop_size + 1
            )
