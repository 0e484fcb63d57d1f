"""Gateway behaviour: stats, hot-swap between batches, drain-on-close."""

import asyncio
import pickle

import numpy as np
import pytest

from repro.core.metrics import percentile
from repro.neat.config import NEATConfig
from repro.serve import (
    ChampionRegistry,
    InferenceGateway,
    RegistryClosed,
    ServiceClosed,
)
from repro.serve.batcher import LATENCY_WINDOW

from tests.conftest import make_evolved_genome

pytestmark = pytest.mark.lock_check

CONFIG = NEATConfig.for_env("CartPole-v0")


def _registry(n_champions: int = 1) -> ChampionRegistry:
    registry = ChampionRegistry(CONFIG)
    for seed in range(n_champions):
        registry.publish(
            make_evolved_genome(CONFIG, seed=seed, mutations=30, key=seed)
        )
    return registry


class TestStats:
    def test_snapshot_after_traffic(self):
        async def run():
            gateway = InferenceGateway(_registry(), max_batch=8)
            await gateway.start()
            await asyncio.gather(
                *(gateway.submit([0.1, 0.2, 0.3, 0.4]) for _ in range(20))
            )
            stats = gateway.stats()
            await gateway.close()
            return stats

        stats = asyncio.run(run())
        assert stats.requests == stats.served == 20
        assert stats.shed == 0
        assert stats.qps > 0
        assert 0 <= stats.p50_latency_s <= stats.p95_latency_s
        assert sum(
            size * count
            for size, count in stats.batch_size_histogram.items()
        ) == 20
        assert stats.mean_batch_size >= 1.0
        assert stats.champion_version == 1
        assert stats.swaps == 0

    def test_empty_gateway_reports_zeroes(self):
        async def run():
            gateway = InferenceGateway(_registry())
            await gateway.start()
            stats = gateway.stats()
            await gateway.close()
            return stats

        stats = asyncio.run(run())
        assert stats.served == 0
        assert stats.p50_latency_s == 0.0
        assert stats.qps == 0.0
        assert stats.mean_batch_size == 0.0

    def test_percentile_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 95) == 5.0
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0
        assert percentile([], 50) == 0.0
        with pytest.raises(ValueError):
            percentile(samples, 101)

    def test_full_reservoir_pickles_as_a_raw_column(self):
        """A stats reply crosses a replica's pipe pickled: a full
        window costs its 8-byte samples and little else."""
        rows = LATENCY_WINDOW + 1000

        async def run():
            gateway = InferenceGateway(_registry(), max_pending=rows)
            await gateway.start()
            await gateway.enqueue_block(np.zeros((rows, 4)))
            stats = gateway.stats()
            await gateway.close()
            return stats

        stats = asyncio.run(run())
        assert stats.served == rows
        assert len(stats.latency_window) == LATENCY_WINDOW
        wire = pickle.dumps(stats, pickle.HIGHEST_PROTOCOL)
        assert len(wire) <= LATENCY_WINDOW * 8 + 4096
        assert pickle.loads(wire) == stats


class TestHotSwap:
    def test_swap_lands_between_batches(self):
        """Requests after a publish are served by the new version while
        the gateway keeps answering — zero downtime."""

        async def run():
            registry = _registry()
            gateway = InferenceGateway(registry, max_batch=8)
            await gateway.start()
            obs = [0.3, -0.1, 0.2, 0.4]
            before = await gateway.submit(obs)
            registry.publish(
                make_evolved_genome(CONFIG, seed=9, mutations=30, key=9)
            )
            after = await gateway.submit(obs)
            stats = gateway.stats()
            await gateway.close()
            return before, after, stats

        before, after, stats = asyncio.run(run())
        assert before.champion_version == 1
        assert after.champion_version == 2
        assert stats.swaps == 1
        assert stats.champion_version == 2

    def test_whole_batch_shares_one_version(self):
        async def run():
            registry = _registry(n_champions=2)
            gateway = InferenceGateway(registry, max_batch=32)
            await gateway.start()
            results = await asyncio.gather(
                *(gateway.submit([0.0] * 4) for _ in range(12))
            )
            await gateway.close()
            return results

        results = asyncio.run(run())
        batches = {}
        for served in results:
            batches.setdefault(served.batch_size, set()).add(
                served.champion_version
            )
        for versions in batches.values():
            assert len(versions) == 1


class TestDrainOnClose:
    def test_no_accepted_request_is_dropped(self):
        """The satellite fix: close() answers everything accepted before
        the registry shuts — mirroring run_async's stale-message drain."""

        async def run():
            registry = _registry()
            gateway = InferenceGateway(registry, max_batch=4)
            await gateway.start()
            tasks = [
                asyncio.ensure_future(gateway.submit([0.1] * 4))
                for _ in range(50)
            ]
            # requests are queued but mostly unflushed; close must drain
            await asyncio.sleep(0)
            close_task = asyncio.ensure_future(gateway.close())
            results = await asyncio.gather(*tasks)
            await close_task
            return results, registry

        results, registry = asyncio.run(run())
        assert len(results) == 50
        assert all(served.action in (0, 1) for served in results)
        # registry closed only after the drain
        assert registry.closed
        with pytest.raises(RegistryClosed):
            registry.current()

    def test_submit_after_close_rejected(self):
        async def run():
            gateway = InferenceGateway(_registry())
            await gateway.start()
            await gateway.close()
            with pytest.raises(ServiceClosed):
                await gateway.submit([0.0] * 4)

        asyncio.run(run())

    def test_close_is_idempotent(self):
        async def run():
            gateway = InferenceGateway(_registry())
            await gateway.start()
            await gateway.close()
            await gateway.close()

        asyncio.run(run())

    def test_borrowed_registry_stays_open(self):
        async def run():
            registry = _registry()
            gateway = InferenceGateway(registry, close_registry=False)
            await gateway.start()
            await gateway.submit([0.0] * 4)
            await gateway.close()
            return registry

        registry = asyncio.run(run())
        assert not registry.closed
        assert registry.current().version == 1
