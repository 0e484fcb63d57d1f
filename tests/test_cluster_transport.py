"""Tests for the multiprocess worker pool (real transport)."""

import pytest

from repro.cluster.transport import WorkerPool
from repro.core.protocols import ProtocolBase
from repro.neat.config import NEATConfig

pytestmark = pytest.mark.lock_check


@pytest.fixture(scope="module")
def config():
    return NEATConfig.for_env("CartPole-v0", pop_size=12)


@pytest.fixture(scope="module")
def pool(config):
    with WorkerPool(
        3,
        "CartPole-v0",
        config,
        evaluator_seed=ProtocolBase.default_evaluator("CartPole-v0", 4).seed,
    ) as pool:
        yield pool


class TestWorkerPool:
    def test_broadcast_requires_payload_per_worker(self, pool):
        with pytest.raises(ValueError):
            pool.broadcast("clan_step", [0])


class TestLifecycle:
    def test_shutdown_is_idempotent(self, config):
        pool = WorkerPool(2, "CartPole-v0", config)
        pool.shutdown()
        pool.shutdown()

    def test_rejects_zero_workers(self, config):
        with pytest.raises(ValueError):
            WorkerPool(0, "CartPole-v0", config)

    def test_context_manager_cleans_up(self, config):
        with WorkerPool(2, "CartPole-v0", config) as pool:
            procs = list(pool._procs)
        for proc in procs:
            assert not proc.is_alive()
