"""The batched backend through the distributed stack.

Backend choice must never change results — only wall-clock. These tests run
the real multiprocess clan runtime with ``backend="batched"`` and assert
trajectories identical to the scalar backend.
"""

from __future__ import annotations

import pytest

from repro.cluster.runtime import DistributedClanRuntime
from repro.neat.config import NEATConfig


@pytest.fixture
def config() -> NEATConfig:
    return NEATConfig.for_env("CartPole-v0", pop_size=24)


class TestRuntimesBatched:
    def test_distributed_clans_batched_matches_scalar(self, config):
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=5,
            backend="scalar",
        ) as runtime:
            scalar_stats = runtime.run(
                max_generations=2, fitness_threshold=1e9
            )
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=5,
            backend="batched",
        ) as runtime:
            batched_stats = runtime.run(
                max_generations=2, fitness_threshold=1e9
            )
        assert (
            scalar_stats.best_fitness_per_generation
            == batched_stats.best_fitness_per_generation
        )
