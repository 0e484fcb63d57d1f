"""Tests for the physically parallel runtimes (processes)."""

import json

import pytest

from repro.cluster.runtime import DistributedClanRuntime
from repro.core.protocols import CLAN_DDA
from repro.neat.config import NEATConfig

from tests.test_protocol_records import (
    GENERATIONS,
    GOLDEN,
    POP,
    SEED,
    case_name,
    record_digest,
)


@pytest.fixture(scope="module")
def config():
    return NEATConfig.for_env("CartPole-v0", pop_size=24)


class TestDistributedClans:
    def test_reproduces_logical_dda(self, config):
        logical_engine = CLAN_DDA(
            "CartPole-v0", n_agents=3, config=config, seed=8
        )
        logical = logical_engine.run(max_generations=3, fitness_threshold=1e9)
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=3, config=config, seed=8
        ) as runtime:
            real = runtime.run(max_generations=3, fitness_threshold=1e9)
            champion = runtime.best_genome()
        assert real.best_fitness_per_generation == [
            record.best_fitness for record in logical.records
        ]
        assert champion.fitness == logical_engine.best_fitness

    @pytest.mark.parametrize("n_clans", [2, 3])
    def test_barrier_run_writes_the_logical_engines_records(self, n_clans):
        golden = json.loads(GOLDEN.read_text())
        with DistributedClanRuntime(
            "CartPole-v0",
            n_clans=n_clans,
            config=NEATConfig.for_env("CartPole-v0", pop_size=POP),
            seed=SEED,
        ) as runtime:
            stats = runtime.run(GENERATIONS, fitness_threshold=1e9)
        assert [record_digest(r) for r in stats.records] == golden[
            case_name("cartpole_multi_step", "CLAN_DDA", n_clans)
        ]

    def test_rejects_too_many_clans(self, config):
        with pytest.raises(ValueError):
            DistributedClanRuntime(
                "CartPole-v0", n_clans=config.pop_size, config=config
            )

    def test_convergence_detection(self, config):
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            stats = runtime.run(max_generations=20, fitness_threshold=30.0)
        assert stats.converged


class TestBarrierFreeClans:
    def test_run_async_converges(self, config):
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=3, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=20, fitness_threshold=30.0
            )
            champion = runtime.best_genome()
        assert stats.converged
        assert stats.best_fitness >= 30.0
        assert champion.fitness >= 30.0

    def test_per_clan_generation_counts(self, config):
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=3, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=2, fitness_threshold=1e9
            )
        assert len(stats.per_clan_generations) == 3
        # budget-bounded run: every clan free-runs its full budget
        assert stats.per_clan_generations == [2, 2, 2]
        assert stats.generations == 2
        # one best-so-far sample per received report
        assert len(stats.best_fitness_per_generation) == 6
        assert stats.best_fitness_per_generation == sorted(
            stats.best_fitness_per_generation
        )

    def test_reaches_same_best_as_barrier_run(self, config):
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=3, config=config, seed=8
        ) as barrier_runtime:
            barrier = barrier_runtime.run(
                max_generations=3, fitness_threshold=1e9
            )
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=3, config=config, seed=8
        ) as async_runtime:
            asynchronous = async_runtime.run_async(
                max_generations=3, fitness_threshold=1e9
            )
        # same clans, same streams: the same best fitness must be found
        assert asynchronous.best_fitness == barrier.best_fitness

    def test_shutdown_drains_free_running_workers(self, config):
        # regression: shutdown during an abandoned free-run used to read
        # a queued progress message as the stop ack, close the pipe under
        # the worker, and hang up to 5s per worker on the join
        import time

        runtime = DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        )
        payload = {
            "start_generation": 0,
            "max_generations": 50,
            "threshold": 1e18,
        }
        for worker in range(2):
            runtime.pool.send(worker, "clan_run", payload)
        time.sleep(0.2)  # let undrained progress messages queue up
        start = time.perf_counter()
        runtime.shutdown()
        assert time.perf_counter() - start < 5.0
        assert all(not p.is_alive() for p in runtime.pool._procs)

    def test_halts_stragglers_after_convergence(self, config):
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=50, fitness_threshold=30.0
            )
        assert stats.converged
        # nobody runs the full budget once a clan has converged
        assert all(g < 50 for g in stats.per_clan_generations)


class TestChampionStreaming:
    """run_async emits champion-changed events instead of only tracking
    best-so-far internally (serving hook + CLI summary both consume it)."""

    def test_events_fire_with_decoded_genomes(self, config):
        events = []
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=4,
                fitness_threshold=1e9,
                on_champion=events.append,
            )
        assert len(events) >= 1
        for event in events:
            assert event.genome.key == event.genome_key
            assert event.genome.fitness == event.fitness
            assert 0 <= event.clan_id < 2
            assert event.generation >= 0
        # the callback saw exactly what the stats collected
        assert stats.champions == events

    def test_event_fitness_is_strictly_increasing_and_global(
        self, config
    ):
        """Clans stream local improvements; the centre must dedupe to
        global ones, ending at the run's best fitness."""
        events = []
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=3, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=5,
                fitness_threshold=1e9,
                on_champion=events.append,
            )
        fitnesses = [event.fitness for event in events]
        assert fitnesses == sorted(fitnesses)
        assert len(set(fitnesses)) == len(fitnesses)
        assert fitnesses[-1] == stats.best_fitness

    def test_no_streaming_without_callback(self, config):
        """Default runs ship no genome traffic and collect no events —
        the wire behaviour older callers rely on."""
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=2, fitness_threshold=1e9
            )
        assert stats.champions == []

    def test_external_stop_halts_clans_early(self, config):
        import threading

        stop = threading.Event()
        events = []

        def stop_after_first_champion(event):
            events.append(event)
            stop.set()

        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=10_000,
                fitness_threshold=1e9,
                on_champion=stop_after_first_champion,
                stop=stop,
            )
        assert events
        assert stats.generations < 10_000
