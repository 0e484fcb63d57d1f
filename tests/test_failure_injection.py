"""Failure injection: the system must fail loudly and cleanly.

Edge deployments see corrupted transfers, dying workers and broken
evaluators; these tests verify each failure surfaces as a clear error at
the right layer instead of silent corruption — and, for the clan
runtime's supervision loop, that a SIGKILLed or stalled clan is respawned
from its checkpoint and the run ends exactly where an undisturbed run
would (see docs/fault_tolerance.md).
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.cluster.runtime import DistributedClanRuntime
from repro.cluster.serialization import (
    decode_genome,
    decode_genomes,
    encode_genome,
    encode_genomes,
)
from repro.cluster.transport import (
    WorkerDied,
    WorkerPool,
    WorkerTimeout,
)
from repro.cluster.worker_clan import WorkerClan
from repro.core.protocols import ProtocolBase, SerialNEAT, make_protocol
from repro.neat.config import NEATConfig
from repro.neat.evaluation import GenomeEvaluator
from repro.neat.population import Population
from repro.utils.rng import RngFactory


@pytest.fixture
def config():
    return NEATConfig.for_env("CartPole-v0", pop_size=10)


class TestCorruptedWireData:
    def test_truncated_genome_rejected(self, config):
        population = Population(config, seed=0)
        data = encode_genome(next(iter(population.genomes.values())))
        for cut in (1, 4, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError):
                decode_genome(data[:cut])

    def test_bit_flip_in_counts_rejected(self, config):
        population = Population(config, seed=0)
        data = bytearray(
            encode_genome(next(iter(population.genomes.values())))
        )
        data[12] ^= 0xFF  # node-count word: length check must fire
        with pytest.raises(ValueError):
            decode_genome(bytes(data))

    def test_invalid_activation_id_rejected(self, config):
        population = Population(config, seed=0)
        genome = next(iter(population.genomes.values()))
        data = bytearray(encode_genome(genome))
        # first node record: activation-id word sits after header(20B) +
        # key(4) + bias(8) + response(8)
        offset = 20 + 4 + 8 + 8
        data[offset:offset + 4] = (10_000).to_bytes(4, "little")
        with pytest.raises(ValueError, match="activation"):
            decode_genome(bytes(data))

    def test_batch_with_garbage_tail_rejected(self, config):
        population = Population(config, seed=0)
        genomes = list(population.genomes.values())[:2]
        data = encode_genomes(genomes) + b"\xde\xad\xbe\xef"
        with pytest.raises(ValueError):
            decode_genomes(data)


class TestWorkerFailures:
    def test_worker_exception_propagates_with_traceback(self, config):
        with WorkerPool(1, "CartPole-v0", config) as pool:
            # a malformed member stream explodes inside the worker's
            # clan_init; the parent re-raises it with the worker traceback
            pool._request(0, "clan_init", {
                "clan_id": 0,
                "n_clans": 1,
                "members_wire": b"junk",
                "rng_seed": 0,
                "next_genome_key": 0,
                "num_outputs": config.num_outputs,
            })
            with pytest.raises(
                RuntimeError, match="worker 0 failed"
            ) as raised:
                pool._collect(0)
        assert "Traceback" in str(raised.value)
        assert "decode_genomes" in str(raised.value)

    def test_unknown_command_surfaces(self, config):
        with WorkerPool(1, "CartPole-v0", config) as pool:
            pool._request(0, "frobnicate", None)
            with pytest.raises(RuntimeError, match="unknown command"):
                pool._collect(0)

    def test_clan_step_before_init_surfaces(self, config):
        with WorkerPool(1, "CartPole-v0", config) as pool:
            pool._request(0, "clan_run", None)
            with pytest.raises(RuntimeError, match="clan_run before"):
                pool._collect(0)

    @pytest.mark.parametrize(
        ("engine", "message"),
        [
            ({"backend": "bogus"}, "unknown backend 'bogus'"),
            (
                {"backend": "scalar", "eval_mode": "population"},
                "requires backend='batched'",
            ),
        ],
    )
    def test_bad_engine_kwargs_raise_before_any_fork(
        self, config, engine, message
    ):
        # the evaluator's own error, not a worker dying at startup
        with pytest.raises(ValueError, match=message):
            DistributedClanRuntime(
                "CartPole-v0", n_clans=2, config=config, **engine
            )
        assert multiprocessing.active_children() == []

    def test_failed_clan_init_shuts_the_pool_down(self, config):
        chaos = ChaosInjector(
            FaultPlan(faults=(Fault("kill", "worker", target=1, at=1),))
        )
        with pytest.raises(WorkerDied):
            DistributedClanRuntime(
                "CartPole-v0", n_clans=2, config=config, chaos=chaos
            )
        assert multiprocessing.active_children() == []


class TestTransportLiveness:
    """Death/hang detection primitives the supervision loop builds on."""

    def test_timeout_on_stalled_worker(self, config):
        with WorkerPool(1, "CartPole-v0", config) as pool:
            pool.send(0, "inject_stall", 60.0)
            pool.send(0, "ping")
            with pytest.raises(WorkerTimeout):
                pool._collect(0, timeout=0.2)
            assert pool.is_alive(0)
            pool.kill(0)  # don't wait a minute for shutdown

    def test_sigkill_surfaces_as_worker_died(self, config):
        with WorkerPool(1, "CartPole-v0", config) as pool:
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            pool._procs[0].join(timeout=5)
            with pytest.raises(WorkerDied):
                # either the send EPIPEs or the collect hits EOF —
                # both must surface as WorkerDied
                pool.send(0, "ping")
                pool._collect(0, timeout=5.0)
            assert not pool.is_alive(0)
            # once marked dead, sends fail fast instead of EPIPE-ing
            with pytest.raises(WorkerDied):
                pool.send(0, "ping")

    def test_wait_any_reports_death_and_excludes_slot(self, config):
        with WorkerPool(2, "CartPole-v0", config) as pool:
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            pool._procs[1].join(timeout=5)
            triples = pool.wait_any(timeout=5.0)
            assert (1, "died", None) in triples
            assert pool.ping(0)
            # the dead slot is excluded from subsequent waits
            assert pool.wait_any(timeout=0.05) == []

    def test_respawn_brings_slot_back(self, config):
        with WorkerPool(1, "CartPole-v0", config) as pool:
            pool.kill(0)
            assert not pool.is_alive(0)
            pool.respawn(0)
            assert pool.is_alive(0)
            assert pool.ping(0)


def _make_clan(config, seed=8):
    """An in-process WorkerClan seeded exactly like a 1-clan runtime."""
    population = Population(config, seed=seed)
    rngs = RngFactory(seed)
    evaluator = GenomeEvaluator(
        "CartPole-v0", seed=rngs.seed_for("episodes") % (2**31)
    )
    members = [population.genomes[key] for key in sorted(population.genomes)]
    return WorkerClan(
        env_id="CartPole-v0",
        config=config,
        evaluator=evaluator,
        clan_id=0,
        n_clans=1,
        members_wire=encode_genomes(members),
        rng_seed=rngs.child("clan:0").root_seed,
        next_genome_key=config.pop_size,
        num_outputs=config.num_outputs,
    )


class TestClanCheckpointRoundTrip:
    """A restored clan must be state-identical, not just similar."""

    def test_restore_preserves_all_evolution_state(self, config):
        original = _make_clan(config)
        for generation in range(2):
            original.run_generation(generation)
        payload = original.checkpoint_payload()
        # the payload must survive a JSON hop (it rides a pipe today but
        # is designed to be dumpable, like population checkpoints)
        payload = json.loads(json.dumps(payload))
        restored = WorkerClan.restore(
            env_id="CartPole-v0",
            config=config,
            evaluator=_make_clan(config).evaluator,
            payload=payload,
        )
        # membership: same genomes, byte-identical
        assert sorted(restored.members) == sorted(original.members)
        assert encode_genomes(
            [restored.members[k] for k in sorted(restored.members)]
        ) == encode_genomes(
            [original.members[k] for k in sorted(original.members)]
        )
        # species: same partition, same history
        assert set(restored.species_set.species) == set(
            original.species_set.species
        )
        for key, species in original.species_set.species.items():
            twin = restored.species_set.species[key]
            assert sorted(twin.members) == sorted(species.members)
            assert twin.created == species.created
            assert twin.last_improved == species.last_improved
            assert twin.fitness_history == species.fitness_history
        assert (
            restored.species_set.genome_to_species
            == original.species_set.genome_to_species
        )
        # allocators and RNG stream root (streams are name-derived, so
        # the root seed IS the stream position)
        assert restored._next_key == original._next_key
        assert (
            restored.innovation.next_node_id
            == original.innovation.next_node_id
        )
        assert restored.rngs.root_seed == original.rngs.root_seed
        assert restored.last_generation == original.last_generation
        assert restored.best_fitness == original.best_fitness

    def test_restored_clan_continues_bit_identically(self, config):
        original = _make_clan(config)
        for generation in range(2):
            original.run_generation(generation)
        restored = WorkerClan.restore(
            env_id="CartPole-v0",
            config=config,
            evaluator=_make_clan(config).evaluator,
            payload=original.checkpoint_payload(),
        )
        for generation in (2, 3):
            a = original.run_generation(generation)
            b = restored.run_generation(generation)
            assert a == b
        assert encode_genomes(
            [original.members[k] for k in sorted(original.members)]
        ) == encode_genomes(
            [restored.members[k] for k in sorted(restored.members)]
        )

    def test_restore_rejects_unknown_version(self, config):
        clan = _make_clan(config)
        payload = clan.checkpoint_payload()
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            WorkerClan.restore(
                env_id="CartPole-v0",
                config=config,
                evaluator=clan.evaluator,
                payload=payload,
            )


@pytest.fixture
def ft_config():
    return NEATConfig.for_env("CartPole-v0", pop_size=24)


def _runtime(ft_config, **kwargs):
    kwargs.setdefault("heartbeat_timeout_s", 30.0)
    kwargs.setdefault("respawn_backoff_s", 0.0)
    return DistributedClanRuntime(
        "CartPole-v0", n_clans=3, config=ft_config, seed=8, **kwargs
    )


class TestRuntimeSupervision:
    """Kill/stall a live clan fleet; the run must recover and match an
    undisturbed run exactly (recovery replays are bit-identical)."""

    BUDGET = 3

    def _baseline_async(self, ft_config):
        with _runtime(ft_config) as runtime:
            stats = runtime.run_async(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
            best = runtime.best_genome()
        assert not stats.churn  # undisturbed: all counters zero
        return stats, best

    def test_async_recovers_from_sigkill(self, ft_config):
        baseline, baseline_best = self._baseline_async(ft_config)
        with _runtime(ft_config) as runtime:
            # SIGKILL before the run: the initial send fails, and the
            # supervisor respawns from the clan_init checkpoint
            os.kill(runtime.pool._procs[1].pid, signal.SIGKILL)
            runtime.pool._procs[1].join(timeout=5)
            stats = runtime.run_async(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
            best = runtime.best_genome()
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 1
        assert stats.churn.clans_lost == 0
        assert stats.per_clan_generations == baseline.per_clan_generations
        assert stats.best_fitness == baseline.best_fitness
        assert encode_genome(best) == encode_genome(baseline_best)

    def test_async_recovers_from_midrun_sigkill(self, ft_config):
        baseline, baseline_best = self._baseline_async(ft_config)
        killed = []

        def kill_once(event):
            if not killed:
                victim = (event.clan_id + 1) % 3
                os.kill(
                    _rt.pool._procs[victim].pid, signal.SIGKILL
                )
                killed.append(victim)

        with _runtime(ft_config) as _rt:
            stats = _rt.run_async(
                max_generations=self.BUDGET,
                fitness_threshold=1e9,
                on_champion=kill_once,
            )
            best = _rt.best_genome()
        assert killed
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 1
        assert stats.per_clan_generations == baseline.per_clan_generations
        assert stats.best_fitness == baseline.best_fitness
        assert encode_genome(best) == encode_genome(baseline_best)

    def test_async_detects_stall_and_recovers(self, ft_config):
        baseline, baseline_best = self._baseline_async(ft_config)
        with _runtime(ft_config, heartbeat_timeout_s=1.0) as runtime:
            # wedge one worker before the run: it never answers clan_run,
            # so only the heartbeat scan can save it
            runtime.pool.send(2, "inject_stall", 120.0)
            stats = runtime.run_async(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
            best = runtime.best_genome()
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 1
        assert stats.per_clan_generations == baseline.per_clan_generations
        assert stats.best_fitness == baseline.best_fitness
        assert encode_genome(best) == encode_genome(baseline_best)

    def test_async_degrades_and_reassigns_budget(self, ft_config):
        with _runtime(ft_config, max_respawns=0) as runtime:
            os.kill(runtime.pool._procs[1].pid, signal.SIGKILL)
            runtime.pool._procs[1].join(timeout=5)
            stats = runtime.run_async(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
            best = runtime.best_genome()  # survivors still answer
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 0
        assert stats.churn.clans_lost == 1
        assert stats.churn.reassigned_generations == self.BUDGET
        assert stats.per_clan_generations[1] == 0
        # the lost clan's budget was handed to a survivor: total local
        # generations still equals clans x budget
        assert sum(stats.per_clan_generations) == 3 * self.BUDGET
        assert best.fitness > float("-inf")

    def test_barrier_run_recovers_from_sigkill(self, ft_config):
        with _runtime(ft_config) as runtime:
            baseline = runtime.run(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
        assert not baseline.churn
        with _runtime(ft_config) as runtime:
            os.kill(runtime.pool._procs[0].pid, signal.SIGKILL)
            runtime.pool._procs[0].join(timeout=5)
            stats = runtime.run(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 1
        # barrier trajectories are arrival-order-free: exact match
        assert (
            stats.best_fitness_per_generation
            == baseline.best_fitness_per_generation
        )

    def test_barrier_run_recovers_from_stall(self, ft_config):
        with _runtime(ft_config) as runtime:
            baseline = runtime.run(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
        with _runtime(ft_config, heartbeat_timeout_s=1.0) as runtime:
            runtime.pool.send(1, "inject_stall", 120.0)
            stats = runtime.run(
                max_generations=self.BUDGET, fitness_threshold=1e9
            )
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 1
        assert (
            stats.best_fitness_per_generation
            == baseline.best_fitness_per_generation
        )


def _in_process(seed):
    """The keyword that hosts a runtime's clans in this process, on the
    evaluator a runtime seeded ``seed`` builds (CLAN_DDA's host)."""
    return {"evaluator": ProtocolBase.default_evaluator("CartPole-v0", seed)}


class TestCheckpointCadence:
    """Both drivers checkpoint after generation ``g`` iff
    ``(g + 1) % checkpoint_period == 0``, however the generations are
    split into calls, on either host: at period 2, a clan killed after
    generations 0-2 resumes from its generation-1 checkpoint and re-runs
    one generation.
    """

    @staticmethod
    def _four_calls(host: str, driver: str, kill: bool):
        with DistributedClanRuntime(
            "CartPole-v0",
            n_clans=2,
            config=NEATConfig.for_env("CartPole-v0", pop_size=16),
            seed=4,
            checkpoint_period=2,
            respawn_backoff_s=0.0,
            **(_in_process(4) if host == "in_process" else {}),
        ) as runtime:
            call = getattr(runtime, driver)
            for _ in range(3):
                call(1, fitness_threshold=1e9)
            if kill and host == "in_process":
                runtime.pool.kill(0)
            elif kill:
                os.kill(runtime.pool._procs[0].pid, signal.SIGKILL)
                runtime.pool._procs[0].join(timeout=5)
            last = call(1, fitness_threshold=1e9)
            best = runtime.best_genome()
            states = runtime.pool.broadcast(
                "clan_checkpoint", [None, None], timeout=30.0
            )
        return last, best, states

    @pytest.mark.parametrize(
        ("host", "driver"),
        [
            pytest.param("fork", "run", id="run"),
            pytest.param("fork", "run_async", id="run_async"),
            pytest.param(
                "in_process", "run", id="in_process-run",
                marks=pytest.mark.lock_check,
            ),
            pytest.param(
                "in_process", "run_async", id="in_process-run_async",
                marks=pytest.mark.lock_check,
            ),
        ],
    )
    def test_kill_after_three_calls_reruns_one_generation(
        self, host, driver
    ):
        baseline, baseline_best, baseline_states = self._four_calls(
            host, driver, kill=False
        )
        stats, best, states = self._four_calls(host, driver, kill=True)
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 1
        assert stats.churn.lost_generations == 1
        assert encode_genome(best) == encode_genome(baseline_best)
        # the last call's trajectory: barrier records, or (async) the
        # per-clan generation counts; arrival order is not compared
        assert stats.records == baseline.records
        assert stats.per_clan_generations == baseline.per_clan_generations
        assert stats.best_fitness == baseline.best_fitness
        assert states == baseline_states


@pytest.mark.lock_check
class TestInProcessHost:
    """The runtime's supervision on the host CLAN_DDA runs on: faults
    are plain calls, with no fork and no sleep."""

    GENERATIONS = 3

    def _run(self, chaos=None):
        with DistributedClanRuntime(
            "CartPole-v0",
            n_clans=3,
            config=NEATConfig.for_env("CartPole-v0", pop_size=24),
            seed=8,
            heartbeat_timeout_s=None,
            respawn_backoff_s=0.0,
            chaos=chaos,
            **_in_process(8),
        ) as runtime:
            stats = runtime.run(self.GENERATIONS, fitness_threshold=1e9)
            return stats, runtime.best_genome()

    def test_kill_on_the_second_clan_run_heals_to_the_undisturbed_run(
        self,
    ):
        baseline, baseline_best = self._run()
        # clan 0's second window is generation 1
        chaos = ChaosInjector(FaultPlan(faults=(
            Fault("kill", "worker", at=2, target=0, kind="clan_run"),
        )))
        stats, best = self._run(chaos)
        assert chaos.faults_fired == 1
        assert (stats.churn.deaths, stats.churn.respawns) == (1, 1)
        assert stats.records == baseline.records
        assert encode_genome(best) == encode_genome(baseline_best)
        # the churn of generation 1 is on its record, and only there
        assert [
            (r.clan_deaths, r.clan_respawns) for r in stats.records
        ] == [(0, 0), (1, 1), (0, 0)]
        assert [
            (r.clan_deaths, r.clan_respawns) for r in baseline.records
        ] == [(0, 0)] * self.GENERATIONS

    def test_records_equal_the_logical_engine(self):
        stats, best = self._run()
        engine = make_protocol(
            "CLAN_DDA", "CartPole-v0", n_agents=3,
            config=NEATConfig.for_env("CartPole-v0", pop_size=24), seed=8,
        )
        result = engine.run(self.GENERATIONS, fitness_threshold=1e9)
        assert result.records == stats.records
        assert encode_genome(engine.best_genome) == encode_genome(best)

    def test_engine_run_reports_the_churn_of_its_own_call(self):
        engine = make_protocol(
            "CLAN_DDA", "CartPole-v0", n_agents=2,
            config=NEATConfig.for_env("CartPole-v0", pop_size=16), seed=4,
        )
        first = engine.run(1, fitness_threshold=1e9)
        engine._runtime.pool.kill(0)
        second = engine.run(2, fitness_threshold=1e9)
        third = engine.run(1, fitness_threshold=1e9)
        assert not first.churn
        assert (second.churn.deaths, second.churn.respawns) == (1, 1)
        assert not third.churn

    @pytest.mark.parametrize("action", ["stall", "drop"])
    def test_unhealable_faults_are_refused_before_any_clan_runs(
        self, action
    ):
        fault = Fault(
            action, "worker", at=2, target=0, kind="clan_run",
            value=1.0 if action == "stall" else 0.0,
        )
        chaos = ChaosInjector(FaultPlan(faults=(fault,)))
        with pytest.raises(ValueError, match=f"{action} worker 0"):
            WorkerPool(
                2, "CartPole-v0", NEATConfig.for_env("CartPole-v0"),
                chaos=chaos, **_in_process(8),
            )
        assert chaos.faults_fired == 0


class TestEvaluatorFailures:
    def test_broken_evaluator_stops_engine(self, config):
        engine = SerialNEAT("CartPole-v0", config=config, seed=0)

        class Broken:
            def evaluate(self, genome, config, generation):
                raise OSError("sensor offline")

        engine.evaluator = Broken()
        with pytest.raises(OSError, match="sensor offline"):
            engine.run_generation()

    def test_partial_results_rejected_by_population(self, config):
        population = Population(config, seed=0)

        def evaluate(genomes, generation):
            from repro.neat.evaluation import FitnessResult

            return {
                g.key: FitnessResult(g.key, 1.0, 1, 1.0, False)
                for g in list(genomes)[:-1]  # drop one
            }

        with pytest.raises(ValueError, match="no fitness"):
            population.run_generation(evaluate)
