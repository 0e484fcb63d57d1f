"""The chaos plane: plans, the injector, and end-to-end determinism.

The determinism contract under test (docs/chaos.md):

- a plan with no faults perturbs nothing — running with an empty plan
  is byte-identical to running without the chaos plane at all;
- the same plan against the same workload seed fires the same faults at
  the same protocol events, and the healing machinery recovers to a
  byte-identical champion (supervision replays are exact).
"""

import pytest

from repro.chaos import ChaosInjector, Fault, FaultPlan, parse_fault_spec
from repro.chaos.injector import PASS
from repro.chaos.runner import run_learn_plan, run_serve_plan
from repro.cluster.runtime import DistributedClanRuntime
from repro.cluster.serialization import encode_genome
from repro.neat.config import NEATConfig

pytestmark = pytest.mark.lock_check


class TestFault:
    def test_rejects_unknown_action_and_scope(self):
        with pytest.raises(ValueError, match="action"):
            Fault(action="explode", scope="worker")
        with pytest.raises(ValueError, match="scope"):
            Fault(action="kill", scope="moon")

    def test_at_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            Fault(action="kill", scope="worker", at=0)

    def test_unsupported_combo_rejected(self):
        # corrupt only makes sense for publish payloads
        with pytest.raises(ValueError, match="not supported"):
            Fault(action="corrupt", scope="worker")
        with pytest.raises(ValueError, match="not supported"):
            Fault(action="duplicate", scope="registry", kind="publish")

    def test_kinds_nothing_sends_are_rejected(self):
        # a fault on a retired command (or a typo) could never fire
        with pytest.raises(ValueError, match="known: .*clan_run"):
            Fault(action="kill", scope="worker", kind="clan_step")
        with pytest.raises(ValueError, match="known: infer, publish"):
            Fault(action="kill", scope="replica", kind="infr")

    def test_stall_and_delay_need_a_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Fault(action="stall", scope="worker")
        Fault(action="stall", scope="worker", value=0.5)  # fine

    def test_matching(self):
        fault = Fault(
            action="drop", scope="replica", target=1, kind="publish"
        )
        assert fault.matches("replica", 1, "publish")
        assert not fault.matches("replica", 0, "publish")
        assert not fault.matches("replica", 1, "infer")
        assert not fault.matches("worker", 1, "publish")
        anywhere = Fault(action="kill", scope="worker")
        assert anywhere.matches("worker", 3, "clan_run")

    def test_dict_roundtrip_rejects_unknown_fields(self):
        fault = Fault(action="kill", scope="worker", target=2, at=3)
        assert Fault.from_dict(fault.to_dict()) == fault
        with pytest.raises(ValueError, match="unknown fault fields"):
            Fault.from_dict({"action": "kill", "scope": "worker", "x": 1})


class TestFaultPlan:
    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            faults=(
                Fault(action="kill", scope="worker", target=1, at=2),
                Fault(action="delay", scope="registry", value=0.05),
            ),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.from_file(path) == plan

    def test_version_checked(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"version": 99, "seed": 0, "faults": []}')
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_file(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="JSON"):
            FaultPlan.from_file(path)


class TestParseFaultSpec:
    def test_full_spec(self):
        fault = parse_fault_spec(
            "kill,scope=worker,target=1,kind=clan_run,at=3"
        )
        assert fault == Fault(
            action="kill", scope="worker", target=1, kind="clan_run", at=3
        )

    def test_value_field(self):
        fault = parse_fault_spec("delay,scope=registry,value=0.05")
        assert fault.value == pytest.approx(0.05)

    def test_requires_scope(self):
        with pytest.raises(ValueError, match="scope"):
            parse_fault_spec("kill,target=1")

    def test_malformed_fields_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_fault_spec("kill,scope=worker,oops")
        with pytest.raises(ValueError, match="unknown fault field"):
            parse_fault_spec("kill,scope=worker,when=3")


class TestChaosInjector:
    def test_unmatched_events_return_the_shared_pass(self):
        injector = ChaosInjector(
            FaultPlan(faults=(Fault(action="kill", scope="worker"),))
        )
        assert injector.on_event("replica", 0, "infer") is PASS
        assert injector.faults_fired == 0

    def test_fires_at_the_nth_matching_event_once(self):
        plan = FaultPlan(
            faults=(
                Fault(
                    action="drop",
                    scope="worker",
                    target=1,
                    kind="clan_run",
                    at=2,
                ),
            )
        )
        injector = ChaosInjector(plan)
        # first matching event passes; events for other targets/kinds
        # are not counted at all
        assert injector.on_event("worker", 1, "clan_run") is PASS
        assert injector.on_event("worker", 0, "clan_run") is PASS
        assert injector.on_event("worker", 1, "clan_init") is PASS
        decision = injector.on_event("worker", 1, "clan_run")
        assert decision.deliveries == 0
        # one-shot: the third matching event passes again
        assert injector.on_event("worker", 1, "clan_run") is PASS
        assert injector.injected_counts() == {"drop": 1}
        assert injector.faults_fired == 1
        assert injector.faults_pending == 0

    def test_coinciding_faults_combine_into_one_decision(self):
        plan = FaultPlan(
            faults=(
                Fault(action="kill", scope="replica", kind="publish"),
                Fault(
                    action="delay",
                    scope="replica",
                    kind="publish",
                    value=0.01,
                ),
            )
        )
        injector = ChaosInjector(plan)
        decision = injector.on_event("replica", 0, "publish")
        assert decision.kill
        assert decision.delay_s == pytest.approx(0.01)

    def test_no_fault_plan_draws_no_randomness(self):
        injector = ChaosInjector(FaultPlan(seed=5))
        for index in range(20):
            assert injector.on_event("worker", index % 3, "x") is PASS
        # the payload RNG is untouched: its first draw equals a fresh
        # generator's first draw
        import random

        assert injector._rng.random() == random.Random(5).random()

    def test_corrupt_bytes_flips_exactly_one_bit_seeded(self):
        injector = ChaosInjector(FaultPlan(seed=3))
        data = bytes(range(64))
        mutated = injector.corrupt_bytes(data)
        diff = [
            (a ^ b) for a, b in zip(data, mutated) if a != b
        ]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1
        # same seed, fresh injector -> same flip
        again = ChaosInjector(FaultPlan(seed=3)).corrupt_bytes(data)
        assert again == mutated
        assert injector.corrupt_bytes(b"") == b""


CHAOS_CONFIG = NEATConfig.for_env("CartPole-v0", pop_size=24)


def _learn(chaos=None):
    with DistributedClanRuntime(
        "CartPole-v0",
        n_clans=3,
        config=CHAOS_CONFIG,
        seed=8,
        respawn_backoff_s=0.0,
        chaos=chaos,
    ) as runtime:
        stats = runtime.run(max_generations=3, fitness_threshold=1e9)
        best = runtime.best_genome()
    return stats, best


class TestLearnDeterminism:
    """Chaos against the real distributed runtime (spawns processes)."""

    def test_empty_plan_is_byte_identical_to_no_chaos(self):
        baseline, baseline_best = _learn(chaos=None)
        injector = ChaosInjector(FaultPlan(seed=9))
        stats, best = _learn(chaos=injector)
        assert injector.faults_fired == 0
        assert not stats.churn
        assert stats.best_fitness == baseline.best_fitness
        assert (
            stats.best_fitness_per_generation
            == baseline.best_fitness_per_generation
        )
        assert encode_genome(best) == encode_genome(baseline_best)

    def test_worker_kill_heals_to_identical_champion(self):
        baseline, baseline_best = _learn(chaos=None)
        plan = FaultPlan(
            faults=(
                Fault(
                    action="kill",
                    scope="worker",
                    target=1,
                    kind="clan_run",
                    at=2,
                ),
            )
        )
        first = ChaosInjector(plan)
        stats, best = _learn(chaos=first)
        assert first.faults_fired == 1
        assert stats.churn.deaths == 1
        assert stats.churn.respawns == 1
        # recovery replays are bit-identical: the chaotic run ends
        # exactly where the undisturbed run does
        assert stats.best_fitness == baseline.best_fitness
        assert encode_genome(best) == encode_genome(baseline_best)
        # and the whole scenario replays: same plan, same outcome
        second = ChaosInjector(plan)
        stats2, best2 = _learn(chaos=second)
        assert second.injected_counts() == first.injected_counts()
        assert encode_genome(best2) == encode_genome(best)


class RecordingInjector(ChaosInjector):
    """An injector that also records every (scope, kind) it is shown."""

    def __init__(self, plan):
        super().__init__(plan)
        self.seen = set()

    def on_event(self, scope, target, kind):
        self.seen.add((scope, kind))
        return super().on_event(scope, target, kind)


class TestWorkerVocabulary:
    def test_both_drivers_send_only_declared_kinds(self):
        injector = RecordingInjector(
            FaultPlan(
                faults=(
                    Fault(
                        action="kill",
                        scope="worker",
                        target=0,
                        kind="clan_run",
                        at=1,
                    ),
                )
            )
        )
        with DistributedClanRuntime(
            "CartPole-v0",
            n_clans=2,
            config=CHAOS_CONFIG,
            seed=8,
            respawn_backoff_s=0.0,
            chaos=injector,
        ) as runtime:
            runtime.run(max_generations=1, fitness_threshold=1e9)
            # a threshold every report crosses: the centre sends halts
            runtime.run_async(max_generations=2, fitness_threshold=0.0)
            runtime.best_genome()
        assert {
            ("worker", "clan_init"),
            ("worker", "clan_restore"),
            ("worker", "clan_run"),
            ("worker", "clan_halt"),
            ("worker", "clan_best"),
        } <= injector.seen
        for scope, kind in injector.seen:
            Fault(action="kill", scope=scope, kind=kind)  # declared


class TestLearnRunner:
    def test_outcome_shape_and_replayability(self):
        plan = FaultPlan(
            faults=(
                Fault(
                    action="kill",
                    scope="worker",
                    target=0,
                    kind="clan_run",
                    at=1,
                ),
            )
        )
        outcome = run_learn_plan(
            plan,
            "CartPole-v0",
            n_clans=2,
            pop_size=16,
            generations=2,
            seed=4,
        )
        assert outcome["workload"] == "learn"
        assert outcome["faults_fired"] == 1
        assert outcome["churn"]["deaths"] == 1
        assert outcome["churn"]["respawns"] == 1
        again = run_learn_plan(
            plan,
            "CartPole-v0",
            n_clans=2,
            pop_size=16,
            generations=2,
            seed=4,
        )
        assert again["champion_hex"] == outcome["champion_hex"]
        assert again["best_fitness"] == outcome["best_fitness"]


class TestServeRunner:
    def test_replica_kill_and_dropped_publish_fully_heal(self):
        plan = FaultPlan(
            faults=(
                # kill replica 0 on its second infer chunk...
                Fault(
                    action="kill",
                    scope="replica",
                    target=0,
                    kind="infer",
                    at=2,
                ),
                # ...and lose replica 1's second deployment message
                # (the repair loop must re-deliver it)
                Fault(
                    action="drop",
                    scope="replica",
                    target=1,
                    kind="publish",
                    at=2,
                ),
            )
        )
        outcome = run_serve_plan(
            plan,
            "CartPole-v0",
            replicas=2,
            rate_hz=500.0,
            n_requests=120,
            seed=2,
            publishes=2,
        )
        assert outcome["workload"] == "serve"
        assert outcome["offered"] == 120
        assert outcome["failed"] == 0
        assert outcome["version_regressions"] == 0
        assert outcome["faults_fired"] == 2
        assert outcome["health"]["replica_respawns"] >= 1
        assert (
            outcome["served"]
            + outcome["shed"]
            + outcome["rejected_closed"]
            == outcome["offered"]
        )
