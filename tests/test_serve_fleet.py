"""Fleet serving: balancing, monotone propagation, rollup, healing.

The invariants under test are the ISSUE's acceptance criteria: a
hot-swap propagates to every replica atomically and monotonically (no
replica ever serves an older deployment after acking a newer one —
including across rollbacks, where the *version* drops but the
deployment *seq* rises), per-request actions are scalar-exact under any
balancing, per-replica stats roll up through merged reservoirs, and
overload surfaces as backpressure at both the replica and fleet level.
"""

import asyncio
import random
import socket
import threading
import zlib

import pytest

from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.cluster.serialization import encode_batched_plan
from repro.neat.config import NEATConfig
from repro.neat.network import compile_batched
from repro.serve import (
    ChampionRegistry,
    InferenceGateway,
    Overloaded,
    ReplicaDied,
    ServingFleet,
)
from repro.serve.fleet import _ReplicaChampionStore

from tests.conftest import make_evolved_genome

pytestmark = pytest.mark.lock_check

CONFIG = NEATConfig.for_env("CartPole-v0", pop_size=8)
CHAMPIONS = [
    make_evolved_genome(CONFIG, seed=seed, mutations=25, key=seed)
    for seed in range(3)
]


def replica_process(fleet, replica):
    """The process currently serving ``replica``."""
    return fleet._group.procs[replica]


def _observations(n, seed=11):
    rng = random.Random(seed)
    return [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(n)]


async def _started_fleet(registry, **kwargs):
    kwargs.setdefault("replicas", 2)
    fleet = ServingFleet(registry, **kwargs)
    await fleet.start()
    registry.publish(CHAMPIONS[0], source="test")
    await fleet.wait_deployed()
    return fleet


class TestValidation:
    def test_rejects_bad_construction(self):
        registry = ChampionRegistry(CONFIG)
        with pytest.raises(ValueError):
            ServingFleet(registry, replicas=0)
        with pytest.raises(ValueError):
            ServingFleet(registry, max_inflight=0)
        with pytest.raises(ValueError):
            ServingFleet(registry, chunk_size=0)

    def test_submit_before_start_raises(self):
        registry = ChampionRegistry(CONFIG)
        fleet = ServingFleet(registry)

        async def run():
            await fleet.submit([0.0] * 4)

        with pytest.raises(RuntimeError):
            asyncio.run(run())


class TestServing:
    def test_actions_match_scalar_reference(self):
        observations = _observations(60)

        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry)
            served = await asyncio.gather(
                *(fleet.submit(obs) for obs in observations)
            )
            await fleet.close()
            record = registry.record_for(1)
            registry.close()
            return served, record

        served, record = asyncio.run(run())
        scalar = record.scalar_network()
        for obs, response in zip(observations, served):
            assert response.action == scalar.policy(obs)
            assert response.champion_version == 1
            assert response.replica in (0, 1)

    def test_balancer_is_seeded_and_deterministic(self):
        observations = _observations(30)

        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry, seed=5)
            replicas = []
            for obs in observations:
                served = await fleet.submit(obs)
                replicas.append(served.replica)
            await fleet.close()
            registry.close()
            return replicas

        replicas = asyncio.run(run())
        # same seed, same submission order -> same assignment sequence
        # (uniform pick over live replica ids, sorted by id)
        expected_rng = random.Random(5)
        expected = [
            expected_rng.choice([0, 1]) for _ in observations
        ]
        assert replicas == expected

    def test_both_replicas_serve_under_concurrent_load(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry)
            await asyncio.gather(
                *(fleet.submit(obs) for obs in _observations(80))
            )
            stats = await fleet.scrape()
            per_replica = fleet.replica_stats()
            await fleet.close()
            registry.close()
            return stats, per_replica

        stats, per_replica = asyncio.run(run())
        assert stats.served == 80
        assert sum(s.served for s in per_replica.values()) == 80
        assert all(s.served > 0 for s in per_replica.values())


class TestPropagation:
    def test_hot_swap_reaches_every_replica(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry)
            registry.publish(CHAMPIONS[1], source="swap")
            await fleet.wait_deployed()
            served = await asyncio.gather(
                *(fleet.submit(obs) for obs in _observations(40))
            )
            traces = fleet.version_traces()
            await fleet.close()
            registry.close()
            return served, traces

        served, traces = asyncio.run(run())
        # after every replica acked the swap, nothing serves v1
        assert {r.champion_version for r in served} == {2}
        for trace in traces.values():
            assert trace == sorted(trace)

    def test_rollback_propagates_via_seq_not_version(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry)
            registry.publish(CHAMPIONS[1], source="bad")
            await fleet.wait_deployed()
            registry.rollback()  # version drops 2 -> 1, seq rises to 3
            await fleet.wait_deployed()
            served = await fleet.submit([0.1] * 4)
            await fleet.close()
            seq = registry.seq
            registry.close()
            return served, seq

        served, seq = asyncio.run(run())
        assert seq == 3
        # the monotone guard is on seq, so the *older version* of a
        # rollback still deploys everywhere
        assert served.champion_version == 1

    def test_late_subscriber_gets_current_deployment_replayed(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            # publish BEFORE the fleet exists: start() must replay the
            # live deployment into every replica
            registry.publish(CHAMPIONS[1], source="early")
            fleet = ServingFleet(registry, replicas=2)
            await fleet.start()
            await fleet.wait_deployed()
            served = await fleet.submit([0.2] * 4)
            await fleet.close()
            registry.close()
            return served

        served = asyncio.run(run())
        assert served.champion_version == 1

    def test_every_single_bit_flip_of_a_plan_is_refused(self):
        """A flipped plan bit that still decodes would serve another
        policy under the same version; the publish's CRC-32 catches
        every single-bit flip before the replica decodes anything."""
        wire = encode_batched_plan(compile_batched(CHAMPIONS[1], CONFIG))
        crc = zlib.crc32(wire)
        store = _ReplicaChampionStore()
        assert store.install(1, 1, wire, crc)
        record = store.current()
        for bit in range(len(wire) * 8):
            flipped = bytearray(wire)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError, match="checksum"):
                store.install(2, 2, bytes(flipped), crc)
            assert store.current() is record
        assert store.swaps == 0
        # the intact plan still installs over the refused ones
        assert store.install(2, 2, wire, crc)
        assert store.version == 2


class TestBackpressure:
    def test_fleet_inflight_cap_sheds_and_counts(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry, max_inflight=4)
            tasks = [
                asyncio.ensure_future(fleet.submit(obs))
                for obs in _observations(60)
            ]
            outcomes = await asyncio.gather(
                *tasks, return_exceptions=True
            )
            stats = await fleet.scrape()
            fleet_shed = fleet.fleet_shed
            await fleet.close()
            registry.close()
            return outcomes, stats, fleet_shed

        outcomes, stats, fleet_shed = asyncio.run(run())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        ok = [o for o in outcomes if not isinstance(o, Exception)]
        assert shed, "a 4-deep inflight window must shed a 60-burst"
        assert ok, "backpressure must not reject everything"
        assert fleet_shed == len(shed)
        # parent-side sheds are folded into the fleet rollup
        assert stats.shed == fleet_shed
        assert stats.requests == stats.served + fleet_shed
        assert stats.served == len(ok)

    def test_scrape_during_a_flood_completes_within_the_buffer_bound(self):
        """The deadlock a blocking write invites: the replica writes a
        full stats reply (65 536 latencies, ~590 kB) while the parent
        writes a full in-flight window, each more than the pipe holds.
        Buffered writes keep both loops reading; the parent's buffer
        never holds more than the window's rows and a control frame,
        and the replica's final ``closed`` reply, as large, is flushed
        before it exits."""
        window = 65_536
        max_inflight, chunk_size = 4096, 256
        observations = _observations(max_inflight, seed=41)

        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, replicas=1, max_inflight=max_inflight,
                chunk_size=chunk_size,
            )
            for _ in range(window // max_inflight):
                await asyncio.gather(*map(fleet.submit, observations))
            channel = fleet._handles[0].channel
            # a pipe that holds less than one chunk: the flood cannot
            # be written through, only buffered (or blocked on)
            channel.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
            watchdog = threading.Timer(
                30.0, replica_process(fleet, 0).kill
            )
            watchdog.start()
            loop = asyncio.get_running_loop()
            peak = []

            def sample():
                peak.append(channel.transport.get_write_buffer_size())
                if not flood.done():
                    loop.call_soon(sample)

            try:
                scrape = asyncio.ensure_future(fleet.scrape())
                await asyncio.sleep(0)  # the stats request goes first
                flood = asyncio.gather(*map(fleet.submit, observations))
                sample()
                served = await flood
                stats = await scrape
            finally:
                watchdog.cancel()
            respawns = fleet.replica_respawns
            await fleet.close()
            final = fleet.replica_stats()[0]
            registry.close()
            return stats, served, max(peak), respawns, final

        stats, served, peak, respawns, final = asyncio.run(run())
        assert respawns == 0
        assert stats.served == window
        assert len(served) == max_inflight
        frames = max_inflight // chunk_size + 1
        assert 0 < peak <= max_inflight * 4 * 8 + frames * 64
        # the final reply carried every row the replica served
        assert final.served == window + max_inflight


class TestReplicaDeath:
    def test_death_is_isolated_to_the_dead_replica(self):
        # healing off: the pre-healing containment contract must hold
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, max_replica_respawns=0
            )
            victim = replica_process(fleet, 0)
            victim.kill()
            # wait for the reader thread to notice the EOF
            for _ in range(100):
                if fleet.live_replicas == [1]:
                    break
                await asyncio.sleep(0.01)
            served = await asyncio.gather(
                *(fleet.submit(obs) for obs in _observations(20))
            )
            # deployments keep working on the survivors
            registry.publish(CHAMPIONS[1], source="after-death")
            await fleet.wait_deployed()
            live = fleet.live_replicas
            await fleet.close()
            registry.close()
            return served, live

        served, live = asyncio.run(run())
        assert live == [1]
        assert {r.replica for r in served} == {1}

    def test_total_fleet_loss_raises_replica_died(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, replicas=1, max_replica_respawns=0
            )
            replica_process(fleet, 0).kill()
            for _ in range(100):
                if not fleet.live_replicas:
                    break
                await asyncio.sleep(0.01)
            with pytest.raises(ReplicaDied):
                await fleet.submit([0.0] * 4)
            with pytest.raises(ReplicaDied):
                await fleet.wait_deployed(registry.seq + 1)
            await fleet.close()
            registry.close()

        asyncio.run(run())


class TestSelfHealing:
    """PR 10's serving-tier healing: in-flight deaths become transparent
    retries, dead replicas respawn and catch up to the current
    deployment seq before taking traffic again, and a flapping replica
    is held out by its circuit breaker."""

    def test_inflight_death_is_retried_not_errored(self):
        observations = _observations(40)

        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry)
            tasks = [
                asyncio.ensure_future(fleet.submit(obs))
                for obs in observations
            ]
            # kill replica 0 with those requests in flight: its share
            # must be re-dispatched to replica 1, not errored
            replica_process(fleet, 0).kill()
            outcomes = await asyncio.gather(
                *tasks, return_exceptions=True
            )
            stats = await fleet.scrape()
            retried = fleet.requests_retried
            await fleet.close()
            registry.close()
            return outcomes, stats, retried

        outcomes, stats, retried = asyncio.run(run())
        errors = [o for o in outcomes if isinstance(o, Exception)]
        assert not errors, f"healing must absorb the death: {errors!r}"
        assert retried > 0
        # no double-counting: the dead replica never answered the
        # retried requests, so the rollup counts each exactly once
        assert stats.served == len(observations)

    def test_respawned_replica_catches_up_to_current_seq(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, respawn_backoff_s=0.01
            )
            registry.publish(CHAMPIONS[1], source="pre-death")
            await fleet.wait_deployed()
            replica_process(fleet, 0).kill()
            # the respawned replica is only admitted once it acks the
            # current deployment seq
            for _ in range(500):
                if (
                    fleet.live_replicas == [0, 1]
                    and fleet.replica_respawns == 1
                ):
                    break
                await asyncio.sleep(0.01)
            live = fleet.live_replicas
            acked = fleet._handles[0].acked_seq
            seq = registry.seq
            # force traffic onto the respawned replica: it must serve
            # the *current* champion, never a stale one
            served = []
            while len(served) < 5:
                response = await fleet.submit([0.1] * 4)
                if response.replica == 0:
                    served.append(response)
            respawns = fleet.replica_respawns
            await fleet.close()
            registry.close()
            return live, acked, seq, served, respawns

        live, acked, seq, served, respawns = asyncio.run(run())
        assert live == [0, 1]
        assert respawns == 1
        assert acked >= seq
        assert {r.champion_version for r in served} == {2}

    def test_corrupt_publish_is_refused_and_repaired_in_place(self, capfd):
        # the second deployment bound for replica 1 arrives corrupted
        chaos = ChaosInjector(FaultPlan(faults=(
            Fault("corrupt", "replica", at=2, target=1, kind="publish"),
        )))

        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry, chaos=chaos)
            registry.publish(CHAMPIONS[1], source="corrupted")
            # only the deploy-repair loop's resend can satisfy this
            await fleet.wait_deployed()
            outcome = (
                fleet.replica_respawns,
                fleet._handles[1].acked_seq,
                registry.seq,
            )
            await fleet.close()
            registry.close()
            return outcome

        respawns, acked, seq = asyncio.run(run())
        assert chaos.faults_fired == 1
        assert respawns == 0
        assert acked == seq
        assert capfd.readouterr().err == ""

    def test_single_replica_fleet_heals_parked_requests(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, replicas=1, respawn_backoff_s=0.01
            )
            replica_process(fleet, 0).kill()
            for _ in range(200):
                if not fleet.live_replicas:
                    break
                await asyncio.sleep(0.01)
            # whole fleet down but a respawn is in flight: the request
            # parks and is answered by the respawned replica
            served = await asyncio.wait_for(
                fleet.submit([0.2] * 4), timeout=10.0
            )
            respawns = fleet.replica_respawns
            await fleet.close()
            registry.close()
            return served, respawns

        served, respawns = asyncio.run(run())
        assert served.replica == 0
        assert served.champion_version == 1
        assert respawns == 1

    def test_breaker_opens_after_repeated_deaths(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry,
                breaker_threshold=1,
                breaker_reset_s=30.0,
                respawn_backoff_s=0.01,
            )
            replica_process(fleet, 0).kill()
            for _ in range(500):
                if fleet.replica_respawns == 1 and fleet._handles[
                    0
                ].alive:
                    break
                await asyncio.sleep(0.01)
            # respawned but breaker open: held out of the rotation
            states = fleet.breaker_states()
            live = fleet.live_replicas
            served = await asyncio.gather(
                *(fleet.submit(obs) for obs in _observations(10))
            )
            await fleet.close()
            registry.close()
            return states, live, served

        states, live, served = asyncio.run(run())
        assert states[0] == 1.0
        assert states[1] == 0.0
        assert live == [1]
        assert {r.replica for r in served} == {1}

    def test_health_surface_reports_counters(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry)
            health = fleet.health()
            await fleet.close()
            registry.close()
            return health

        health = asyncio.run(run())
        assert health["replica_respawns"] == 0
        assert health["requests_retried"] == 0
        assert health["breaker_states"] == {0: 0.0, 1: 0.0}
        assert health["live_replicas"] == [0, 1]
        assert health["faults_injected"] == {}


class TestBlockPath:
    """The request path behind the pipe is block-native: a forwarded
    chunk is one matrix, one batcher block and one columnar reply."""

    def test_chunk_answer_is_columns_and_creates_no_per_request_task(
        self,
    ):
        import numpy as np

        from repro.serve.fleet import _answer_chunk

        observations = _observations(256)

        async def run():
            registry = ChampionRegistry(CONFIG)
            registry.publish(CHAMPIONS[0], source="test")
            gateway = InferenceGateway(registry, max_batch=32)
            await gateway.start()
            loop = asyncio.get_running_loop()
            created = {"tasks": 0, "futures": 0}
            real_task, real_future = loop.create_task, loop.create_future

            def create_task(*args, **kwargs):
                created["tasks"] += 1
                return real_task(*args, **kwargs)

            def create_future():
                created["futures"] += 1
                return real_future()

            loop.create_task, loop.create_future = create_task, create_future
            try:
                reply = await _answer_chunk(
                    gateway, np.array(observations, dtype=np.float64)
                )
            finally:
                del loop.create_task, loop.create_future
            scalar = registry.record_for(1).scalar_network()
            await gateway.close()
            return reply, created, scalar

        reply, created, scalar = asyncio.run(run())
        status, accepted, actions, versions, sizes = reply
        assert (status, accepted) == ("ok", 256)
        # O(1) asyncio objects for the whole chunk, not O(256): the
        # block's future and the idle collector's next queue wait
        assert created == {"tasks": 0, "futures": 2}
        for column in (actions, versions, sizes):
            assert isinstance(column, np.ndarray) and column.shape == (256,)
        assert actions.tolist() == [scalar.policy(o) for o in observations]
        assert versions.tolist() == [1] * 256
        assert sizes.tolist() == [32] * 256

    def test_shed_tail_and_cancelled_caller_inside_one_chunk(self):
        """One 30-row chunk against a replica with room for 20: rows
        0-19 are answered (each with its *own* observation's action),
        rows 20-29 shed, and a caller cancelled mid-flight is skipped
        without shifting anyone else's answer."""
        observations = _observations(30, seed=23)
        cancelled = (3, 11)

        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, replicas=1, max_pending=20
            )
            tasks = [
                asyncio.ensure_future(fleet.submit(obs))
                for obs in observations
            ]
            # every submit lands in the outbox before its one flush runs
            await asyncio.sleep(0)
            for index in cancelled:
                tasks[index].cancel()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            stats = await fleet.scrape()
            inflight = fleet._handles[0].inflight_count
            await fleet.close()
            record = registry.record_for(1)
            registry.close()
            return outcomes, stats, inflight, record

        outcomes, stats, inflight, record = asyncio.run(run())
        scalar = record.scalar_network()
        for index, (obs, outcome) in enumerate(zip(observations, outcomes)):
            if index in cancelled:
                assert isinstance(outcome, asyncio.CancelledError)
            elif index < 20:
                assert outcome.action == scalar.policy(obs)
                assert outcome.replica == 0
            else:
                assert isinstance(outcome, Overloaded)
        # the replica counts rows: 20 accepted and served, 10 shed
        assert (stats.requests, stats.served, stats.shed) == (20, 20, 10)
        assert inflight == 0

    def test_lost_and_duplicated_chunks_answer_every_caller_once(self):
        from repro.chaos import ChaosInjector, Fault, FaultPlan

        observations = _observations(40, seed=31)
        plan = FaultPlan(
            faults=(
                Fault(action="drop", scope="replica", target=0,
                      kind="infer", at=1),
                Fault(action="duplicate", scope="replica", target=1,
                      kind="infer", at=1),
            )
        )

        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, chaos=ChaosInjector(plan)
            )
            served = await asyncio.gather(
                *(fleet.submit(obs) for obs in observations)
            )
            health = fleet.health()
            await fleet.close()
            record = registry.record_for(1)
            registry.close()
            return served, health, record

        served, health, record = asyncio.run(run())
        scalar = record.scalar_network()
        # the lost chunk was re-dispatched with each waiter's own
        # observation; the duplicate's second answer found no waiters
        assert [r.action for r in served] == [
            scalar.policy(obs) for obs in observations
        ]
        assert health["requests_retried"] > 0
        assert health["faults_injected"] == {"drop": 1, "duplicate": 1}

    def test_ragged_observation_fails_only_its_chunk(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry, replicas=1)
            outcomes = await asyncio.gather(
                fleet.submit([0.1, 0.2, 0.3, 0.4]),
                fleet.submit([0.1, 0.2]),  # wrong arity
                return_exceptions=True,
            )
            later = await fleet.submit([0.5] * 4)
            await fleet.close()
            registry.close()
            return outcomes, later

        outcomes, later = asyncio.run(run())
        assert all(isinstance(o, ValueError) for o in outcomes)
        assert later.action in (0, 1)


class TestClose:
    def test_close_waits_on_replica_replies_not_on_a_poll(
        self, monkeypatch
    ):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(registry)
            await asyncio.gather(
                *(fleet.submit(obs) for obs in _observations(20))
            )
            sleeps = []
            real_sleep = asyncio.sleep

            async def sleep(delay, *args):
                sleeps.append(delay)
                return await real_sleep(delay, *args)

            monkeypatch.setattr(asyncio, "sleep", sleep)
            await fleet.close()
            monkeypatch.undo()
            stats = fleet.stats()
            registry.close()
            return sleeps, stats

        sleeps, stats = asyncio.run(run())
        assert sleeps == []
        # final stats arrived with the ``closed`` replies
        assert stats.served == 20

    def test_close_returns_when_a_replica_dies_instead_of_replying(self):
        async def run():
            registry = ChampionRegistry(CONFIG)
            fleet = await _started_fleet(
                registry, max_replica_respawns=0
            )
            replica_process(fleet, 0).kill()
            # CLOSE_TIMEOUT_S is 30 s: only the death handler resolving
            # the victim's close future lets this finish in time
            await asyncio.wait_for(fleet.close(), timeout=10.0)
            stats = fleet.replica_stats()
            registry.close()
            return stats

        stats = asyncio.run(run())
        assert stats[1] is not None
