"""Tests for the versioned champion registry (hot-swap + rollback)."""

import gc
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.serialization import encode_batched_plan, encode_genome
from repro.neat.config import NEATConfig
from repro.neat.population import Population
from repro.serve import ChampionRecord, ChampionRegistry, RegistryClosed

from tests.conftest import make_evolved_genome

pytestmark = pytest.mark.lock_check


@pytest.fixture
def config() -> NEATConfig:
    return NEATConfig.for_env("CartPole-v0", pop_size=8)


@pytest.fixture
def genomes(config):
    return [
        make_evolved_genome(config, seed=seed, mutations=25, key=seed)
        for seed in range(4)
    ]


class TestPublish:
    def test_versions_increment_from_one(self, config, genomes):
        registry = ChampionRegistry(config)
        assert registry.version == 0
        for i, genome in enumerate(genomes):
            record = registry.publish(genome)
            assert record.version == i + 1
        assert registry.version == len(genomes)

    def test_current_raises_before_first_publish(self, config):
        with pytest.raises(LookupError):
            ChampionRegistry(config).current()

    def test_publish_swaps_current(self, config, genomes):
        registry = ChampionRegistry(config)
        registry.publish(genomes[0])
        first = registry.current()
        registry.publish(genomes[1])
        assert registry.current().version == first.version + 1

    def test_record_is_precompiled_and_matches_scalar(
        self, config, genomes
    ):
        registry = ChampionRegistry(config)
        record = registry.publish(genomes[0])
        scalar = record.scalar_network()
        observations = [
            [0.1, -0.2, 0.3, -0.4],
            [1.0, 1.0, -1.0, 0.5],
        ]
        actions = record.network.policy_batch(observations)
        for i, obs in enumerate(observations):
            assert int(actions[i]) == scalar.policy(obs)

    def test_published_genome_is_decoupled_from_source(
        self, config, genomes
    ):
        registry = ChampionRegistry(config)
        source = genomes[0]
        record = registry.publish(source)
        assert record.genome is not source
        before = record.genome.gene_count()
        source.fitness = 123.0
        for gene in source.connections.values():
            gene.weight = 0.0
        assert record.genome.gene_count() == before
        assert any(
            gene.weight != 0.0
            for gene in record.genome.connections.values()
        )

    def test_fitness_defaults_to_genome_fitness(self, config, genomes):
        registry = ChampionRegistry(config)
        genomes[0].fitness = 17.5
        assert registry.publish(genomes[0]).fitness == 17.5

    def test_publish_from_background_threads(self, config):
        """Swaps are atomic: readers always see a complete record."""
        population = Population(config, seed=0)
        pool = list(population.genomes.values())
        registry = ChampionRegistry(config)
        registry.publish(pool[0])
        errors = []

        def writer(genome):
            try:
                registry.publish(genome)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(g,)) for g in pool[1:]
        ]
        for thread in threads:
            thread.start()
        for _ in range(100):
            record = registry.current()
            assert record.network.plan is record.plan
        for thread in threads:
            thread.join()
        assert not errors
        assert registry.version == len(pool)


class TestRollback:
    def test_rollback_restores_previous(self, config, genomes):
        registry = ChampionRegistry(config)
        registry.publish(genomes[0])
        registry.publish(genomes[1])
        restored = registry.rollback()
        assert restored.version == 1
        assert registry.current().version == 1

    def test_rolled_back_version_stays_resolvable(self, config, genomes):
        registry = ChampionRegistry(config)
        registry.publish(genomes[0])
        bad = registry.publish(genomes[1])
        registry.rollback()
        assert registry.record_for(bad.version).version == bad.version

    def test_rollback_without_history_raises(self, config, genomes):
        registry = ChampionRegistry(config)
        with pytest.raises(LookupError):
            registry.rollback()
        registry.publish(genomes[0])
        with pytest.raises(LookupError):
            registry.rollback()

    def test_rollback_depth_bounds_the_stack(self, config):
        population = Population(config, seed=0)
        registry = ChampionRegistry(config, rollback_depth=2)
        for genome in population.genomes.values():
            registry.publish(genome)
        registry.rollback()
        registry.rollback()
        with pytest.raises(LookupError):
            registry.rollback()

    def test_zero_depth_keeps_no_stack(self, config, genomes):
        registry = ChampionRegistry(config, rollback_depth=0)
        for genome in genomes:
            registry.publish(genome)
        with pytest.raises(LookupError):
            registry.rollback()
        assert _live_records(config) == 1

    def test_swaps_counts_promotions_and_rollbacks(self, config, genomes):
        registry = ChampionRegistry(config)
        assert registry.swaps == 0
        registry.publish(genomes[0])
        assert registry.swaps == 0  # first deploy is not a swap
        registry.publish(genomes[1])
        assert registry.swaps == 1
        registry.rollback()
        assert registry.swaps == 2


class TestClose:
    def test_publish_and_reads_refused_after_close(self, config, genomes):
        registry = ChampionRegistry(config)
        registry.publish(genomes[0])
        registry.close()
        assert registry.closed
        with pytest.raises(RegistryClosed):
            registry.publish(genomes[1])
        with pytest.raises(RegistryClosed):
            registry.current()
        with pytest.raises(RegistryClosed):
            registry.rollback()

    def test_record_for_survives_close_for_parity_checks(
        self, config, genomes
    ):
        registry = ChampionRegistry(config)
        record = registry.publish(genomes[0])
        registry.close()
        assert registry.record_for(record.version) is record

    def test_record_for_unknown_version_raises(self, config):
        with pytest.raises(LookupError):
            ChampionRegistry(config).record_for(1)


# -- deployment pub/sub -------------------------------------------------------

_SUB_CONFIG = NEATConfig.for_env("CartPole-v0", pop_size=8)
_SUB_GENOMES = [
    make_evolved_genome(_SUB_CONFIG, seed=seed, mutations=10, key=seed)
    for seed in range(3)
]


class TestSubscribe:
    def test_replays_current_deployment_on_subscribe(self, config, genomes):
        registry = ChampionRegistry(config)
        registry.publish(genomes[0])
        seen = []
        registry.subscribe(lambda seq, rec: seen.append((seq, rec.version)))
        assert seen == [(1, 1)]

    def test_no_replay_before_first_publish(self, config):
        registry = ChampionRegistry(config)
        seen = []
        registry.subscribe(lambda seq, rec: seen.append(seq))
        assert seen == []

    def test_replay_can_be_disabled(self, config, genomes):
        registry = ChampionRegistry(config)
        registry.publish(genomes[0])
        seen = []
        registry.subscribe(
            lambda seq, rec: seen.append(seq), replay_current=False
        )
        registry.publish(genomes[1])
        assert seen == [2]

    def test_rollback_raises_seq_but_lowers_version(self, config, genomes):
        registry = ChampionRegistry(config)
        seen = []
        registry.subscribe(lambda seq, rec: seen.append((seq, rec.version)))
        registry.publish(genomes[0])
        registry.publish(genomes[1])
        registry.rollback()
        assert seen == [(1, 1), (2, 2), (3, 1)]
        assert registry.seq == 3
        assert registry.version == 1

    def test_unsubscribe_stops_deliveries(self, config, genomes):
        registry = ChampionRegistry(config)
        seen = []
        subscription = registry.subscribe(
            lambda seq, rec: seen.append(seq), replay_current=False
        )
        registry.publish(genomes[0])
        registry.unsubscribe(subscription)
        registry.unsubscribe(subscription)  # idempotent
        registry.publish(genomes[1])
        assert seen == [1]

    def test_subscribe_after_close_raises(self, config):
        registry = ChampionRegistry(config)
        registry.close()
        with pytest.raises(RegistryClosed):
            registry.subscribe(lambda seq, rec: None)


class TestSubscriberOrderingProperty:
    """ISSUE acceptance: interleaved publish/rollback/subscribe
    sequences never deliver deployments out of order to any
    subscriber."""

    @given(
        ops=st.lists(
            st.sampled_from(["publish", "rollback", "subscribe"]),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_every_subscriber_sees_its_suffix_in_seq_order(self, ops):
        registry = ChampionRegistry(_SUB_CONFIG)
        log = []  # every deployment, as (seq, version)
        subscribers = []  # (seq at subscribe, delivered list)
        current_version = None
        for index, op in enumerate(ops):
            if op == "publish":
                record = registry.publish(
                    _SUB_GENOMES[index % len(_SUB_GENOMES)]
                )
                current_version = record.version
                log.append((registry.seq, record.version))
            elif op == "rollback":
                try:
                    record = registry.rollback()
                except LookupError:
                    continue  # nothing deployed before the current one
                current_version = record.version
                log.append((registry.seq, record.version))
            else:
                delivered = []
                subscribers.append(
                    (registry.seq, current_version, delivered)
                )
                registry.subscribe(
                    lambda seq, rec, d=delivered: d.append(
                        (seq, rec.version)
                    )
                )
        for at_seq, version_at_subscribe, delivered in subscribers:
            seqs = [seq for seq, _ in delivered]
            # strictly increasing: never out of order, never duplicated
            assert seqs == sorted(set(seqs))
            replay = (
                [(at_seq, version_at_subscribe)]
                if version_at_subscribe is not None
                else []
            )
            expected = replay + [
                (seq, version) for seq, version in log if seq > at_seq
            ]
            assert delivered == expected


class TestSubscriberOrderingThreaded:
    def test_concurrent_publishers_deliver_in_one_global_order(
        self, config
    ):
        registry = ChampionRegistry(config)
        genomes = [
            make_evolved_genome(config, seed=seed, mutations=5, key=seed)
            for seed in range(8)
        ]
        delivered = []
        registry.subscribe(
            lambda seq, rec: delivered.append((seq, rec.version))
        )

        def publisher(worker_genomes):
            for genome in worker_genomes:
                registry.publish(genome)

        threads = [
            threading.Thread(target=publisher, args=(genomes[:4],)),
            threading.Thread(target=publisher, args=(genomes[4:],)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seqs = [seq for seq, _ in delivered]
        # one global order: every deployment delivered exactly once,
        # in strictly increasing seq order, regardless of which
        # publisher thread drained the queue
        assert seqs == list(range(1, 9))
        versions = sorted(version for _, version in delivered)
        assert versions == list(range(1, 9))


# -- retention: compiled state only for what can be served --------------------

#: retained bytes a retired version may cost beyond its genome wire
#: (its attribution entry and its share of the version map)
RETIRED_OVERHEAD_BYTES = 512


def _live_records(config) -> int:
    """ChampionRecords alive in this process for ``config`` — each one
    holds a compiled plan and its executor."""
    gc.collect()
    return sum(
        isinstance(obj, ChampionRecord) and obj.config is config
        for obj in gc.get_objects()
    )


_OBSERVATIONS = [[0.1, -0.2, 0.3, -0.4], [1.0, 1.0, -1.0, 0.5]]


class TestRetention:
    def test_retired_versions_rebuild_to_their_published_plans(
        self, config, genomes
    ):
        registry = ChampionRegistry(config, rollback_depth=1)
        published = {}
        for genome in genomes * 2:
            record = registry.publish(genome)
            published[record.version] = (
                encode_batched_plan(record.plan),
                [record.scalar_network().activate(o) for o in _OBSERVATIONS],
            )
        del record
        assert _live_records(config) == 2
        for version, (plan, outputs) in published.items():
            rebuilt = registry.record_for(version)
            assert rebuilt.version == version
            assert encode_batched_plan(rebuilt.plan) == plan
            scalar = rebuilt.scalar_network()
            assert [scalar.activate(o) for o in _OBSERVATIONS] == outputs
            assert rebuilt.network.policy_batch(_OBSERVATIONS).tolist() == [
                scalar.policy(o) for o in _OBSERVATIONS
            ]

    def test_a_rolled_away_version_keeps_its_attribution(
        self, config, genomes
    ):
        registry = ChampionRegistry(config)
        registry.publish(genomes[0], generation=3, source="clan0")
        bad = registry.publish(
            genomes[1], fitness=9.5, generation=4, source="clan1"
        )
        registry.rollback()
        rebuilt = registry.record_for(bad.version)
        assert rebuilt is not bad
        assert (
            rebuilt.fitness, rebuilt.generation, rebuilt.source
        ) == (9.5, 4, "clan1")
        assert encode_genome(rebuilt.genome) == encode_genome(bad.genome)

    def test_soak_keeps_compiled_state_to_the_rollback_window(
        self, config, monkeypatch
    ):
        """10 000 publishes, no fleet, no wall clock: what the registry
        keeps per retired version is its genome wire plus a bounded
        entry, and the rollback window still redeploys as compiled."""
        genomes = list(Population(config, seed=0).genomes.values())
        registry = ChampionRegistry(config)
        first = registry.publish(genomes[0])
        first_plan = encode_batched_plan(first.plan)
        first_outputs = [
            first.scalar_network().activate(o) for o in _OBSERVATIONS
        ]
        del first
        for i in range(1, 1000):
            registry.publish(genomes[i % len(genomes)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1000, 10000):
                registry.publish(genomes[i % len(genomes)])
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        wire = max(len(encode_genome(genome)) for genome in genomes)
        assert growth < 9000 * (wire + RETIRED_OVERHEAD_BYTES)
        assert _live_records(config) <= registry.rollback_depth + 1

        rebuilt = registry.record_for(1)
        assert encode_batched_plan(rebuilt.plan) == first_plan
        scalar = rebuilt.scalar_network()
        assert [scalar.activate(o) for o in _OBSERVATIONS] == first_outputs

        def no_compile(*args, **kwargs):
            raise AssertionError("a rollback compiled")

        monkeypatch.setattr(
            "repro.serve.registry.compile_batched", no_compile
        )
        for version in range(9999, 9999 - registry.rollback_depth, -1):
            restored = registry.rollback()
            assert restored.version == version
            assert restored.network.plan is restored.plan
        with pytest.raises(LookupError):
            registry.rollback()

    def test_record_for_races_publishes_and_rollbacks(self, config):
        """Readers resolving versions while two threads publish and
        roll back always get the plan that version was published with,
        whether it is deployable or retired at that moment."""
        genomes = [
            make_evolved_genome(config, seed=seed, mutations=10, key=seed)
            for seed in range(4)
        ]
        registry = ChampionRegistry(config, rollback_depth=2)
        plans: dict[int, bytes] = {}
        plans_lock = threading.Lock()
        done = threading.Event()
        errors = []

        def publisher(offset):
            try:
                for i in range(60):
                    record = registry.publish(genomes[(i + offset) % 4])
                    with plans_lock:
                        plans[record.version] = encode_batched_plan(
                            record.plan
                        )
                    if i % 7 == 6:
                        registry.rollback()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            checked = 0
            try:
                while not done.is_set() or not checked:
                    with plans_lock:
                        known = list(plans.items())
                    for version, plan in known[-5:]:
                        record = registry.record_for(version)
                        assert record.version == version
                        assert encode_batched_plan(record.plan) == plan
                        checked += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            publishers = [
                threading.Thread(target=publisher, args=(offset,))
                for offset in range(2)
            ]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for thread in publishers + readers:
                thread.start()
            for thread in publishers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in publishers + readers)
        assert not errors
        assert sorted(plans) == list(range(1, 121))
        assert _live_records(config) <= registry.rollback_depth + 1
