"""Micro-batch parity and coalescing behaviour.

The core invariant (an ISSUE acceptance criterion): for *any*
interleaving of requests, the actions a :class:`MicroBatcher` returns are
identical to running each request alone through the champion's scalar
``FeedForwardNetwork.activate`` — micro-batching is invisible to callers.
"""

import asyncio
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.metrics import percentiles
from repro.neat.config import NEATConfig
from repro.neat.network import (
    BatchedFeedForwardNetwork,
    FeedForwardNetwork,
)
from repro.serve import (
    MicroBatcher,
    Overloaded,
    ServedAction,
    ServiceClosed,
)
from repro.serve.batcher import LATENCY_WINDOW

from tests.conftest import make_evolved_genome
from tests.test_core_metrics import exact, sorted_percentile

pytestmark = pytest.mark.lock_check

CONFIG = NEATConfig.for_env("CartPole-v0")
CHAMPION = make_evolved_genome(CONFIG, seed=5, mutations=40, key=1)
BATCHED = BatchedFeedForwardNetwork.create(CHAMPION, CONFIG)

#: the batcher's execution hook: one registry-snapshot-like closure
_INFER = lambda observations: (1, BATCHED.policy_batch(observations))


def _scalar_actions(observations):
    """Per-request reference: a fresh interpreter per call site."""
    scalar = FeedForwardNetwork.create(CHAMPION, CONFIG)
    return [scalar.policy(obs) for obs in observations]


observation = st.lists(
    st.floats(
        min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
    ),
    min_size=4,
    max_size=4,
)
#: an interleaving: bursts of concurrent submits separated by loop yields
interleaving = st.lists(
    st.lists(observation, min_size=1, max_size=5),
    min_size=1,
    max_size=6,
)


async def _drive(rounds, max_batch):
    batcher = MicroBatcher(_INFER, max_batch=max_batch)
    await batcher.start()
    tasks = []
    for burst in rounds:
        for obs in burst:
            tasks.append(asyncio.ensure_future(batcher.submit(obs)))
        # yield between bursts so flushes interleave with arrivals
        await asyncio.sleep(0)
    results = await asyncio.gather(*tasks)
    await batcher.close()
    return results, batcher


class TestParityProperty:
    @given(
        rounds=interleaving,
        max_batch=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_any_interleaving_matches_scalar_inference(
        self, rounds, max_batch
    ):
        results, _ = asyncio.run(_drive(rounds, max_batch))
        flat = [obs for burst in rounds for obs in burst]
        expected = _scalar_actions(flat)
        assert [served.action for served in results] == expected

    @given(rounds=interleaving)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_every_request_is_answered_exactly_once(self, rounds):
        results, batcher = asyncio.run(_drive(rounds, 4))
        n = sum(len(burst) for burst in rounds)
        assert len(results) == n
        assert batcher.served == n
        assert sum(
            size * count
            for size, count in batcher.batch_size_histogram.items()
        ) == n


class TestCoalescing:
    def test_concurrent_burst_coalesces_into_one_batch(self):
        async def run():
            batcher = MicroBatcher(_INFER, max_batch=16)
            await batcher.start()
            observations = [[0.1 * i, 0.0, 0.0, 0.0] for i in range(10)]
            results = await asyncio.gather(
                *(batcher.submit(obs) for obs in observations)
            )
            await batcher.close()
            return results, batcher

        results, batcher = asyncio.run(run())
        assert batcher.batch_size_histogram == {10: 1}
        assert all(served.batch_size == 10 for served in results)

    def test_max_batch_caps_flush_size(self):
        async def run():
            batcher = MicroBatcher(_INFER, max_batch=4)
            await batcher.start()
            observations = [[0.0, 0.0, 0.0, 0.0]] * 10
            await asyncio.gather(
                *(batcher.submit(obs) for obs in observations)
            )
            await batcher.close()
            return batcher

        batcher = asyncio.run(run())
        assert max(batcher.batch_size_histogram) <= 4

    def test_zero_wait_still_batches_queued_requests(self):
        """The collector flushes whatever is already queued — latency
        floor without losing burst coalescing."""

        async def run():
            batcher = MicroBatcher(_INFER, max_batch=32)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit([0.0] * 4) for _ in range(8))
            )
            await batcher.close()
            return results

        results = asyncio.run(run())
        assert len(results) == 8

    def test_latency_is_recorded_per_request(self):
        async def run():
            batcher = MicroBatcher(_INFER, max_batch=8)
            await batcher.start()
            await asyncio.gather(
                *(batcher.submit([0.0] * 4) for _ in range(6))
            )
            await batcher.close()
            return batcher

        batcher = asyncio.run(run())
        assert len(batcher.latencies_s) == 6
        assert all(latency >= 0 for latency in batcher.latencies_s)


class TestLatencyWindowProperty:
    """Past ``LATENCY_WINDOW`` answered rows the batcher keeps the last
    ``LATENCY_WINDOW`` latencies in answer order — what a deque with
    that ``maxlen`` kept — and ranks them as ``sorted()`` does."""

    @given(
        lead=st.integers(min_value=1, max_value=9000),
        tail=st.lists(
            st.integers(min_value=1, max_value=9000), max_size=4
        ),
        max_batch=st.integers(min_value=64, max_value=8192),
    )
    # a flush boundary off the ring's end: one block's run wraps
    @example(lead=1, tail=[], max_batch=100)
    # one flush, whose first run is longer than the ring
    @example(lead=LATENCY_WINDOW + 3, tail=[5], max_batch=2**18)
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_window_is_the_newest_rows_in_answer_order(
        self, lead, tail, max_batch
    ):
        sizes = [lead, LATENCY_WINDOW] + tail
        flushes = itertools.count()

        def infer(observations):
            # the flush number stands in for the version: every run of a
            # block then says which flush answered it
            return next(flushes), np.zeros(len(observations), np.int64)

        async def run():
            batcher = MicroBatcher(
                infer, max_batch=max_batch, max_pending=sum(sizes)
            )
            await batcher.start()
            futures = [
                batcher.enqueue_block(np.zeros((size, 4))) for size in sizes
            ]
            blocks = await asyncio.gather(*futures)
            await batcher.close()
            return batcher, blocks

        batcher, blocks = asyncio.run(run())
        # rows answered by one flush sit in block order within it
        runs = sorted(
            (flush, index, len(actions), latency)
            for index, block in enumerate(blocks)
            for actions, flush, _size, latency in block.runs
        )
        answered = [
            latency for _, _, rows, latency in runs for _ in range(rows)
        ]
        assert len(answered) == sum(sizes) > LATENCY_WINDOW
        window = batcher.latencies_s
        assert exact(window) == exact(answered[-LATENCY_WINDOW:])
        got = percentiles(window, 50, 95)
        assert exact(got) == exact(
            sorted_percentile(answered[-LATENCY_WINDOW:], q)
            for q in (50, 95)
        )
        assert batcher.metrics_snapshot()[3] == window


class TestBackpressure:
    def test_overflow_is_shed_and_counted(self):
        async def run():
            batcher = MicroBatcher(_INFER, max_batch=4, max_pending=3)
            await batcher.start()
            tasks = [
                asyncio.ensure_future(batcher.submit([0.0] * 4))
                for _ in range(10)
            ]
            outcomes = await asyncio.gather(
                *tasks, return_exceptions=True
            )
            await batcher.close()
            return outcomes, batcher

        outcomes, batcher = asyncio.run(run())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert batcher.shed == len(shed) > 0
        assert batcher.served == len(served) > 0
        assert len(shed) + len(served) == 10

    def test_submit_after_close_raises(self):
        async def run():
            batcher = MicroBatcher(_INFER)
            await batcher.start()
            await batcher.close()
            with pytest.raises(ServiceClosed):
                await batcher.submit([0.0] * 4)

        asyncio.run(run())

    def test_infer_failure_propagates_to_every_request(self):
        def broken(observations):
            raise RuntimeError("backend exploded")

        async def run():
            batcher = MicroBatcher(broken, max_batch=4)
            await batcher.start()
            outcomes = await asyncio.gather(
                *(batcher.submit([0.0] * 4) for _ in range(3)),
                return_exceptions=True,
            )
            await batcher.close()
            return outcomes

        outcomes = asyncio.run(run())
        assert len(outcomes) == 3
        assert all(isinstance(o, RuntimeError) for o in outcomes)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(_INFER, max_batch=0)

    def test_malformed_observation_fails_only_its_batch(self):
        """Regression: a ragged observation must not kill the collector
        task (which would hang every other in-flight request forever)."""

        async def run():
            batcher = MicroBatcher(_INFER, max_batch=8)
            await batcher.start()
            outcomes = await asyncio.gather(
                batcher.submit([0.1, 0.2, 0.3, 0.4]),
                batcher.submit([0.1, 0.2]),  # wrong arity
                return_exceptions=True,
            )
            # the collector survived: later requests still get answers
            later = await batcher.submit([0.5, 0.5, 0.5, 0.5])
            await batcher.close()
            return outcomes, later

        outcomes, later = asyncio.run(run())
        assert any(isinstance(o, Exception) for o in outcomes)
        assert later.action in (0, 1)


# -- the block path ----------------------------------------------------------

OTHER = make_evolved_genome(CONFIG, seed=9, mutations=40, key=2)


def _oracle(genome):
    scalar = FeedForwardNetwork.create(genome, CONFIG)
    return lambda obs: scalar.policy(obs)


#: one submit: a single observation, or a block whose size is
#: ``max_batch + delta`` rows (so below, at and above the flush cap
#: whatever cap the example drew), cut from 24 drawn observations
submission = st.one_of(
    st.tuples(st.just("one"), observation),
    st.tuples(
        st.sampled_from([-3, -1, 0, 1, 8, 13]),
        st.lists(observation, min_size=24, max_size=24),
    ),
)
mixed_interleaving = st.lists(
    st.lists(submission, min_size=1, max_size=4),
    min_size=1,
    max_size=5,
)


async def _drive_mixed(rounds, max_batch):
    """Submit singles and blocks in bursts; returns ``(rows, answer)``
    per submission, in submission order, and the drained batcher."""
    batcher = MicroBatcher(_INFER, max_batch=max_batch)
    await batcher.start()
    submitted = []
    for burst in rounds:
        for kind, payload in burst:
            if kind == "one":
                rows = [payload]
                task = asyncio.ensure_future(batcher.submit(payload))
            else:
                rows = payload[: max(1, min(24, max_batch + kind))]
                task = asyncio.ensure_future(batcher.submit_block(rows))
            submitted.append((rows, task))
        await asyncio.sleep(0)
    answers = await asyncio.gather(*(task for _, task in submitted))
    await batcher.close()
    return [
        (rows, answer) for (rows, _), answer in zip(submitted, answers)
    ], batcher


class TestBlockParityProperty:
    @given(
        rounds=mixed_interleaving,
        max_batch=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_mixed_single_and_block_submits_match_scalar_inference(
        self, rounds, max_batch
    ):
        answered, batcher = asyncio.run(_drive_mixed(rounds, max_batch))
        total = 0
        for rows, answer in answered:
            expected = _scalar_actions(rows)
            total += len(rows)
            if isinstance(answer, ServedAction):
                assert [answer.action] == expected
                assert 1 <= answer.batch_size <= max_batch
                continue
            # every row of the block answered exactly once, in order
            assert answer.accepted == len(rows)
            actions, versions, sizes, latencies = answer.columns()
            assert actions.tolist() == expected
            assert versions.tolist() == [1] * len(rows)
            assert all(1 <= size <= max_batch for size in sizes.tolist())
            assert len(latencies) == len(rows)
            assert sum(len(run[0]) for run in answer.runs) == len(rows)
        assert batcher.accepted == batcher.served == total
        assert batcher.shed == 0
        assert max(batcher.batch_size_histogram) <= max_batch
        assert sum(
            size * count
            for size, count in batcher.batch_size_histogram.items()
        ) == total
        # the reservoir stays per row
        assert len(batcher.latencies_s) == total


class TestBlockPath:
    def test_swap_between_flushes_of_one_block(self):
        """A block split across flushes may straddle a hot-swap: its
        version column is non-decreasing and every row matches the
        scalar oracle of the version it names."""
        genomes = {1: CHAMPION, 2: OTHER}
        networks = {
            version: BatchedFeedForwardNetwork.create(genome, CONFIG)
            for version, genome in genomes.items()
        }
        calls = []

        def infer(observations):
            # the swap lands after the first flush
            version = 1 if not calls else 2
            calls.append(len(observations))
            return version, networks[version].policy_batch(observations)

        rows = [[0.1 * i, -0.2, 0.05 * i, 0.3] for i in range(10)]

        async def run():
            batcher = MicroBatcher(infer, max_batch=4)
            await batcher.start()
            answer = await batcher.submit_block(rows)
            await batcher.close()
            return answer

        answer = asyncio.run(run())
        assert calls == [4, 4, 2]
        actions, versions, sizes, _ = answer.columns()
        assert versions.tolist() == [1] * 4 + [2] * 6
        assert sizes.tolist() == [4] * 8 + [2] * 2
        oracles = {v: _oracle(g) for v, g in genomes.items()}
        assert actions.tolist() == [
            oracles[version](obs)
            for version, obs in zip(versions.tolist(), rows)
        ]

    def test_partial_shed_counts_rows(self):
        """``max_pending`` counts rows: the head of a block that fits is
        answered, the tail is shed, and a single submit behind it gets
        the same ``Overloaded``."""

        async def run():
            batcher = MicroBatcher(_INFER, max_batch=4, max_pending=5)
            await batcher.start()
            rows = [[0.1 * i, 0.0, 0.0, 0.0] for i in range(8)]
            block = asyncio.ensure_future(batcher.submit_block(rows))
            await asyncio.sleep(0)  # queued, the collector has not run
            counters = (batcher.accepted, batcher.shed)
            with pytest.raises(Overloaded):
                await batcher.submit([0.0] * 4)
            empty = await batcher.submit_block(rows[:2])
            answer = await block
            await batcher.close()
            return rows, counters, empty, answer, batcher

        rows, counters, empty, answer, batcher = asyncio.run(run())
        assert counters == (5, 3)
        assert empty.accepted == 0 and empty.runs == []
        assert [len(column) for column in empty.columns()] == [0] * 4
        assert answer.accepted == 5
        assert answer.columns()[0].tolist() == _scalar_actions(rows[:5])
        # 3 (block tail) + 1 (single) + 2 (the all-shed block)
        assert (batcher.accepted, batcher.served, batcher.shed) == (5, 5, 6)

    def test_close_drains_a_half_flushed_block(self):
        """``close`` lands while a block is half consumed (here: from
        inside its first flush — the only place single-threaded code
        can observe that state): the rest of the block is still
        answered before the sentinel stops the collector."""
        closing = []

        async def run():
            def infer(observations):
                if not closing:
                    # runs close() up to its first await: intake stops
                    # and the sentinel is queued behind the block's tail
                    closer = batcher.close()
                    closer.send(None)
                    closing.append(closer)
                return _INFER(observations)

            batcher = MicroBatcher(infer, max_batch=4)
            await batcher.start()
            rows = [[0.05 * i, 0.1, -0.1, 0.2] for i in range(10)]
            answer = await batcher.submit_block(rows)
            with pytest.raises(ServiceClosed):
                await batcher.submit(rows[0])
            closing[0].close()
            await batcher._task
            return rows, answer, batcher

        rows, answer, batcher = asyncio.run(run())
        assert answer.accepted == 10
        assert answer.columns()[0].tolist() == _scalar_actions(rows)
        assert batcher.served == 10
        assert batcher.batch_size_histogram == {4: 2, 2: 1}

    def test_cancelled_block_is_skipped(self):
        async def run():
            batcher = MicroBatcher(_INFER, max_batch=4)
            await batcher.start()
            doomed = asyncio.ensure_future(
                batcher.submit_block([[0.0] * 4] * 6)
            )
            kept = asyncio.ensure_future(batcher.submit([0.1] * 4))
            await asyncio.sleep(0)
            doomed.cancel()
            served = await kept
            await batcher.close()
            return served, batcher

        served, batcher = asyncio.run(run())
        assert served.batch_size == 1
        assert batcher.accepted == 7
        assert batcher.served == 1
        assert batcher._pending_rows == 0

    def test_one_flush_span_per_flush(self):
        from repro.obs import tracer as obs_tracer

        async def run():
            batcher = MicroBatcher(_INFER, max_batch=4)
            await batcher.start()
            await batcher.submit_block([[0.0] * 4] * 10)
            await batcher.close()

        tracer = obs_tracer.Tracer(track="test")
        obs_tracer.activate(tracer)
        try:
            asyncio.run(run())
        finally:
            obs_tracer.deactivate()
        flushes = [
            event for event in tracer.drain()
            if event["name"] == "batch_flush"
        ]
        assert [event["args"]["size"] for event in flushes] == [4, 4, 2]
        assert all(event["args"]["version"] == 1 for event in flushes)

    def test_rejects_a_block_that_is_not_a_matrix(self):
        async def run():
            batcher = MicroBatcher(_INFER)
            await batcher.start()
            with pytest.raises(ValueError):
                await batcher.submit_block([0.0] * 4)
            with pytest.raises(ValueError):
                await batcher.submit(0.5)
            await batcher.close()

        asyncio.run(run())

    def test_batcher_never_arms_a_timer(self):
        """Work-conserving means no coalescing timer, structurally: the
        batcher's source names no ``wait_for``, ``call_later``,
        ``call_at`` or ``sleep`` — the collector can only wait for a
        block or for ``close``."""
        import ast
        import inspect

        from repro.serve import batcher

        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(ast.parse(inspect.getsource(batcher)))
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert not names & {"wait_for", "call_later", "call_at", "sleep"}


class TestServingDefaults:
    def test_every_spelling_of_the_defaults_agrees(self, monkeypatch):
        """One definition: the four constructors that take the batching
        knobs and ``repro serve`` all default to the module constants
        next to ``MicroBatcher`` — and none of them spells a knob the
        window sweep deleted (``docs/serving.md``)."""
        import inspect

        from repro.cli import _build_parser, main
        from repro.serve import (
            ContinuousService,
            InferenceGateway,
            ServingFleet,
            batcher,
        )

        expected = {
            "max_batch": batcher.DEFAULT_MAX_BATCH,
            "max_pending": batcher.DEFAULT_MAX_PENDING,
        }
        removed = {
            "max_wait_s",
            "slo_p95_s",
            "autotune_interval_s",
            "backend",
            "eval_mode",
        }
        for owner in (
            MicroBatcher,
            InferenceGateway,
            ServingFleet,
            ContinuousService,
        ):
            parameters = inspect.signature(owner).parameters
            assert {
                name: parameters[name].default for name in expected
            } == expected, owner
            assert not removed & set(parameters), owner
        # the parser says None = "the library's default" (so building
        # it never imports repro.serve); _cmd_serve resolves it
        args = _build_parser().parse_args(["serve", "CartPole-v0"])
        assert args.max_batch is None
        seen = {}

        class Captured(Exception):
            pass

        def capture(*args, **kwargs):
            seen.update(kwargs)
            raise Captured

        monkeypatch.setattr("repro.serve.ContinuousService", capture)
        with pytest.raises(Captured):
            main(["serve", "CartPole-v0"])
        assert seen["max_batch"] == expected["max_batch"]
        assert "max_pending" not in seen

    @pytest.mark.parametrize(
        "flag, value", [("--max-wait-ms", "1"), ("--slo-p95-ms", "20")]
    )
    def test_removed_flags_are_refused(self, flag, value, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as refused:
            main(["serve", "CartPole-v0", flag, value])
        assert refused.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
