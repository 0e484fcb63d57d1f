"""The load driver against a fake ``submit`` (no fleet, no forks)."""

from __future__ import annotations

import asyncio
import random
from types import SimpleNamespace

from benchmarks.perf import load
from benchmarks.perf.stats import INF, percentile


def served(action=1, version=1):
    return SimpleNamespace(
        action=action, champion_version=version, latency_s=0.001
    )


def test_schedule_comes_from_the_seed_alone():
    one = load.poisson_schedule(2000.0, 0.5, random.Random(7))
    two = load.poisson_schedule(2000.0, 0.5, random.Random(7))
    other = load.poisson_schedule(2000.0, 0.5, random.Random(8))
    assert one == two != other
    assert one == sorted(one) and 0.0 < one[0] and one[-1] < 0.5
    # a Poisson process offers rate * duration requests on average
    assert 800 < len(one) < 1200


def test_open_loop_times_from_due_and_reports_lateness():
    pool = load.observations(4, 2, random.Random(0))
    seen = []

    async def submit(observation):
        seen.append(observation)
        await asyncio.sleep(0.002)
        return served()

    async def main():
        schedule = [0.001 * (i + 1) for i in range(20)]
        return await load.open_loop(submit, schedule, pool, 3)

    phase = asyncio.run(main())
    assert phase.offered == 20 and phase.count(load.OK) == 20
    # request i carries pool[(base + i) % len(pool)]
    assert seen[:3] == [pool[3], pool[0], pool[1]]
    assert phase.observation(1) == pool[0]
    for i in range(20):
        assert phase.due[i] <= phase.sent[i] <= phase.done[i]
    # latency counts from the due time, so it includes the lateness
    lateness = phase.lateness_ms()
    latencies = phase.latencies_ms()
    assert all(late >= 0.0 for late in lateness)
    assert all(
        latency >= late + 2.0 - 1e-6
        for latency, late in zip(latencies, lateness)
    )


def test_shed_and_failed_requests_count_as_infinite():
    from repro.serve.batcher import Overloaded

    calls = iter(range(100))

    async def submit(_observation):
        turn = next(calls)
        if turn % 10 == 0:
            raise Overloaded("full")
        if turn % 10 == 1:
            raise RuntimeError("replica died")
        return served()

    async def main():
        schedule = [0.0001 * i for i in range(100)]
        return await load.open_loop(submit, schedule, [[0.0]], 0)

    phase = asyncio.run(main())
    assert phase.count(load.SHED) == 10
    assert phase.count(load.FAILED) == 10
    assert phase.count(load.OK) == 80 == len(phase.answered())
    # 20% missing: p95 is infinite, p50 is not
    assert percentile(phase.latencies_ms(), 95) == INF
    assert percentile(phase.latencies_ms(), 50) < INF


def test_closed_loop_keeps_a_fixed_number_outstanding():
    outstanding = peak = 0

    async def submit(_observation):
        nonlocal outstanding, peak
        outstanding += 1
        peak = max(peak, outstanding)
        await asyncio.sleep(0.001)
        outstanding -= 1
        return served(version=3)

    async def main():
        return await load.closed_loop(submit, [[0.0]], 0, 8, 100)

    phase = asyncio.run(main())
    assert phase.offered == 100 and phase.count(load.OK) == 100
    assert peak == 8
    assert set(phase.version) == {3}
    assert phase.answers_per_s() > 0.0
    # no schedule to be late for
    assert max(phase.lateness_ms()) < 1.0


def test_backlog_detector_needs_a_growing_queue():
    phase = load.PhaseResult([[0.0]], 0, [float(i) for i in range(100)])
    for i in range(100):
        phase.outcome[i] = load.OK
        phase.done[i] = phase.due[i] + 0.004
    assert not phase.backlog_grows()
    for i in range(100):
        phase.done[i] = phase.due[i] + 0.004 + 0.001 * i
    assert phase.backlog_grows()
