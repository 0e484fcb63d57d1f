"""Micro-batched serving vs sequential scalar serving (extension).

PRs 1–2 vectorized *evaluation*; this benchmark measures the serving
counterpart: the :mod:`repro.serve` gateway coalesces concurrent
single-observation requests into batched forward passes through the
champion's pre-compiled plan, where sequential scalar serving answers
them one interpreted ``policy`` call at a time.

Both paths serve the same burst of requests against the same evolved
champion and must return *identical* actions — micro-batching is a pure
execution change (tests/test_serve_batcher.py owns the per-request
parity invariant; repeating the check here keeps the report honest).
Results go to ``reports/bench_serving_latency.txt`` and, machine-readably
(p50/p95 latency, qps, batch histogram), to
``reports/bench_serving_latency.json`` for the CI trend gate.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.neat.config import NEATConfig
from repro.neat.network import FeedForwardNetwork
from repro.serve import ChampionRegistry, InferenceGateway
from repro.utils.fmt import format_seconds, format_table

from benchmarks.conftest import run_once
from tests.conftest import make_evolved_genome

#: concurrent requests in the served burst
N_REQUESTS = 2000
#: observation dimensionality of the CartPole workload
OBS_DIM = 4
#: growth-boosted mutation budget: serving economics only appear once the
#: champion is big enough that a scalar forward pass dwarfs the per-request
#: asyncio overhead (~450 genes here; deployed continuous-learning
#: champions grow unbounded, unlike the paper's small converged policies)
MUTATIONS = 300
#: gateway coalescing cap for the burst
MAX_BATCH = 128
#: timing repetitions; the minimum is reported
REPEATS = 3
#: acceptance floor: the micro-batched gateway must beat sequential
#: scalar serving by at least this factor at equal correctness
MIN_SPEEDUP = 3.0


def _champion_config() -> NEATConfig:
    return NEATConfig.for_env(
        "CartPole-v0",
        node_add_prob=0.4,
        conn_add_prob=0.55,
        node_delete_prob=0.0,
        conn_delete_prob=0.0,
    )


def _observations() -> list[list[float]]:
    rng = random.Random(11)
    return [
        [rng.uniform(-1.0, 1.0) for _ in range(OBS_DIM)]
        for _ in range(N_REQUESTS)
    ]


def _serve_burst(registry, observations):
    """Serve the whole burst through a fresh gateway; returns
    ``(actions, elapsed_s, ServiceStats)``."""

    async def run():
        gateway = InferenceGateway(
            registry,
            max_batch=MAX_BATCH,
            close_registry=False,
        )
        await gateway.start()
        start = time.perf_counter()
        served = await asyncio.gather(
            *(gateway.submit(obs) for obs in observations)
        )
        elapsed = time.perf_counter() - start
        stats = gateway.stats()
        await gateway.close()
        return [s.action for s in served], elapsed, stats

    return asyncio.run(run())


def test_serving_latency_speedup(benchmark, report_sink, json_sink):
    config = _champion_config()
    champion = make_evolved_genome(
        config, seed=5, mutations=MUTATIONS, key=1
    )
    observations = _observations()
    registry = ChampionRegistry(config)
    registry.publish(champion, source="bench")
    scalar = FeedForwardNetwork.create(champion, config)

    # sequential scalar serving: one interpreted policy call per request
    sequential_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        expected = [scalar.policy(obs) for obs in observations]
        sequential_s = min(
            sequential_s, time.perf_counter() - start
        )

    # micro-batched serving: same burst, coalesced forward passes
    best_s = float("inf")
    actions = stats = None
    for repeat in range(REPEATS):
        if repeat == 0:
            burst_actions, elapsed, burst_stats = run_once(
                benchmark,
                lambda: _serve_burst(registry, observations),
            )
        else:
            burst_actions, elapsed, burst_stats = _serve_burst(
                registry, observations
            )
        if elapsed < best_s:
            best_s, actions, stats = elapsed, burst_actions, burst_stats

    # equal correctness is the precondition for comparing the timings
    assert actions == expected, (
        "micro-batched actions diverged from sequential scalar serving"
    )

    speedup = sequential_s / best_s
    rows = [
        ["sequential scalar", f"{sequential_s * 1e3:.1f}",
         f"{N_REQUESTS / sequential_s:,.0f}", "-", "-", "1.0x"],
        ["micro-batched gateway", f"{best_s * 1e3:.1f}",
         f"{N_REQUESTS / best_s:,.0f}",
         format_seconds(stats.p50_latency_s),
         format_seconds(stats.p95_latency_s),
         f"{speedup:.1f}x"],
    ]
    report_sink(
        "bench_serving_latency",
        f"Micro-batched serving — {N_REQUESTS} concurrent requests, "
        f"{champion.gene_count()}-gene champion, CartPole-v0\n"
        + format_table(
            ["serving path", "time (ms)", "req/s", "p50", "p95",
             "speedup"],
            rows,
        )
        + f"\nmean batch size {stats.mean_batch_size:.1f}, "
        f"shed {stats.shed}; action parity: exact for all "
        f"{N_REQUESTS} requests",
    )
    json_sink(
        "bench_serving_latency",
        {
            "n_requests": N_REQUESTS,
            "champion_genes": champion.gene_count(),
            "max_batch": MAX_BATCH,
            "sequential_s": sequential_s,
            "micro_batched_s": best_s,
            "speedup": speedup,
            "qps_sequential": N_REQUESTS / sequential_s,
            "qps_micro_batched": N_REQUESTS / best_s,
            "p50_latency_s": stats.p50_latency_s,
            "p95_latency_s": stats.p95_latency_s,
            # the raw samples behind p50/p95, in answer order
            "latency_window_s": stats.latency_window.tolist(),
            "mean_batch_size": stats.mean_batch_size,
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(
                    stats.batch_size_histogram.items()
                )
            },
            "shed": stats.shed,
            "action_parity": True,
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched serving only {speedup:.1f}x faster; need "
        f">= {MIN_SPEEDUP}x"
    )
