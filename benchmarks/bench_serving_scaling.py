"""Fleet serving scaling: 1 -> 4 gateway replicas (extension).

PR 4's micro-batched gateway is capped by one event loop and one GIL;
the :class:`~repro.serve.fleet.ServingFleet` shards traffic across
replica *processes* behind a seeded balancer. This benchmark drives the
identical seeded Poisson load (same arrival times, same observations)
against a 1-replica and a 4-replica fleet, with a champion hot-swap
between two load phases, and gates three claims:

* **scaling** — >= 2.5x fleet qps at 4 replicas (asserted only on hosts
  with >= 4 cores; a 1-core container cannot physically scale, but the
  correctness audits below still run there);
* **parity** — every response's action equals what a fresh scalar
  interpreter of the champion version it was *attributed to* (via
  ``ChampionRegistry.record_for``) produces for that observation;
* **monotone deployment** — zero stale-version serves: phase A is
  answered entirely by v1, phase B entirely by v2, and no replica's
  served-version trace ever regresses.

Results go to ``reports/bench_serving_scaling.txt`` and (for the CI
artifact) ``reports/bench_serving_scaling.json``.
"""

from __future__ import annotations

import asyncio
import os
import random

from repro.neat.config import NEATConfig
from repro.serve import ChampionRegistry, LoadGenerator, ServingFleet
from repro.utils.fmt import format_seconds, format_table

from benchmarks.conftest import run_once
from tests.conftest import make_evolved_genome

#: requests per load phase (two phases: before and after the hot-swap)
N_REQUESTS = 1200
#: offered Poisson rate — far above single-replica capacity, so the
#: measured qps is service-rate-bound, not arrival-rate-bound
RATE_HZ = 50_000.0
#: observation dimensionality of the CartPole workload
OBS_DIM = 4
#: mutation budget: a big champion makes replica compute dominate the
#: parent's pipe/balancing overhead (same reasoning as
#: bench_serving_latency's growth-boosted champion). Kept at a size
#: where batched-vs-scalar float accumulation order cannot flip a
#: near-tied argmax — the parity gate is *exact* by design
MUTATIONS = 400
#: replica batch cap. A latency-oriented cap keeps per-request replica
#: compute well above the parent's per-request dispatch cost — the
#: regime where adding replicas buys throughput (a huge batch cap
#: amortises the replica's work so far down that the shared dispatch
#: path becomes the ceiling instead)
MAX_BATCH = 8
#: effectively-unbounded queues: shedding would hide the capacity gap
MAX_PENDING = 1 << 16
#: fleet sizes under test
FLEETS = (1, 4)
#: acceptance floor for 4-replica scaling (see module docstring)
MIN_SPEEDUP = 2.5
#: the scaling gate needs real parallelism to be physically possible
GATE_ACTIVE = (os.cpu_count() or 1) >= 4


def _champion_config() -> NEATConfig:
    return NEATConfig.for_env(
        "CartPole-v0",
        node_add_prob=0.4,
        conn_add_prob=0.55,
        node_delete_prob=0.0,
        conn_delete_prob=0.0,
    )


def _observations(seed: int) -> list[list[float]]:
    rng = random.Random(seed)
    return [
        [rng.uniform(-1.0, 1.0) for _ in range(OBS_DIM)]
        for _ in range(N_REQUESTS)
    ]


def _replay_sampler(observations):
    """A LoadGenerator sampler that replays a fixed observation list —
    both fleet sizes must see byte-identical load."""
    iterator = iter(observations)
    return lambda rng: next(iterator)


def _drive_fleet(config, champions, phases, replicas):
    """Two Poisson phases against one fleet, hot-swapping in between.

    Returns ``(phase_reports, version_traces, fleet_stats,
    per_replica_stats)``.
    """

    async def run():
        registry = ChampionRegistry(config)
        fleet = ServingFleet(
            registry,
            replicas=replicas,
            max_batch=MAX_BATCH,
            max_pending=MAX_PENDING,
            seed=7,
            max_inflight=MAX_PENDING,
        )
        await fleet.start()
        reports = []
        for champion, (observations, arrival_seed) in zip(
            champions, phases
        ):
            registry.publish(champion, source="bench")
            await fleet.wait_deployed()
            generator = LoadGenerator(
                fleet.submit,
                _replay_sampler(observations),
                rate_hz=RATE_HZ,
                n_requests=len(observations),
                seed=arrival_seed,
            )
            reports.append(await generator.run())
        stats = await fleet.scrape()
        per_replica = fleet.replica_stats()
        traces = fleet.version_traces()
        await fleet.close()
        registry_records = {
            version: registry.record_for(version)
            for version in (1, 2)
        }
        registry.close()
        return reports, traces, stats, per_replica, registry_records

    return asyncio.run(run())


def test_fleet_scaling(benchmark, report_sink, json_sink):
    config = _champion_config()
    champions = [
        make_evolved_genome(config, seed=5, mutations=MUTATIONS, key=1),
        make_evolved_genome(config, seed=9, mutations=MUTATIONS, key=2),
    ]
    phases = [
        (_observations(11), 101),
        (_observations(23), 202),
    ]

    results = {}
    for index, replicas in enumerate(FLEETS):
        drive = lambda r=replicas: _drive_fleet(
            config, champions, phases, r
        )
        if index == 0:
            results[replicas] = run_once(benchmark, drive)
        else:
            results[replicas] = drive()

    qps = {}
    for replicas in FLEETS:
        reports, traces, stats, per_replica, records = results[replicas]

        # -- monotone deployment: phase N served entirely by version N,
        #    and no replica's served-version trace ever regresses
        for phase_number, report in enumerate(reports, start=1):
            assert report.served == report.offered == N_REQUESTS, (
                f"{replicas}r phase {phase_number}: shed/failed load "
                "voids the comparison"
            )
            versions = {r.champion_version for r in report.responses}
            assert versions == {phase_number}, (
                f"{replicas}r phase {phase_number}: stale-version "
                f"serves (saw versions {sorted(versions)})"
            )
        for replica_id, trace in traces.items():
            assert trace == sorted(trace), (
                f"{replicas}r replica {replica_id}: served versions "
                f"regressed: {trace}"
            )

        # -- parity: every action equals a fresh scalar interpreter of
        #    the record the response was attributed to (record_for)
        scalars = {
            version: record.scalar_network()
            for version, record in records.items()
        }
        for report in reports:
            for observation, response in zip(
                report.observations, report.responses
            ):
                expected = scalars[response.champion_version].policy(
                    observation
                )
                assert response.action == expected, (
                    f"{replicas}r: action diverged from the scalar "
                    f"reference of v{response.champion_version}"
                )

        elapsed = sum(report.duration_s for report in reports)
        qps[replicas] = 2 * N_REQUESTS / elapsed

    speedup = qps[FLEETS[-1]] / qps[FLEETS[0]]

    rows = []
    for replicas in FLEETS:
        _, _, stats, per_replica, _ = results[replicas]
        shares = " ".join(
            f"r{rid}:{rstats.served}"
            for rid, rstats in sorted(per_replica.items())
            if rstats is not None
        )
        rows.append(
            [
                str(replicas),
                f"{qps[replicas]:,.0f}",
                format_seconds(stats.p50_latency_s),
                format_seconds(stats.p95_latency_s),
                str(stats.shed),
                shares,
                f"{qps[replicas] / qps[FLEETS[0]]:.2f}x",
            ]
        )
    gate_note = (
        f"gate: >= {MIN_SPEEDUP}x at {FLEETS[-1]} replicas (active)"
        if GATE_ACTIVE
        else f"gate: skipped — host has {os.cpu_count()} core(s), "
        "scaling is not physically possible"
    )
    report_sink(
        "bench_serving_scaling",
        f"Fleet scaling — 2x{N_REQUESTS} Poisson requests "
        f"({RATE_HZ:,.0f} Hz offered), hot-swap between phases, "
        f"{champions[0].gene_count()}-gene champion, CartPole-v0\n"
        + format_table(
            ["replicas", "qps", "p50", "p95", "shed", "per-replica",
             "scaling"],
            rows,
        )
        + f"\nparity: exact for all {2 * N_REQUESTS} requests per "
        f"fleet; stale-version serves: 0\n{gate_note}",
    )
    json_sink(
        "bench_serving_scaling",
        {
            "n_requests_per_phase": N_REQUESTS,
            "rate_hz": RATE_HZ,
            "champion_genes": champions[0].gene_count(),
            "max_batch": MAX_BATCH,
            "cores": os.cpu_count(),
            "gate_active": GATE_ACTIVE,
            "min_speedup": MIN_SPEEDUP,
            "speedup": speedup,
            "fleets": {
                str(replicas): {
                    "qps": qps[replicas],
                    "p50_latency_s": results[replicas][2].p50_latency_s,
                    "p95_latency_s": results[replicas][2].p95_latency_s,
                    "served": results[replicas][2].served,
                    "shed": results[replicas][2].shed,
                    "per_replica_served": {
                        str(rid): rstats.served
                        for rid, rstats in sorted(
                            results[replicas][3].items()
                        )
                        if rstats is not None
                    },
                }
                for replicas in FLEETS
            },
            "action_parity": True,
            "stale_version_serves": 0,
        },
    )

    if GATE_ACTIVE:
        assert speedup >= MIN_SPEEDUP, (
            f"{FLEETS[-1]}-replica fleet only {speedup:.2f}x the "
            f"single-replica qps; need >= {MIN_SPEEDUP}x"
        )
