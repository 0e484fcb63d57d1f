#!/usr/bin/env python3
"""Horizontally scaled serving: a replica fleet under a hot-swap.

A :class:`~repro.serve.fleet.ServingFleet` runs two full inference
gateways in worker processes behind a seeded load balancer, all fed
from one champion registry. The script drives two phases of seeded
Poisson load with a champion hot-swap in between: the publish streams
the compiled plan down every replica pipe, each replica acks the
deployment sequence number, and ``wait_deployed`` returns only when
every replica is on the new champion — after which not a single
response may carry the old version (monotone propagation).

Afterwards the script audits every response against the scalar
inference of the exact champion version it was attributed to, and
prints the per-replica load split the balancer produced.

Run:  python examples/fleet_serving.py
"""

import asyncio

from repro.neat.config import NEATConfig
from repro.neat.population import Population
from repro.serve import (
    ChampionRegistry,
    LoadGenerator,
    ServingFleet,
    observation_sampler,
)

ENV_ID = "CartPole-v0"
REPLICAS = 2
REQUESTS_PER_PHASE = 300
RATE_HZ = 600.0
SEED = 0


async def serve() -> None:
    config = NEATConfig.for_env(ENV_ID, pop_size=16)
    registry = ChampionRegistry(config)
    fleet = ServingFleet(
        registry,
        replicas=REPLICAS,
        max_batch=16,
        seed=SEED,
    )
    await fleet.start()

    # two deterministic champions to swap between, from the same seeded
    # population the evolution stack would draw from
    population = Population(config, seed=SEED)
    keys = sorted(population.genomes)
    reports = []
    for phase, key in enumerate(keys[:2], start=1):
        record = registry.publish(
            population.genomes[key], source=f"phase{phase}"
        )
        await fleet.wait_deployed()
        print(
            f"phase {phase}: champion v{record.version} deployed to "
            f"all {REPLICAS} replicas (registry seq {registry.seq})"
        )
        generator = LoadGenerator(
            fleet.submit,
            observation_sampler(ENV_ID),
            rate_hz=RATE_HZ,
            n_requests=REQUESTS_PER_PHASE,
            seed=SEED + phase,
        )
        reports.append(await generator.run())

    stats = await fleet.scrape()
    per_replica = fleet.replica_stats()
    traces = fleet.version_traces()
    await fleet.close()

    print(
        f"\nfleet served {stats.served} requests at {stats.qps:,.0f} "
        f"qps (p50 {stats.p50_latency_s * 1e3:.2f}ms, p95 "
        f"{stats.p95_latency_s * 1e3:.2f}ms, shed {stats.shed})"
    )
    for replica_id, rstats in sorted(per_replica.items()):
        print(
            f"  replica {replica_id}: {rstats.served} served at "
            f"{rstats.qps:,.0f} qps, versions served {traces[replica_id]}"
        )

    # audits: (1) no stale-version serves — phase N was answered
    # entirely by champion vN; (2) every action equals the scalar
    # inference of the record it was attributed to (record_for)
    stale = 0
    mismatches = 0
    scalar_by_version = {}
    for phase, report in enumerate(reports, start=1):
        for observation, served in zip(
            report.observations, report.responses
        ):
            if served is None:
                continue
            if served.champion_version != phase:
                stale += 1
            scalar = scalar_by_version.setdefault(
                served.champion_version,
                registry.record_for(
                    served.champion_version
                ).scalar_network(),
            )
            if served.action != scalar.policy(observation):
                mismatches += 1
    registry.close()
    print(
        f"stale-version serves after hot-swap: {stale}; "
        f"scalar parity mismatches: {mismatches}"
    )


def main() -> None:
    asyncio.run(serve())


if __name__ == "__main__":
    main()
