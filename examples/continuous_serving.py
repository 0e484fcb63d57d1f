#!/usr/bin/env python3
"""Continuous learning, served: evolve in the background, answer live.

This is the loop the paper's title promises, end to end. A champion
registry deploys a bootstrap policy immediately; a micro-batching
gateway starts answering open-loop Poisson traffic; two clans evolve on
worker processes and every global-best report is compiled and hot-swapped
into the registry *mid-traffic* — a swap is one reference assignment
between micro-batches, so not a single request is paused or dropped.

Afterwards the script audits every response against the scalar inference
of the exact champion version that served it: micro-batching and
hot-swapping are invisible to correctness.

Run:  python examples/continuous_serving.py
"""

import asyncio

from repro.neat.network import FeedForwardNetwork
from repro.serve import (
    ContinuousService,
    LoadGenerator,
    observation_sampler,
)

ENV_ID = "CartPole-v0"
N_CLANS = 2
POP_SIZE = 24
GENERATION_BUDGET = 25
REQUESTS = 800
RATE_HZ = 500.0
SEED = 0


async def serve() -> None:
    service = ContinuousService(
        ENV_ID,
        n_clans=N_CLANS,
        pop_size=POP_SIZE,
        seed=SEED,
        max_generations=GENERATION_BUDGET,
        fitness_threshold=1e9,  # spend the whole budget improving
        max_batch=16,
    )
    bootstrap = await service.start()
    print(
        f"deployed bootstrap champion v{bootstrap.version} "
        f"(unevaluated seed genome) — serving starts now"
    )

    generator = LoadGenerator(
        service.submit,
        observation_sampler(ENV_ID),
        rate_hz=RATE_HZ,
        n_requests=REQUESTS,
        seed=SEED + 1,
    )
    report = await generator.run()
    evolution = await service.evolution_done()
    stats = service.stats()
    await service.close()

    print(
        f"\nserved {report.served}/{report.offered} requests at "
        f"{stats.qps:,.0f} qps (p50 {stats.p50_latency_s * 1e3:.2f}ms, "
        f"p95 {stats.p95_latency_s * 1e3:.2f}ms, mean batch "
        f"{stats.mean_batch_size:.2f}, shed {stats.shed})"
    )
    print(
        f"evolution ran {evolution.generations} generations/clan in the "
        f"background, best fitness {evolution.best_fitness:.1f}"
    )
    for record, event in service.promotions:
        print(
            f"  hot-swap -> v{record.version}: genome "
            f"{event.genome_key} from clan {event.clan_id} "
            f"(generation {event.generation}, fitness "
            f"{event.fitness:.1f})"
        )
    versions = report.distinct_versions
    swapped_mid_traffic = len(versions) >= 2
    print(
        f"champion versions observed by live traffic: {versions} — "
        f"hot-swap mid-traffic: {swapped_mid_traffic}"
    )

    # audit: every response equals the scalar inference of the champion
    # version that served it (the scalar interpreter is the repo's
    # bit-exact reference engine)
    scalar_by_version: dict[int, FeedForwardNetwork] = {}
    audited = mismatches = 0
    for served, observation in zip(
        report.responses, report.observations
    ):
        if served is None:  # shed/rejected requests carry no action
            continue
        audited += 1
        record = service.registry.record_for(served.champion_version)
        scalar = scalar_by_version.setdefault(
            served.champion_version, record.scalar_network()
        )
        if served.action != scalar.policy(observation):
            mismatches += 1
    print(
        f"served actions match their champion's scalar inference: "
        f"{mismatches == 0} ({audited} responses audited across "
        f"{len(scalar_by_version)} champion versions)"
    )


def main() -> None:
    asyncio.run(serve())


if __name__ == "__main__":
    main()
