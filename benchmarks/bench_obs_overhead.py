"""Telemetry overhead gate: tracing must be ~free off, cheap on.

The observability layer (:mod:`repro.obs`) promises a no-op fast path —
an instrumented hot path pays one global load and one test when tracing
is off — and a bounded cost when it is on (one ``SpanEvent`` append per
*batch*, not per request, on the serving path). This benchmark holds
both promises against the micro-batched serving burst of
``bench_serving_latency``:

* **disabled** — a burst served with no active tracer must be within
  ``MAX_DISABLED_OVERHEAD`` of the uninstrumented-equivalent baseline;
* **enabled** — the same burst with a live driver tracer must stay
  within ``MAX_ENABLED_OVERHEAD``.

Each repeat times the bursts in a symmetric baseline-variant-variant-
baseline sandwich and the gate checks the median of the per-repeat
ratios, so drift that is linear in time cancels exactly instead of
biasing either side. The report also writes
``reports/bench_obs_overhead_trace.json`` — a Chrome-trace-format sample
of a real 4-clan barrier-free run (open at https://ui.perfetto.dev),
uploaded as a CI artifact.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time

from repro.cluster.runtime import DistributedClanRuntime
from repro.neat.config import NEATConfig
from repro.obs import tracer as obs
from repro.obs.export import to_chrome_trace
from repro.obs.tracer import Tracer
from repro.serve import ChampionRegistry, InferenceGateway
from repro.utils.fmt import format_table

from benchmarks.conftest import REPORT_DIR, run_once
from tests.conftest import make_evolved_genome

#: concurrent requests per measured burst — large enough that asyncio
#: scheduling noise is small relative to the burst (the gates are
#: single-digit percentages)
N_REQUESTS = 4000
#: observation dimensionality of the CartPole workload
OBS_DIM = 4
#: champion mutation budget (forward passes must dominate, as in prod)
MUTATIONS = 300
#: gateway coalescing cap
MAX_BATCH = 128
#: sandwich repetitions per variant; the gate takes the median ratio
REPEATS = 5
#: acceptance ceilings, as fractions of the untraced baseline
MAX_DISABLED_OVERHEAD = 0.02
MAX_ENABLED_OVERHEAD = 0.10
#: clans in the sample trace shipped as a CI artifact
TRACE_CLANS = 4


def _observations() -> list[list[float]]:
    rng = random.Random(11)
    return [
        [rng.uniform(-1.0, 1.0) for _ in range(OBS_DIM)]
        for _ in range(N_REQUESTS)
    ]


def _serve_burst(registry, observations) -> float:
    """Serve the burst through a fresh gateway; returns elapsed seconds."""

    async def run():
        gateway = InferenceGateway(
            registry,
            max_batch=MAX_BATCH,
            close_registry=False,
        )
        await gateway.start()
        start = time.perf_counter()
        await asyncio.gather(
            *(gateway.submit(obs) for obs in observations)
        )
        elapsed = time.perf_counter() - start
        await gateway.close()
        return elapsed

    return asyncio.run(run())


def _sample_clan_trace() -> dict:
    """Trace a real 4-clan barrier-free run; returns the Chrome doc."""
    tracer = Tracer(track="driver")
    previous = obs.activate(tracer)
    try:
        config = NEATConfig.for_env("CartPole-v0", pop_size=32)
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=TRACE_CLANS, config=config, seed=8
        ) as runtime:
            runtime.run_async(max_generations=3, fitness_threshold=1e9)
    finally:
        if previous is not None:
            obs.activate(previous)
        else:
            obs.deactivate()
    return to_chrome_trace(tracer.events(), dropped=tracer.dropped)


def test_obs_overhead_gate(benchmark, report_sink, json_sink):
    config = NEATConfig.for_env(
        "CartPole-v0",
        node_add_prob=0.4,
        conn_add_prob=0.55,
        node_delete_prob=0.0,
        conn_delete_prob=0.0,
    )
    champion = make_evolved_genome(
        config, seed=5, mutations=MUTATIONS, key=1
    )
    observations = _observations()
    registry = ChampionRegistry(config)
    registry.publish(champion, source="bench")

    obs.deactivate()
    # warm-up: compile caches, import costs, first-loop jitter
    _serve_burst(registry, observations)
    run_once(benchmark, lambda: _serve_burst(registry, observations))

    def timed(tracer: Tracer | None) -> float:
        # collect the previous burst's garbage (4000 futures) up front
        # so collector pauses don't land mid-measurement at random
        gc.collect()
        if tracer is not None:
            obs.activate(tracer)
        try:
            return _serve_burst(registry, observations)
        finally:
            obs.deactivate()

    enabled_tracer = Tracer(track="driver")
    # two variants against the no-tracer default: a tracer installed
    # but switched off (instrumented paths take the NULL_SPAN fast
    # path) and live tracing (one span appended per batch flush).
    # Each repeat times the bursts in a symmetric baseline-variant-
    # variant-baseline sandwich, so any drift that is linear in time
    # cancels exactly from the ratio; the gate takes the median ratio
    # across repeats to shrug off the occasional outlier repeat.
    ratios: dict[str, list[float]] = {"disabled": [], "enabled": []}
    best = {
        "baseline": float("inf"),
        "disabled": float("inf"),
        "enabled": float("inf"),
    }
    for repeat in range(REPEATS):
        for name, tracer in (
            ("disabled", Tracer(enabled=False)),
            ("enabled", enabled_tracer),
        ):
            base_a = timed(None)
            variant_a = timed(tracer)
            variant_b = timed(tracer)
            base_b = timed(None)
            ratios[name].append(
                (variant_a + variant_b) / (base_a + base_b)
            )
            best["baseline"] = min(best["baseline"], base_a, base_b)
            best[name] = min(best[name], variant_a, variant_b)

    def median(values: list[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    baseline_s = best["baseline"]
    disabled_s = best["disabled"]
    enabled_s = best["enabled"]
    enabled_events = len(enabled_tracer.events())
    disabled_overhead = median(ratios["disabled"]) - 1.0
    enabled_overhead = median(ratios["enabled"]) - 1.0

    trace_doc = _sample_clan_trace()
    REPORT_DIR.mkdir(exist_ok=True)
    trace_path = REPORT_DIR / "bench_obs_overhead_trace.json"
    trace_path.write_text(json.dumps(trace_doc))
    tracks = sorted(
        entry["args"]["name"]
        for entry in trace_doc["traceEvents"]
        if entry.get("name") == "thread_name"
    )

    rows = [
        ["untraced baseline", f"{baseline_s * 1e3:.1f}", "-", "-"],
        ["tracer installed, disabled", f"{disabled_s * 1e3:.1f}",
         f"{disabled_overhead:+.1%}",
         f"< {MAX_DISABLED_OVERHEAD:.0%}"],
        ["tracing enabled", f"{enabled_s * 1e3:.1f}",
         f"{enabled_overhead:+.1%}", f"< {MAX_ENABLED_OVERHEAD:.0%}"],
    ]
    report_sink(
        "bench_obs_overhead",
        f"Telemetry overhead — {N_REQUESTS} concurrent requests, "
        f"median sandwich ratio over {REPEATS} repeats\n"
        + format_table(
            ["serving burst", "time (ms)", "overhead", "gate"], rows
        )
        + f"\nenabled run recorded {enabled_events} span events; "
        f"sample {TRACE_CLANS}-clan chrome trace "
        f"({', '.join(tracks)}) saved to {trace_path.name}",
    )
    json_sink(
        "bench_obs_overhead",
        {
            "n_requests": N_REQUESTS,
            "repeats": REPEATS,
            "baseline_s": baseline_s,
            "disabled_s": disabled_s,
            "enabled_s": enabled_s,
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": enabled_overhead,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "max_enabled_overhead": MAX_ENABLED_OVERHEAD,
            "enabled_span_events": enabled_events,
            "trace_tracks": tracks,
        },
    )

    assert enabled_events > 0, "enabled tracer recorded nothing"
    assert disabled_overhead < MAX_DISABLED_OVERHEAD, (
        f"tracing-disabled overhead {disabled_overhead:+.1%} exceeds "
        f"the {MAX_DISABLED_OVERHEAD:.0%} gate"
    )
    assert enabled_overhead < MAX_ENABLED_OVERHEAD, (
        f"tracing-enabled overhead {enabled_overhead:+.1%} exceeds "
        f"the {MAX_ENABLED_OVERHEAD:.0%} gate"
    )
