"""Prometheus text exposition of a run's measurements.

The measurement dataclasses their subsystems fill (``RunResult``,
``ServiceStats``, ``ChurnStats`` in :mod:`repro.core.metrics`) and the
fleet's ``health()`` dict are the one stats model: :func:`to_prometheus`
renders them straight to text at the end of a run (``--metrics-out``).
Families sort by name and samples by label set, so the output is
deterministic (``tests/golden/metrics_*.prom`` pins its bytes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Mapping

if TYPE_CHECKING:
    # not at runtime: repro.core imports repro.obs (circular)
    from repro.core.metrics import ChurnStats, RunResult, ServiceStats

#: histogram bucket upper bounds, in seconds — tuned for the
#: sub-millisecond-to-seconds range the gateway and clan phases span
DEFAULT_BUCKETS: tuple[float, ...] = (0.0005, 0.001, 0.0025, 0.005, 0.01,
                                      0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                                      2.5, 5.0)
#: bucket upper bounds of the batch-size histogram, in requests
BATCH_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: every family an exposition can carry: name -> (type, HELP text)
FAMILIES: dict[str, tuple[str, str]] = {
    "repro_serve_requests_total": (
        "counter", "requests by outcome at the inference gateway"),
    "repro_serve_qps": ("gauge", "served requests per second since start"),
    "repro_serve_latency_seconds": (
        "gauge", "submit-to-answer latency quantiles"),
    "repro_serve_batch_size": (
        "histogram", "requests coalesced per forward pass"),
    "repro_serve_champion_version": (
        "gauge", "registry version currently deployed"),
    "repro_serve_champion_swaps_total": (
        "counter", "champion deployment changes since first publish"),
    "repro_churn_deaths_total": (
        "counter", "worker processes observed dead or heartbeat-killed"),
    "repro_churn_respawns_total": (
        "counter", "successful respawn-from-checkpoint recoveries"),
    "repro_churn_clans_lost_total": (
        "counter", "clans abandoned after exhausting the respawn budget"),
    "repro_churn_lost_generations_total": (
        "counter", "completed-but-uncheckpointed generations re-run or lost"),
    "repro_churn_reassigned_generations_total": (
        "counter", "budget of lost clans re-assigned to survivors"),
    "repro_churn_recovery_latency_seconds": (
        "histogram", "failure detection to respawned clan resuming"),
    "repro_churn_mean_recovery_latency_seconds": (
        "gauge", "mean respawn recovery latency over the run"),
    "repro_replica_respawns_total": (
        "counter", "serving replicas respawned after a death"),
    "repro_requests_retried_total": (
        "counter", "in-flight requests transparently re-dispatched after "
        "a replica death"),
    "repro_faults_injected_total": (
        "counter", "chaos-plane faults fired, by action"),
    "repro_replica_breaker_state": (
        "gauge", "per-replica circuit breaker: 0 closed, 0.5 half-open, "
        "1 open"),
    "repro_evolve_generations_total": (
        "counter", "generations executed over the run"),
    "repro_evolve_best_fitness": (
        "gauge", "best fitness reached over the run"),
    "repro_evolve_species": ("gauge", "species count in the final generation"),
    "repro_plan_cache_hits_total": (
        "counter", "compiled-plan cache hits over the run"),
    "repro_plan_cache_misses_total": (
        "counter", "compiled-plan cache misses over the run"),
    "repro_comm_floats_total": (
        "counter", "32-bit words transferred over the run"),
    "repro_plan_cache_hit_rate": (
        "gauge", "hits / lookups over the run (0 when the cache never ran)"),
}

#: samples are ``(family, labels, value)``; a histogram's value is its
#: bucket bounds and its ``(observation, times observed)`` pairs
_Sample = tuple[str, Mapping[str, Any], Any]


def _service_samples(stats: "ServiceStats", **labels) -> Iterator[_Sample]:
    for outcome, value in (
        ("accepted", stats.requests), ("served", stats.served),
        ("shed", stats.shed),
    ):
        outcome_labels = dict(labels, outcome=outcome)
        yield "repro_serve_requests_total", outcome_labels, value
    yield "repro_serve_qps", labels, stats.qps
    for quantile, value in (
        ("0.5", stats.p50_latency_s), ("0.95", stats.p95_latency_s)
    ):
        quantile_labels = dict(labels, quantile=quantile)
        yield "repro_serve_latency_seconds", quantile_labels, value
    histogram = sorted(stats.batch_size_histogram.items())
    yield "repro_serve_batch_size", labels, (BATCH_BUCKETS, histogram)
    yield "repro_serve_champion_version", labels, stats.champion_version
    yield "repro_serve_champion_swaps_total", labels, stats.swaps


def _churn_samples(churn: "ChurnStats") -> Iterator[_Sample]:
    yield "repro_churn_deaths_total", {}, churn.deaths
    yield "repro_churn_respawns_total", {}, churn.respawns
    yield "repro_churn_clans_lost_total", {}, churn.clans_lost
    yield "repro_churn_lost_generations_total", {}, churn.lost_generations
    reassigned = churn.reassigned_generations
    yield "repro_churn_reassigned_generations_total", {}, reassigned
    latencies = [(latency, 1) for latency in churn.recovery_latency_s]
    histogram = (DEFAULT_BUCKETS, latencies)
    yield "repro_churn_recovery_latency_seconds", {}, histogram
    mean = churn.mean_recovery_latency_s()
    yield "repro_churn_mean_recovery_latency_seconds", {}, mean


def _health_samples(health: Mapping[str, Any]) -> Iterator[_Sample]:
    respawns = health.get("replica_respawns", 0)
    yield "repro_replica_respawns_total", {}, respawns
    retried = health.get("requests_retried", 0)
    yield "repro_requests_retried_total", {}, retried
    for action, count in health.get("faults_injected", {}).items():
        yield "repro_faults_injected_total", {"action": action}, count
    for replica, state in health.get("breaker_states", {}).items():
        yield "repro_replica_breaker_state", {"replica": replica}, state


def _run_samples(result: "RunResult") -> Iterator[_Sample]:
    yield "repro_evolve_generations_total", {}, result.generations
    yield "repro_evolve_best_fitness", {}, result.best_fitness
    yield "repro_evolve_species", {}, result.final_n_species()
    yield "repro_plan_cache_hits_total", {}, result.plan_cache_hits
    yield "repro_plan_cache_misses_total", {}, result.plan_cache_misses
    yield "repro_comm_floats_total", {}, result.total_comm_floats()
    yield "repro_plan_cache_hit_rate", {}, result.plan_cache_hit_rate()
    yield from _churn_samples(result.churn)


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}" if key else ""


def _histogram_lines(name: str, key, bounds, observations) -> Iterator[str]:
    """Cumulative ``_bucket`` series (``+Inf`` last), ``_sum``, ``_count``."""
    count, total = 0, 0.0
    for value, times in observations:
        # a running sum in observation order (sum() compensates floats)
        count, total = count + times, total + value * times
    buckets = [
        (repr(bound), sum(n for value, n in observations if value <= bound))
        for bound in sorted(float(bound) for bound in bounds)
    ]
    for le, below in buckets + [("+Inf", count)]:
        yield f"{name}_bucket{_render_labels(key + (('le', le),))} {below}"
    yield f"{name}_sum{_render_labels(key)} {total!r}"
    yield f"{name}_count{_render_labels(key)} {count}"


def to_prometheus(
    *,
    run: "RunResult | None" = None,
    service: "ServiceStats | None" = None,
    replicas: Mapping[int, "ServiceStats | None"] | None = None,
    churn: "ChurnStats | None" = None,
    health: Mapping[str, Any] | None = None,
) -> str:
    """Render measurements in Prometheus text exposition format:
    ``run`` (churn included) for ``repro learn``; the fleet rollup
    ``service``, per-replica ``replicas`` (labelled ``replica``, None
    skipped), ``churn`` and ``health`` for ``repro serve``."""
    samples: list[_Sample] = []
    if run is not None:
        samples += _run_samples(run)
    if service is not None:
        samples += _service_samples(service)
    for replica, stats in (replicas or {}).items():
        if stats is not None:
            samples += _service_samples(stats, replica=replica)
    if churn is not None:
        samples += _churn_samples(churn)
    if health is not None:
        samples += _health_samples(health)
    families: dict[str, dict[tuple[tuple[str, str], ...], Any]] = {}
    for name, labels, value in samples:
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        families.setdefault(name, {})[key] = value
    lines: list[str] = []
    for name in sorted(families):
        kind, help_ = FAMILIES[name]
        lines += [f"# HELP {name} {help_}", f"# TYPE {name} {kind}"]
        series = families[name]
        for key in sorted(series):
            if kind == "histogram":
                lines += _histogram_lines(name, key, *series[key])
            else:
                value = float(series[key])
                text = repr(value) if value % 1 else str(int(value))
                lines.append(f"{name}{_render_labels(key)} {text}")
    return "\n".join(lines) + "\n"
