"""A named-metric registry unifying the repo's scattered counters.

:class:`MetricsRegistry` holds counters, gauges, and histograms keyed by
``(name, labels)`` and renders them in Prometheus text exposition
format.  It does **not** replace the existing measurement dataclasses —
:class:`~repro.core.metrics.ServiceStats`,
:class:`~repro.core.metrics.ChurnStats`, and
:class:`~repro.core.metrics.RunResult` stay the sources of truth their
subsystems fill — it *subsumes* them: the ``ingest_*`` methods map each
dataclass onto registry metrics once, so every exporter (Prometheus
text, the ``repro learn``/``repro serve`` summary lines, JSON dumps)
reads one uniform surface instead of reaching into per-subsystem
structs.

Everything is stdlib-only and lock-guarded; iteration orders are
insertion-then-sorted so exposition output is deterministic.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    # imported lazily at runtime: instrumented modules (repro.neat,
    # repro.core) import repro.obs, so a module-level import back into
    # repro.core.metrics would be circular
    from repro.core.metrics import ChurnStats, RunResult, ServiceStats

#: default histogram bucket upper bounds, in seconds — tuned for the
#: sub-millisecond-to-seconds range the gateway and clan phases span
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing count (requests served, deaths, ...)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go either way (queue depth, hit rate, uptime)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe`` files a sample into every bucket whose upper bound
    admits it; exposition emits ``_bucket{le=...}``, ``_sum``, and
    ``_count`` series plus the implicit ``+Inf`` bucket.
    """

    __slots__ = ("_lock", "bounds", "_bucket_counts", "_count", "_sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            # per-bucket tallies; exposition accumulates them into the
            # cumulative le-series Prometheus expects
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    break

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            running = 0
            out: list[tuple[float, int]] = []
            for bound, n in zip(self.bounds, self._bucket_counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), self._count))
            return out


class _Family:
    """All samples of one metric name (one ``# TYPE`` block)."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_
        self.samples: dict[_LabelKey, Any] = {}


class MetricsRegistry:
    """Get-or-create registry of named metrics with optional labels.

    Metric names follow Prometheus conventions (``repro_`` prefix,
    ``_total`` suffix on counters, base-unit ``_seconds``).  Registering
    the same name with a different type is an error — that is the
    "subsume, don't duplicate" contract.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._families: dict[str, _Family] = {}

    # -- get-or-create -------------------------------------------------------

    def _sample(
        self,
        name: str,
        kind: str,
        help_: str,
        labels: Mapping[str, Any],
        factory,
    ):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}"
                )
            sample = family.samples.get(key)
            if sample is None:
                sample = factory()
                family.samples[key] = sample
            return sample

    def counter(self, name: str, help_: str = "", **labels: Any) -> Counter:
        return self._sample(name, "counter", help_, labels, Counter)

    def gauge(self, name: str, help_: str = "", **labels: Any) -> Gauge:
        return self._sample(name, "gauge", help_, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._sample(
            name, "histogram", help_, labels, lambda: Histogram(buckets)
        )

    # -- ingest: map the existing dataclasses onto the registry --------------

    def ingest_service_stats(
        self, stats: "ServiceStats", **labels: Any
    ) -> None:
        """Fold one gateway/fleet :class:`ServiceStats` snapshot in.

        Counters are *set-by-increment from zero* semantics: ingest each
        snapshot once (they are cumulative already).
        """
        for outcome, value in (
            ("accepted", stats.requests),
            ("served", stats.served),
            ("shed", stats.shed),
        ):
            self.counter(
                "repro_serve_requests_total",
                "requests by outcome at the inference gateway",
                outcome=outcome,
                **labels,
            ).inc(value)
        self.gauge(
            "repro_serve_qps",
            "served requests per second since start",
            **labels,
        ).set(stats.qps)
        self.gauge(
            "repro_serve_latency_seconds",
            "submit-to-answer latency quantiles",
            quantile="0.5",
            **labels,
        ).set(stats.p50_latency_s)
        self.gauge(
            "repro_serve_latency_seconds",
            "submit-to-answer latency quantiles",
            quantile="0.95",
            **labels,
        ).set(stats.p95_latency_s)
        batch_hist = self.histogram(
            "repro_serve_batch_size",
            "requests coalesced per forward pass",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            **labels,
        )
        for size in sorted(stats.batch_size_histogram):
            for _ in range(stats.batch_size_histogram[size]):
                batch_hist.observe(size)
        self.gauge(
            "repro_serve_champion_version",
            "registry version currently deployed",
            **labels,
        ).set(stats.champion_version)
        self.counter(
            "repro_serve_champion_swaps_total",
            "champion deployment changes since first publish",
            **labels,
        ).inc(stats.swaps)

    def ingest_churn(self, churn: "ChurnStats", **labels: Any) -> None:
        """Fold the fault-tolerance counters of one run in."""
        for name, value, help_ in (
            ("repro_churn_deaths_total", churn.deaths,
             "worker processes observed dead or heartbeat-killed"),
            ("repro_churn_respawns_total", churn.respawns,
             "successful respawn-from-checkpoint recoveries"),
            ("repro_churn_clans_lost_total", churn.clans_lost,
             "clans abandoned after exhausting the respawn budget"),
            ("repro_churn_lost_generations_total",
             churn.lost_generations,
             "completed-but-uncheckpointed generations re-run or lost"),
            ("repro_churn_reassigned_generations_total",
             churn.reassigned_generations,
             "budget of lost clans re-assigned to survivors"),
        ):
            self.counter(name, help_, **labels).inc(value)
        recovery = self.histogram(
            "repro_churn_recovery_latency_seconds",
            "failure detection to respawned clan resuming",
            **labels,
        )
        for latency in churn.recovery_latency_s:
            recovery.observe(latency)
        self.gauge(
            "repro_churn_mean_recovery_latency_seconds",
            "mean respawn recovery latency over the run",
            **labels,
        ).set(churn.mean_recovery_latency_s())

    def ingest_fleet_health(self, health: Mapping[str, Any],
                            **labels: Any) -> None:
        """Fold a serving fleet's self-healing counters in.

        ``health`` is the dict :meth:`repro.serve.fleet.ServingFleet
        .health` returns — respawn/retry totals, per-replica
        circuit-breaker states, and the chaos injector's fired-fault
        tally (empty without a fault plan). Ingest one final snapshot
        per run, like the other ``ingest_*`` surfaces.
        """
        for name, key, help_ in (
            ("repro_replica_respawns_total", "replica_respawns",
             "serving replicas respawned after a death"),
            ("repro_requests_retried_total", "requests_retried",
             "in-flight requests transparently re-dispatched after a "
             "replica death"),
        ):
            self.counter(name, help_, **labels).inc(
                health.get(key, 0)
            )
        for action, count in sorted(
            health.get("faults_injected", {}).items()
        ):
            self.counter(
                "repro_faults_injected_total",
                "chaos-plane faults fired, by action",
                action=action,
                **labels,
            ).inc(count)
        for replica_id, state in sorted(
            health.get("breaker_states", {}).items()
        ):
            self.gauge(
                "repro_replica_breaker_state",
                "per-replica circuit breaker: 0 closed, 0.5 half-open, "
                "1 open",
                replica=str(replica_id),
                **labels,
            ).set(state)

    def ingest_run_result(self, result: "RunResult", **labels: Any) -> None:
        """Fold a protocol run's evolution-side outcome in."""
        self.counter(
            "repro_evolve_generations_total",
            "generations executed over the run",
            **labels,
        ).inc(result.generations)
        self.gauge(
            "repro_evolve_best_fitness",
            "best fitness reached over the run",
            **labels,
        ).set(result.best_fitness)
        self.gauge(
            "repro_evolve_species",
            "species count in the final generation",
            **labels,
        ).set(result.final_n_species())
        for name, value, help_ in (
            ("repro_plan_cache_hits_total", result.plan_cache_hits,
             "compiled-plan cache hits over the run"),
            ("repro_plan_cache_misses_total", result.plan_cache_misses,
             "compiled-plan cache misses over the run"),
            ("repro_comm_floats_total", result.total_comm_floats(),
             "32-bit words transferred over the run"),
        ):
            self.counter(name, help_, **labels).inc(value)
        self.gauge(
            "repro_plan_cache_hit_rate",
            "hits / lookups over the run (0 when the cache never ran)",
            **labels,
        ).set(result.plan_cache_hit_rate())
        self.ingest_churn(result.churn, **labels)

    # -- export --------------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Read one sample's scalar value (histograms: the count)."""
        family = self._families[name]
        sample = family.samples[_label_key(labels)]
        if isinstance(sample, Histogram):
            return float(sample.count)
        return sample.value

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict dump for JSON sinks and assertions."""
        out: dict[str, dict[str, Any]] = {}
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            series: dict[str, Any] = {}
            for key in sorted(family.samples):
                sample = family.samples[key]
                label_str = _render_labels(key) or "{}"
                if isinstance(sample, Histogram):
                    series[label_str] = {
                        "count": sample.count,
                        "sum": sample.total,
                    }
                else:
                    series[label_str] = sample.value
            out[family.name] = {"type": family.kind, "series": series}
        return out

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.samples):
                sample = family.samples[key]
                if isinstance(sample, Histogram):
                    for bound, cumulative in sample.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else repr(bound)
                        labels = _render_labels(key, f'le="{le}"')
                        lines.append(
                            f"{family.name}_bucket{labels} {cumulative}"
                        )
                    base = _render_labels(key)
                    lines.append(
                        f"{family.name}_sum{base} {sample.total!r}"
                    )
                    lines.append(
                        f"{family.name}_count{base} {sample.count}"
                    )
                else:
                    labels = _render_labels(key)
                    value = sample.value
                    text = repr(value) if value % 1 else str(int(value))
                    lines.append(f"{family.name}{labels} {text}")
        return "\n".join(lines) + "\n"
