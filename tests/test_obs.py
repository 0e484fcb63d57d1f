"""Unit tests for the telemetry layer: tracer, clock, exposition, export."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.obs import clock
from repro.obs import tracer as obs
from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import DEFAULT_BUCKETS, FAMILIES, to_prometheus
from repro.obs.tracer import NULL_SPAN, SpanEvent, Tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with tracing off and the real clock."""
    obs.deactivate()
    yield
    obs.deactivate()
    clock.set_clock(clock.SystemClock())


# ---------------------------------------------------------------------------
# clock shim
# ---------------------------------------------------------------------------


class TestClock:
    def test_system_clock_is_default_and_monotonic(self):
        a = clock.perf()
        b = clock.perf()
        assert b >= a
        assert clock.monotonic() >= 0.0
        assert clock.wall() > 0.0

    def test_manual_clock_injects_and_restores(self):
        manual = clock.ManualClock(start=100.0)
        previous = clock.set_clock(manual)
        try:
            assert clock.perf() == 100.0
            manual.advance(2.5)
            assert clock.perf() == 102.5
            assert clock.monotonic() == 102.5
        finally:
            clock.set_clock(previous)
        assert clock.get_clock() is previous

    def test_manual_clock_rejects_negative_advance(self):
        manual = clock.ManualClock()
        with pytest.raises(ValueError):
            manual.advance(-1.0)


# ---------------------------------------------------------------------------
# tracer: nesting, no-op, collection
# ---------------------------------------------------------------------------


class TestSpanNesting:
    def test_depth_and_parent_recorded(self):
        tracer = Tracer()
        with tracer.span("generation", gen=3):
            with tracer.span("speciate"):
                pass
            with tracer.span("reproduce"):
                with tracer.span("brood_mutate"):
                    pass
        by_name = {e.name: e for e in tracer.events()}
        assert by_name["generation"].depth == 0
        assert by_name["generation"].parent is None
        assert by_name["generation"].args == {"gen": 3}
        assert by_name["speciate"].depth == 1
        assert by_name["speciate"].parent == "generation"
        assert by_name["reproduce"].parent == "generation"
        assert by_name["brood_mutate"].depth == 2
        assert by_name["brood_mutate"].parent == "reproduce"

    def test_children_close_before_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [e.name for e in tracer.events()]
        assert names == ["inner", "outer"]

    def test_nesting_is_thread_local(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name: str):
            with tracer.span(name, track=name):
                barrier.wait(timeout=5)
                with tracer.span(f"{name}-child", track=name):
                    pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = {e.name: e for e in tracer.events()}
        # each thread's child nests under its *own* root, never the
        # other thread's (the stacks are contextvars, not globals)
        assert events["t0-child"].parent == "t0"
        assert events["t1-child"].parent == "t1"
        assert events["t0-child"].depth == 1
        assert events["t1-child"].depth == 1

    def test_nesting_is_task_local(self):
        tracer = Tracer()

        async def task(name: str):
            with tracer.span(name):
                await asyncio.sleep(0)
                with tracer.span(f"{name}-child"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(task("a"), task("b"))

        asyncio.run(main())
        events = {e.name: e for e in tracer.events()}
        assert events["a-child"].parent == "a"
        assert events["b-child"].parent == "b"

    def test_instant_records_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("generation"):
            tracer.instant("respawn", clan=2)
        instant = next(
            e for e in tracer.events() if e.kind == "instant"
        )
        assert instant.name == "respawn"
        assert instant.parent == "generation"
        assert instant.dur_s == 0.0
        assert instant.args == {"clan": 2}

    def test_span_add_annotates_mid_flight(self):
        tracer = Tracer()
        span = tracer.span("batch_flush", size=4)
        with span:
            span.add(version=7)
        event = tracer.events()[0]
        assert event.args == {"size": 4, "version": 7}

    def test_durations_follow_the_injected_clock(self):
        manual = clock.ManualClock()
        previous = clock.set_clock(manual)
        try:
            tracer = Tracer()
            with tracer.span("generation"):
                manual.advance(1.5)
            event = tracer.events()[0]
            assert event.dur_s == 1.5
        finally:
            clock.set_clock(previous)


class TestDisabledMode:
    def test_module_span_is_shared_null_singleton(self):
        assert obs.current() is None
        assert obs.span("generation") is NULL_SPAN
        assert obs.span("anything", gen=1) is NULL_SPAN

    def test_null_span_supports_the_full_surface(self):
        with obs.span("generation") as span:
            span.add(gen=1)
        obs.instant("deploy", seq=1)  # no-op, no error

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NULL_SPAN
        tracer.instant("y")
        assert tracer.events() == []

    def test_activate_returns_previous(self):
        first = Tracer()
        second = Tracer()
        assert obs.activate(first) is None
        assert obs.activate(second) is first
        assert obs.current() is second
        assert obs.deactivate() is second
        assert obs.current() is None


class TestCollection:
    def test_drain_pops_primitive_dicts(self):
        tracer = Tracer(track="clan:1")
        with tracer.span("evaluate", gen=0):
            pass
        batch = tracer.drain()
        assert tracer.events() == []
        assert len(batch) == 1
        assert isinstance(batch[0], dict)
        assert batch[0]["track"] == "clan:1"
        # drained payloads survive a JSON round trip (pipe-safe)
        assert json.loads(json.dumps(batch)) == batch

    def test_absorb_preserves_per_track_order(self):
        producer_a = Tracer(track="clan:0")
        producer_b = Tracer(track="clan:1")
        for gen in range(3):
            with producer_a.span("evaluate", gen=gen):
                pass
            with producer_b.span("evaluate", gen=gen):
                pass
        merged = Tracer(track="driver")
        # interleaved batches, as pipe messages would arrive
        merged.absorb(producer_a.drain())
        merged.absorb(producer_b.drain())
        for track in ("clan:0", "clan:1"):
            gens = [
                e.args["gen"]
                for e in merged.events()
                if e.track == track
            ]
            assert gens == sorted(gens)

    def test_absorb_can_retag_track(self):
        producer = Tracer(track="driver")
        with producer.span("evaluate"):
            pass
        merged = Tracer()
        assert merged.absorb(producer.drain(), track="clan:7") == 1
        assert merged.events()[0].track == "clan:7"

    def test_max_events_counts_drops(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.events()) == 2
        assert tracer.dropped == 3

    def test_span_event_dict_round_trip(self):
        event = SpanEvent(
            name="deploy",
            track="driver",
            start_s=1.0,
            dur_s=0.0,
            depth=2,
            parent="generation",
            args={"seq": 3},
            kind="instant",
        )
        assert SpanEvent.from_dict(event.as_dict()) == event


# ---------------------------------------------------------------------------
# Prometheus exposition of the measurement dataclasses
# ---------------------------------------------------------------------------


def _samples(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line of ``text``."""
    samples = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples


class TestExposition:
    def test_renders_service_stats(self):
        from repro.core.metrics import ServiceStats

        stats = ServiceStats(
            requests=10,
            served=8,
            shed=2,
            qps=123.0,
            p50_latency_s=0.001,
            p95_latency_s=0.004,
            batch_size_histogram={1: 4, 4: 1},
            champion_version=3,
            swaps=2,
        )
        samples = _samples(to_prometheus(service=stats))
        assert samples['repro_serve_requests_total{outcome="served"}'] == 8
        assert samples['repro_serve_requests_total{outcome="shed"}'] == 2
        assert samples["repro_serve_qps"] == 123.0
        assert (
            samples['repro_serve_latency_seconds{quantile="0.95"}'] == 0.004
        )
        assert samples["repro_serve_batch_size_count"] == 5
        assert samples["repro_serve_batch_size_sum"] == 8
        assert samples["repro_serve_champion_version"] == 3
        assert samples["repro_serve_champion_swaps_total"] == 2

    def test_renders_churn(self):
        from repro.core.metrics import ChurnStats

        churn = ChurnStats(
            deaths=2,
            respawns=1,
            clans_lost=1,
            lost_generations=3,
            reassigned_generations=4,
            recovery_latency_s=[0.2, 0.4],
        )
        samples = _samples(to_prometheus(churn=churn))
        assert samples["repro_churn_deaths_total"] == 2
        assert samples["repro_churn_respawns_total"] == 1
        assert samples["repro_churn_recovery_latency_seconds_count"] == 2
        assert samples[
            "repro_churn_mean_recovery_latency_seconds"
        ] == pytest.approx(0.3)

    def test_renders_fleet_health(self):
        health = {
            "replica_respawns": 2,
            "requests_retried": 5,
            "fleet_shed": 0,
            "breaker_states": {0: 1.0, 1: 0.0},
            "live_replicas": [1],
            "faults_injected": {"kill": 1, "drop": 2},
        }
        samples = _samples(to_prometheus(health=health))
        assert samples["repro_replica_respawns_total"] == 2
        assert samples["repro_requests_retried_total"] == 5
        assert samples['repro_faults_injected_total{action="kill"}'] == 1
        assert samples['repro_faults_injected_total{action="drop"}'] == 2
        assert samples['repro_replica_breaker_state{replica="0"}'] == 1.0
        assert samples['repro_replica_breaker_state{replica="1"}'] == 0.0

    def test_fleet_health_tolerates_empty_dict(self):
        samples = _samples(to_prometheus(health={}))
        assert samples == {
            "repro_replica_respawns_total": 0,
            "repro_requests_retried_total": 0,
        }

    def test_replica_labels_follow_the_other_labels_in_name_order(self):
        from repro.core.metrics import ServiceStats

        stats = ServiceStats(
            requests=1, served=1, shed=0, qps=1.0,
            p50_latency_s=0.5, p95_latency_s=0.5,
        )
        text = to_prometheus(replicas={3: stats, 4: None})
        assert (
            'repro_serve_latency_seconds{quantile="0.5",replica="3"} 0.5'
            in text
        )
        assert (
            'repro_serve_requests_total{outcome="shed",replica="3"} 0'
            in text
        )
        assert 'replica="4"' not in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        from repro.core.metrics import ChurnStats

        churn = ChurnStats(recovery_latency_s=[0.0004, 0.3, 50.0])
        samples = _samples(to_prometheus(churn=churn))
        family = "repro_churn_recovery_latency_seconds_bucket"
        assert samples[f'{family}{{le="0.0005"}}'] == 1
        assert samples[f'{family}{{le="0.25"}}'] == 1
        assert samples[f'{family}{{le="0.5"}}'] == 2
        assert samples[f'{family}{{le="5.0"}}'] == 2
        assert samples[f'{family}{{le="+Inf"}}'] == 3

    def test_prometheus_exposition_shape(self):
        from repro.core.metrics import RunResult

        text = to_prometheus(
            run=RunResult("Serial", "CartPole-v0", 1, plan_cache_hits=2)
        )
        assert (
            "# HELP repro_plan_cache_hits_total compiled-plan cache hits "
            "over the run" in text
        )
        assert "# TYPE repro_plan_cache_hits_total counter" in text
        assert "repro_plan_cache_hits_total 2\n" in text
        assert "repro_plan_cache_hit_rate 1\n" in text
        # an empty run's best fitness is -inf, rendered as Python does
        assert "repro_evolve_best_fitness -inf\n" in text
        assert "# TYPE repro_churn_recovery_latency_seconds histogram" in text
        assert "repro_churn_recovery_latency_seconds_sum 0.0\n" in text
        families = [
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE")
        ]
        assert families == sorted(families)
        assert set(families) <= set(FAMILIES)
        assert text.endswith("\n")

    def test_every_family_is_documented(self):
        from pathlib import Path

        doc = (
            Path(__file__).parent.parent / "docs" / "observability.md"
        ).read_text(encoding="utf-8")
        undocumented = [
            name for name in FAMILIES if f"| `{name}` |" not in doc
        ]
        assert undocumented == []

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def _sample_events() -> list[SpanEvent]:
    return [
        SpanEvent("generation", "driver", 10.0, 2.0, args={"gen": 0}),
        SpanEvent("evaluate", "clan:1", 10.1, 0.5, depth=1,
                  parent="generation", args={"gen": 0}),
        SpanEvent("evaluate", "clan:0", 10.2, 0.4, depth=1,
                  parent="generation"),
        SpanEvent("batch_flush", "replica:0", 10.5, 0.01,
                  args={"size": 4, "version": 2}),
        SpanEvent("deploy", "driver", 11.0, 0.0, kind="instant",
                  args={"seq": 1}),
    ]


class TestChromeTrace:
    def test_schema(self):
        doc = to_chrome_trace(_sample_events())
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        for entry in doc["traceEvents"]:
            assert entry["ph"] in ("M", "X", "i")
            if entry["ph"] == "M":
                assert entry["name"] in (
                    "thread_name", "thread_sort_index"
                )
                continue
            assert isinstance(entry["ts"], float)
            assert entry["pid"] == 1
            assert entry["tid"] >= 1
            if entry["ph"] == "X":
                assert entry["dur"] >= 0
            else:
                assert entry["s"] == "t"
        # the document is valid JSON end to end
        json.loads(json.dumps(doc))

    def test_one_named_track_per_source(self):
        doc = to_chrome_trace(_sample_events())
        names = {
            entry["args"]["name"]: entry["tid"]
            for entry in doc["traceEvents"]
            if entry.get("name") == "thread_name"
        }
        assert set(names) == {
            "driver", "clan:0", "clan:1", "replica:0"
        }
        # display order: driver first, then clans, then replicas
        assert names["driver"] < names["clan:0"] < names["clan:1"]
        assert names["clan:1"] < names["replica:0"]

    def test_timestamps_rebased_to_zero(self):
        doc = to_chrome_trace(_sample_events())
        ts = [
            e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"
        ]
        assert min(ts) == 0.0
        # microseconds: the 1 s gap between first and last is 1e6
        assert max(ts) == pytest.approx(1e6)

    def test_dropped_events_surfaced(self):
        doc = to_chrome_trace(_sample_events(), dropped=7)
        assert doc["otherData"]["dropped_events"] == 7

    def test_write_round_trip(self, tmp_path):
        target = write_chrome_trace(
            _sample_events(), tmp_path / "trace.json"
        )
        doc = json.loads(target.read_text())
        assert len(doc["traceEvents"]) == 5 + 2 * 4  # events + metadata


class TestJsonl:
    def test_round_trip(self, tmp_path):
        events = _sample_events()
        target = write_jsonl(events, tmp_path / "trace.jsonl")
        assert read_jsonl(target) == events
        lines = target.read_text().strip().splitlines()
        assert len(lines) == len(events)
        assert json.loads(lines[0])["name"] == "generation"
