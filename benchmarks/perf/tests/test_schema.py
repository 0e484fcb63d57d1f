"""``BENCHMARK.json`` against the driver's contract and ``spec.py``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.perf import spec

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def document():
    raw = (ROOT / "BENCHMARK.json").read_text()
    assert len(raw.encode()) <= 64 * 1024
    return json.loads(raw)


def test_top_level_keys_and_command(document):
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert document["paths"] == ["benchmarks/perf"]
    command = document["command"]
    assert 1 <= len(command) <= 32
    assert all(len(part) <= 200 for part in command)
    # names no file outside ``paths``, no absolute or parent path
    for part in command[1:]:
        assert not part.startswith("/") and ".." not in part
        if "/" in part:
            assert part.startswith("benchmarks/perf/")
            assert (ROOT / part).is_file()
    assert isinstance(document["run_seconds"], int)
    assert 1 <= document["run_seconds"] <= 60
    assert document["run_seconds"] == spec.RUN_SECONDS


def test_names_units_and_counts(document):
    workloads = document["workloads"]
    end_to_end = document["end_to_end"]
    per_layer = document["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [
        entry["name"] for entry in workloads + end_to_end + per_layer
    ]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in end_to_end:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
    for entry in per_layer:
        assert set(entry) == {"name", "unit", "better"}
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")


def test_setup_time_is_an_end_to_end_metric(document):
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(e["bound"] for e in document["end_to_end"])}
    ]


def test_document_and_spec_say_the_same(document):
    assert {
        e["name"]: e["why"] for e in document["workloads"]
    } == spec.WORKLOADS
    assert [
        (e["name"], e["unit"], e["better"], e["bound"])
        for e in document["end_to_end"]
    ] == list(spec.END_TO_END)
    assert {
        e["name"]: (e["unit"], e["better"]) for e in document["per_layer"]
    } == spec.PER_LAYER


def test_normative_names_are_present():
    assert list(spec.WORKLOADS) == [
        "learn_small", "learn_large", "clans_async", "serve_fleet",
    ]
    assert [name for name, *_rest in spec.END_TO_END] == [
        "setup_s", "gens_per_s", "env_steps_per_s", "peak_rss_mb",
        "served_qps", "latency_p50_ms", "latency_p95_ms",
        "churn_latency_p95_ms",
    ]
    for name in (
        "envs.vector.step_s", "neat.network.compile_s",
        "neat.network.plan_cache_hit_ratio", "attributed_share",
        "cluster.runtime.parallel_efficiency",
        "cluster.worker_clan.checkpoint_bytes",
        "serve.fleet.deploy_p50_ms", "serve.batcher.mean_batch",
        "neat.network.policy_batch_us.b32", "loadgen.slo_rate_hz",
        "obs.trace_overhead_pct",
    ):
        assert name in spec.PER_LAYER
