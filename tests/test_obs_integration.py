"""Integration tests for tracing: engines, processes, CLI, determinism."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import main
from repro.cluster.runtime import DistributedClanRuntime
from repro.core.protocols import make_protocol
from repro.neat.config import NEATConfig
from repro.obs import tracer as obs
from repro.obs.export import to_chrome_trace
from repro.obs.tracer import Tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.deactivate()
    yield
    obs.deactivate()


@pytest.fixture(scope="module")
def config():
    return NEATConfig.for_env("CartPole-v0", pop_size=24)


class TestLogicalEngineSpans:
    def test_dda_run_records_one_track_per_clan(self, config):
        tracer = Tracer(track="driver")
        obs.activate(tracer)
        engine = make_protocol(
            "CLAN_DDA", "CartPole-v0", n_agents=3, config=config,
            seed=8, resync_period=2,
        )
        engine.run(max_generations=3, fitness_threshold=1e9)
        events = tracer.events()
        tracks = {e.track for e in events}
        assert {"driver", "clan:0", "clan:1", "clan:2"} <= tracks
        names = {e.name for e in events}
        assert {
            "generation", "evaluate", "speciate", "reproduce", "resync"
        } <= names
        # every clan records the full phase cycle for every generation
        for clan in range(3):
            track = f"clan:{clan}"
            for phase in ("evaluate", "speciate", "reproduce"):
                gens = [
                    e.args["gen"]
                    for e in events
                    if e.track == track and e.name == phase
                ]
                assert gens == [0, 1, 2]

    @pytest.mark.parametrize("protocol", ["Serial", "CLAN_DCS", "CLAN_DDS"])
    def test_shared_population_spans_stay_on_the_tracer_track(
        self, config, protocol
    ):
        tracer = Tracer(track="driver")
        obs.activate(tracer)
        engine = make_protocol(
            protocol, "CartPole-v0", n_agents=2, config=config, seed=8
        )
        engine.run(max_generations=2, fitness_threshold=1e9)
        events = tracer.events()
        assert not [e for e in events if e.track.startswith("clan:")]
        for phase in ("evaluate", "speciate", "reproduce"):
            gens = [
                e.args["gen"]
                for e in events
                if e.track == "driver" and e.name == phase
            ]
            assert gens == [0, 1]

    def test_one_clan_dda_keeps_its_clan_track(self, config):
        tracer = Tracer(track="driver")
        obs.activate(tracer)
        engine = make_protocol(
            "CLAN_DDA", "CartPole-v0", n_agents=1, config=config, seed=8
        )
        engine.run(max_generations=1, fitness_threshold=1e9)
        phases = {
            e.track for e in tracer.events()
            if e.name in ("evaluate", "speciate", "reproduce")
        }
        assert phases == {"clan:0"}

    def test_phases_nest_under_generation(self, config):
        tracer = Tracer(track="driver")
        obs.activate(tracer)
        engine = make_protocol(
            "CLAN_DDA", "CartPole-v0", n_agents=2, config=config, seed=8
        )
        engine.run(max_generations=1, fitness_threshold=1e9)
        phases = [
            e for e in tracer.events()
            if e.name in ("evaluate", "speciate", "reproduce")
        ]
        assert phases
        assert all(e.parent == "generation" for e in phases)
        assert all(e.depth == 1 for e in phases)


class TestDeterminism:
    def test_tracing_leaves_results_byte_identical(self, config):
        """Recording spans must not touch any RNG stream."""

        def run_once():
            engine = make_protocol(
                "CLAN_DDA", "CartPole-v0", n_agents=3, config=config,
                seed=8, resync_period=2,
            )
            result = engine.run(
                max_generations=3, fitness_threshold=1e9
            )
            return pickle.dumps(
                (result.records, engine.best_fitness)
            )

        untraced = run_once()
        obs.activate(Tracer(track="driver"))
        traced = run_once()
        obs.deactivate()
        assert traced == untraced

    def test_disabled_tracer_is_also_byte_identical(self, config):
        def run_once():
            engine = make_protocol(
                "Serial", "CartPole-v0", config=config, seed=8
            )
            result = engine.run(max_generations=2, fitness_threshold=1e9)
            return pickle.dumps(result.records)

        baseline = run_once()
        obs.activate(Tracer(track="driver", enabled=False))
        disabled = run_once()
        obs.deactivate()
        assert disabled == baseline


class TestCrossProcessMerge:
    def test_run_async_merges_worker_spans_in_order(self, config):
        """Worker clans ship span batches over their pipes; the merged
        trace keeps each clan's generations in arrival (FIFO) order."""
        tracer = Tracer(track="driver")
        obs.activate(tracer)
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            runtime.run_async(max_generations=3, fitness_threshold=1e9)
        events = tracer.events()
        tracks = {e.track for e in events}
        # barrier-free clans never synchronise on the driver, so the
        # merged trace is purely worker-produced: one track per clan
        assert {"clan:0", "clan:1"} <= tracks
        for clan in range(2):
            for phase in ("evaluate", "speciate", "reproduce"):
                gens = [
                    e.args["gen"]
                    for e in events
                    if e.track == f"clan:{clan}" and e.name == phase
                ]
                assert gens == [0, 1, 2]

    def test_barrier_run_merges_worker_spans_too(self, config):
        """Barrier generations are one-generation clan_run windows, so a
        traced barrier run gets the same per-clan tracks."""
        tracer = Tracer(track="driver")
        obs.activate(tracer)
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            runtime.run(max_generations=2, fitness_threshold=1e9)
        events = tracer.events()
        for clan in range(2):
            gens = [
                e.args["gen"]
                for e in events
                if e.track == f"clan:{clan}" and e.name == "evaluate"
            ]
            assert gens == [0, 1]
        assert [
            e.args["gen"] for e in events if e.name == "generation"
        ] == [0, 1]

    def test_untraced_run_ships_no_spans(self, config):
        assert obs.current() is None
        with DistributedClanRuntime(
            "CartPole-v0", n_clans=2, config=config, seed=8
        ) as runtime:
            stats = runtime.run_async(
                max_generations=1, fitness_threshold=1e9
            )
        assert stats.generations == 1


class TestCliFlags:
    def test_learn_writes_all_three_sinks(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        code = main([
            "learn", "CartPole-v0", "--protocol", "CLAN_DDA",
            "--agents", "4",
            "--devices", "jetson_nano,raspberry_pi,pi_zero,raspberry_pi",
            "--pop", "32", "--generations", "2", "--sim-mode", "async",
            "--trace-out", str(jsonl),
            "--chrome-trace", str(chrome),
            "--metrics-out", str(prom),
        ])
        assert code == 0
        # one JSONL line per event
        lines = jsonl.read_text().strip().splitlines()
        assert lines
        assert all("name" in json.loads(line) for line in lines)
        # the chrome trace has one named track per clan plus the driver
        doc = json.loads(chrome.read_text())
        track_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert {
            "driver", "clan:0", "clan:1", "clan:2", "clan:3"
        } <= track_names
        # prometheus text exposition with evolve metrics
        text = prom.read_text()
        assert "# TYPE repro_evolve_generations_total counter" in text
        assert "repro_plan_cache_hit_rate" in text
        out = capsys.readouterr().out
        assert "chrome trace saved" in out
        # the CLI deactivated its tracer on the way out
        assert obs.current() is None

    def test_learn_without_flags_stays_untraced(self, tmp_path, capsys):
        code = main([
            "learn", "CartPole-v0", "--protocol", "Serial",
            "--pop", "24", "--generations", "1",
        ])
        assert code == 0
        assert obs.current() is None
        assert "trace" not in capsys.readouterr().out


class TestChromeExportOfRealRun:
    def test_engine_trace_renders_to_valid_chrome_json(self, config):
        tracer = Tracer(track="driver")
        obs.activate(tracer)
        engine = make_protocol(
            "CLAN_DDA", "CartPole-v0", n_agents=2, config=config, seed=8
        )
        engine.run(max_generations=2, fitness_threshold=1e9)
        doc = to_chrome_trace(tracer.events(), dropped=tracer.dropped)
        json.dumps(doc)  # serialisable end to end
        complete = [
            e for e in doc["traceEvents"] if e["ph"] == "X"
        ]
        assert complete
        assert all(e["dur"] >= 0 for e in complete)
        assert min(e["ts"] for e in complete) == 0.0
