"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestLearn:
    def test_learn_prints_progress_and_timing(self, capsys):
        code = main(
            [
                "learn", "CartPole-v0",
                "--protocol", "CLAN_DDA",
                "--agents", "4",
                "--pop", "32",
                "--generations", "3",
                "--threshold", "1e9",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "generation   0" in out
        assert "communication" in out

    def test_learn_converges_exit_zero(self, capsys):
        code = main(
            [
                "learn", "CartPole-v0",
                "--protocol", "CLAN_DCS",
                "--agents", "2",
                "--pop", "32",
                "--generations", "30",
                "--threshold", "30",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_learn_with_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        code = main(
            [
                "learn", "CartPole-v0",
                "--protocol", "Serial",
                "--pop", "20",
                "--generations", "2",
                "--threshold", "1e9",
                "--checkpoint", str(path),
            ]
        )
        assert code in (0, 1)
        assert path.exists()

    def test_learn_prints_speciation_counters(self, capsys):
        code = main(
            [
                "learn", "CartPole-v0",
                "--protocol", "Serial",
                "--pop", "20",
                "--generations", "2",
                "--threshold", "1e9",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "speciation:" in out
        assert "comparisons" in out
        assert "(scalar genetics)" in out
        # scalar backend compiles no plans -> no cache line
        assert "plan cache" not in out

    def test_learn_vectorized_genetics_with_plan_cache(self, capsys):
        code = main(
            [
                "learn", "CartPole-v0",
                "--protocol", "CLAN_DDA",
                "--agents", "2",
                "--pop", "20",
                "--generations", "2",
                "--genetics", "vectorized",
                "--backend", "batched",
                "--threshold", "1e9",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "vectorized genetics" in out
        assert "plan cache" in out

    def test_serial_forces_one_agent(self, capsys):
        code = main(
            [
                "learn", "CartPole-v0",
                "--protocol", "Serial",
                "--agents", "5",
                "--pop", "20",
                "--generations", "1",
                "--threshold", "1e9",
            ]
        )
        assert code in (0, 1)
        assert "on 1 x raspberry_pi" in capsys.readouterr().out

    def test_unknown_env_rejected(self):
        with pytest.raises(SystemExit):
            main(["learn", "Pong-v0"])

    def test_learn_population_eval_mode(self, capsys):
        code = main(
            [
                "learn", "CartPole-v0",
                "--protocol", "CLAN_DCS",
                "--agents", "2",
                "--pop", "24",
                "--generations", "2",
                "--threshold", "1e9",
                "--backend", "batched",
                "--eval-mode", "population",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "population sweep" in out
        assert "generation   1" in out

    def test_population_eval_mode_matches_per_genome(self, capsys):
        def run(eval_mode):
            main(
                [
                    "learn", "CartPole-v0",
                    "--protocol", "CLAN_DDA",
                    "--agents", "2",
                    "--pop", "24",
                    "--generations", "2",
                    "--threshold", "1e9",
                    "--backend", "batched",
                    "--eval-mode", eval_mode,
                ]
            )
            out = capsys.readouterr().out
            return [
                line.split("best")[1]
                for line in out.splitlines()
                if "generation" in line and "best" in line
            ]

        assert run("per_genome") == run("population")

    def test_population_eval_mode_requires_batched(self, capsys):
        code = main(
            [
                "learn", "CartPole-v0",
                "--pop", "20",
                "--generations", "1",
                "--eval-mode", "population",
            ]
        )
        assert code == 2
        assert "batched" in capsys.readouterr().err

    def test_unknown_eval_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["learn", "CartPole-v0", "--eval-mode", "warp"]
            )


LEARN_QUICK = [
    "learn", "CartPole-v0",
    "--pop", "24",
    "--generations", "2",
    "--threshold", "1e9",
]


class TestLearnFleetAndSimMode:
    def test_heterogeneous_devices(self, capsys):
        code = main(
            LEARN_QUICK + ["--devices", "jetson_nano,raspberry_pi,pi_zero"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "[jetson_nano, raspberry_pi, pi_zero]" in out

    def test_unknown_device_in_list_rejected(self, capsys):
        code = main(LEARN_QUICK + ["--devices", "raspberry_pi,tpu"])
        assert code == 2
        assert "tpu" in capsys.readouterr().err

    def test_sim_mode_async(self, capsys):
        code = main(
            LEARN_QUICK + [
                "--agents", "3",
                "--sim-mode", "async",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "simulated (async)" in out
        assert "straggler gap" in out

    def test_sim_mode_async_rejected_for_synchronous_protocols(
        self, capsys
    ):
        code = main(
            LEARN_QUICK + [
                "--protocol", "CLAN_DCS",
                "--agents", "2",
                "--sim-mode", "async",
            ]
        )
        assert code == 2
        assert "CLAN_DDA" in capsys.readouterr().err

    def test_resync_period(self, capsys):
        code = main(
            LEARN_QUICK + ["--agents", "3", "--resync-period", "2"]
        )
        assert code in (0, 1)

    def test_resync_period_must_be_positive(self, capsys):
        code = main(LEARN_QUICK + ["--resync-period", "0"])
        assert code == 2
        assert ">= 1" in capsys.readouterr().err

    def test_resync_period_requires_dda(self, capsys):
        code = main(
            LEARN_QUICK + [
                "--protocol", "CLAN_DCS",
                "--agents", "2",
                "--resync-period", "2",
            ]
        )
        assert code == 2
        assert "CLAN_DDA" in capsys.readouterr().err

    def test_unknown_sim_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["learn", "CartPole-v0", "--sim-mode", "warp"])


class TestModel:
    def test_compares_all_modes(self, capsys):
        code = main(
            [
                "model", "CartPole-v0",
                "--agents", "3",
                "--pop", "24",
                "--generations", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for mode in ("barrier", "pipelined", "async"):
            assert mode in out
        assert "straggler gap" in out

    def test_single_mode_on_heterogeneous_fleet(self, capsys):
        code = main(
            [
                "model", "CartPole-v0",
                "--pop", "24",
                "--generations", "2",
                "--devices", "jetson_nano,raspberry_pi,pi_zero",
                "--sim-mode", "async",
                "--resync-period", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "async" in out
        assert "pipelined" not in out
        assert "pi_zero" in out

    def test_async_excluded_for_synchronous_protocols(self, capsys):
        code = main(
            [
                "model", "CartPole-v0",
                "--protocol", "CLAN_DCS",
                "--agents", "2",
                "--pop", "24",
                "--generations", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "barrier" in out
        assert "async" not in out

    def test_serial_rejects_multi_device_fleet(self, capsys):
        code = main(
            [
                "model", "CartPole-v0",
                "--protocol", "Serial",
                "--pop", "24",
                "--generations", "1",
                "--devices", "pi_zero,raspberry_pi",
            ]
        )
        assert code == 2
        assert "exactly one device" in capsys.readouterr().err

    def test_serial_single_device_fleet(self, capsys):
        code = main(
            [
                "model", "CartPole-v0",
                "--protocol", "Serial",
                "--pop", "24",
                "--generations", "1",
                "--devices", "jetson_nano",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "jetson_nano" in out

    def test_rejects_async_request_for_dcs(self, capsys):
        code = main(
            [
                "model", "CartPole-v0",
                "--protocol", "CLAN_DCS",
                "--agents", "2",
                "--pop", "24",
                "--generations", "1",
                "--sim-mode", "async",
            ]
        )
        assert code == 2
        assert "CLAN_DDA" in capsys.readouterr().err


class TestInspect:
    def test_inspect_describes_champion(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        main(
            [
                "learn", "CartPole-v0",
                "--protocol", "Serial",
                "--pop", "20",
                "--generations", "2",
                "--threshold", "1e9",
                "--checkpoint", str(path),
            ]
        )
        capsys.readouterr()
        code = main(["inspect", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Genome" in out
        assert "connection" in out

    def test_inspect_dot_output(self, tmp_path, capsys):
        path = tmp_path / "pop.json"
        main(
            [
                "learn", "CartPole-v0",
                "--protocol", "Serial",
                "--pop", "20",
                "--generations", "1",
                "--threshold", "1e9",
                "--checkpoint", str(path),
            ]
        )
        capsys.readouterr()
        code = main(["inspect", str(path), "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph champion")


class TestAnalyses:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "raspberry_pi" in out
        assert "$1500" in out

    def test_start_up_leaves_the_serving_stack_unimported(self):
        """``repro lint`` / ``inspect`` / ``platforms`` need none of the
        serving tier (fleet, gateway, cluster runtime); building the
        parser (``main`` does) and running one of them must not import
        it. A subprocess, so another test's imports cannot mask a
        regression."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys, repro.cli\n"
            "assert repro.cli.main(['platforms']) == 0\n"
            "loaded = sorted(m for m in sys.modules "
            "if m.startswith('repro.serve'))\n"
            "assert not loaded, loaded\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "raspberry_pi" in done.stdout

    def test_scale_study(self, capsys):
        code = main(
            [
                "scale", "CartPole-v0",
                "--pop", "24",
                "--generations", "2",
                "--single-step",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "crossover" in out

    def test_ppp(self, capsys):
        code = main(
            ["ppp", "CartPole-v0", "--pop", "24", "--generations", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "perf per dollar" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServe:
    def test_serves_load_with_hot_swaps(self, capsys):
        code = main(
            [
                "serve", "CartPole-v0",
                "--clans", "2",
                "--pop", "24",
                "--generations", "10",
                "--requests", "200",
                "--rate", "400",
                "--threshold", "1e9",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving CartPole-v0" in out
        # the champion-changed events surface in the summary
        assert "hot-swap -> v2" in out
        assert "p95 latency" in out
        assert "served           | 200" in out
        assert "evolution: 10 generations/clan" in out

    def test_rejects_bad_rate(self, capsys):
        code = main(["serve", "CartPole-v0", "--rate", "0"])
        assert code == 2
        assert "rate" in capsys.readouterr().err

    def test_rejects_bad_clans(self, capsys):
        code = main(["serve", "CartPole-v0", "--clans", "0"])
        assert code == 2
        assert "clans" in capsys.readouterr().err

    def test_rejects_bad_batching_knobs(self, capsys):
        code = main(["serve", "CartPole-v0", "--max-batch", "0"])
        assert code == 2
        assert "max-batch" in capsys.readouterr().err

    def test_replicated_serving_prints_per_replica_rollup(self, capsys):
        code = main(
            [
                "serve", "CartPole-v0",
                "--clans", "2",
                "--pop", "24",
                "--generations", "6",
                "--requests", "150",
                "--rate", "400",
                "--threshold", "1e9",
                "--replicas", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving CartPole-v0 (2 gateway replicas)" in out
        # fleet rollup table plus the per-replica breakdown
        assert "served           | 150" in out
        assert "per-replica stats" in out

    def test_rejects_bad_replicas(self, capsys):
        code = main(["serve", "CartPole-v0", "--replicas", "0"])
        assert code == 2
        assert "replicas" in capsys.readouterr().err

    def test_console_script_aliases_share_the_entry_point(self):
        # tomllib is 3.11+; a text check keeps this running on 3.10
        import pathlib

        pyproject = (
            pathlib.Path(__file__).parent.parent / "pyproject.toml"
        ).read_text()
        assert 'clan-repro = "repro.cli:main"' in pyproject
        assert 'repro = "repro.cli:main"' in pyproject


class TestServeHealing:
    def test_summary_surfaces_client_retry_counters(self, capsys):
        code = main(
            [
                "serve", "CartPole-v0",
                "--clans", "2",
                "--pop", "24",
                "--generations", "4",
                "--requests", "80",
                "--rate", "400",
                "--threshold", "1e9",
                "--client-retries", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "retried" in out
        assert "failed" in out

    def test_metrics_out_includes_fleet_health(self, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        code = main(
            [
                "serve", "CartPole-v0",
                "--clans", "2",
                "--pop", "24",
                "--generations", "4",
                "--requests", "80",
                "--rate", "400",
                "--threshold", "1e9",
                "--replicas", "2",
                "--metrics-out", str(target),
            ]
        )
        assert code == 0
        text = target.read_text()
        assert "repro_replica_respawns_total" in text
        assert "repro_requests_retried_total" in text
        capsys.readouterr()

    def test_rejects_negative_healing_knobs(self, capsys):
        code = main(
            ["serve", "CartPole-v0", "--max-replica-respawns", "-1"]
        )
        assert code == 2
        assert "max-replica-respawns" in capsys.readouterr().err
        code = main(["serve", "CartPole-v0", "--client-retries", "-1"])
        assert code == 2
        assert "client-retries" in capsys.readouterr().err


_RESUME_ARGS = [
    "learn", "CartPole-v0",
    "--protocol", "Serial",
    "--pop", "20",
    "--seed", "5",
    "--threshold", "1e9",
]


def _champion_payloads(path):
    """Checkpoint file -> (best-genome payload, all genome payloads)."""
    from repro.cluster.serialization import encode_genome
    from repro.neat.checkpoint import load_population

    population = load_population(path)
    return (
        encode_genome(population.best_genome),
        {
            key: encode_genome(genome)
            for key, genome in population.genomes.items()
        },
    )


def _learn_digests(monkeypatch, argv):
    """Run ``repro learn argv``; the record digests of the generations
    it ran."""
    from repro.core.driver import ClanDriver

    from tests.test_protocol_records import record_digest

    runs = []
    learn = ClanDriver.learn

    def recording(driver, *args, **kwargs):
        runs.append(learn(driver, *args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(ClanDriver, "learn", recording)
    assert main(argv) in (0, 1)
    monkeypatch.undo()
    return [record_digest(r) for r in runs[0].result.records]


def _resume_pair(monkeypatch, tmp_path, argv):
    """Records of a 4-generation run, and of the same run stopped after
    2 generations and resumed from its checkpoint directory; the two
    checkpoint directories."""
    full, split = tmp_path / "full", tmp_path / "split"
    straight = _learn_digests(
        monkeypatch,
        argv + ["--generations", "4", "--checkpoint-dir", str(full)],
    )
    head = _learn_digests(
        monkeypatch,
        argv + ["--generations", "2", "--checkpoint-dir", str(split)],
    )
    tail = _learn_digests(
        monkeypatch,
        argv
        + ["--generations", "4", "--checkpoint-dir", str(split), "--resume"],
    )
    return straight, head + tail, full, split


class TestLearnResume:
    def test_resume_requires_checkpoint_dir(self, capsys):
        code = main(_RESUME_ARGS + ["--generations", "1", "--resume"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocol,agents", [("Serial", 1), ("CLAN_DCS", 3), ("CLAN_DDS", 3)]
    )
    def test_resumed_records_equal_the_uninterrupted_run(
        self, monkeypatch, tmp_path, protocol, agents
    ):
        argv = list(_RESUME_ARGS)
        argv[argv.index("--protocol") + 1] = protocol
        straight, resumed, _full, _split = _resume_pair(
            monkeypatch, tmp_path, argv + ["--agents", str(agents)]
        )
        # a resumed CLAN_DDS run must not re-ship its whole population:
        # the checkpoint carries the residency map its fold continues
        assert resumed == straight

    def test_dda_resume_equals_the_uninterrupted_run(
        self, monkeypatch, tmp_path
    ):
        from repro.cluster.store import CheckpointStore

        argv = list(_RESUME_ARGS)
        argv[argv.index("--protocol") + 1] = "CLAN_DDA"
        straight, resumed, full, split = _resume_pair(
            monkeypatch, tmp_path, argv + ["--agents", "3"]
        )
        assert resumed == straight
        clans = [
            CheckpointStore(store).read("population")["clans"]
            for store in (full, split)
        ]
        assert sorted(clans[0]) == ["0", "1", "2"]
        assert clans[0] == clans[1]

    def test_resume_from_empty_store_errors(self, tmp_path, capsys):
        code = main(
            _RESUME_ARGS
            + [
                "--generations", "2",
                "--checkpoint-dir", str(tmp_path / "empty"),
                "--resume",
            ]
        )
        assert code == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_resume_rejects_mismatched_arguments(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            _RESUME_ARGS
            + ["--generations", "1", "--checkpoint-dir", store]
        ) in (0, 1)
        capsys.readouterr()
        mismatched = list(_RESUME_ARGS)
        mismatched[mismatched.index("--seed") + 1] = "6"
        code = main(
            mismatched
            + ["--generations", "2", "--checkpoint-dir", store, "--resume"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "disagree" in err
        assert "--seed" in err

    def test_exhausted_budget_resumes_to_a_no_op(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            _RESUME_ARGS
            + ["--generations", "2", "--checkpoint-dir", store]
        ) in (0, 1)
        capsys.readouterr()
        code = main(
            _RESUME_ARGS
            + ["--generations", "2", "--checkpoint-dir", store, "--resume"]
        )
        assert code == 0
        assert "nothing left" in capsys.readouterr().out

    def test_resumed_run_is_bit_identical(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        store = str(tmp_path / "store")
        assert main(
            _RESUME_ARGS
            + ["--generations", "4", "--checkpoint", str(full)]
        ) in (0, 1)
        assert main(
            _RESUME_ARGS
            + ["--generations", "2", "--checkpoint-dir", store]
        ) in (0, 1)
        code = main(
            _RESUME_ARGS
            + [
                "--generations", "4",
                "--checkpoint-dir", store,
                "--resume",
                "--checkpoint", str(resumed),
            ]
        )
        assert code in (0, 1)
        assert "resumed at generation 2" in capsys.readouterr().out
        full_best, full_genomes = _champion_payloads(full)
        resumed_best, resumed_genomes = _champion_payloads(resumed)
        # the continuation is exact: not just the champion but the whole
        # final population matches the uninterrupted run byte for byte
        assert resumed_best == full_best
        assert resumed_genomes == full_genomes

    def test_sigkilled_run_resumes_bit_identically(self, tmp_path, capsys):
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        full = tmp_path / "full.json"
        resumed = tmp_path / "resumed.json"
        store = tmp_path / "store"
        assert main(
            _RESUME_ARGS
            + ["--generations", "4", "--checkpoint", str(full)]
        ) in (0, 1)
        capsys.readouterr()
        # launch the same run as a real process and SIGKILL it as soon
        # as its first per-generation checkpoint lands
        import pathlib

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [sys.executable, "-m", "repro"]
            + _RESUME_ARGS
            + ["--generations", "4", "--checkpoint-dir", str(store)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            manifest = store / "manifest.json"
            population = store / "population.json"
            while time.monotonic() < deadline:
                if manifest.exists() and population.exists():
                    try:
                        done = json.loads(manifest.read_text()).get(
                            "completed_generations", 0
                        )
                    except json.JSONDecodeError:
                        done = 0  # racing the atomic rename; retry
                    if 1 <= done < 4:
                        break
                if process.poll() is not None:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("no checkpoint within 120s")
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=30)
        done = json.loads((store / "manifest.json").read_text())[
            "completed_generations"
        ]
        assert done >= 1
        code = main(
            _RESUME_ARGS
            + [
                "--generations", "4",
                "--checkpoint-dir", str(store),
                "--resume",
                "--checkpoint", str(resumed),
            ]
        )
        assert code in (0, 1)
        capsys.readouterr()
        full_best, full_genomes = _champion_payloads(full)
        resumed_best, resumed_genomes = _champion_payloads(resumed)
        assert resumed_best == full_best
        assert resumed_genomes == full_genomes


class TestChaosCommand:
    def test_rejects_bad_fault_spec(self, capsys):
        code = main(["chaos", "CartPole-v0", "--fault", "kill,target=1"])
        assert code == 2
        assert "scope" in capsys.readouterr().err

    def test_rejects_bad_plan_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{nope")
        code = main(["chaos", "CartPole-v0", "--plan", str(plan)])
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    def test_learn_chaos_recovers_and_reports(self, tmp_path, capsys):
        report = tmp_path / "outcome.json"
        code = main(
            [
                "chaos", "CartPole-v0",
                "--workload", "learn",
                "--clans", "2",
                "--pop", "16",
                "--generations", "2",
                "--seed", "4",
                "--fault",
                "kill,scope=worker,target=0,kind=clan_run,at=1",
                "--json", str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "kill worker 0" in out
        assert "fully recovered" in out
        assert "faults: 1/1 fired" in out
        import json

        outcome = json.loads(report.read_text())
        assert outcome["churn"]["respawns"] == 1
        assert outcome["faults_fired"] == 1

    def test_plan_file_drives_the_run(self, tmp_path, capsys):
        from repro.chaos import Fault, FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan(
            seed=3,
            faults=(
                Fault(
                    action="kill", scope="worker", target=0,
                    kind="clan_run", at=1,
                ),
            ),
        ).save(plan_path)
        code = main(
            [
                "chaos", "CartPole-v0",
                "--workload", "learn",
                "--clans", "2",
                "--pop", "16",
                "--generations", "2",
                "--seed", "4",
                "--plan", str(plan_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos seed 3" in out
        assert "fully recovered" in out

    def test_unfired_fault_fails_the_run(self, capsys):
        code = main(
            [
                "chaos", "CartPole-v0",
                "--workload", "learn",
                "--clans", "2",
                "--pop", "16",
                "--generations", "1",
                "--seed", "4",
                "--fault",
                "kill,scope=worker,target=0,kind=clan_run,at=99",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "never matched an event" in out
        assert "NOT fully recovered" in out

    def test_serve_chaos_recovers(self, capsys):
        code = main(
            [
                "chaos", "CartPole-v0",
                "--workload", "serve",
                "--replicas", "2",
                "--rate", "500",
                "--requests", "100",
                "--seed", "2",
                "--fault", "kill,scope=replica,target=0,kind=infer,at=2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fully recovered" in out
        assert "replica respawns" in out
