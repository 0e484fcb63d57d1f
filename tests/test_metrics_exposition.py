"""Golden ``--metrics-out`` expositions.

``repro learn`` and ``repro serve`` write their end-of-run measurements
in Prometheus text exposition format. Operators and scrapers key on the
family names, HELP text, labels, sample order, bucket bounds and number
formatting, so the bytes are pinned here:

* two seeded ``repro learn`` runs (Serial, and CLAN_DDA over two clans),
  rendered end to end through the CLI;
* the serve exposition over hand-built measurements: a fleet rollup and
  two replica :class:`~repro.core.metrics.ServiceStats`, a
  :class:`~repro.core.metrics.ChurnStats` and a fleet health dict.

Re-record (only when a change is *meant* to alter the exposition)::

    PYTHONPATH=src python -m tests.test_metrics_exposition
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.metrics import ChurnStats, ServiceStats

GOLDEN = Path(__file__).parent / "golden"

LEARN_CASES = {
    "metrics_learn_serial.prom": [
        "learn", "CartPole-v0", "--protocol", "Serial",
        "--pop", "20", "--generations", "3", "--seed", "3",
        "--backend", "batched", "--threshold", "1e9",
    ],
    "metrics_learn_clan_dda.prom": [
        "learn", "CartPole-v0", "--protocol", "CLAN_DDA", "--agents", "2",
        "--pop", "20", "--generations", "3", "--seed", "3",
        "--backend", "batched", "--threshold", "1e9",
    ],
}

SERVE_CASE = "metrics_serve.prom"


def learn_exposition(argv, directory: Path) -> str:
    target = directory / "metrics.prom"
    # exit code 1: the budget runs out below the unreachable threshold
    assert main([*argv, "--metrics-out", str(target)]) == 1
    return target.read_text(encoding="utf-8")


def serve_measurements():
    """What ``repro serve`` holds at exit, with non-round values."""
    replicas = {
        0: ServiceStats(
            requests=157, served=151, shed=6, qps=812.3456789,
            p50_latency_s=0.000731, p95_latency_s=0.0043217,
            batch_size_histogram={1: 37, 3: 12, 7: 9, 32: 1},
            champion_version=4, swaps=3,
        ),
        1: ServiceStats(
            requests=143, served=143, shed=0, qps=766.1,
            p50_latency_s=0.00069, p95_latency_s=0.0031,
            batch_size_histogram={1: 41, 2: 15, 5: 8, 200: 1},
            champion_version=4, swaps=3,
        ),
        2: None,
    }
    fleet = ServiceStats(
        requests=300, served=294, shed=6, qps=1578.4456789,
        p50_latency_s=0.000712, p95_latency_s=0.0040011,
        batch_size_histogram={1: 78, 2: 15, 3: 12, 5: 8, 7: 9,
                              32: 1, 200: 1},
        champion_version=4, swaps=3,
    )
    churn = ChurnStats(
        deaths=3, respawns=2, clans_lost=1, lost_generations=4,
        reassigned_generations=2,
        recovery_latency_s=[0.0123, 0.3, 0.0004, 7.25],
    )
    health = {
        "replica_respawns": 2,
        "requests_retried": 11,
        "fleet_shed": 1,
        "breaker_states": {1: 0.5, 0: 0.0, 10: 1.0},
        "live_replicas": [0, 1],
        "faults_injected": {"kill": 1, "corrupt": 2, "drop": 1},
    }
    return fleet, replicas, churn, health


def serve_exposition(fleet, replicas, churn, health) -> str:
    """What ``repro serve`` renders at exit."""
    from repro.obs.metrics import to_prometheus

    return to_prometheus(
        service=fleet, replicas=replicas, churn=churn, health=health
    )


@pytest.mark.parametrize("case", sorted(LEARN_CASES))
def test_learn_exposition_matches_the_golden_bytes(case, tmp_path, capsys):
    text = learn_exposition(LEARN_CASES[case], tmp_path)
    capsys.readouterr()
    assert text == (GOLDEN / case).read_text(encoding="utf-8")


def test_serve_exposition_matches_the_golden_bytes():
    text = serve_exposition(*serve_measurements())
    assert text == (GOLDEN / SERVE_CASE).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case, argv in sorted(LEARN_CASES.items()):
            text = learn_exposition(argv, Path(scratch))
            (GOLDEN / case).write_text(text, encoding="utf-8")
    (GOLDEN / SERVE_CASE).write_text(
        serve_exposition(*serve_measurements()), encoding="utf-8"
    )
    print(f"wrote {sorted(LEARN_CASES) + [SERVE_CASE]} to {GOLDEN}")
