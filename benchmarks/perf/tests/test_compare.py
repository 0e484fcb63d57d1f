"""Verdicts of ``compare``: bound, spread and separation."""

from __future__ import annotations

import json

from benchmarks.perf import compare


def test_same_within_the_bound():
    steady = [100, 101, 99]
    assert compare.verdict(steady, [97, 98, 96], "higher", 0.10) == "same"
    assert compare.verdict(
        [5.0, 5.1, 4.9], [5.3, 5.2, 5.4], "lower", 0.10
    ) == "same"


def test_worse_and_better_past_the_bound():
    steady = [100, 101, 99]
    assert compare.verdict(steady, [80, 81, 79], "higher", 0.10) == "worse"
    assert compare.verdict(
        steady, [120, 121, 119], "higher", 0.10
    ) == "better"
    # lower is better: a latency that grew 30% is worse
    assert compare.verdict(
        [5.0, 5.1, 4.9], [6.5, 6.6, 6.4], "lower", 0.10
    ) == "worse"


def test_wide_spread_is_unresolved_not_same():
    # the base's own runs differ by 30%: a 2% median shift proves nothing
    assert compare.verdict(
        [100, 85, 115], [98, 99, 97], "higher", 0.10
    ) == "unresolved"
    # ... unless every candidate run beats every base run
    assert compare.verdict(
        [100, 85, 115], [150, 140, 160], "higher", 0.10
    ) == "better"
    assert compare.verdict(
        [100, 85, 115], [50, 40, 60], "higher", 0.10
    ) == "worse"


def test_rows_and_rendering_carry_base_and_ratio(tmp_path, capsys):
    def ledger(qps):
        return {
            "bounds": {
                "served_qps": {
                    "unit": "1/s", "better": "higher", "bound": 0.15,
                }
            },
            "workloads": {
                "serve_fleet": {"end_to_end": {"served_qps": qps}}
            },
        }

    base, cand = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(ledger([20000.0, 20400.0, 19800.0])))
    cand.write_text(json.dumps(ledger([15000.0, 15100.0, 14900.0])))
    assert compare.compare_files(base, base) == 0
    assert compare.compare_files(base, cand) == 1
    out = capsys.readouterr().out
    assert "served_qps" in out and "serve_fleet" in out
    assert "x0.750 of 20000.0000" in out and "worse" in out
