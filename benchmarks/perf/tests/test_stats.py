"""Arithmetic the reported numbers rest on."""

from __future__ import annotations

import pytest

from benchmarks.perf import stats
from benchmarks.perf.stats import INF


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 5) == 15
    assert stats.percentile(values, 30) == 20
    assert stats.percentile(values, 40) == 20
    assert stats.percentile(values, 50) == 35
    assert stats.percentile(values, 100) == 50
    # never interpolates: the result is always a sample
    assert stats.percentile([1.0, 2.0], 50) == 1.0


def test_failures_count_as_infinite_latency():
    # 100 requests, 6 failed: the worst 6% are +inf, so p95 is too,
    # while p90 still reads the slowest survivor's neighbourhood
    latencies = [float(i) for i in range(1, 95)] + [INF] * 6
    assert stats.percentile(latencies, 95) == INF
    assert stats.percentile(latencies, 90) == 90.0
    # one failure in 100 does not reach p95
    assert stats.percentile([1.0] * 99 + [INF], 95) == 1.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_window_summary_reports_the_median_window():
    summary = stats.window_summary([10.0, 11.0, 30.0])
    assert summary["value"] == 11.0
    assert (summary["min"], summary["max"]) == (10.0, 30.0)
    assert summary["windows"] == 3
    assert summary["raw"] == 11.0


def test_quiet_quartile_ignores_a_stalled_majority():
    # six of ten windows sat through a host stall
    windows = [7.1, 7.4, 7.2, 8.0] + [25.0, 120.0, 31.0, 18.0, 22.0, 40.0]
    summary = stats.window_summary(
        windows, rate=False, pick=stats.quiet_quartile
    )
    assert summary["value"] == 7.4 == summary["raw"]
    assert summary["max"] == 120.0 and summary["windows"] == 10
    assert stats.window_summary(windows)["value"] == 20.0


def test_window_summary_scales_rates_up_and_times_down():
    # the machine ran 2x slower than the reference during window two
    rates = stats.window_summary([10.0, 5.0], [1.0, 2.0])
    assert rates["value"] == 10.0 and rates["raw"] == 7.5
    times = stats.window_summary([4.0, 8.0], [1.0, 2.0], rate=False)
    assert times["value"] == 4.0 and times["raw"] == 6.0
    with pytest.raises(ValueError):
        stats.window_summary([])


def test_chain_digest_is_bit_exact_and_prefix_comparable():
    def chain(fitnesses):
        links = []
        for value in fitnesses:
            links.append(
                stats.chain_digest(links[-1] if links else "", value, 3)
            )
        return links

    long = chain([1.0, 2.0, 3.0, 4.0])
    assert stats.common_prefix_agrees(long, chain([1.0, 2.0]))
    # one ulp apart is a different trajectory
    assert not stats.common_prefix_agrees(
        long, chain([1.0, 2.0000000000000004])
    )
    # a difference before the shared end poisons every later link
    assert not stats.common_prefix_agrees(long, chain([1.5, 2.0, 3.0]))
    assert not stats.common_prefix_agrees(long, [])


def test_derived_seeds_are_stable_and_distinct():
    assert stats.derive_seed(1, "neat") == stats.derive_seed(1, "neat")
    assert stats.derive_seed(1, "neat") != stats.derive_seed(2, "neat")
    assert stats.derive_seed(1, "neat") != stats.derive_seed(1, "load")
    assert 0 <= stats.derive_seed(7, "x") < 2**31
