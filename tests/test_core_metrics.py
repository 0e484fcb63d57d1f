"""Tests for generation records and run summaries."""

from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import CENTER, Message, MessageType
from repro.core.metrics import (
    AgentLoad,
    GenerationRecord,
    RunResult,
    ServiceStats,
    percentile,
    percentiles,
)


def record_with_messages():
    record = GenerationRecord(
        generation=0,
        protocol="CLAN_DDS",
        n_agents=2,
        agent_loads=[AgentLoad(), AgentLoad()],
    )
    record.messages = [
        Message(MessageType.SENDING_GENOMES, CENTER, 0, 100, 40, 5),
        Message(MessageType.SENDING_FITNESS, 0, CENTER, 10, 0, 5),
        Message(MessageType.SENDING_CHILDREN, 1, CENTER, 60, 25, 3),
    ]
    return record


class TestAgentLoad:
    def test_total_gene_ops(self):
        load = AgentLoad(
            inference_gene_ops=10,
            reproduction_gene_ops=5,
            speciation_gene_ops=3,
        )
        assert load.total_gene_ops() == 18

    def test_defaults_zero(self):
        assert AgentLoad().total_gene_ops() == 0


class TestGenerationRecord:
    def test_comm_floats(self):
        record = record_with_messages()
        assert record.comm_floats() == 170

    def test_comm_breakdown(self):
        breakdown = record_with_messages().comm_breakdown()
        assert breakdown[MessageType.SENDING_GENOMES] == 100
        assert breakdown[MessageType.SENDING_CHILDREN] == 60

    def test_total_inference(self):
        record = record_with_messages()
        record.agent_loads[0].inference_gene_ops = 7
        record.agent_loads[1].inference_gene_ops = 3
        assert record.total_inference_gene_ops() == 10

    def test_total_evolution_includes_center_and_agents(self):
        record = record_with_messages()
        record.center_speciation_gene_ops = 5
        record.agent_loads[0].reproduction_gene_ops = 2
        assert record.total_evolution_gene_ops() == 7

    def test_total_env_steps(self):
        record = record_with_messages()
        record.agent_loads[0].env_steps = 100
        record.agent_loads[1].env_steps = 50
        assert record.total_env_steps() == 150

    def test_slowest_agent(self):
        record = record_with_messages()
        record.agent_loads[0].inference_gene_ops = 10
        record.agent_loads[1].inference_gene_ops = 90
        assert record.slowest_agent() == 1

    def test_load_imbalance(self):
        record = record_with_messages()
        record.agent_loads[0].inference_gene_ops = 30
        record.agent_loads[1].inference_gene_ops = 90
        # max 90 over mean 60
        assert record.load_imbalance() == 1.5

    def test_load_imbalance_of_empty_load_is_balanced(self):
        assert record_with_messages().load_imbalance() == 1.0


class TestRunResult:
    def test_aggregates_over_records(self):
        result = RunResult(protocol="CLAN_DDS", env_id="x", n_agents=2)
        result.records = [record_with_messages(), record_with_messages()]
        assert result.generations == 2
        assert result.total_comm_floats() == 340
        assert result.mean_comm_floats_per_generation() == 170

    def test_breakdown_sums(self):
        result = RunResult(protocol="CLAN_DDS", env_id="x", n_agents=2)
        result.records = [record_with_messages()] * 3
        breakdown = result.comm_breakdown()
        assert breakdown[MessageType.SENDING_GENOMES] == 300

    def test_empty_run(self):
        result = RunResult(protocol="Serial", env_id="x", n_agents=1)
        assert result.generations == 0
        assert result.mean_comm_floats_per_generation() == 0.0


def service_stats(
    latencies,
    requests=None,
    shed=0,
    qps=100.0,
    histogram=None,
    version=1,
    swaps=0,
):
    served = len(latencies)
    return ServiceStats(
        requests=requests if requests is not None else served,
        served=served,
        shed=shed,
        qps=qps,
        p50_latency_s=percentile(latencies, 50),
        p95_latency_s=percentile(latencies, 95),
        batch_size_histogram=histogram or {},
        champion_version=version,
        swaps=swaps,
        latency_window=array("d", latencies),
    )


class TestServiceStatsMerge:
    def test_empty_parts_yield_zero_snapshot(self):
        merged = ServiceStats.merge([])
        assert merged.requests == merged.served == merged.shed == 0
        assert merged.qps == 0.0
        assert merged.p50_latency_s == merged.p95_latency_s == 0.0
        assert tuple(merged.latency_window) == ()

    def test_none_parts_are_skipped(self):
        merged = ServiceStats.merge(
            [None, service_stats([0.1, 0.2]), None]
        )
        assert merged.served == 2
        assert tuple(merged.latency_window) == (0.1, 0.2)

    def test_counters_and_qps_sum(self):
        merged = ServiceStats.merge(
            [
                service_stats([0.1], requests=3, shed=2, qps=50.0),
                service_stats([0.2, 0.3], shed=1, qps=75.0),
            ]
        )
        assert merged.requests == 5
        assert merged.served == 3
        assert merged.shed == 3
        assert merged.qps == 125.0

    def test_percentiles_rerank_concatenated_reservoirs(self):
        # a skewed mix: one fast replica, one slow replica. Averaging
        # the per-part p95s would give (0.005 + 1.0) / 2 = 0.5 — the
        # merged nearest-rank over the raw samples is the slow tail.
        fast = service_stats([0.001, 0.002, 0.003, 0.004, 0.005])
        slow = service_stats([0.2, 0.4, 0.6, 0.8, 1.0])
        merged = ServiceStats.merge([fast, slow])
        pooled = sorted(fast.latency_window + slow.latency_window)
        assert merged.p50_latency_s == percentile(pooled, 50)
        assert merged.p95_latency_s == percentile(pooled, 95)
        assert merged.p95_latency_s == 1.0
        # rank ceil(10 * 50 / 100) = 5 -> the 5th smallest sample
        assert merged.p50_latency_s == 0.005

    def test_skewed_sizes_weight_by_sample_count(self):
        # nearest-rank over the pooled reservoir weights each part by
        # how much it actually served — a busy slow replica dominates
        busy_slow = service_stats([0.5] * 19)
        idle_fast = service_stats([0.001])
        merged = ServiceStats.merge([busy_slow, idle_fast])
        assert merged.p50_latency_s == 0.5
        assert merged.p95_latency_s == 0.5

    def test_empty_replica_mix_keeps_other_reservoirs(self):
        merged = ServiceStats.merge(
            [service_stats([]), service_stats([0.3, 0.1])]
        )
        assert merged.served == 2
        assert merged.p95_latency_s == 0.3
        # windows concatenate in part order, not sorted
        assert tuple(merged.latency_window) == (0.3, 0.1)

    def test_histograms_add_per_batch_size(self):
        merged = ServiceStats.merge(
            [
                service_stats([0.1], histogram={1: 2, 4: 1}),
                service_stats([0.1], histogram={4: 3, 8: 5}),
            ]
        )
        assert merged.batch_size_histogram == {1: 2, 4: 4, 8: 5}

    def test_version_and_swaps_take_max(self):
        merged = ServiceStats.merge(
            [
                service_stats([0.1], version=3, swaps=2),
                service_stats([0.1], version=5, swaps=4),
                service_stats([0.1], version=4, swaps=1),
            ]
        )
        assert merged.champion_version == 5
        assert merged.swaps == 4

    def test_merge_of_merges_equals_flat_merge(self):
        parts = [
            service_stats([0.1, 0.9]),
            service_stats([0.2]),
            service_stats([0.3, 0.5, 0.7]),
        ]
        flat = ServiceStats.merge(parts)
        nested = ServiceStats.merge(
            [ServiceStats.merge(parts[:2]), ServiceStats.merge(parts[2:])]
        )
        assert nested.p50_latency_s == flat.p50_latency_s
        assert nested.p95_latency_s == flat.p95_latency_s
        assert nested.served == flat.served
        assert sorted(nested.latency_window) == sorted(
            flat.latency_window
        )


def sorted_percentile(samples, q: float) -> float:
    """The nearest-rank reference: rank ``ceil(n * q / 100)`` of
    ``sorted(samples)``, 0.0 for no samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def exact(values) -> list[str]:
    """Bit-exact form of floats (tells -0.0 from 0.0)."""
    return [float(value).hex() for value in values]


quantiles = st.lists(
    st.floats(min_value=0, max_value=100), min_size=1, max_size=4
)


class TestPercentilesProperty:
    """One stable NumPy sort ranks exactly as ``sorted()`` does."""

    @given(
        samples=st.lists(st.floats(allow_nan=False), max_size=200),
        qs=quantiles,
    )
    @example(samples=[], qs=[50.0, 95.0])
    @example(samples=[0.25], qs=[0.0, 50.0, 100.0])
    @example(samples=[0.0, -0.0, 0.0, -0.0], qs=[25.0, 50.0, 75.0])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equals_the_sorted_nearest_rank(self, samples, qs):
        got = percentiles(samples, *qs)
        assert all(type(value) is float for value in got)
        expected = [sorted_percentile(samples, q) for q in qs]
        assert exact(got) == exact(expected)
        # the same from the buffers the serving path hands it
        assert percentiles(array("d", samples), *qs) == got
        assert percentiles(np.array(samples, dtype=float), *qs) == got

    @given(
        # many equal keys, signed zeros among them: an unstable sort
        # would hand back -0.0 where sorted() ranks 0.0
        samples=st.lists(
            st.sampled_from([-0.0, 0.0, 0.001, 0.002, 0.5]), max_size=600
        ),
        qs=quantiles,
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_duplicates_rank_as_sorted(self, samples, qs):
        expected = [sorted_percentile(samples, q) for q in qs]
        assert exact(percentiles(samples, *qs)) == exact(expected)

    def test_percentile_is_the_single_quantile(self):
        samples = [0.3, 0.1, 0.2]
        assert percentile(samples, 50) == percentiles(samples, 50)[0]

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError):
            percentiles([1.0], 50, 100.5)
