"""Per-generation records and run summaries for the CLAN protocols.

A :class:`GenerationRecord` captures everything a timing model needs about
one distributed generation: how much of each compute block ran where, and
every message that crossed the network. Records are produced by the
protocol engines (:mod:`repro.core.protocols`) and by the placement cost
model (:mod:`repro.core.placement`), and consumed by the analytic timing
model and the discrete-event simulator in :mod:`repro.cluster`.

The serving-side counterparts live at the bottom: :func:`percentiles` and
:class:`ServiceStats` summarise what the inference gateway
(:mod:`repro.serve`) observed — request latencies, throughput, and how
well micro-batching coalesced traffic.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.messages import Message, MessageType, breakdown_by_type


@dataclass
class ChurnStats:
    """Device-churn counters for a fault-tolerant run.

    Filled by the supervision loop of
    :class:`repro.cluster.runtime.DistributedClanRuntime` (see
    ``docs/fault_tolerance.md``), on either host: the logical
    ``CLAN_DDA`` engine is that runtime in-process. The other logical
    engines have no clans to lose and leave every counter at zero.
    """

    #: worker processes observed dead (pipe EOF / SIGKILL) or killed
    #: after a missed heartbeat window
    deaths: int = 0
    #: successful respawn-from-checkpoint recoveries
    respawns: int = 0
    #: clans abandoned after exhausting their respawn budget
    clans_lost: int = 0
    #: completed-but-uncheckpointed generations that had to be re-run
    #: (or were abandoned with a lost clan)
    lost_generations: int = 0
    #: generation budget of lost clans re-assigned to surviving clans
    reassigned_generations: int = 0
    #: seconds from failure detection to the respawned clan resuming,
    #: one entry per respawn
    recovery_latency_s: list[float] = field(default_factory=list)

    def mean_recovery_latency_s(self) -> float:
        """Mean respawn recovery latency (0.0 when nothing respawned)."""
        if not self.recovery_latency_s:
            return 0.0
        return sum(self.recovery_latency_s) / len(self.recovery_latency_s)

    def __bool__(self) -> bool:
        """True when any churn happened (deaths drive every other
        counter, so they are the sentinel)."""
        return self.deaths > 0


@dataclass
class AgentLoad:
    """Compute placed on one agent during one generation (cost units)."""

    #: forward-pass work: sum over evaluated genomes of genes * steps
    inference_gene_ops: int = 0
    #: environment simulation steps executed
    env_steps: int = 0
    #: child-formation work in gene-ops (CLAN_DDS / CLAN_DDA)
    reproduction_gene_ops: int = 0
    #: distance-comparison work in gene-ops (CLAN_DDA clans)
    speciation_gene_ops: int = 0
    #: genomes evaluated on this agent
    genomes_evaluated: int = 0

    def total_gene_ops(self) -> int:
        return (
            self.inference_gene_ops
            + self.reproduction_gene_ops
            + self.speciation_gene_ops
        )


@dataclass
class GenerationRecord:
    """One distributed generation: placement of compute + all messages."""

    generation: int
    protocol: str
    n_agents: int
    # per-agent placed compute, index = agent id (0..n_agents-1)
    agent_loads: list[AgentLoad] = field(default_factory=list)
    # compute blocks that ran on the centre
    center_speciation_gene_ops: int = 0
    center_reproduction_gene_ops: int = 0
    center_planning_ops: int = 0
    messages: list[Message] = field(default_factory=list)
    # population-level outcome (mirrors neat GenerationStats)
    best_fitness: float = float("-inf")
    mean_fitness: float = 0.0
    n_species: int = 0
    population_size: int = 0
    solved: bool = False
    #: distance comparisons computed this generation (Fig 3c cost unit
    #: alongside the speciation gene-ops; summed over clans for DDA)
    speciation_comparisons: int = 0
    #: clan deaths while this generation's barrier window ran (CLAN_DDA,
    #: either host); like ``clan_respawns`` (the window's recoveries) it
    #: is not compared: a recovered generation equals an undisturbed one
    clan_deaths: int = field(default=0, compare=False)
    clan_respawns: int = field(default=0, compare=False)

    def comm_floats(self) -> int:
        """Total 32-bit words transferred this generation."""
        return sum(m.n_floats for m in self.messages)

    def comm_breakdown(self) -> dict[MessageType, int]:
        """Fig 4 aggregation for this generation."""
        return breakdown_by_type(self.messages)

    def total_inference_gene_ops(self) -> int:
        return sum(load.inference_gene_ops for load in self.agent_loads)

    def total_env_steps(self) -> int:
        return sum(load.env_steps for load in self.agent_loads)

    def total_evolution_gene_ops(self) -> int:
        """All non-inference gene-ops, wherever they ran."""
        distributed = sum(
            load.reproduction_gene_ops + load.speciation_gene_ops
            for load in self.agent_loads
        )
        return (
            distributed
            + self.center_speciation_gene_ops
            + self.center_reproduction_gene_ops
        )

    def total_speciation_gene_ops(self) -> int:
        """Speciation gene-ops, wherever they ran (Fig 3c)."""
        return self.center_speciation_gene_ops + sum(
            load.speciation_gene_ops for load in self.agent_loads
        )

    def slowest_agent(self) -> int:
        """Agent id carrying the most placed gene-ops this generation."""
        if not self.agent_loads:
            raise ValueError("record places no agent load")
        return max(
            range(len(self.agent_loads)),
            key=lambda i: self.agent_loads[i].total_gene_ops(),
        )

    def load_imbalance(self) -> float:
        """Max-over-mean placed gene-ops across agents (1.0 = balanced).

        A straggler-heavy generation — the regime where barrier-free
        execution beats barrier synchronisation — shows up as a ratio
        well above 1; the async benchmark and docs use this to
        characterise specs.
        """
        totals = [load.total_gene_ops() for load in self.agent_loads]
        if not totals or sum(totals) == 0:
            return 1.0
        return max(totals) / (sum(totals) / len(totals))


@dataclass
class RunResult:
    """Outcome of a multi-generation protocol run."""

    protocol: str
    env_id: str
    n_agents: int
    records: list[GenerationRecord] = field(default_factory=list)
    converged: bool = False
    generations_to_converge: int | None = None
    best_fitness: float = float("-inf")
    #: compiled-plan cache counters over the whole run (batched backend
    #: only; both stay 0 when no :class:`repro.neat.network.PlanCache`
    #: is in play)
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: device-churn counters over the run's generations: ``CLAN_DDA``
    #: fills them from its clan runtime's supervision (a clan that died
    #: was respawned); the other logical engines have no clans to lose
    #: and leave them at zero
    churn: ChurnStats = field(default_factory=ChurnStats)

    @property
    def generations(self) -> int:
        return len(self.records)

    # -- Fig 3c cost counters, aggregated over the run --------------------

    def total_speciation_comparisons(self) -> int:
        return sum(r.speciation_comparisons for r in self.records)

    def total_speciation_gene_ops(self) -> int:
        return sum(r.total_speciation_gene_ops() for r in self.records)

    def final_n_species(self) -> int:
        """Species count in the last generation (0 for an empty run)."""
        return self.records[-1].n_species if self.records else 0

    def plan_cache_hit_rate(self) -> float:
        """Hits / lookups over the run (0.0 when the cache never ran)."""
        lookups = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / lookups if lookups else 0.0

    def total_comm_floats(self) -> int:
        return sum(r.comm_floats() for r in self.records)

    def comm_breakdown(self) -> dict[MessageType, int]:
        """Fig 4 aggregation across the whole run."""
        totals: dict[MessageType, int] = {t: 0 for t in MessageType}
        for record in self.records:
            for msg_type, floats in record.comm_breakdown().items():
                totals[msg_type] += floats
        return totals

    def mean_comm_floats_per_generation(self) -> float:
        if not self.records:
            return 0.0
        return self.total_comm_floats() / len(self.records)


# -- serving-side metrics -----------------------------------------------------


def percentiles(samples: Sequence[float], *qs: float) -> tuple[float, ...]:
    """Nearest-rank percentiles ``qs`` (each in [0, 100]) of ``samples``,
    as Python floats, from one sort.

    Nearest-rank keeps each result an *observed* value (no interpolation
    between two latencies that never happened); empty input yields 0.0 so
    a gateway that has served nothing reports a zeroed summary rather
    than raising mid-scrape. The sort is stable, so the result is the
    one ``sorted(samples)`` would rank there, to the bit.
    """
    for q in qs:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = np.sort(np.asarray(samples, dtype=np.float64), kind="stable")
    n = len(ordered)
    if not n:
        return (0.0,) * len(qs)
    # rank ceil(n * q / 100), at least 1
    return tuple(
        float(ordered[int(max(1, -(-n * q // 100))) - 1]) for q in qs
    )


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``samples`` (see
    :func:`percentiles`)."""
    return percentiles(samples, q)[0]


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of an inference gateway's service quality.

    Produced by :meth:`repro.serve.gateway.InferenceGateway.stats`;
    rendered by ``repro serve`` and dumped (as JSON) by
    ``benchmarks/bench_serving_latency.py``. Fleet-wide rollups come
    from :meth:`merge`, which re-ranks the *raw* latency reservoirs of
    the parts — percentiles of percentiles would be meaningless.
    """

    #: requests accepted into the batching queue
    requests: int
    #: requests answered (== requests once the gateway has drained)
    served: int
    #: requests rejected because the pending queue was full
    shed: int
    #: served / seconds-since-start (0 before the first request)
    qps: float
    #: median submit-to-answer latency, seconds
    p50_latency_s: float
    #: 95th-percentile submit-to-answer latency, seconds
    p95_latency_s: float
    #: batch size -> number of forward passes flushed at that size
    batch_size_histogram: dict[int, int] = field(default_factory=dict)
    #: registry version currently deployed (0 = nothing published)
    champion_version: int = 0
    #: champion deployment changes since the first publish
    swaps: int = 0
    #: the raw (bounded) latency reservoir behind the percentiles, in
    #: answer order — carried so rollups can merge reservoirs instead
    #: of averaging per-part percentiles. A float64 column: a full
    #: 65 536-sample window pickles as 512 KiB of raw bytes
    latency_window: array = field(default_factory=lambda: array("d"))

    @classmethod
    def merge(cls, parts: Sequence["ServiceStats"]) -> "ServiceStats":
        """Roll per-replica snapshots up into one fleet-wide snapshot.

        Counters and qps sum (the replicas serve disjoint request
        streams over the same wall-clock window); p50/p95 are recomputed
        by nearest rank over the **concatenated raw reservoirs** — the
        only correct way to combine quantiles from skewed replicas.
        ``champion_version``/``swaps`` take the max (with monotone
        propagation every replica converges to the same deployment; the
        max is the most recent state any replica has acked). An empty
        ``parts`` yields an all-zero snapshot.
        """
        parts = [p for p in parts if p is not None]
        if not parts:
            return cls(
                requests=0,
                served=0,
                shed=0,
                qps=0.0,
                p50_latency_s=0.0,
                p95_latency_s=0.0,
            )
        window = array("d")
        histogram: dict[int, int] = {}
        for part in parts:
            window.extend(part.latency_window)
            for size, count in part.batch_size_histogram.items():
                histogram[size] = histogram.get(size, 0) + count
        p50, p95 = percentiles(window, 50, 95)
        return cls(
            requests=sum(p.requests for p in parts),
            served=sum(p.served for p in parts),
            shed=sum(p.shed for p in parts),
            qps=sum(p.qps for p in parts),
            p50_latency_s=p50,
            p95_latency_s=p95,
            batch_size_histogram=histogram,
            champion_version=max(p.champion_version for p in parts),
            swaps=max(p.swaps for p in parts),
            latency_window=window,
        )

    @property
    def mean_batch_size(self) -> float:
        """Requests per forward pass actually achieved (1.0 = no
        coalescing; the micro-batching speedup scales with this)."""
        flushes = sum(self.batch_size_histogram.values())
        if flushes == 0:
            return 0.0
        weighted = sum(
            size * count
            for size, count in self.batch_size_histogram.items()
        )
        return weighted / flushes
