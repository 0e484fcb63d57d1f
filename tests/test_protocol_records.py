"""Golden per-generation digests of every protocol engine's records.

A :class:`~repro.core.metrics.GenerationRecord` is what every timing
model and paper figure reads: the messages in order (type, endpoints,
floats, genes, units, phase tag), the per-agent loads, the centre's
compute and the population statistics. The digests below were recorded
from engines that each ran their own evolution; the one-population
engines now share one evolution and fold it per protocol, and both the
live engines and the figure cache (:class:`repro.analysis.cache.RunCache`)
must keep producing these exact records. The ``resync`` cells cover
CLAN_DDA's periodic global speciation (``resync_period=2`` over five
generations: two gather/redistribute rounds), which only the engine runs.

Re-record (only when a change is *meant* to alter the accounting)::

    PYTHONPATH=src python -m tests.test_protocol_records
"""

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import pytest

from repro.analysis.cache import RunCache
from repro.core.protocols import make_protocol
from repro.neat.config import NEATConfig

GOLDEN = Path(__file__).parent / "golden" / "protocol_records.json"

POP = 12
GENERATIONS = 4
SEED = 3
#: workload label -> (env id, max_steps)
WORKLOADS = {
    "cartpole_multi_step": ("CartPole-v0", None),
    "airraid_single_step": ("Airraid-ram-v0", 1),
}
CELLS = [("Serial", 1)] + [
    (protocol, n)
    for protocol in ("CLAN_DCS", "CLAN_DDS", "CLAN_DDA")
    for n in (1, 2, 3, 5)
]
#: CLAN_DDA with periodic global speciation: (n, resync period)
RESYNC_CELLS = [(2, 2), (3, 2)]
RESYNC_GENERATIONS = 5


def record_digest(record) -> str:
    """sha256 over everything a cost model or figure reads."""
    doc = {
        "generation": record.generation,
        "protocol": record.protocol,
        "n_agents": record.n_agents,
        "messages": [
            [m.msg_type.value, m.src, m.dst, m.n_floats, m.n_genes,
             m.n_units, m.phase]
            for m in record.messages
        ],
        "loads": [astuple(load) for load in record.agent_loads],
        "center": [
            record.center_speciation_gene_ops,
            record.center_reproduction_gene_ops,
            record.center_planning_ops,
        ],
        "stats": [
            repr(record.best_fitness),
            repr(record.mean_fitness),
            record.n_species,
            record.population_size,
            record.solved,
            record.speciation_comparisons,
            record.clan_deaths,
            record.clan_respawns,
        ],
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def case_name(workload, protocol, n):
    return f"{workload}/{protocol}/n{n}"


def resync_case_name(workload, n, period):
    return f"{workload}/CLAN_DDA+resync{period}/n{n}"


def config_for(env_id):
    return NEATConfig.for_env(env_id, pop_size=POP)


def engine_digests(
    workload, protocol, n, generations=GENERATIONS, **protocol_kwargs
):
    env_id, max_steps = WORKLOADS[workload]
    engine = make_protocol(
        protocol, env_id, n_agents=n, config=config_for(env_id),
        seed=SEED, max_steps=max_steps, **protocol_kwargs,
    )
    result = engine.run(generations, fitness_threshold=float("inf"))
    return [record_digest(r) for r in result.records]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def caches():
    return {
        workload: RunCache(
            env_id, config_for(env_id), seed=SEED, max_steps=max_steps
        )
        for workload, (env_id, max_steps) in WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol,n", CELLS)
def test_engine_records_match_the_golden_digests(
    recorded, workload, protocol, n
):
    assert (
        engine_digests(workload, protocol, n)
        == recorded[case_name(workload, protocol, n)]
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("n,period", RESYNC_CELLS)
def test_resync_records_match_the_golden_digests(
    recorded, workload, n, period
):
    assert engine_digests(
        workload, "CLAN_DDA", n, RESYNC_GENERATIONS, resync_period=period
    ) == recorded[resync_case_name(workload, n, period)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol,n", CELLS)
def test_run_cache_records_match_the_golden_digests(
    recorded, caches, workload, protocol, n
):
    records = caches[workload].records(protocol, n, GENERATIONS)
    assert [record_digest(r) for r in records] == recorded[
        case_name(workload, protocol, n)
    ]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {
                case_name(workload, protocol, n): engine_digests(
                    workload, protocol, n
                )
                for workload in sorted(WORKLOADS)
                for protocol, n in CELLS
            }
            | {
                resync_case_name(workload, n, period): engine_digests(
                    workload, "CLAN_DDA", n, RESYNC_GENERATIONS,
                    resync_period=period,
                )
                for workload in sorted(WORKLOADS)
                for n, period in RESYNC_CELLS
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
