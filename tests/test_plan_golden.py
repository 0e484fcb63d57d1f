"""Golden wire bytes of compiled plans, recorded at the commit *before*
the array-native compiler replaced the dict-walking one.

``compile_batched`` promises plans that are bit-identical across
rewrites of the lowering (same slot order, row order, layer split,
dtypes): trajectories, wire bytes and every parity gate hang off that.
The old compiler is gone, so the contract is pinned by digests of
``encode_batched_plan(compile_batched(genome, config))`` over seeded
evolved genomes, and by replaying seeded crossovers against recorded
children (the genomes above are only as reproducible as the genetic
operators' draw order).

Re-record (only when a change is *meant* to alter plans or draws)::

    PYTHONPATH=src python -m tests.test_plan_golden
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.cluster.serialization import encode_batched_plan, encode_genome
from repro.neat.config import NEATConfig
from repro.neat.evaluation import FitnessResult
from repro.neat.genome import Genome
from repro.neat.network import compile_batched
from repro.neat.population import Population

from tests.conftest import make_evolved_genome

GOLDEN = Path(__file__).parent / "golden" / "plan_digests.json"

#: structural rates high enough that a few generations grow hidden
#: layers, disabled connections and pruned dead ends
GROWTH = {
    "node_add_prob": 0.3,
    "conn_add_prob": 0.5,
    "enabled_mutate_rate": 0.05,
}


def evolved_members(env_id, seed, generations, **overrides):
    """The population after ``generations`` of seeded evolution on the
    fast genetics engine. Fitness is a seeded draw, not a rollout: the
    fixture should move only when genetics or lowering do."""
    config = NEATConfig.for_env(
        env_id, pop_size=24, genetics="vectorized", **overrides
    )
    population = Population(config, seed=seed)

    def evaluate(genomes, generation):
        rng = random.Random(f"{seed}:{generation}")
        return {
            g.key: FitnessResult(g.key, rng.random(), 1, 0.0, False)
            for g in sorted(genomes, key=lambda g: g.key)
        }

    for _ in range(generations):
        population.run_generation(evaluate)
    members = [population.genomes[k] for k in sorted(population.genomes)]
    return config, members


def mixed_ops():
    """Every activation group and the non-``sum`` (generic) node path."""
    config = NEATConfig(
        num_inputs=3,
        num_outputs=2,
        pop_size=10,
        allowed_activations=("tanh", "sigmoid", "relu", "identity"),
        allowed_aggregations=("sum", "max", "product"),
        activation_mutate_rate=0.3,
        aggregation_mutate_rate=0.3,
        **GROWTH,
    )
    return config, [make_evolved_genome(config, s, 60, key=s) for s in range(8)]


def serve_champions():
    """The perf ledger's ``serve_fleet`` champions: 10-33 layers deep."""
    config = NEATConfig.for_env(
        "CartPole-v0",
        node_add_prob=0.4,
        conn_add_prob=0.55,
        node_delete_prob=0.0,
        conn_delete_prob=0.0,
    )
    return config, [
        make_evolved_genome(config, seed, 400, key=key)
        for key, seed in enumerate((5, 9, 13), 1)
    ]


CASES = {
    "cartpole_gen6": lambda: evolved_members("CartPole-v0", 3, 6, **GROWTH),
    "lunarlander_gen6": lambda: evolved_members(
        "LunarLander-v2", 4, 6, **GROWTH
    ),
    "airraid_ram_gen3": lambda: evolved_members("Airraid-ram-v0", 1, 3),
    "airraid_ram_grown": lambda: evolved_members(
        "Airraid-ram-v0", 2, 4, **GROWTH
    ),
    "mixed_ops": mixed_ops,
    "serve_champions": serve_champions,
}


def plan_digests(case):
    config, genomes = CASES[case]()
    return [
        hashlib.sha256(
            encode_batched_plan(compile_batched(genome, config))
        ).hexdigest()
        for genome in genomes
    ]


def crossover_children():
    """Children of seeded crossovers between gen-6 CartPole members."""
    _config, members = evolved_members("CartPole-v0", 3, 6, **GROWTH)
    rng = random.Random(11)
    children = []
    for key in range(12):
        fitter, other = rng.sample(members, 2)
        fitter.fitness, other.fitness = 2.0, 1.0
        child = Genome.crossover(1000 + key, fitter, other, rng)
        children.append(encode_genome(child).hex())
    return children


@pytest.mark.parametrize("case", sorted(CASES))
def test_plans_match_the_recorded_bytes(case):
    recorded = json.loads(GOLDEN.read_text())["plans"][case]
    assert plan_digests(case) == recorded


def test_seeded_crossover_replays_the_recorded_children():
    recorded = json.loads(GOLDEN.read_text())["crossover_children"]
    assert crossover_children() == recorded


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {
                "plans": {case: plan_digests(case) for case in sorted(CASES)},
                "crossover_children": crossover_children(),
            },
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
