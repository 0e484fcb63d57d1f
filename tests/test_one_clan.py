"""A clan is a Population: one loop, one seeding recipe, one restore path.

Structure tests for the single generation loop
(:meth:`repro.neat.population.Population.run_generation`) that serial
NEAT and every CLAN_DDA clan drive, and for the one place a clan's
generation runs (:class:`repro.cluster.transport.ClanSession`).

``tests/golden/parent_checkpoints.json`` holds a v2 population document
and a clan checkpoint payload WRITTEN BY COMMIT 048490c — the last one
with separate ``_Clan``/``WorkerClan`` loops and two restore paths —
together with digests of what that commit produced when it resumed them
for one more generation. They pin the on-disk formats and the resumed
trajectory across the refactor; do not re-record them.
"""

import ast
import hashlib
import json
import pathlib
import re

import pytest

from repro.cluster.serialization import encode_genomes
from repro.cluster.worker_clan import WorkerClan
from repro.core.partition import clan_init_payloads
from repro.core.protocols import ProtocolBase, make_protocol
from repro.neat.checkpoint import load_population
from repro.neat.config import NEATConfig
from repro.neat.evaluation import FitnessResult
from repro.neat.population import Population

ENV = "CartPole-v0"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
GOLDEN = pathlib.Path(__file__).parent / "golden" / "parent_checkpoints.json"


def population_bytes(genomes: dict) -> bytes:
    return encode_genomes([genomes[key] for key in sorted(genomes)])


def digest(genomes: dict) -> str:
    return hashlib.sha256(population_bytes(genomes)).hexdigest()


class StubEvaluator:
    """``fitness(key, generation)`` for every genome, no environment."""

    def __init__(self, fitness):
        self.fitness = fitness

    def evaluate_many(self, genomes, config, generation):
        return {
            g.key: FitnessResult(
                genome_key=g.key,
                fitness=self.fitness(g.key, generation),
                steps=3,
                total_reward=self.fitness(g.key, generation),
                solved=False,
            )
            for g in genomes
        }


def worker_clan(config, seed, evaluator, clan_id=0, n_clans=2):
    payload = clan_init_payloads(config, seed, n_clans)[clan_id]
    return WorkerClan(ENV, config, evaluator, **payload)


class TestBestEverIsStrict:
    """A best-ever fitness of exactly 0.0 (a zero-score Atari-RAM
    episode) must survive a later, worse generation: ``_Clan`` compared
    against ``best.fitness or -inf`` and overwrote it."""

    @pytest.mark.parametrize("host", ["CLAN_DDA", "WorkerClan"])
    def test_zero_best_survives_a_worse_generation(self, host):
        config = NEATConfig.for_env(ENV, pop_size=12)
        evaluator = StubEvaluator(
            lambda key, generation: 0.0 if generation == 0 else -1.0
        )
        if host == "CLAN_DDA":
            engine = make_protocol(
                host, ENV, n_agents=2, config=config, seed=3,
                evaluator=evaluator,
            )
            engine.run(max_generations=2, fitness_threshold=1e9)
            bests = [clan.best_genome.fitness for clan in engine._clans]
            assert engine.best_fitness == 0.0
        else:
            clan = worker_clan(config, 3, evaluator)
            for generation in range(2):
                clan.run_generation(generation)
            bests = [clan.best_fitness]
        assert bests == [0.0] * len(bests)


class TestSerialIsTheOneClanCase:
    @pytest.mark.parametrize("genetics", ["scalar", "vectorized"])
    def test_one_clan_over_all_genomes_walks_serial_neat(self, genetics):
        config = NEATConfig.for_env(ENV, pop_size=24, genetics=genetics)
        seed = 7
        evaluator = ProtocolBase.default_evaluator(ENV, seed)

        def evaluate(genomes, generation):
            return evaluator.evaluate_many(genomes, config, generation)

        serial = Population(config, seed=seed)
        clan = Population(
            config,
            seed,
            members=Population(config, seed=seed).genomes.values(),
            clan_id=0,
            n_clans=1,
            next_genome_key=config.pop_size,
        )
        for generation in range(6):
            a = serial.run_generation(evaluate)
            b = clan.run_generation(evaluate, generation)
            assert a == b
        assert population_bytes(serial.genomes) == population_bytes(
            clan.genomes
        )
        assert serial.snapshot()["species"] == clan.snapshot()["species"]


def _calls_by_function(matches) -> dict[str, list[str]]:
    """``{call name: ["file::function", ...]}`` for every call under
    ``src/repro`` that ``matches(func_node)`` names."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = matches(node.func)
                    if name is not None:
                        found.setdefault(name, []).append(
                            f"{path.relative_to(SRC)}::{function.name}"
                        )
    return found


class TestOneLoopMechanically:
    def test_each_loop_step_has_exactly_one_call_site(self):
        def loop_step(func):
            if isinstance(func, ast.Name) and func.id in (
                "plan_generation", "execute_plan"
            ):
                return func.id
            if isinstance(func, ast.Attribute) and func.attr == "speciate":
                return "speciate"
            return None

        the_loop = ["neat/population.py::run_generation"]
        assert _calls_by_function(loop_step) == {
            "speciate": the_loop,
            "plan_generation": the_loop,
            "execute_plan": the_loop,
        }

    def test_a_clan_generation_has_one_call_site_the_session(self):
        # every other caller is a population running itself: an engine
        # looping over clans would show up here
        def clan_generation(func):
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "run_generation"
                and not (
                    isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "population")
                )
            ):
                return "run_generation"
            return None

        assert _calls_by_function(clan_generation) == {
            "run_generation": ["cluster/transport.py::_run"]
        }

    def test_clan_twin_and_recipe_copies_are_gone(self):
        sources = {
            path: path.read_text(encoding="utf-8")
            for path in SRC.rglob("*.py")
        }
        joined = "\n".join(sources.values())
        assert "class _Clan" not in joined
        assert "Population.__new__" not in joined
        # the clan child-seed stream is derived in one place only
        recipe = [
            str(path.relative_to(SRC))
            for path, text in sorted(sources.items())
            if re.search(r'child\(\s*f"clan:', text)
        ]
        assert recipe == ["core/partition.py"]


class TestSharedSnapshot:
    def fitness(self, key, generation):
        return float((key * 7 + generation * 3) % 17)

    def evaluate(self, genomes, generation):
        return StubEvaluator(self.fitness).evaluate_many(
            genomes, None, generation
        )

    def test_clan_shaped_snapshot_resumes_identically(self):
        config = NEATConfig.for_env(
            ENV, pop_size=18, compatibility_threshold=0.8
        )
        straight, interrupted = (
            worker_clan(config, 5, None, clan_id=1, n_clans=3).population
            for _ in range(2)
        )
        for generation in range(3):
            straight.run_generation(self.evaluate, generation)
            interrupted.run_generation(self.evaluate, generation)
        resumed = Population.restore(config, interrupted.snapshot())
        assert (resumed.clan_id, resumed.n_clans) == (1, 3)
        assert resumed.generation == 3
        # a runtime may dictate the number: both skip ahead to 5
        assert straight.run_generation(
            self.evaluate, 5
        ) == resumed.run_generation(self.evaluate, 5)
        assert population_bytes(straight.genomes) == population_bytes(
            resumed.genomes
        )
        assert straight.snapshot()["species"] == (
            resumed.snapshot()["species"]
        )

    @pytest.fixture(scope="class")
    def parent(self):
        return json.loads(GOLDEN.read_text(encoding="utf-8"))

    def test_parent_population_document_resumes(self, parent, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(parent["population_v2"]))
        population = load_population(path)
        assert population.generation == 2
        stats = population.run_generation(self.evaluate)
        expected = parent["expected"]
        assert digest(population.genomes) == (
            expected["population_after_generation_2"]
        )
        assert stats.best_fitness == expected["population_best"]
        assert stats.n_species == expected["population_n_species"]

    def test_parent_v1_document_resumes(self, parent, tmp_path):
        # what a pre-membership writer produced: no checksum, species
        # blobs without members or fitness
        document = dict(parent["population_v2"], version=1)
        del document["crc32"]
        document["species"] = [
            {
                key: value
                for key, value in blob.items()
                if key not in (
                    "member_keys", "stale_members", "fitness",
                    "adjusted_fitness",
                )
            }
            for blob in document["species"]
        ]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(document))
        population = load_population(path)
        stats = population.run_generation(self.evaluate)
        expected = parent["expected"]
        assert digest(population.genomes) == (
            expected["population_v1_after_generation_2"]
        )
        assert stats.n_species == expected["population_v1_n_species"]

    def test_parent_clan_payload_resumes(self, parent):
        payload = parent["clan_payload"]
        config = NEATConfig.for_env(
            ENV, pop_size=16, compatibility_threshold=0.8
        )
        clan = WorkerClan.restore(
            env_id=ENV,
            config=config,
            evaluator=StubEvaluator(self.fitness),
            payload=payload,
        )
        # the writer is byte-compatible too: same payload back out
        assert clan.checkpoint_payload() == payload
        stats = clan.run_generation(2).stats
        expected = parent["expected"]
        assert digest(clan.members) == expected["clan_after_generation_2"]
        assert stats.best_fitness == expected["clan_best"]
        assert stats.n_species == expected["clan_n_species"]
        next_payload = json.dumps(
            clan.checkpoint_payload(), sort_keys=True
        ).encode()
        assert hashlib.sha256(next_payload).hexdigest() == (
            expected["clan_next_payload_sha256"]
        )
