"""Run caching for figure sweeps.

Scaling figures sweep the same workload across many cluster sizes.
Serial, CLAN_DCS and CLAN_DDS are one evolution folded per protocol (see
:mod:`repro.core.protocols`), so :class:`RunCache` evolves that
population once per (workload, seed, step-mode) — lazily, as far as the
longest request — and answers every (protocol, n, generations) by folding
the recorded steps. CLAN_DDA's clans *are* its placement: it runs once per
(n, generations).
"""

from __future__ import annotations

from repro.core.metrics import GenerationRecord
from repro.core.protocols import (
    EvolutionStep,
    ProtocolBase,
    evolve,
    fold_trajectory,
    make_protocol,
)
from repro.neat.config import NEATConfig
from repro.neat.population import Population


class RunCache:
    """Memoises protocol runs for one (workload, seed, step-mode) context."""

    def __init__(
        self,
        env_id: str,
        config: NEATConfig,
        seed: int = 0,
        max_steps: int | None = None,
    ):
        self.env_id = env_id
        self.config = config
        self.seed = seed
        self.max_steps = max_steps
        # the evaluator a protocol engine seeded alike would build
        self._evaluator = ProtocolBase.default_evaluator(
            env_id, seed, max_steps=max_steps
        )
        self._population: Population | None = None
        self._steps: list[EvolutionStep] = []
        self._runs: dict[tuple[str, int, int], list[GenerationRecord]] = {}

    def _trajectory(self, generations: int) -> list[EvolutionStep]:
        """The first ``generations`` steps of the shared evolution."""
        if self._population is None:
            self._population = Population(self.config, seed=self.seed)
        while len(self._steps) < generations:
            self._steps.append(evolve(self._population, self._evaluator))
        return self._steps[:generations]

    def records(self, protocol: str, n_agents: int, generations: int):
        """Run (or recall) ``generations`` of ``protocol`` at ``n_agents``."""
        key = (protocol, n_agents, generations)
        if key not in self._runs:
            if protocol == "CLAN_DDA":
                engine = make_protocol(
                    protocol,
                    self.env_id,
                    n_agents=n_agents,
                    config=self.config,
                    seed=self.seed,
                    max_steps=self.max_steps,
                )
                self._runs[key] = engine.run(
                    max_generations=generations,
                    fitness_threshold=float("inf"),
                ).records
            else:
                self._runs[key] = fold_trajectory(
                    protocol, n_agents, self._trajectory(generations)
                )
        return self._runs[key]


_SHARED_CACHES: dict[tuple[str, int, int, int | None], RunCache] = {}


def shared_cache(
    env_id: str,
    pop_size: int,
    seed: int = 0,
    max_steps: int | None = None,
) -> RunCache:
    """Process-wide memoised :class:`RunCache`.

    Figure builders route through this so the benchmark harness never runs
    the same (workload, population, seed, step-mode) trajectory twice —
    Fig 5, Fig 9 and Fig 11 all share one multi-step Airraid run, for
    example.
    """
    key = (env_id, pop_size, seed, max_steps)
    if key not in _SHARED_CACHES:
        config = NEATConfig.for_env(env_id, pop_size=pop_size)
        _SHARED_CACHES[key] = RunCache(
            env_id, config, seed=seed, max_steps=max_steps
        )
    return _SHARED_CACHES[key]
