"""Run caching for figure sweeps.

Scaling figures sweep the same workload across many cluster sizes. Every
protocol engine is an evolution plus a pure per-protocol fold (see
:mod:`repro.core.protocols`), so :class:`RunCache` records each evolution
once — lazily, as far as the longest request — and answers every
(protocol, n, generations) by folding the recorded steps. Serial,
CLAN_DCS and CLAN_DDS share one evolution per (workload, seed,
step-mode); CLAN_DDA's clans *are* its placement, so it has one per n.
"""

from __future__ import annotations

from repro.core.metrics import GenerationRecord
from repro.core.protocols import (
    ProtocolBase,
    fold_trajectory,
    make_protocol,
)
from repro.neat.config import NEATConfig


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
        #: (protocol, n) of an evolution -> (its engine, its steps so far)
        self._evolutions: dict[tuple[str, int], tuple[ProtocolBase, list]] = {}
        self._runs: dict[tuple[str, int, int], list[GenerationRecord]] = {}

    def records(self, protocol: str, n_agents: int, generations: int):
        """Run (or recall) ``generations`` of ``protocol`` at ``n_agents``."""
        key = (protocol, n_agents, generations)
        if key not in self._runs:
            # the evolution this protocol folds at n_agents
            source = (
                (protocol, n_agents)
                if protocol == "CLAN_DDA"
                else ("Serial", 1)
            )
            if source not in self._evolutions:
                engine = make_protocol(
                    source[0],
                    self.env_id,
                    n_agents=source[1],
                    config=self.config,
                    seed=self.seed,
                    evaluator=self._evaluator,
                )
                self._evolutions[source] = (engine, [])
            engine, steps = self._evolutions[source]
            while len(steps) < generations:
                steps.append(engine.evolve_step())
            self._runs[key] = fold_trajectory(
                protocol, n_agents, steps[:generations]
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
