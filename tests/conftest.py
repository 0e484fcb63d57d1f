"""Shared fixtures: small, fast configurations used across the suite.

``--lock-check`` additionally wraps the whole session in the runtime
lock checker of :mod:`repro.lint.locks`: every ``threading`` lock
allocated from repro code is instrumented, and the session fails if the
accumulated acquisition graph contains an order-inversion cycle. Hazard
observations (sync lock on a loop thread, lock held across fork) are
printed as warnings — the serving path takes short metrics locks on the
loop deliberately. CI runs the ``lock_check``-marked subset with this
flag on.

Every test module is also checked for leaked child processes: whatever
``multiprocessing`` child outlives the module's fixtures fails it.
"""

from __future__ import annotations

import multiprocessing
import random
import time
import warnings

import pytest

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker


def pytest_addoption(parser):
    parser.addoption(
        "--lock-check",
        action="store_true",
        default=False,
        help="instrument repro threading locks for the whole session "
        "and fail on lock-order-inversion cycles (see docs/linting.md)",
    )


@pytest.fixture(scope="session", autouse=True)
def _lock_check(request):
    """Session-wide runtime lock checking, enabled by ``--lock-check``."""
    if not request.config.getoption("--lock-check"):
        yield None
        return
    from repro.lint.locks import checked_locks

    with checked_locks() as monitor:
        yield monitor
    for hazard in monitor.hazards:
        warnings.warn(
            f"lock hazard [{hazard.kind}] {hazard.site}: {hazard.detail}",
            stacklevel=1,
        )
    cycles = monitor.cycles()
    assert not cycles, (
        "lock-order inversion(s) detected:\n" + monitor.report()
    )


@pytest.fixture(scope="module", autouse=True)
def _no_leaked_children():
    """Fail the module if a forked child outlives its fixtures.

    Autouse, so it is set up before — and torn down after — the module's
    own fixtures. Stragglers get 5 s in total to exit; whatever is still
    alive then is terminated (so the leak does not spill into the next
    module) and reported.
    """
    yield
    deadline = time.monotonic() + 5.0
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join(5.0)
    if leaked:
        pytest.fail(
            "child processes outlived the module: "
            + ", ".join(f"{c.name} (pid {c.pid})" for c in leaked)
        )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def small_config() -> NEATConfig:
    """A 3-in / 2-out config small enough for exhaustive checks."""
    return NEATConfig(num_inputs=3, num_outputs=2, pop_size=20)


@pytest.fixture
def cartpole_config() -> NEATConfig:
    return NEATConfig.for_env("CartPole-v0", pop_size=24)


@pytest.fixture
def innovation(small_config) -> InnovationTracker:
    return InnovationTracker(next_node_id=small_config.num_outputs)


@pytest.fixture
def genome(small_config, rng) -> Genome:
    g = Genome(0)
    g.configure_new(small_config, rng)
    return g


@pytest.fixture
def genome_pair(small_config, rng):
    a = Genome(0)
    a.configure_new(small_config, rng)
    a.fitness = 2.0
    b = Genome(1)
    b.configure_new(small_config, rng)
    b.fitness = 1.0
    return a, b


def make_evolved_genome(
    config: NEATConfig,
    seed: int = 0,
    mutations: int = 30,
    key: int = 0,
) -> Genome:
    """A genome taken through a burst of structural mutations."""
    rng = random.Random(seed)
    tracker = InnovationTracker(next_node_id=config.num_outputs)
    genome = Genome(key)
    genome.configure_new(config, rng)
    for _ in range(mutations):
        genome.mutate(config, rng, tracker)
        tracker.advance_generation()
    return genome
