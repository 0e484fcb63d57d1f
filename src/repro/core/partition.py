"""Population/agent partitioning helpers.

All CLAN protocols shard work across agents round-robin over sorted genome
keys: deterministic, balanced to within one item, and independent of dict
iteration order (which matters for cross-process reproducibility).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

from repro.cluster.serialization import encode_genomes
from repro.neat.population import Population
from repro.utils.rng import RngFactory

if TYPE_CHECKING:
    from repro.neat.config import NEATConfig

T = TypeVar("T")


def round_robin(items: Sequence[T], n_shards: int) -> list[list[T]]:
    """Deal ``items`` into ``n_shards`` lists, round-robin.

    >>> round_robin([1, 2, 3, 4, 5], 2)
    [[1, 3, 5], [2, 4]]
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    shards: list[list[T]] = [[] for _ in range(n_shards)]
    for index, item in enumerate(items):
        shards[index % n_shards].append(item)
    return shards


def contiguous_blocks(items: Sequence[T], n_shards: int) -> list[list[T]]:
    """Split ``items`` into ``n_shards`` contiguous, near-equal blocks.

    Sizes differ by at most one; used for clan formation in CLAN_DDA where
    each clan must be a stable, contiguous sub-population.

    >>> contiguous_blocks([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    base, extra = divmod(len(items), n_shards)
    blocks: list[list[T]] = []
    start = 0
    for shard in range(n_shards):
        size = base + (1 if shard < extra else 0)
        blocks.append(list(items[start: start + size]))
        start += size
    return blocks


def clan_init_payloads(
    config: "NEATConfig", seed: int, n_clans: int
) -> list[dict]:
    """Split serial NEAT's initial population into ``n_clans`` clans.

    One ``clan_init`` payload — the keyword arguments of a
    :class:`~repro.cluster.worker_clan.WorkerClan` — per clan:
    ``members_wire`` is a contiguous block of the population
    ``Population(config, seed)`` starts from, as wire bytes,
    ``rng_seed`` the clan's own RNG root (child stream ``clan:<id>`` of
    the run seed) and ``next_genome_key`` its first fresh genome key
    (``pop_size + clan_id``; keys then advance by ``n_clans``, so no two
    clans ever mint the same one). The process-backed runtime ships them
    to its workers and the logical CLAN_DDA engine builds its in-process
    clans from them, which is what makes the two walk the same
    trajectory.
    """
    if config.pop_size < 2 * n_clans:
        raise ValueError(
            f"population of {config.pop_size} cannot form "
            f"{n_clans} clans of >= 2 members"
        )
    rngs = RngFactory(seed)
    initial = Population(config, seed=seed).genomes
    return [
        {
            "clan_id": clan_id,
            "n_clans": n_clans,
            "members_wire": encode_genomes([initial[key] for key in block]),
            "rng_seed": rngs.child(f"clan:{clan_id}").root_seed,
            "next_genome_key": config.pop_size + clan_id,
            "num_outputs": config.num_outputs,
        }
        for clan_id, block in enumerate(
            contiguous_blocks(sorted(initial), n_clans)
        )
    ]


def assign_genomes(
    genome_keys: Iterable[int], n_agents: int
) -> dict[int, int]:
    """Map genome key -> agent id, round-robin over sorted keys."""
    mapping: dict[int, int] = {}
    for index, key in enumerate(sorted(genome_keys)):
        mapping[key] = index % n_agents
    return mapping
