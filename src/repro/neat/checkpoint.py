"""Population checkpointing: pause and resume evolution bit-exactly.

Edge deployments get power-cycled; a checkpoint taken between generations
captures everything evolution needs — genomes, species history, innovation
counters, key allocators — so a resumed run continues *identically* to one
that never stopped. This works because every RNG stream in
:class:`~repro.neat.population.Population` is derived by name from the
root seed (no hidden generator state), a design choice the distributed
protocols already rely on.

Format: a JSON document; genome payloads are the canonical wire format of
:mod:`repro.cluster.serialization`, hex-encoded. Human-inspectable,
append-friendly, and versioned.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import zlib

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.population import Population
from repro.neat.species import Species, SpeciesSet

CHECKPOINT_VERSION = 2
#: versions :func:`load_population` can still read. Version 1 predates
#: species-membership persistence: it restores species with empty
#: ``members`` (the next ``speciate()`` rebuilds them), which is exactly
#: the bug version 2 fixes for anything reading membership before then.
SUPPORTED_VERSIONS = (1, 2)

#: config fields stored as tuples but serialised as JSON lists
_TUPLE_FIELDS = ("allowed_activations", "allowed_aggregations")


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file is unreadable: truncated, bit-flipped, or
    otherwise failing its integrity checks.

    Raised instead of a raw :class:`json.JSONDecodeError` (or a
    ``KeyError`` deep inside genome decoding) so callers can distinguish
    "this file is damaged — fall back or refuse to resume" from a
    programming error.
    """


def document_checksum(document: dict) -> int:
    """CRC32 over the canonical JSON serialisation of ``document``.

    The ``crc32`` field itself is excluded, so the checksum can be
    embedded in the document it protects. Canonical means what a reader
    parses back: the document is normalised through a JSON round-trip
    first (int dict keys become strings, tuples become lists) and then
    dumped with sorted keys and compact separators, so the writer and a
    later reader of the same bytes always agree.
    """
    body = {key: value for key, value in document.items() if key != "crc32"}
    normalised = json.loads(json.dumps(body))
    canonical = json.dumps(normalised, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def atomic_write_json(path, document: dict) -> None:
    """Write ``document`` as JSON atomically, with an embedded checksum.

    The document gains a ``crc32`` field (see :func:`document_checksum`),
    is written to a temporary file in the same directory, flushed to
    disk, and renamed over ``path`` with :func:`os.replace` — so readers
    only ever observe either the old complete file or the new complete
    file, never a torn write. This is the shared durability primitive for
    population checkpoints and :class:`repro.cluster.store.CheckpointStore`.
    """
    target = pathlib.Path(path)
    document = dict(document)
    document["crc32"] = document_checksum(document)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def checked_read_json(path) -> dict:
    """Read a JSON document written by :func:`atomic_write_json`.

    Raises :class:`CheckpointCorrupt` on truncation, non-JSON bytes, a
    non-object top level, or a checksum mismatch. Documents without a
    ``crc32`` field (pre-checksum checkpoints) load without verification.
    """
    target = pathlib.Path(path)
    try:
        raw = target.read_text(encoding="utf-8")
    except OSError as error:
        raise CheckpointCorrupt(f"cannot read checkpoint {target}: {error}")
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as error:
        raise CheckpointCorrupt(
            f"checkpoint {target} is not valid JSON "
            f"(truncated or corrupted): {error}"
        )
    if not isinstance(document, dict):
        raise CheckpointCorrupt(
            f"checkpoint {target} is not a JSON object "
            f"(got {type(document).__name__})"
        )
    stored = document.get("crc32")
    if stored is not None and stored != document_checksum(document):
        raise CheckpointCorrupt(
            f"checkpoint {target} failed its CRC32 integrity check "
            f"(stored {stored}, computed {document_checksum(document)}) — "
            "the file was corrupted after it was written"
        )
    return document


def encode_genome_hex(genome: Genome) -> str:
    """Genome -> hex-encoded canonical wire payload (JSON-embeddable)."""
    # imported lazily: repro.cluster.serialization itself imports repro.neat
    from repro.cluster.serialization import encode_genome

    return encode_genome(genome).hex()


def decode_genome_hex(payload: str) -> Genome:
    """Inverse of :func:`encode_genome_hex`."""
    from repro.cluster.serialization import decode_genome

    return decode_genome(bytes.fromhex(payload))


def species_to_blob(species: Species, live_genomes: dict) -> dict:
    """Serialise one species to the checkpoint-v2 blob format.

    ``live_genomes`` is the population (or clan membership) the species
    draws from: members still present there are stored by key only, while
    replaced members ("stale" — their children exist but the species has
    not re-speciated yet) ship their full payload so a restored species is
    state-identical, not just trajectory-identical. Shared by population
    checkpoints (:func:`save_population`) and the per-clan checkpoints of
    :class:`repro.cluster.worker_clan.WorkerClan`.
    """
    stale_members = {
        key: encode_genome_hex(genome)
        for key, genome in species.members.items()
        if key not in live_genomes
    }
    return {
        "key": species.key,
        "created": species.created,
        "last_improved": species.last_improved,
        "fitness": species.fitness,
        "adjusted_fitness": species.adjusted_fitness,
        # a copy: a blob held in memory (an in-process clan checkpoint)
        # must not grow with the live species
        "fitness_history": list(species.fitness_history),
        "representative": encode_genome_hex(species.representative),
        "member_keys": sorted(species.members),
        "stale_members": stale_members,
    }


def species_from_blob(
    blob: dict, live_genomes: dict, species_set: SpeciesSet
) -> Species:
    """Rebuild one species from its blob and register it in ``species_set``.

    Members still alive alias the ``live_genomes`` objects, exactly as in
    a live population; replaced members are rebuilt from their stored
    payloads. Version-1 blobs lack ``member_keys`` and restore with empty
    membership (the next ``speciate()`` rebuilds it).
    """
    species = Species(blob["key"], blob["created"])
    species.last_improved = blob["last_improved"]
    species.fitness = blob.get("fitness")
    species.adjusted_fitness = blob.get("adjusted_fitness")
    species.fitness_history = list(blob["fitness_history"])
    species.representative = decode_genome_hex(blob["representative"])
    stale = {
        int(key): payload
        for key, payload in blob.get("stale_members", {}).items()
    }
    for key in blob.get("member_keys", ()):
        if key in live_genomes:
            species.members[key] = live_genomes[key]
        else:
            species.members[key] = decode_genome_hex(stale[key])
        species_set.genome_to_species[key] = species.key
    species_set.species[species.key] = species
    return species


def save_population(population: Population, path) -> None:
    """Write a checkpoint of ``population`` to ``path``.

    Must be called between generations (the natural state boundary);
    in-flight evaluation state is never part of a checkpoint. The write
    is atomic (tmp file + ``os.replace``) and carries a CRC32 checksum,
    so a crash mid-write leaves the previous checkpoint intact and a
    damaged file is detected on load rather than silently resumed from.
    """
    atomic_write_json(path, population_document(population))


def population_document(population: Population) -> dict:
    """The JSON-serialisable checkpoint document of ``population``."""
    state = population.snapshot()
    best = state["best_genome"]
    return {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(population.config),
        "seed": state["seed"],
        "generation": state["generation"],
        "next_genome_key": state["next_genome_key"],
        "next_node_id": state["next_node_id"],
        "next_species_id": state["next_species_id"],
        "species_id_stride": state["n_clans"],
        "genomes": [encode_genome_hex(g) for g in state["genomes"]],
        "species": state["species"],
        "best_genome": None if best is None else encode_genome_hex(best),
    }


def load_population(path) -> Population:
    """Reconstruct a :class:`Population` from a checkpoint file.

    Raises :class:`CheckpointCorrupt` for damaged files and
    :class:`ValueError` for well-formed files of an unsupported version.
    """
    document = checked_read_json(path)
    if document.get("version") not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint version {document.get('version')!r}"
        )

    try:
        return population_from_document(document)
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointCorrupt(
            f"checkpoint {path} passed its checksum but failed to "
            f"decode ({type(error).__name__}: {error}) — the file was "
            "damaged before its checksum was computed or hand-edited"
        )


def population_from_document(document: dict) -> Population:
    """Rebuild a :class:`Population` from :func:`population_document`."""
    config_data = dict(document["config"])
    for field in _TUPLE_FIELDS:
        config_data[field] = tuple(config_data[field])
    best = document["best_genome"]
    return Population.restore(
        NEATConfig(**config_data),
        {
            "seed": document["seed"],
            # the document predates clans: it describes clan 0, and its
            # species-id stride is the clan count
            "clan_id": 0,
            "n_clans": document["species_id_stride"],
            "generation": document["generation"],
            "genomes": [
                decode_genome_hex(payload) for payload in document["genomes"]
            ],
            "next_genome_key": document["next_genome_key"],
            "next_node_id": document["next_node_id"],
            "next_species_id": document["next_species_id"],
            "species": document["species"],
            "best_genome": None if best is None else decode_genome_hex(best),
        },
    )
