"""Genome wire format.

The paper's cost metric treats a gene as "a 32-bit datastructure"; this
module makes that concrete. A genome is serialised as::

    header : genome key, fitness (NaN if unset), n_nodes, n_connections
    nodes  : per node gene — key, bias, response, activation id, aggregation id
    conns  : per connection gene — in key, out key, weight, enabled flag

Accounting (``genome_wire_floats``) counts one 32-bit word per field,
exactly the paper's convention; every communication cost model uses these
counts. The *encoded byte stream*, however, stores scalar attributes as
IEEE-754 doubles: the multiprocess runtime must round-trip genomes
bit-exactly so a physically distributed run reproduces the logical engines,
and Python floats are doubles. The modelled wire cost and the transport
encoding are therefore intentionally distinct layers.
"""

from __future__ import annotations

import math
import struct

from repro.neat.activations import ACTIVATIONS
from repro.neat.aggregations import AGGREGATIONS
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.genome import Genome
from repro.neat.network import BatchedPlan, LayerPlan, _require_numpy

try:  # numpy is only needed for the batched-plan codec below
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

#: bytes per accounted 32-bit word
WORD_BYTES = 4
#: accounted words in the genome header
HEADER_WORDS = 4

_HEADER_FMT = "<idii"
_NODE_FMT = "<iddii"
_CONN_FMT = "<iidi"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_NODE_SIZE = struct.calcsize(_NODE_FMT)
_CONN_SIZE = struct.calcsize(_CONN_FMT)

_ACTIVATION_IDS = {name: i for i, name in enumerate(sorted(ACTIVATIONS))}
_ACTIVATION_NAMES = {i: name for name, i in _ACTIVATION_IDS.items()}
_AGGREGATION_IDS = {name: i for i, name in enumerate(sorted(AGGREGATIONS))}
_AGGREGATION_NAMES = {i: name for name, i in _AGGREGATION_IDS.items()}


def wire_floats(nodes: int, connections: int) -> int:
    """32-bit words a genome of ``nodes`` + ``connections`` genes
    occupies on the wire."""
    return (
        HEADER_WORDS
        + NodeGene.FLOAT_FIELDS * nodes
        + ConnectionGene.FLOAT_FIELDS * connections
    )


def genome_wire_floats(genome: Genome) -> int:
    """Number of 32-bit words the genome occupies on the wire."""
    return wire_floats(len(genome.nodes), len(genome.connections))


def genome_wire_bytes(genome: Genome) -> int:
    """Modelled wire footprint of a genome in bytes (accounted words)."""
    return WORD_BYTES * genome_wire_floats(genome)


def genome_stream_bytes(genome: Genome) -> int:
    """Actual encoded byte-stream length (doubles for scalars)."""
    return (
        _HEADER_SIZE
        + _NODE_SIZE * len(genome.nodes)
        + _CONN_SIZE * len(genome.connections)
    )


def encode_genome(genome: Genome) -> bytes:
    """Serialise a genome to its canonical byte stream."""
    fitness = genome.fitness if genome.fitness is not None else math.nan
    parts = [
        struct.pack(
            _HEADER_FMT,
            genome.key,
            fitness,
            len(genome.nodes),
            len(genome.connections),
        )
    ]
    for key in sorted(genome.nodes):
        node = genome.nodes[key]
        parts.append(
            struct.pack(
                _NODE_FMT,
                node.key,
                node.bias,
                node.response,
                _ACTIVATION_IDS[node.activation],
                _AGGREGATION_IDS[node.aggregation],
            )
        )
    for key in sorted(genome.connections):
        conn = genome.connections[key]
        parts.append(
            struct.pack(
                _CONN_FMT,
                conn.key[0],
                conn.key[1],
                conn.weight,
                1 if conn.enabled else 0,
            )
        )
    return b"".join(parts)


def decode_genome(data: bytes) -> Genome:
    """Reconstruct a genome from :func:`encode_genome` output."""
    if len(data) < _HEADER_SIZE:
        raise ValueError("genome byte stream shorter than header")
    key, fitness, n_nodes, n_conns = struct.unpack_from(_HEADER_FMT, data, 0)
    expected = _HEADER_SIZE + _NODE_SIZE * n_nodes + _CONN_SIZE * n_conns
    if len(data) != expected:
        raise ValueError(
            f"genome byte stream length {len(data)} != expected {expected}"
        )
    genome = Genome(key)
    genome.fitness = None if math.isnan(fitness) else fitness
    offset = _HEADER_SIZE
    for _ in range(n_nodes):
        node_key, bias, response, act_id, agg_id = struct.unpack_from(
            _NODE_FMT, data, offset
        )
        offset += _NODE_SIZE
        try:
            activation = _ACTIVATION_NAMES[act_id]
            aggregation = _AGGREGATION_NAMES[agg_id]
        except KeyError:
            raise ValueError(
                f"unknown activation/aggregation id in node {node_key}"
            ) from None
        genome.nodes[node_key] = NodeGene(
            node_key, bias, response, activation, aggregation
        )
    for _ in range(n_conns):
        in_key, out_key, weight, enabled = struct.unpack_from(
            _CONN_FMT, data, offset
        )
        offset += _CONN_SIZE
        genome.connections[(in_key, out_key)] = ConnectionGene(
            (in_key, out_key), weight, bool(enabled)
        )
    return genome


def encode_genomes(genomes: list[Genome]) -> bytes:
    """Serialise a batch: a count word followed by length-prefixed genomes."""
    parts = [struct.pack("<i", len(genomes))]
    for genome in genomes:
        payload = encode_genome(genome)
        parts.append(struct.pack("<i", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_genomes(data: bytes) -> list[Genome]:
    """Inverse of :func:`encode_genomes`."""
    (count,) = struct.unpack_from("<i", data, 0)
    offset = WORD_BYTES
    genomes = []
    for _ in range(count):
        (length,) = struct.unpack_from("<i", data, offset)
        offset += WORD_BYTES
        genomes.append(decode_genome(data[offset: offset + length]))
        offset += length
    if offset != len(data):
        raise ValueError("trailing bytes after genome batch")
    return genomes


# -- compiled batched plans ---------------------------------------------------
#
# The centre compiles a genome once (:func:`repro.neat.network.
# compile_batched`) and ships the lowered arrays so workers skip the
# pruning/ordering/layering pass entirely. The stream is explicit
# little-endian (int32 indices, float64 scalars) so it round-trips
# bit-exactly across heterogeneous agents. Plans are an execution artifact,
# not part of the paper's modelled genome traffic: ``genome_wire_floats``
# accounting is unchanged.

#: format version tag leading every encoded plan ("BP" + version);
#: v2 stores layer weights sparsely (nonzero (slot, weight) pairs per row)
_PLAN_MAGIC = 0x42500002

_PLAN_HEADER_FMT = "<iiiii"
_PLAN_HEADER_SIZE = struct.calcsize(_PLAN_HEADER_FMT)
_LAYER_HEADER_FMT = "<iii"
_LAYER_HEADER_SIZE = struct.calcsize(_LAYER_HEADER_FMT)


def _read_array(data: bytes, offset: int, dtype: str, count: int):
    """Decode ``count`` items of ``dtype`` at ``offset``; returns (arr, end).

    The slice is copied so decoded plans own writable, aligned arrays.
    """
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return arr.copy(), offset + arr.nbytes


def encode_batched_plan(plan: BatchedPlan) -> bytes:
    """Serialise a compiled batched plan to its canonical byte stream."""
    _require_numpy()
    n_inputs = len(plan.input_keys)
    n_outputs = len(plan.output_keys)
    parts = [
        struct.pack(
            _PLAN_HEADER_FMT,
            _PLAN_MAGIC,
            n_inputs,
            n_outputs,
            plan.total_slots,
            len(plan.layers),
        ),
        np.asarray(plan.input_keys, dtype="<i4").tobytes(),
        np.asarray(plan.output_keys, dtype="<i4").tobytes(),
        np.asarray(plan.output_slots, dtype="<i4").tobytes(),
    ]
    for layer in plan.layers:
        parts.append(
            struct.pack(
                _LAYER_HEADER_FMT,
                len(layer.node_slots),
                len(layer.act_groups),
                len(layer.generic_nodes),
            )
        )
        parts.append(layer.node_slots.astype("<i4").tobytes())
        parts.append(layer.bias.astype("<f8").tobytes())
        parts.append(layer.response.astype("<f8").tobytes())
        # the dense per-layer matrix is mostly zeros (links are sparse), so
        # ship only the nonzero (slot, weight) pairs per row; decode
        # re-densifies. Zero entries scatter back to an identical matrix,
        # keeping decoded outputs bit-exact.
        for row in range(len(layer.node_slots)):
            (cols,) = np.nonzero(layer.weights[row])
            parts.append(struct.pack("<i", len(cols)))
            parts.append(cols.astype("<i4").tobytes())
            parts.append(layer.weights[row, cols].astype("<f8").tobytes())
        for name, rows in layer.act_groups:
            parts.append(
                struct.pack("<ii", _ACTIVATION_IDS[name], len(rows))
            )
            parts.append(rows.astype("<i4").tobytes())
        for row, aggregation, src_slots, link_weights in layer.generic_nodes:
            parts.append(
                struct.pack(
                    "<iii",
                    row,
                    _AGGREGATION_IDS[aggregation],
                    len(src_slots),
                )
            )
            parts.append(src_slots.astype("<i4").tobytes())
            parts.append(link_weights.astype("<f8").tobytes())
    return b"".join(parts)


def decode_batched_plan(data: bytes) -> BatchedPlan:
    """Reconstruct a plan from :func:`encode_batched_plan` output."""
    _require_numpy()
    if len(data) < _PLAN_HEADER_SIZE:
        raise ValueError("plan byte stream shorter than header")
    magic, n_inputs, n_outputs, total_slots, n_layers = struct.unpack_from(
        _PLAN_HEADER_FMT, data, 0
    )
    if magic != _PLAN_MAGIC:
        raise ValueError(f"bad plan magic {magic:#x}")
    offset = _PLAN_HEADER_SIZE
    input_keys, offset = _read_array(data, offset, "<i4", n_inputs)
    output_keys, offset = _read_array(data, offset, "<i4", n_outputs)
    output_slots, offset = _read_array(data, offset, "<i4", n_outputs)
    layers: list[LayerPlan] = []
    for _ in range(n_layers):
        n_nodes, n_act_groups, n_generic = struct.unpack_from(
            _LAYER_HEADER_FMT, data, offset
        )
        offset += _LAYER_HEADER_SIZE
        node_slots, offset = _read_array(data, offset, "<i4", n_nodes)
        bias, offset = _read_array(data, offset, "<f8", n_nodes)
        response, offset = _read_array(data, offset, "<f8", n_nodes)
        weights = np.zeros((n_nodes, total_slots), dtype=np.float64)
        for row in range(n_nodes):
            (n_links,) = struct.unpack_from("<i", data, offset)
            offset += WORD_BYTES
            cols, offset = _read_array(data, offset, "<i4", n_links)
            row_weights, offset = _read_array(data, offset, "<f8", n_links)
            weights[row, cols] = row_weights
        act_groups = []
        for _ in range(n_act_groups):
            act_id, n_rows = struct.unpack_from("<ii", data, offset)
            offset += 2 * WORD_BYTES
            rows, offset = _read_array(data, offset, "<i4", n_rows)
            try:
                act_groups.append((_ACTIVATION_NAMES[act_id], rows))
            except KeyError:
                raise ValueError(
                    f"unknown activation id {act_id} in plan"
                ) from None
        generic_nodes = []
        for _ in range(n_generic):
            row, agg_id, fan_in = struct.unpack_from("<iii", data, offset)
            offset += 3 * WORD_BYTES
            src_slots, offset = _read_array(data, offset, "<i4", fan_in)
            link_weights, offset = _read_array(data, offset, "<f8", fan_in)
            try:
                aggregation = _AGGREGATION_NAMES[agg_id]
            except KeyError:
                raise ValueError(
                    f"unknown aggregation id {agg_id} in plan"
                ) from None
            generic_nodes.append((row, aggregation, src_slots, link_weights))
        layers.append(
            LayerPlan(
                node_slots=node_slots,
                weights=weights,
                bias=bias,
                response=response,
                act_groups=act_groups,
                generic_nodes=generic_nodes,
            )
        )
    if offset != len(data):
        raise ValueError("trailing bytes after plan stream")
    return BatchedPlan(
        input_keys=tuple(int(key) for key in input_keys),
        output_keys=tuple(int(key) for key in output_keys),
        total_slots=total_slots,
        output_slots=output_slots,
        layers=layers,
    )


def encode_batched_plans(plans: list[BatchedPlan]) -> bytes:
    """Serialise a batch: a count word followed by length-prefixed plans."""
    parts = [struct.pack("<i", len(plans))]
    for plan in plans:
        payload = encode_batched_plan(plan)
        parts.append(struct.pack("<i", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_batched_plans(data: bytes) -> list[BatchedPlan]:
    """Inverse of :func:`encode_batched_plans`."""
    (count,) = struct.unpack_from("<i", data, 0)
    offset = WORD_BYTES
    plans = []
    for _ in range(count):
        (length,) = struct.unpack_from("<i", data, offset)
        offset += WORD_BYTES
        plans.append(decode_batched_plan(data[offset: offset + length]))
        offset += length
    if offset != len(data):
        raise ValueError("trailing bytes after plan batch")
    return plans
