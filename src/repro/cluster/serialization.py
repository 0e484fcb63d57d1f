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
from repro.neat.genome import Genome, collector_paused
from repro.neat.network import BatchedPlan, LayerPlan, _require_numpy

try:  # numpy is only needed for the batched-plan codec below
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

#: bytes per accounted 32-bit word
WORD_BYTES = 4
#: accounted words in the genome header
HEADER_WORDS = 4

_HEADER = struct.Struct("<idii")
_NODE = struct.Struct("<iddii")
_CONN = struct.Struct("<iidi")
_WORD = struct.Struct("<i")
_HEADER_SIZE = _HEADER.size
_NODE_SIZE = _NODE.size
_CONN_SIZE = _CONN.size

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
    nodes = genome.nodes
    conns = genome.connections
    # one precompiled record struct per gene family: a single pack per
    # block would need a format per genome size, and sizes vary too much
    # for struct's format cache
    parts = [_HEADER.pack(genome.key, fitness, len(nodes), len(conns))]
    append = parts.append
    pack = _NODE.pack
    for key in sorted(nodes):
        node = nodes[key]
        append(
            pack(
                node.key,
                node.bias,
                node.response,
                _ACTIVATION_IDS[node.activation],
                _AGGREGATION_IDS[node.aggregation],
            )
        )
    pack = _CONN.pack
    for key in sorted(conns):
        conn = conns[key]
        append(
            pack(
                conn.key[0],
                conn.key[1],
                conn.weight,
                1 if conn.enabled else 0,
            )
        )
    return b"".join(parts)


def _columns(record: struct.Struct, block, fields: int) -> list[tuple]:
    """A block of packed records as one tuple per field."""
    return list(zip(*record.iter_unpack(block))) or [()] * fields


def _decode_genome(data, keys: dict) -> Genome:
    """Decode one genome stream; ``keys`` interns connection key tuples
    (one dict per batch)."""
    if len(data) < _HEADER_SIZE:
        raise ValueError("genome byte stream shorter than header")
    key, fitness, n_nodes, n_conns = _HEADER.unpack_from(data, 0)
    expected = _HEADER_SIZE + _NODE_SIZE * n_nodes + _CONN_SIZE * n_conns
    if len(data) != expected or n_nodes < 0 or n_conns < 0:
        raise ValueError(
            f"genome byte stream length {len(data)} != expected {expected}"
        )
    genome = Genome(key)
    genome.fitness = None if math.isnan(fitness) else fitness
    view = memoryview(data)
    nodes_end = _HEADER_SIZE + _NODE_SIZE * n_nodes
    node_keys, biases, responses, act_ids, agg_ids = _columns(
        _NODE, view[_HEADER_SIZE:nodes_end], 5
    )
    try:
        activations = [_ACTIVATION_NAMES[i] for i in act_ids]
        aggregations = [_AGGREGATION_NAMES[i] for i in agg_ids]
    except KeyError:
        bad = next(
            node_key
            for node_key, act_id, agg_id in zip(node_keys, act_ids, agg_ids)
            if act_id not in _ACTIVATION_NAMES
            or agg_id not in _AGGREGATION_NAMES
        )
        raise ValueError(
            f"unknown activation/aggregation id in node {bad}"
        ) from None
    genome.nodes = NodeGene.from_columns(
        node_keys, biases, responses, activations, aggregations
    )
    in_keys, out_keys, weights, flags = _columns(_CONN, view[nodes_end:], 4)
    pairs = list(zip(in_keys, out_keys))
    genome.connections = ConnectionGene.from_columns(
        list(map(keys.setdefault, pairs, pairs)), weights, map(bool, flags)
    )
    return genome


def decode_genome(data: bytes) -> Genome:
    """Reconstruct a genome from :func:`encode_genome` output."""
    return _decode_genome(data, {})


def encode_genomes(genomes: list[Genome]) -> bytes:
    """Serialise a batch: a count word followed by length-prefixed genomes."""
    parts = [_WORD.pack(len(genomes))]
    for genome in genomes:
        payload = encode_genome(genome)
        parts.append(_WORD.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_genomes(data: bytes) -> list[Genome]:
    """Inverse of :func:`encode_genomes`.

    Connection key tuples are interned across the batch: equal keys in
    different genomes are one tuple. A truncated or overstated batch
    raises ``ValueError`` naming the offset where it ran out.
    """
    if len(data) < WORD_BYTES:
        raise ValueError(
            f"genome batch truncated at offset 0: no count word "
            f"({len(data)} bytes)"
        )
    (count,) = _WORD.unpack_from(data, 0)
    if count < 0:
        raise ValueError(f"genome batch count at offset 0 is {count} < 0")
    offset = WORD_BYTES
    view = memoryview(data)
    genomes = []
    keys: dict[tuple[int, int], tuple[int, int]] = {}
    with collector_paused():
        for index in range(count):
            if offset + WORD_BYTES > len(data):
                raise ValueError(
                    f"genome batch truncated at offset {offset}: length "
                    f"word of genome {index} of {count} missing"
                )
            (length,) = _WORD.unpack_from(data, offset)
            offset += WORD_BYTES
            if length < 0 or offset + length > len(data):
                raise ValueError(
                    f"genome batch truncated at offset {offset}: genome "
                    f"{index} of {count} needs {length} bytes, "
                    f"{len(data) - offset} left"
                )
            genomes.append(
                _decode_genome(view[offset: offset + length], keys)
            )
            offset += length
    if offset != len(data):
        raise ValueError("trailing bytes after genome batch")
    return genomes


# -- compiled batched plans ---------------------------------------------------
#
# The serving fleet compiles a champion once per publish (:func:`repro.neat.
# network.compile_batched`) and ships the lowered arrays so replicas skip
# the pruning/ordering/layering pass entirely. The stream is explicit
# little-endian (int32 indices, float64 scalars) so it round-trips
# bit-exactly across heterogeneous agents. Plans are an execution artifact,
# not part of the paper's modelled genome traffic: ``genome_wire_floats``
# accounting is unchanged.

#: format version tag leading every encoded plan ("BP" + version);
#: v2 stores layer weights sparsely (nonzero (slot, weight) pairs per row)
_PLAN_MAGIC = 0x42500002

_PLAN_HEADER = struct.Struct("<iiiii")
_TRIPLE = struct.Struct("<iii")
_PAIR = struct.Struct("<ii")
_ITEM_BYTES = {"<i4": 4, "<f8": 8}


def _unpack(record: struct.Struct, data, offset: int) -> tuple:
    """``record`` at ``offset`` (counts, ids and rows: none negative);
    ``ValueError`` when one is, or the stream ends first."""
    if offset + record.size > len(data):
        raise ValueError(
            f"plan byte stream truncated at offset {offset}: "
            f"{record.size} bytes needed, {len(data) - offset} left"
        )
    fields = record.unpack_from(data, offset)
    if min(fields) < 0:
        raise ValueError(f"negative plan field at offset {offset}")
    return fields


def _read_array(data: bytes, offset: int, dtype: str, count: int):
    """Decode ``count`` items of ``dtype`` at ``offset``; returns (arr, end).

    The slice is copied so decoded plans own writable, aligned arrays.
    """
    size = _ITEM_BYTES[dtype]
    if count < 0 or offset + count * size > len(data):
        raise ValueError(
            f"plan byte stream truncated at offset {offset}: {count} "
            f"items of {size} bytes, {len(data) - offset} bytes left"
        )
    arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return arr.copy(), offset + arr.nbytes


def encode_batched_plan(plan: BatchedPlan) -> bytes:
    """Serialise a compiled batched plan to its canonical byte stream."""
    _require_numpy()
    n_inputs = len(plan.input_keys)
    n_outputs = len(plan.output_keys)
    parts = [
        _PLAN_HEADER.pack(
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
            _TRIPLE.pack(
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
            parts.append(_WORD.pack(len(cols)))
            parts.append(cols.astype("<i4").tobytes())
            parts.append(layer.weights[row, cols].astype("<f8").tobytes())
        for name, rows in layer.act_groups:
            parts.append(_PAIR.pack(_ACTIVATION_IDS[name], len(rows)))
            parts.append(rows.astype("<i4").tobytes())
        for row, aggregation, src_slots, link_weights in layer.generic_nodes:
            agg_id = _AGGREGATION_IDS[aggregation]
            parts.append(_TRIPLE.pack(row, agg_id, len(src_slots)))
            parts.append(src_slots.astype("<i4").tobytes())
            parts.append(link_weights.astype("<f8").tobytes())
    return b"".join(parts)


def decode_batched_plan(data: bytes) -> BatchedPlan:
    """Reconstruct a plan from :func:`encode_batched_plan` output.

    A truncated or inconsistent stream raises ``ValueError`` naming the
    offset, never a bare ``struct.error`` or a huge allocation.
    """
    _require_numpy()
    if len(data) < _PLAN_HEADER.size:
        raise ValueError("plan byte stream shorter than header")
    if (magic := _PLAN_HEADER.unpack_from(data, 0)[0]) != _PLAN_MAGIC:
        raise ValueError(f"bad plan magic {magic:#x}")
    _, n_inputs, n_outputs, total_slots, n_layers = _unpack(
        _PLAN_HEADER, data, 0
    )
    # every slot costs the stream at least one 4-byte word
    if total_slots > len(data) // WORD_BYTES:
        raise ValueError(
            f"plan names {total_slots} slots in {len(data)} bytes"
        )
    offset = _PLAN_HEADER.size
    input_keys, offset = _read_array(data, offset, "<i4", n_inputs)
    output_keys, offset = _read_array(data, offset, "<i4", n_outputs)
    output_slots, offset = _read_array(data, offset, "<i4", n_outputs)
    layers: list[LayerPlan] = []
    for _ in range(n_layers):
        n_nodes, n_act_groups, n_generic = _unpack(_TRIPLE, data, offset)
        offset += _TRIPLE.size
        node_slots, offset = _read_array(data, offset, "<i4", n_nodes)
        bias, offset = _read_array(data, offset, "<f8", n_nodes)
        response, offset = _read_array(data, offset, "<f8", n_nodes)
        weights = np.zeros((n_nodes, total_slots), dtype=np.float64)
        for row in range(n_nodes):
            (n_links,) = _unpack(_WORD, data, offset)
            offset += WORD_BYTES
            cols, offset = _read_array(data, offset, "<i4", n_links)
            row_weights, offset = _read_array(data, offset, "<f8", n_links)
            if n_links and not 0 <= cols.min() <= cols.max() < total_slots:
                raise ValueError(f"link slot out of range before {offset}")
            weights[row, cols] = row_weights
        act_groups = []
        for _ in range(n_act_groups):
            act_id, n_rows = _unpack(_PAIR, data, offset)
            offset += _PAIR.size
            rows, offset = _read_array(data, offset, "<i4", n_rows)
            try:
                act_groups.append((_ACTIVATION_NAMES[act_id], rows))
            except KeyError:
                raise ValueError(
                    f"unknown activation id {act_id} in plan"
                ) from None
        if sum(len(rows) for _, rows in act_groups) != n_nodes:
            raise ValueError(
                f"activation groups before offset {offset} do not "
                f"cover the layer's {n_nodes} nodes"
            )
        generic_nodes = []
        for _ in range(n_generic):
            row, agg_id, fan_in = _unpack(_TRIPLE, data, offset)
            offset += _TRIPLE.size
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
    if total_slots != n_inputs + sum(len(layer.bias) for layer in layers):
        raise ValueError(
            f"plan names {total_slots} slots, its inputs and layers fill "
            f"{n_inputs + sum(len(layer.bias) for layer in layers)}"
        )
    return BatchedPlan(
        input_keys=tuple(int(key) for key in input_keys),
        output_keys=tuple(int(key) for key in output_keys),
        total_slots=total_slots,
        output_slots=output_slots,
        layers=layers,
    )


# -- serving chunks -----------------------------------------------------------
#
# The serving fleet's request path crosses the pipe as raw column frames,
# not pickles: ``(chunk id, rows, columns)``, then one row-major matrix —
# float64 observations one way, int64 (action, version, size) answers back.

_CHUNK = struct.Struct("<qii")


def encode_chunk(chunk_id: int, matrix, dtype: str) -> bytes:
    """One chunk of rows as a raw column frame, its cells as ``dtype``
    (``"<f8"`` or ``"<i8"``)."""
    matrix = np.asarray(matrix, dtype=dtype)
    return _CHUNK.pack(chunk_id, *matrix.shape) + matrix.tobytes()


def decode_chunk(data: bytes, dtype: str):
    """Inverse of :func:`encode_chunk`: ``(chunk_id, matrix)``; the
    matrix is a read-only view of ``data``."""
    if len(data) < _CHUNK.size:
        raise ValueError("chunk frame shorter than its header")
    chunk_id, rows, cols = _CHUNK.unpack_from(data, 0)
    cells = len(data) - _CHUNK.size
    if min(rows, cols) < 0 or rows * cols * 8 != cells:
        raise ValueError(f"chunk frame of {rows}x{cols} has {cells} bytes")
    matrix = np.frombuffer(data, dtype, rows * cols, _CHUNK.size)
    return chunk_id, matrix.reshape(rows, cols)
