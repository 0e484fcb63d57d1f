"""The one columnar lowering of genomes: sorted gene-key + attribute arrays.

Both array-native consumers read the same layout. Speciation
(:mod:`repro.neat.vectorized`) lowers the population it partitions and
matches genes by key; the plan compiler
(:func:`repro.neat.network.compile_batched`) is fed one genome's view at
a time by :meth:`GenomeEvaluator.evaluate_many
<repro.neat.evaluation.GenomeEvaluator.evaluate_many>`, which lowers the
block being evaluated (:func:`lower_population`), and lowers a lone
:class:`~repro.neat.genome.Genome` itself (:func:`lower_genome`).

Node and connection genes share one packed uint64 key space (nodes
low, packed connections high), sorted within each family, so one
matching sweep covers both compatibility terms and a connection's
endpoints unpack with a shift and a mask.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

if TYPE_CHECKING:
    from repro.neat.genome import Genome


#: offset lifting (possibly negative) node keys into unsigned 32-bit range
_KEY_OFFSET = 1 << 31

#: node keys sit below this, packed connection keys at or above it
_MIN_CONN_KEY = 1 << 32

#: process-local interning of activation/aggregation names: distances
#: only need *mismatch* tests and plan signatures live in one process,
#: so any stable name <-> int mapping works
_NAME_IDS: dict[str, int] = {}
_NAMES: list[str] = []


def _intern(name: str) -> int:
    try:
        return _NAME_IDS[name]
    except KeyError:
        _NAME_IDS[name] = len(_NAMES)
        _NAMES.append(name)
        return _NAME_IDS[name]


def _pack_conn_keys(in_keys, out_keys):
    """Pack (in, out) connection keys into sortable uint64s.

    Each component is lifted by ``_KEY_OFFSET`` into unsigned 32-bit
    range, so unsigned ordering of the packed keys equals lexicographic
    ordering of the tuples — sorted gene dicts lower to sorted arrays.
    Every packed key is at least ``_MIN_CONN_KEY`` and every node key
    below it, keeping the two gene families disjoint in the shared key
    space.
    """
    return (
        (in_keys + _KEY_OFFSET).astype(np.uint64) << np.uint64(32)
    ) | (out_keys + _KEY_OFFSET).astype(np.uint64)


def _unpack_conn_keys(packed):
    """``(in_keys, out_keys)`` int64 arrays of packed connection keys."""
    in_keys = (packed >> np.uint64(32)).astype(np.int64) - _KEY_OFFSET
    out_keys = (
        packed & np.uint64(0xFFFFFFFF)
    ).astype(np.int64) - _KEY_OFFSET
    return in_keys, out_keys


def _check_keys(node_keys, in_keys, out_keys) -> None:
    # NodeGene validates key >= 0, but deserialised or hand-built
    # genomes bypass it; a negative key would wrap to the top of the
    # uint64 space and an endpoint wider than 32 bits would spill into
    # its neighbour's half, silently breaking the sorted-key invariant
    if node_keys.size and (
        int(node_keys.max()) >= _KEY_OFFSET or int(node_keys.min()) < 0
    ):
        raise ValueError(
            "array lowering requires node keys in [0, 2**31) "
            "(they share a packed key space with connection keys)"
        )
    if in_keys.size and (
        max(int(in_keys.max()), int(out_keys.max())) >= _KEY_OFFSET
        or min(int(in_keys.min()), int(out_keys.min())) <= -_KEY_OFFSET
    ):
        raise ValueError(
            "array lowering requires connection endpoints in "
            "(-2**31, 2**31) (they are packed into one 64-bit key)"
        )


class GenomeArrays:
    """One genome lowered to sorted gene-key + attribute arrays.

    Both gene families live in one combined layout — node rows first
    (plain key), then connection rows (packed key). Attributes are
    columnar 1-D arrays (contiguous ops beat 2-D axis reductions by an
    order of magnitude): floats ``f0``/``f1`` are (bias, response) for
    node rows and (weight, 0) for connection rows; categoricals ``c0``/
    ``c1`` are (activation id, aggregation id) and (enabled, 0). The
    zero padding is inert in the distance math, and the float /
    categorical split mirrors the scalar attribute distances — floats
    contribute ``|a - b|``, categoricals 1.0 per mismatch (see
    :meth:`NodeGene.distance` / :meth:`ConnectionGene.distance`).

    Always a *view* of one block of a :class:`_FlatPopulation`'s
    buffers; it keeps them alive for as long as it is referenced.
    """

    __slots__ = ("key", "keys", "f0", "f1", "c0", "c1", "n_nodes", "n_conns")

    def __init__(self, key, flat: "_FlatPopulation", index: int):
        self.key = key
        start = int(flat.starts[index])
        stop = start + int(flat.lens[index])
        self.keys = flat.keys[start:stop]
        self.f0 = flat.f0[start:stop]
        self.f1 = flat.f1[start:stop]
        self.c0 = flat.c0[start:stop]
        self.c1 = flat.c1[start:stop]
        self.n_nodes = int(flat.node_lens[index])
        self.n_conns = int(flat.conn_lens[index])

    def gene_count(self) -> int:
        return self.n_nodes + self.n_conns


def lower_population(genomes: Sequence["Genome"]) -> list[GenomeArrays]:
    """Lower a block of genomes in one pass; one view each, in order.

    The views share the block's flat buffers and keep them alive: drop
    the views once they have been consumed.
    """
    return _FlatPopulation(genomes).views


def lower_genome(genome: "Genome") -> GenomeArrays:
    """Lower one genome on its own (a block of one)."""
    return lower_population([genome])[0]


class _FlatPopulation:
    """A block of genomes lowered into flat combined-key-space buffers.

    The block is lowered with one ``fromiter`` pass per attribute
    (rather than one per genome per attribute); node and connection rows
    are interleaved genome-major (genome ``g``'s nodes, then its
    connections) with vectorized destination indexing, and genome
    ``g``'s :class:`GenomeArrays` (``views[g]``, in the order given) is
    a *view* into the flat buffers.
    """

    def __init__(self, genomes: Sequence["Genome"]):
        if np is None:  # pragma: no cover - exercised only without numpy
            raise RuntimeError(
                "numpy is required to lower genomes to arrays; install "
                "numpy or use the scalar backend and genetics"
            )
        n_genomes = len(genomes)
        node_lists = [
            [g.nodes[key] for key in sorted(g.nodes)] for g in genomes
        ]
        conn_lists = [
            [g.connections[key] for key in sorted(g.connections)]
            for g in genomes
        ]
        flat_nodes = [gene for lst in node_lists for gene in lst]
        flat_conns = [gene for lst in conn_lists for gene in lst]
        n = len(flat_nodes)
        m = len(flat_conns)

        self.node_lens = np.fromiter(
            (len(lst) for lst in node_lists),
            dtype=np.int64, count=n_genomes,
        )
        self.conn_lens = np.fromiter(
            (len(lst) for lst in conn_lists),
            dtype=np.int64, count=n_genomes,
        )
        self.lens = self.node_lens + self.conn_lens
        self.starts = np.cumsum(self.lens) - self.lens

        # combined destinations: genome g's node rows land at its block
        # start, its connection rows right after them
        node_starts = np.cumsum(self.node_lens) - self.node_lens
        conn_starts = np.cumsum(self.conn_lens) - self.conn_lens
        dest_node = np.arange(n, dtype=np.int64) + np.repeat(
            conn_starts, self.node_lens
        )
        dest_conn = np.arange(m, dtype=np.int64) + np.repeat(
            node_starts + self.node_lens, self.conn_lens
        )

        node_keys = np.fromiter(
            (g.key for g in flat_nodes), dtype=np.int64, count=n
        )
        in_keys = np.fromiter(
            (g.key[0] for g in flat_conns), dtype=np.int64, count=m
        )
        out_keys = np.fromiter(
            (g.key[1] for g in flat_conns), dtype=np.int64, count=m
        )
        _check_keys(node_keys, in_keys, out_keys)
        keys = np.empty(n + m, dtype=np.uint64)
        keys[dest_node] = node_keys.astype(np.uint64)
        keys[dest_conn] = _pack_conn_keys(in_keys, out_keys)
        self.keys = keys

        f0 = np.zeros(n + m, dtype=np.float64)
        f1 = np.zeros(n + m, dtype=np.float64)
        f0[dest_node] = np.fromiter(
            (g.bias for g in flat_nodes), dtype=np.float64, count=n
        )
        f1[dest_node] = np.fromiter(
            (g.response for g in flat_nodes), dtype=np.float64, count=n
        )
        f0[dest_conn] = np.fromiter(
            (g.weight for g in flat_conns), dtype=np.float64, count=m
        )
        self.f0 = f0
        self.f1 = f1

        c0 = np.zeros(n + m, dtype=np.int64)
        c1 = np.zeros(n + m, dtype=np.int64)
        c0[dest_node] = np.fromiter(
            (_intern(g.activation) for g in flat_nodes),
            dtype=np.int64, count=n,
        )
        c1[dest_node] = np.fromiter(
            (_intern(g.aggregation) for g in flat_nodes),
            dtype=np.int64, count=n,
        )
        c0[dest_conn] = np.fromiter(
            (g.enabled for g in flat_conns), dtype=np.int64, count=m
        )
        self.c0 = c0
        self.c1 = c1

        #: the lowered genomes, in the order given
        self.genomes = list(genomes)
        self.views = [
            GenomeArrays(genome.key, self, index)
            for index, genome in enumerate(self.genomes)
        ]
