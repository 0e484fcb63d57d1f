"""Array-native genetics: batched speciation distances + brood mutation.

The paper singles out speciation as the block CLAN cannot parallelise
("cannot use PLP being a synchronous operation in NEAT"): its cost is a
quadratic sweep of gene-by-gene compatibility comparisons, and GeneSys
(Samajdar et al., 2018) showed the genetic operators dominate once
inference is accelerated. This module is the NumPy twin of that scalar
evolution phase, selected by ``NEATConfig.genetics = "vectorized"``:

* Genomes are matched on the shared columnar lowering of
  :mod:`repro.neat.arrays` (:class:`GenomeArrays`: sorted gene-key /
  attribute arrays, nodes and connections in one packed uint64 key
  space, so one matching sweep covers both compatibility terms) — the
  same layout the plan compiler reads.
* :class:`VectorizedDistanceCache` computes one anchor genome against a
  whole batch of candidates as merged array ops over innovation keys,
  memoising pairs exactly like the scalar
  :class:`~repro.neat.species.DistanceCache` and feeding the
  *unchanged* partition logic in
  :meth:`~repro.neat.species.SpeciesSet.speciate`. Given the whole
  population up front it lowers everything once into flat contiguous
  buffers, interns the distinct innovation keys, and matches each
  anchor by table scatter/gather — no per-pair Python, no per-row
  binary search.
* :func:`mutate_brood_attributes` batches the float/bool attribute
  updates of a whole brood of children through one seeded
  ``numpy.random.Generator`` (structural mutations stay on the scalar
  per-child streams — see :func:`repro.neat.reproduction.execute_plan`).

Parity contract (tested in ``tests/test_neat_vectorized.py``): batched
distances match :meth:`Genome.distance` within 1e-9 and produce an
identical speciation partition on seeded populations, with identical
:class:`~repro.neat.species.SpeciationStats` cost counters; batched
attribute mutation matches the scalar update *in distribution* (same
marginal rates, noise scale and clamp bounds) but not draw-for-draw.
The default ``genetics="scalar"`` path is untouched and stays bit-exact
with the paper trajectories.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.neat.arrays import (
    _MIN_CONN_KEY,
    GenomeArrays,
    _FlatPopulation,
    lower_genome,
)
from repro.neat.attributes import (
    float_mutation_params,
    mutate_bool_array,
    mutate_float_array,
)
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.species import DistanceCache, SpeciationStats
from repro.obs import tracer as obs

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

if TYPE_CHECKING:
    from repro.neat.config import NEATConfig
    from repro.neat.genome import Genome


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "numpy is required for the vectorized genetics engine; "
            "install numpy or use genetics='scalar'"
        )


def _combine_terms(
    match_sums,
    match_counts,
    node_sizes,
    conn_sizes,
    anchor_nodes: int,
    anchor_conns: int,
    weight_coeff: float,
    disjoint_coeff: float,
):
    """Per-candidate distance from the per-family segmented sums.

    Each family's term is ``(Cw * matching_attribute_distance +
    Cd * disjoint) / max_gene_count``, exactly as
    :meth:`Genome.distance` computes it; the two interleaved slices of
    the ``2 * candidate + is_conn`` bincounts carry the families.
    """
    node_match_sum = match_sums[0::2]
    conn_match_sum = match_sums[1::2]
    node_match = match_counts[0::2]
    conn_match = match_counts[1::2]
    node_disjoint = (node_sizes - node_match) + (
        anchor_nodes - node_match
    )
    node_denom = np.maximum(node_sizes, anchor_nodes)
    node_term = np.where(
        node_denom > 0,
        (weight_coeff * node_match_sum + disjoint_coeff * node_disjoint)
        / np.maximum(node_denom, 1),
        0.0,
    )
    conn_disjoint = (conn_sizes - conn_match) + (
        anchor_conns - conn_match
    )
    conn_denom = np.maximum(conn_sizes, anchor_conns)
    conn_term = np.where(
        conn_denom > 0,
        (weight_coeff * conn_match_sum + disjoint_coeff * conn_disjoint)
        / np.maximum(conn_denom, 1),
        0.0,
    )
    return node_term + conn_term


def batch_distance(
    anchor: GenomeArrays,
    candidates: Sequence[GenomeArrays],
    config: "NEATConfig",
):
    """Compatibility distances anchor-vs-each-candidate, as one batch.

    The generic path: candidate arrays are concatenated per call and
    matched against the anchor's sorted keys with one ``searchsorted``.
    (The speciation hot path goes through :class:`_FlatPopulation` and
    its interning table instead.) Matches :meth:`Genome.distance` within
    float64 summation-order rounding (the suite asserts 1e-9): the
    scalar path multiplies each matching gene's attribute distance by
    the weight coefficient before a sequential sum, this path sums
    first via pairwise reductions.
    """
    _require_numpy()
    if not candidates:
        return np.zeros(0, dtype=np.float64)
    n = len(candidates)
    node_sizes = np.asarray(
        [c.n_nodes for c in candidates], dtype=np.int64
    )
    conn_sizes = np.asarray(
        [c.n_conns for c in candidates], dtype=np.int64
    )
    sizes = node_sizes + conn_sizes
    if int(sizes.sum()) and anchor.keys.size:
        keys = np.concatenate([c.keys for c in candidates])
        f0 = np.concatenate([c.f0 for c in candidates])
        f1 = np.concatenate([c.f1 for c in candidates])
        c0 = np.concatenate([c.c0 for c in candidates])
        c1 = np.concatenate([c.c1 for c in candidates])
        is_conn = np.concatenate([
            np.repeat(
                np.asarray([0, 1], dtype=np.int64),
                [c.n_nodes, c.n_conns],
            )
            for c in candidates
        ])
        seg2 = 2 * np.repeat(np.arange(n), sizes) + is_conn
        idx = np.minimum(
            np.searchsorted(anchor.keys, keys), anchor.keys.size - 1
        )
        matched = anchor.keys[idx] == keys
        attr = np.abs(anchor.f0[idx] - f0)
        attr += np.abs(anchor.f1[idx] - f1)
        attr += anchor.c0[idx] != c0
        attr += anchor.c1[idx] != c1
        attr *= matched
        match_sums = np.bincount(seg2, weights=attr, minlength=2 * n)
        match_counts = np.bincount(
            seg2, weights=matched, minlength=2 * n
        )
    else:
        match_sums = np.zeros(2 * n, dtype=np.float64)
        match_counts = np.zeros(2 * n, dtype=np.float64)
    return _combine_terms(
        match_sums, match_counts, node_sizes, conn_sizes,
        anchor.n_nodes, anchor.n_conns,
        config.compatibility_weight_coefficient,
        config.compatibility_disjoint_coefficient,
    )


class _AnchorTable:
    """Scatter/gather matcher over a population's interned key space.

    Construction interns the flat population's distinct innovation keys
    (``key_ids``: a dense id per flat row) — speciation's own index over
    the shared lowering, which no other consumer pays for. Loading an
    anchor scatters its attribute columns into dense tables indexed by
    key id; a batch against candidates is then five O(rows) gathers
    plus two segmented ``bincount`` reductions — no per-row binary
    search. Stale table rows from the previous anchor are inert: the
    ``valid`` mask zeroes their contribution.
    """

    def __init__(self, flat: _FlatPopulation):
        self.flat = flat
        self.unique_keys, key_ids = np.unique(
            flat.keys, return_inverse=True
        )
        self.key_ids = key_ids.astype(np.int64, copy=False)
        is_conn = flat.keys >= np.uint64(_MIN_CONN_KEY)
        #: ``2 * genome + is_conn`` per flat row, for full-population
        #: batches (gather-free fast path)
        self.full_seg2 = 2 * np.repeat(
            np.arange(len(flat.lens), dtype=np.int64), flat.lens
        ) + is_conn
        size = int(self.unique_keys.size)
        self.valid = np.zeros(size, dtype=bool)
        self.f0 = np.zeros(size, dtype=np.float64)
        self.f1 = np.zeros(size, dtype=np.float64)
        self.c0 = np.zeros(size, dtype=np.int64)
        self.c1 = np.zeros(size, dtype=np.int64)
        self._last_ids = None

    def gather(self, positions):
        """Subset rows: (key_ids, f0, f1, c0, c1, seg2, node/conn sizes)."""
        flat = self.flat
        sizes = flat.lens[positions]
        total = int(sizes.sum())
        node_sizes = flat.node_lens[positions]
        conn_sizes = flat.conn_lens[positions]
        if not total:
            empty = np.zeros(0, dtype=np.int64)
            return (
                empty, flat.f0[:0], flat.f1[:0], empty, empty, empty,
                node_sizes, conn_sizes,
            )
        # flat gather indices: each block's start repeated over its
        # length, plus the within-block offset
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        flat_idx = np.repeat(flat.starts[positions], sizes) + within
        seg2 = 2 * np.repeat(np.arange(len(positions)), sizes) + (
            self.full_seg2[flat_idx] & 1
        )
        return (
            self.key_ids[flat_idx],
            flat.f0[flat_idx],
            flat.f1[flat_idx],
            flat.c0[flat_idx],
            flat.c1[flat_idx],
            seg2,
            node_sizes,
            conn_sizes,
        )

    def load(self, anchor: GenomeArrays, position: int | None) -> None:
        """Scatter ``anchor`` into the tables; ``position`` is its block
        in the flat population, or None for a foreign genome."""
        if self._last_ids is not None:
            self.valid[self._last_ids] = False
        if position is None:
            # foreign anchor (e.g. a previous generation's
            # representative): map its keys into the interned space;
            # keys absent from the population can match nothing and are
            # simply left out of the table
            idx = np.minimum(
                np.searchsorted(self.unique_keys, anchor.keys),
                self.unique_keys.size - 1,
            )
            found = self.unique_keys[idx] == anchor.keys
            ids = idx[found]
            self.f0[ids] = anchor.f0[found]
            self.f1[ids] = anchor.f1[found]
            self.c0[ids] = anchor.c0[found]
            self.c1[ids] = anchor.c1[found]
        else:
            start = int(self.flat.starts[position])
            ids = self.key_ids[start:start + anchor.gene_count()]
            self.f0[ids] = anchor.f0
            self.f1[ids] = anchor.f1
            self.c0[ids] = anchor.c0
            self.c1[ids] = anchor.c1
        self.valid[ids] = True
        self._last_ids = ids

    def distances(
        self,
        anchor: GenomeArrays,
        key_ids,
        f0,
        f1,
        c0,
        c1,
        seg2,
        node_sizes,
        conn_sizes,
        weight_coeff: float,
        disjoint_coeff: float,
    ):
        n = len(node_sizes)
        if key_ids.size:
            matched = self.valid[key_ids]
            attr = np.abs(self.f0[key_ids] - f0)
            attr += np.abs(self.f1[key_ids] - f1)
            attr += self.c0[key_ids] != c0
            attr += self.c1[key_ids] != c1
            attr *= matched
            match_sums = np.bincount(
                seg2, weights=attr, minlength=2 * n
            )
            match_counts = np.bincount(
                seg2, weights=matched, minlength=2 * n
            )
        else:
            match_sums = np.zeros(2 * n, dtype=np.float64)
            match_counts = np.zeros(2 * n, dtype=np.float64)
        return _combine_terms(
            match_sums, match_counts, node_sizes, conn_sizes,
            anchor.n_nodes, anchor.n_conns,
            weight_coeff, disjoint_coeff,
        )


class VectorizedDistanceCache:
    """Batched, memoising distance oracle for one speciation pass.

    Drop-in twin of :class:`repro.neat.species.DistanceCache`: same
    normalised pair-key memoisation, same :class:`SpeciationStats`
    accounting (comparisons and genes_compared count computed pairs
    only; ``cache_hits`` counts memo returns). Each genome is lowered to
    :class:`GenomeArrays` at most once per pass, and every uncached
    anchor-vs-candidates batch is computed as merged array ops.
    """

    def __init__(self, config: "NEATConfig", population: dict | None = None):
        """``population`` (genome key -> genome), when given, is lowered
        and flattened up front: batches over its members run on the
        interned-key anchor table instead of concatenating per-genome
        arrays. Anchors and candidates outside the population (e.g.
        previous generations' representatives) fall back to per-genome
        arrays."""
        _require_numpy()
        self.config = config
        self.distances: dict[tuple[int, int], float] = {}
        self.stats = SpeciationStats()
        lower_span = obs.span(
            "lower_population",
            members=len(population) if population else 0,
        )
        #: keyed by object identity, not genome key: an old species
        #: representative is a distinct object that may share a key with
        #: a current member only when it *is* that member (elites), and
        #: identity keying stays correct even for hand-built populations
        #: that reuse keys. Entries keep their genomes alive for the
        #: pass, so ids cannot be recycled underneath the cache.
        self._arrays: dict[int, tuple["Genome", GenomeArrays]] = {}
        #: flat-population block index per member, by object identity
        #: (the flat population keeps its genomes alive)
        self._positions: dict[int, int] = {}
        self._table: _AnchorTable | None = None
        with lower_span:
            if population:
                flat = _FlatPopulation(
                    [population[key] for key in sorted(population)]
                )
                self._table = _AnchorTable(flat)
                self._positions = {
                    id(genome): index
                    for index, genome in enumerate(flat.genomes)
                }

    def _lower(self, genome: "Genome") -> GenomeArrays:
        position = self._positions.get(id(genome))
        if position is not None:
            return self._table.flat.views[position]
        entry = self._arrays.get(id(genome))
        if entry is None:
            entry = (genome, lower_genome(genome))
            self._arrays[id(genome)] = entry
        return entry[1]

    def _positions_for(self, genomes) -> "np.ndarray | None":
        """Flat positions of ``genomes``, or None if any is foreign."""
        positions = [self._positions.get(id(g)) for g in genomes]
        if None in positions:
            return None
        return np.asarray(positions, dtype=np.int64)

    #: same memo key scheme as the scalar twin, by construction
    _pair_key = staticmethod(DistanceCache._pair_key)

    def _distances_flat(self, anchor, anchor_arrays, positions):
        """Anchor-vs-subset distances on the flat population buffers.

        Subsets spanning most of the population skip the gather: the
        anchor is batched against *every* member and the requested
        positions are sliced out afterwards. The surplus distances are
        discarded (never memoised or counted) — per-candidate terms are
        independent, so the kept values are bit-identical either way.
        """
        table = self._table
        flat = table.flat
        table.load(anchor_arrays, self._positions.get(id(anchor)))
        cw = self.config.compatibility_weight_coefficient
        cd = self.config.compatibility_disjoint_coefficient
        if 2 * len(positions) >= len(flat.lens):
            full = table.distances(
                anchor_arrays, table.key_ids, flat.f0, flat.f1,
                flat.c0, flat.c1, table.full_seg2,
                flat.node_lens, flat.conn_lens, cw, cd,
            )
            return full[positions]
        return table.distances(
            anchor_arrays, *table.gather(positions), cw, cd
        )

    def batch(
        self, anchor: "Genome", genomes: Sequence["Genome"]
    ) -> list[float]:
        """Distances anchor-vs-each-genome (memoised, batch-computed)."""
        out = [0.0] * len(genomes)
        pair_keys = [self._pair_key(anchor, g) for g in genomes]
        missing: list[int] = []
        duplicates: list[int] = []
        first_index: dict[tuple[int, int], int] = {}
        for i, key in enumerate(pair_keys):
            cached = self.distances.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                out[i] = cached
            elif key in first_index:
                # same pair listed twice in one batch: compute once,
                # tally a hit — matching the scalar cache's accounting
                self.stats.cache_hits += 1
                duplicates.append(i)
            else:
                first_index[key] = i
                missing.append(i)
        if missing:
            anchor_arrays = self._lower(anchor)
            missing_genomes = [genomes[i] for i in missing]
            positions = self._positions_for(missing_genomes)
            if positions is not None:
                dists = self._distances_flat(
                    anchor, anchor_arrays, positions
                )
                total_genes = int(self._table.flat.lens[positions].sum())
            else:
                cands = [self._lower(g) for g in missing_genomes]
                dists = batch_distance(anchor_arrays, cands, self.config)
                total_genes = sum(c.gene_count() for c in cands)
            values = dists.tolist()
            self.distances.update(
                zip((pair_keys[i] for i in missing), values)
            )
            self.stats.comparisons += len(missing)
            self.stats.genes_compared += (
                anchor_arrays.gene_count() * len(missing) + total_genes
            )
            if len(missing) == len(genomes):
                return values
            for i, d in zip(missing, values):
                out[i] = d
            for i in duplicates:
                out[i] = self.distances[pair_keys[i]]
        return out

    def __call__(self, genome1: "Genome", genome2: "Genome") -> float:
        return self.batch(genome1, [genome2])[0]


# -- brood mutation -----------------------------------------------------------


def _mutated_floats(genes, name, config, rng):
    values = np.fromiter(
        (getattr(gene, name) for gene in genes),
        dtype=np.float64,
        count=len(genes),
    )
    return mutate_float_array(
        values, rng, **float_mutation_params(config, name)
    )


def _mutate_categorical(genes, name, choices, rate, rng) -> None:
    if rate <= 0 or not genes:
        return
    mask = rng.random(len(genes)) < rate
    picks = rng.integers(0, len(choices), len(genes))
    for i in np.nonzero(mask)[0]:
        setattr(genes[i], name, choices[picks[i]])


def mutate_brood_attributes(
    genomes: Sequence["Genome"],
    config: "NEATConfig",
    rng: "np.random.Generator",
) -> None:
    """Batch the scalar-attribute mutation of a whole brood in place.

    The batched twin of calling :meth:`Genome.mutate_attributes` per
    child: every child's connection weights are updated in one
    vectorized draw, then enabled flags, then node attributes — draw
    order is fixed (genomes in given order, genes in sorted-key order)
    so a brood formed from the same seeded generator is deterministic
    regardless of where it is formed. Distributions match the scalar
    rules exactly; the draw-for-draw streams do not (documented in
    ``docs/genetics.md``).
    """
    _require_numpy()
    with obs.span("brood_mutate", children=len(genomes)):
        _mutate_brood_attributes(genomes, config, rng)


def _mutate_brood_attributes(
    genomes: Sequence["Genome"],
    config: "NEATConfig",
    rng: "np.random.Generator",
) -> None:
    conn_genes = [
        genome.connections[key]
        for genome in genomes
        for key in sorted(genome.connections)
    ]
    node_genes = [
        genome.nodes[key]
        for genome in genomes
        for key in sorted(genome.nodes)
    ]
    if conn_genes:
        # fixed draw order: one batched draw per attribute, then a
        # single fused write-back loop per gene family
        (weight_attr,) = ConnectionGene.FLOAT_ATTRS
        weights = _mutated_floats(conn_genes, weight_attr, config, rng)
        enabled = np.fromiter(
            (gene.enabled for gene in conn_genes),
            dtype=bool,
            count=len(conn_genes),
        )
        flags = mutate_bool_array(
            enabled, rng, config.enabled_mutate_rate
        )
        for gene, weight, flag in zip(
            conn_genes, weights.tolist(), flags.tolist()
        ):
            gene.weight = weight
            gene.enabled = flag
    if node_genes:
        bias_attr, response_attr = NodeGene.FLOAT_ATTRS
        biases = _mutated_floats(node_genes, bias_attr, config, rng)
        responses = _mutated_floats(
            node_genes, response_attr, config, rng
        )
        for gene, bias, response in zip(
            node_genes, biases.tolist(), responses.tolist()
        ):
            gene.bias = bias
            gene.response = response
        _mutate_categorical(
            node_genes, "activation", config.allowed_activations,
            config.activation_mutate_rate, rng,
        )
        _mutate_categorical(
            node_genes, "aggregation", config.allowed_aggregations,
            config.aggregation_mutate_rate, rng,
        )
