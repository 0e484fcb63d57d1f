"""Compile a genome into an executable feed-forward network (the paper's
Inference block).

The compiler prunes nodes that cannot influence an output, topologically
orders the rest, and produces a flat evaluation plan so ``activate`` is a
tight loop. Policy helpers map network outputs to discrete gym actions.

Two backends, each with its own lowering of the same pruning and
node order:

* :class:`FeedForwardNetwork` — the scalar interpreter: one dict lookup
  and one Python call per gene per observation. Its gene-by-gene
  lowering (:func:`_evaluation_order`) is the reference (the oracle).
* The NumPy engine: an array-native lowering (:func:`compile_batched`,
  over the columnar genome arrays of :mod:`repro.neat.arrays`) groups
  the topological order into the layers of a :class:`BatchedPlan`. Two
  runners execute plans, because their needs conflict:
  :class:`BatchedFeedForwardNetwork` (serving, per-genome evaluation)
  re-lays one plan out for the fewest NumPy calls per layer;
  :class:`StackedPopulationNetwork` (population-mode learning) keeps
  plan slot order, so every learn trajectory stays bit-stable. Both
  match the interpreter to float64 rounding (tested at 1e-9).

A cross-generation :class:`PlanCache` keyed by
:func:`structural_signature` lets children that keep their parent's
topology re-use its lowered layout and pay only the value fill —
bit-identical to a fresh compile. With C connections a child keeps its
topology with probability ~0.99^C (``enabled_mutate_rate`` alone), so
the cache carries small genomes and the miss path carries large ones.
"""

from __future__ import annotations

import threading as _threading
from collections import OrderedDict as _OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.neat.activations import get_activation, get_batched_activation
from repro.neat.arrays import (
    _NAMES,
    GenomeArrays,
    _intern,
    _unpack_conn_keys,
    lower_genome,
)
from repro.neat.aggregations import (
    EMPTY_AGGREGATION,
    get_aggregation,
    get_batched_aggregation,
)

# numpy is a declared dependency, but the scalar interpreter must keep
# working on bare PYTHONPATH=src deployments (the paper's minimal edge
# install), so the batched engine degrades to a clear runtime error
# instead of an import failure
try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

if TYPE_CHECKING:
    from repro.neat.genome import Genome
    from repro.neat.config import NEATConfig


def required_for_output(
    inputs: Sequence[int],
    outputs: Sequence[int],
    connections: Sequence[tuple[int, int]],
) -> set[int]:
    """Nodes (incl. outputs) on some directed path ending at an output.

    Walks the connection graph backwards from the outputs; input keys are
    never included (their values are given, not computed).
    """
    incoming: dict[int, list[int]] = {}
    for in_node, out_node in connections:
        incoming.setdefault(out_node, []).append(in_node)
    required = set(outputs)
    frontier = list(outputs)
    input_set = set(inputs)
    while frontier:
        node = frontier.pop()
        for source in incoming.get(node, ()):
            if source not in required and source not in input_set:
                required.add(source)
                frontier.append(source)
    return required


def _evaluation_order(
    genome: "Genome", config: "NEATConfig"
) -> tuple[list[int], dict[int, list[tuple[int, float]]]]:
    """Prune and topologically order a genome's enabled graph.

    Returns ``(order, incoming)``: required non-input nodes in evaluation
    order, and per-node incoming ``(source, weight)`` links in canonical
    (sorted connection key) order. Raises ``ValueError`` if the enabled
    connection graph has a cycle or needs a node that has no gene (cannot
    happen for genomes mutated through :class:`Genome`, but deserialised
    or hand-built genomes are validated here).

    This is the scalar :class:`FeedForwardNetwork`'s lowering — the
    reference the array-native :func:`compile_batched` is tested against.
    """
    # the config properties build their tuples per access: read them once
    input_keys = config.input_keys
    input_set = set(input_keys)
    enabled = [
        gene.key for gene in genome.connections.values() if gene.enabled
    ]
    required = required_for_output(input_keys, config.output_keys, enabled)
    missing = required.difference(genome.nodes)
    if missing:
        raise _missing_node_error(min(missing), sorted(enabled))

    # group incoming links per required node; sorted iteration keeps
    # float summation order canonical across dict insertion histories
    incoming: dict[int, list[tuple[int, float]]] = {
        key: [] for key in sorted(required)
    }
    for conn_key in sorted(genome.connections):
        gene = genome.connections[conn_key]
        if not gene.enabled:
            continue
        in_node, out_node = gene.key
        if out_node not in required:
            continue
        if in_node not in required and in_node not in input_set:
            continue
        incoming[out_node].append((in_node, gene.weight))

    # Kahn's algorithm over required nodes
    pending = {
        key: sum(
            1 for (src, _w) in links if src not in input_set
        )
        for key, links in incoming.items()
    }
    order: list[int] = []
    ready = sorted(key for key, count in pending.items() if count == 0)
    dependents: dict[int, list[int]] = {}
    for key, links in incoming.items():
        for src, _w in links:
            if src not in input_set:
                dependents.setdefault(src, []).append(key)
    while ready:
        node = ready.pop()
        order.append(node)
        for dependent in dependents.get(node, ()):
            pending[dependent] -= 1
            if pending[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(required):
        raise ValueError(
            "genome's enabled connection graph contains a cycle"
        )
    return order, incoming


class FeedForwardNetwork:
    """Executable network: an ordered list of node evaluations.

    Not safe for concurrent use: ``activate`` writes into a per-instance
    value dict. Callers that need the scalar reference from several
    threads (e.g. serving parity checks) must build one instance per
    thread — compilation is cheap relative to an episode.
    """

    def __init__(
        self,
        input_keys: Sequence[int],
        output_keys: Sequence[int],
        node_evals: list[tuple],
    ):
        self.input_keys = tuple(input_keys)
        self.output_keys = tuple(output_keys)
        self.node_evals = node_evals
        self._values: dict[int, float] = {
            key: 0.0 for key in self.input_keys + self.output_keys
        }

    @classmethod
    def create(
        cls, genome: "Genome", config: "NEATConfig"
    ) -> "FeedForwardNetwork":
        """Compile ``genome`` into an evaluation plan.

        Raises ``ValueError`` if the enabled connection graph has a cycle
        (cannot happen for genomes mutated through :class:`Genome`, but
        deserialised or hand-built genomes are validated here).
        """
        order, incoming = _evaluation_order(genome, config)
        node_evals = []
        for key in order:
            node = genome.nodes[key]
            node_evals.append(
                (
                    key,
                    get_activation(node.activation),
                    get_aggregation(node.aggregation),
                    node.bias,
                    node.response,
                    incoming[key],
                )
            )
        return cls(config.input_keys, config.output_keys, node_evals)

    def activate(self, inputs: Sequence[float]) -> list[float]:
        """Run one forward pass; returns output node values in key order."""
        if len(inputs) != len(self.input_keys):
            raise ValueError(
                f"expected {len(self.input_keys)} inputs, got {len(inputs)}"
            )
        values = self._values
        for key, value in zip(self.input_keys, inputs):
            values[key] = float(value)
        for key, activation, aggregation, bias, response, links in (
            self.node_evals
        ):
            node_inputs = [values[src] * weight for src, weight in links]
            values[key] = activation(
                bias + response * aggregation(node_inputs)
            )
        return [self._values.get(key, 0.0) for key in self.output_keys]

    def policy(self, observation: Sequence[float]) -> int:
        """Greedy discrete policy: argmax over output activations."""
        outputs = self.activate(observation)
        best_index = 0
        best_value = outputs[0]
        for i, value in enumerate(outputs):
            if value > best_value:
                best_index = i
                best_value = value
        return best_index


# -- batched backend ----------------------------------------------------------


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "numpy is required for the batched inference backend; install "
            "numpy or use backend='scalar'"
        )


@dataclass
class LayerPlan:
    """One lowered layer: nodes whose sources are all already computed.

    ``weights`` is dense over every value slot; rows belonging to nodes with
    a non-``sum`` aggregation are all-zero and those nodes are instead listed
    in ``generic_nodes`` as ``(row, aggregation, source_slots, weights)``.
    ``act_groups`` partitions the layer's rows by activation function.
    """

    node_slots: "np.ndarray"  # (n,) int32 — target slot per node
    weights: "np.ndarray"  # (n, total_slots) float64
    bias: "np.ndarray"  # (n,) float64
    response: "np.ndarray"  # (n,) float64
    act_groups: list[tuple[str, "np.ndarray"]] = field(default_factory=list)
    generic_nodes: list[tuple[int, str, "np.ndarray", "np.ndarray"]] = field(
        default_factory=list
    )


@dataclass
class BatchedPlan:
    """A genome lowered to flat per-layer arrays (see :func:`compile_batched`).

    The plan is self-contained — evaluating it needs no genome or config —
    which is what lets :mod:`repro.cluster.serialization` ship compiled plans
    to workers so they skip recompilation.
    """

    input_keys: tuple[int, ...]
    output_keys: tuple[int, ...]
    total_slots: int
    output_slots: "np.ndarray"  # (n_out,) int32 — value slot per output key
    layers: list[LayerPlan] = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def _lowered(genome: "Genome | GenomeArrays") -> GenomeArrays:
    if isinstance(genome, GenomeArrays):
        return genome
    return lower_genome(genome)


def _enabled_rows(arrays: GenomeArrays) -> "np.ndarray":
    """Positions of the enabled ones among ``arrays``' connection rows."""
    return arrays.c0[arrays.n_nodes:].nonzero()[0]


def _signature(arrays: GenomeArrays, enabled, config: "NEATConfig") -> tuple:
    n = arrays.n_nodes
    return (
        config.num_inputs,
        config.num_outputs,
        arrays.keys[:n].tobytes(),
        arrays.c0[:n].tobytes(),
        arrays.c1[:n].tobytes(),
        arrays.keys[n:][enabled].tobytes(),
    )


def structural_signature(
    genome: "Genome | GenomeArrays", config: "NEATConfig"
) -> tuple:
    """Exact topology key of a genome's lowered plan.

    Two genomes with equal signatures compile to plans that differ only
    in their weight/bias/response values: the layout is fixed by the
    node set (with activations/aggregations), the *enabled* connection
    key set, and the problem shape — disabled connections do not count.
    The signature is the raw bytes of those columns of the genome's
    array lowering (not a hash), so cache lookups can never collide;
    activation/aggregation ids are interned per process, so signatures
    are only comparable within one.
    """
    _require_numpy()
    arrays = _lowered(genome)
    return _signature(arrays, _enabled_rows(arrays), config)


def _missing_node_error(node: int, enabled_keys) -> ValueError:
    """``node`` has to be computed but has no gene: name what needs it
    (a required node is an output or feeds an enabled connection)."""
    for key in enabled_keys:
        if key[0] == node:
            return ValueError(
                f"enabled connection {tuple(key)} reads node {node}, "
                "which is missing from genome.nodes"
            )
    return ValueError(f"output node {node} is missing from genome.nodes")


@dataclass
class _PlanSkeleton:
    """One topology's lowered layout, and where its values come from.

    Everything here is fixed by the :func:`structural_signature`;
    :meth:`fill` gathers one genome's values into it. Rows are the
    computed nodes in (layer, row-in-layer) order. Plans of one topology
    share the immutable layout arrays (``node_slots``, ``act_groups``,
    ``output_slots``, generic source slots) and own their value arrays.
    """

    input_keys: tuple[int, ...]
    output_keys: tuple[int, ...]
    total_slots: int
    output_slots: "np.ndarray"
    #: per row, its position among the genome's (sorted) node rows
    node_rows: "np.ndarray"
    #: dense-weight scatter ``weights[rows, cols] = link_weights[conns]``;
    #: ``conns`` index the genome's *enabled* connections, so genomes
    #: that differ only by disabled connections fill alike
    dense_rows: "np.ndarray"
    dense_cols: "np.ndarray"
    dense_conns: "np.ndarray"
    #: enabled-connection positions of every non-``sum`` node's links
    generic_conns: "np.ndarray"
    #: per layer ``(first row, end row, node_slots, act_groups, generic)``
    #: with ``generic`` rows ``(row in layer, aggregation, source slots,
    #: start, stop)`` slicing ``generic_conns``
    layers: list[tuple]

    def fill(self, arrays: GenomeArrays, enabled) -> BatchedPlan:
        """A fresh plan carrying ``arrays``' values."""
        n = arrays.n_nodes
        bias = arrays.f0[:n][self.node_rows]
        response = arrays.f1[:n][self.node_rows]
        link_weights = arrays.f0[n:][enabled]
        # one matrix for every layer, sliced by rows below; each
        # (row, col) pair is unique (one connection per source/target
        # pair), so the scatter needs no accumulation
        weights = np.zeros(
            (len(self.node_rows), self.total_slots), dtype=np.float64
        )
        weights[self.dense_rows, self.dense_cols] = link_weights[
            self.dense_conns
        ]
        generic_weights = link_weights[self.generic_conns]
        return BatchedPlan(
            input_keys=self.input_keys,
            output_keys=self.output_keys,
            total_slots=self.total_slots,
            output_slots=self.output_slots,
            layers=[
                LayerPlan(
                    node_slots=node_slots,
                    weights=weights[first:end],
                    bias=bias[first:end],
                    response=response[first:end],
                    act_groups=act_groups,
                    generic_nodes=[
                        (row, aggregation, slots, generic_weights[a:b])
                        for row, aggregation, slots, a, b in generic
                    ],
                )
                for first, end, node_slots, act_groups, generic in (
                    self.layers
                )
            ],
        )


class PlanCache:
    """Topology-keyed LRU of compiled-plan skeletons.

    Re-lowering a genome through :func:`compile_batched` repeats the
    pruning, topological sort and layer layout even when only weights
    changed. The cache keys each skeleton by
    :func:`structural_signature`, so a child that kept its parent's
    topology re-uses the layout and pays only the value fill. How often
    that happens depends on genome size: every connection flips its
    enabled flag with ``enabled_mutate_rate`` (0.01), so a child of C
    connections keeps its topology with probability ~0.99^C — ~0.9 hits
    on CartPole-sized genomes, ~0.25 on Atari-RAM ones (768
    connections), where the miss path is the hot path.

    Thread-safe: the serving registry publishes champions from the
    evolution thread while benchmarks compile on the main thread.
    Filled plans share the skeleton's immutable layout arrays but own
    their value arrays, and a hit runs the same fill a miss does, so
    cached re-compiles stay bit-identical to fresh ones (asserted by
    ``benchmarks/bench_genetics.py``).
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = _threading.Lock()
        #: signature -> skeleton, LRU order — guarded-by: _lock
        self._skeletons: "_OrderedDict[tuple, _PlanSkeleton]" = (
            _OrderedDict()
        )
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock

    def lookup(self, signature: tuple) -> _PlanSkeleton | None:
        """The skeleton for ``signature``, marking it most-recently-used."""
        with self._lock:
            skeleton = self._skeletons.get(signature)
            if skeleton is None:
                self._misses += 1
                return None
            self._skeletons.move_to_end(signature)
            self._hits += 1
            return skeleton

    def store(self, signature: tuple, skeleton: _PlanSkeleton) -> None:
        with self._lock:
            self._skeletons[signature] = skeleton
            self._skeletons.move_to_end(signature)
            while len(self._skeletons) > self.maxsize:
                self._skeletons.popitem(last=False)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups so far (0.0 before the first lookup)."""
        with self._lock:
            lookups = self._hits + self._misses
            return self._hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._skeletons)

    def clear(self) -> None:
        """Drop every skeleton (counters are kept)."""
        with self._lock:
            self._skeletons.clear()


def compile_batched(
    genome: "Genome | GenomeArrays",
    config: "NEATConfig",
    cache: PlanCache | None = None,
) -> BatchedPlan:
    """Lower a genome into a batched plan.

    Value slots are laid out as ``[inputs..., computed nodes in topological
    order...]``. Nodes are grouped into layers by longest path from the
    inputs, so each layer reads only slots written by earlier layers and the
    whole layer evaluates as one matmul (plus per-activation ufuncs).

    The compiler reads the genome's columnar lowering
    (:mod:`repro.neat.arrays`). Callers compiling a block of genomes
    lower it once and pass each genome's :class:`GenomeArrays` view; a
    plain :class:`Genome` is lowered on entry. Plans are self-contained:
    they hold no reference to the lowered buffers.

    ``cache`` (a :class:`PlanCache`) short-circuits the graph work for
    genomes whose topology was lowered before: the cached layout is
    filled with this genome's weight/bias/response values, exactly as a
    fresh compile fills the layout it just built.
    """
    _require_numpy()
    arrays = _lowered(genome)
    enabled = _enabled_rows(arrays)
    if cache is None:
        return _lay_out(arrays, enabled, config).fill(arrays, enabled)
    signature = _signature(arrays, enabled, config)
    skeleton = cache.lookup(signature)
    if skeleton is None:
        skeleton = _lay_out(arrays, enabled, config)
        cache.store(signature, skeleton)
    return skeleton.fill(arrays, enabled)


def _lay_out(
    arrays: GenomeArrays, enabled, config: "NEATConfig"
) -> _PlanSkeleton:
    """The compiler's graph work: prune, order, layer, index.

    Per-connection work is NumPy over the genome's slice. Only the
    per-node walk (reachability, Kahn order, longest-path levels) runs
    in Python, over the computed nodes and the few edges whose source
    is itself computed; it reproduces :func:`_evaluation_order`'s
    pruning and tie-breaks, so both backends evaluate nodes in one
    order. Raises ``ValueError`` on a cycle or a missing node gene.
    """
    n_in, n_out = config.num_inputs, config.num_outputs
    n = arrays.n_nodes
    node_keys = arrays.keys[:n].astype(np.int64)
    src, dst = _unpack_conn_keys(arrays.keys[n:][enabled])
    from_input = (src < 0) & (src >= -n_in)  # input keys are -1..-n_in
    inner = ~from_input
    # sorted by (source, target), like every connection column
    inner_edges = list(zip(src[inner].tolist(), dst[inner].tolist()))

    feeders: dict[int, list[int]] = {}
    for source, target in inner_edges:
        feeders.setdefault(target, []).append(source)
    frontier = list(range(n_out))
    required = set(frontier)
    while frontier:
        for source in feeders.get(frontier.pop(), ()):
            if source not in required:
                required.add(source)
                frontier.append(source)
    missing = required.difference(node_keys.tolist())
    if missing:
        raise _missing_node_error(
            min(missing), zip(src.tolist(), dst.tolist())
        )

    # Kahn's algorithm; ``ready`` starts in ascending key order and each
    # node's dependents are released in ascending key order
    pending = dict.fromkeys(sorted(required), 0)
    dependents: dict[int, list[int]] = {}
    for source, target in inner_edges:
        if target in pending:
            pending[target] += 1
            dependents.setdefault(source, []).append(target)
    ready = [key for key, count in pending.items() if count == 0]
    order: list[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for dependent in dependents.get(node, ()):
            pending[dependent] -= 1
            if pending[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(required):
        raise ValueError(
            "genome's enabled connection graph contains a cycle"
        )

    # longest-path layering: inputs are level 0; a node sits one past its
    # deepest source, so every source is computed before the node's layer
    level: dict[int, int] = {}
    for key in order:
        level[key] = 1 + max(
            (level[source] for source in feeders.get(key, ())), default=0
        )
    # rows: stable by level, so topological order within a layer; the
    # node at ``order[i]`` owns value slot ``n_in + i``
    by_level = sorted(range(len(order)), key=lambda i: level[order[i]])
    row_key_list = [order[i] for i in by_level]
    bounds = [
        row
        for row in range(1, len(order))
        if level[row_key_list[row]] != level[row_key_list[row - 1]]
    ]
    bounds = [0, *bounds, len(order)]
    row_keys = np.asarray(row_key_list, dtype=np.int64)
    node_slots = (n_in + np.asarray(by_level)).astype(np.int32)
    node_rows = np.searchsorted(node_keys, row_keys)
    by_key = np.argsort(row_keys)  # sorted computed key -> row
    sorted_keys = row_keys[by_key]

    def rows_of(keys):
        at = np.searchsorted(sorted_keys, keys)
        at[at == sorted_keys.size] = 0
        return at

    # edges into computed nodes; the walk above made each one's source
    # an input or a computed node
    at = rows_of(dst)
    kept = (sorted_keys[at] == dst).nonzero()[0]
    rows = by_key[at[kept]]
    cols = np.where(
        from_input[kept],
        -src[kept] - 1,
        node_slots[by_key[rows_of(src[kept])]],
    )

    activation_ids = arrays.c0[:n][node_rows].tolist()
    aggregation_ids = arrays.c1[:n][node_rows]
    generic_row = aggregation_ids != _intern("sum")
    is_generic = generic_row.tolist()
    if any(is_generic):
        # non-``sum`` nodes stay off the matmul: their links are grouped
        # by row, in connection-key order within a row
        dense = ~generic_row[rows]
        loose = (~dense).nonzero()[0]
        loose = loose[np.argsort(rows[loose], kind="stable")]
        link_counts = np.bincount(rows[loose], minlength=len(order))
        link_stops = np.cumsum(link_counts).tolist()
        generic_slots = cols[loose].astype(np.int32)
        generic_conns = kept[loose]
        rows, cols, kept = rows[dense], cols[dense], kept[dense]
    else:
        generic_conns = kept[:0]

    layers = []
    for first, end in zip(bounds, bounds[1:]):
        act_rows: dict[str, list[int]] = {}
        for row, name_id in enumerate(activation_ids[first:end]):
            act_rows.setdefault(_NAMES[name_id], []).append(row)
        generic = []
        for row in range(first, end):
            if is_generic[row]:
                b = link_stops[row]
                a = b - int(link_counts[row])
                aggregation = _NAMES[aggregation_ids[row]]
                generic.append(
                    (row - first, aggregation, generic_slots[a:b], a, b)
                )
        layers.append(
            (
                first,
                end,
                node_slots[first:end],
                [
                    (name, np.asarray(members, dtype=np.int32))
                    for name, members in sorted(act_rows.items())
                ],
                generic,
            )
        )
    return _PlanSkeleton(
        input_keys=config.input_keys,
        output_keys=config.output_keys,
        total_slots=n_in + len(order),
        # computed keys are >= 0, so the outputs 0..n_out-1 sort first
        output_slots=node_slots[by_key[:n_out]],
        node_rows=node_rows,
        dense_rows=rows,
        dense_cols=cols,
        dense_conns=kept,
        generic_conns=generic_conns,
        layers=layers,
    )


def _unless_unit(response: "np.ndarray") -> "np.ndarray | None":
    """``None`` (skip the exact multiply) when every response is 1.0."""
    # repro-lint: disable=RPR005 -- the skip is exact only at exactly 1.0
    return None if (response == 1.0).all() else response


class BatchedFeedForwardNetwork:
    """NumPy-backed network evaluating whole observation batches at once.

    Produces the same outputs as :class:`FeedForwardNetwork` (to float64
    rounding; the equivalence suite asserts 1e-9) while amortising Python
    dispatch over the batch dimension — the paper's Inference block at
    population scale.

    A serving batch is a few rows, so a pass costs its NumPy calls; the
    constructor re-lays a private copy of the plan to minimise them
    (``docs/backends.md``). Per layer: one matmul into the layer's own
    block of slot-major values, an add (a multiply unless every response
    is 1.0) and one in-place kernel per activation group.

    Safe for concurrent readers: the wrapped :class:`BatchedPlan` and the
    re-laid-out layers are never written after construction, and
    ``activate_batch`` allocates its value tensor per call. The serving
    registry (:mod:`repro.serve.registry`) relies on this to share one
    compiled champion across every in-flight batch.
    """

    def __init__(self, plan: BatchedPlan):
        _require_numpy()
        self.plan = plan
        self.input_keys = plan.input_keys
        self.output_keys = plan.output_keys
        n_in = len(plan.input_keys)
        layers = plan.layers
        # executor row i computes plan row ``order[i]`` (rows counted
        # across layers): layer by layer, rows grouped by activation
        order, starts, kernels = [], [n_in], []
        for layer in layers:
            local, at = [], [0]  # ``at``: where each group starts
            for _name, rows in layer.act_groups:
                local += rows.tolist()
                at.append(len(local))
            if sorted(local) != list(range(len(layer.node_slots))):
                raise ValueError(
                    "a plan layer's activation groups must partition its rows"
                )
            order += [starts[-1] - n_in + r for r in local]
            starts.append(starts[-1] + len(local))
            kernels.append([
                (get_batched_activation(name), a, b)
                for (name, _), a, b in zip(layer.act_groups, at, at[1:])
                if name != "identity"
            ])

        def gathered(column, empty):
            return np.concatenate(
                [empty, *(getattr(layer, column) for layer in layers)]
            )[order]

        total = starts[-1]
        # plan slot -> executor slot; -1 for a slot no layer writes
        relabel = np.full(plan.total_slots, -1, dtype=np.int64)
        relabel[:n_in] = np.arange(n_in)
        relabel[gathered("node_slots", np.zeros(0, np.int64))] = np.arange(
            n_in, total
        )
        weights = gathered("weights", np.zeros((0, plan.total_slots)))
        rows, cols = weights.nonzero()
        slots = relabel[cols]
        # a row may read only the slots written before its layer
        live = np.repeat(starts[:-1], np.diff(starts))
        generic_reads = [
            (start, relabel[src])
            for layer, start in zip(layers, starts)
            for _row, _agg, src, _w in layer.generic_nodes
        ]
        if (slots < 0).any() or (slots >= live[rows]).any() or any(
            ((src < 0) | (src >= start)).any() for start, src in generic_reads
        ):
            raise ValueError("a plan layer reads a slot not yet written")
        dense = np.zeros((total - n_in, total), dtype=np.float64)
        dense[rows, slots] = weights[rows, cols]
        response = gathered("response", np.zeros(0))[:, None]
        bias = gathered("bias", np.zeros(0))[:, None]
        position = np.argsort(order)  # plan row -> executor row
        self._layers = []
        for layer, start, stop, layer_kernels in zip(
            layers, starts, starts[1:], kernels
        ):
            first, end = start - n_in, stop - n_in
            generic = [
                (int(position[first + row]) - first,
                 get_batched_aggregation(agg), EMPTY_AGGREGATION[agg],
                 relabel[src_slots], link_weights)
                for row, agg, src_slots, link_weights in layer.generic_nodes
            ]
            self._layers.append((
                start, stop, dense[first:end, :start].copy(),
                _unless_unit(response[first:end]), bias[first:end],
                generic, layer_kernels,
            ))
        self._total_slots = total
        self._output_slots = relabel[plan.output_slots]
        if (self._output_slots < 0).any():
            raise ValueError("a plan output reads a slot no layer writes")

    @classmethod
    def create(
        cls,
        genome: "Genome",
        config: "NEATConfig",
        cache: "PlanCache | None" = None,
    ) -> "BatchedFeedForwardNetwork":
        """Compile ``genome`` into a lowered plan and wrap it.

        ``cache`` forwards to :func:`compile_batched`: a weight-only
        child of an already-compiled topology skips re-lowering.
        """
        return cls(compile_batched(genome, config, cache=cache))

    def activate_batch(self, observations) -> "np.ndarray":
        """Forward-pass a ``(batch, n_inputs)`` array.

        Returns a ``(batch, n_outputs)`` float64 array of output node
        values in output-key order.
        """
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2 or obs.shape[1] != len(self.input_keys):
            raise ValueError(
                f"expected (batch, {len(self.input_keys)}) observations, "
                f"got shape {obs.shape}"
            )
        # every slot is written before it is read: inputs here, the rest
        # by the layer that owns it
        values = np.empty((self._total_slots, len(obs)), dtype=np.float64)
        values[: obs.shape[1]] = obs.T
        for start, stop, weights, response, bias, generic, kernels in (
            self._layers
        ):
            out = values[start:stop]
            np.matmul(weights, values[:start], out=out)
            for row, reduce_fn, empty_value, src_slots, link_weights in (
                generic
            ):
                if src_slots.size == 0:
                    out[row] = empty_value
                else:
                    out[row] = reduce_fn(
                        values[src_slots].T * link_weights
                    )
            if response is not None:
                np.multiply(out, response, out=out)
            np.add(out, bias, out=out)
            for kernel, first, end in kernels:
                kernel(out[first:end])
        return values[self._output_slots].T

    def activate(self, inputs: Sequence[float]) -> list[float]:
        """Scalar-compatible single-observation forward pass."""
        if len(inputs) != len(self.input_keys):
            raise ValueError(
                f"expected {len(self.input_keys)} inputs, got {len(inputs)}"
            )
        return self.activate_batch([inputs])[0].tolist()

    def policy(self, observation: Sequence[float]) -> int:
        """Greedy discrete policy: argmax over output activations."""
        return int(self.policy_batch([observation])[0])

    def policy_batch(self, observations) -> "np.ndarray":
        """Greedy actions for a batch: ``(batch,)`` int64 array.

        ``argmax`` keeps the scalar policy's first-max tie-break.
        """
        return np.argmax(self.activate_batch(observations), axis=1)


class StackedPopulationNetwork:
    """Many genomes' batched plans stacked into one ragged super-batch.

    Topologies differ per genome, so the plans cannot share a single
    matmul — but they *can* share a batched one: layer ``l`` of every
    plan is padded to common dimensions and stacked into ``(genomes,
    rows, slots)`` tensors, and one ``np.matmul`` per layer then advances
    the whole population against per-genome observation batches. Padding
    is inert: padded weight rows are all-zero, write to a scratch slot no
    weight ever reads, and contribute exact IEEE-754 zeros to every sum,
    so each genome's outputs equal its own
    :class:`BatchedFeedForwardNetwork` up to summation order (the extra
    zero terms never change a partial sum; BLAS blocking over the padded
    width may still differ from the per-genome matmul at the ULP level —
    same caveat the batched backend already carries vs the interpreter).

    Nodes with a non-``sum`` aggregation fall off the stacked matmul and
    are evaluated per node (still vectorized over that genome's lanes),
    exactly as :class:`BatchedFeedForwardNetwork` handles them.
    """

    def __init__(self, plans: Sequence[BatchedPlan]):
        _require_numpy()
        if not plans:
            raise ValueError("need at least one plan to stack")
        n_in = len(plans[0].input_keys)
        n_out = len(plans[0].output_keys)
        for plan in plans:
            if (
                len(plan.input_keys) != n_in
                or len(plan.output_keys) != n_out
            ):
                raise ValueError(
                    "all stacked plans must share input/output arity"
                )
        self.n_genomes = len(plans)
        self.n_inputs = n_in
        self.n_outputs = n_out
        #: per-genome layer count; genome subsets truncate the stacked
        #: pass at their own maximum depth
        self._depths = np.asarray(
            [plan.n_layers for plan in plans], dtype=np.int64
        )
        depth = max(plan.n_layers for plan in plans)
        slots = max(plan.total_slots for plan in plans) + 1
        self.total_slots = slots
        scratch = slots - 1  # written by padded rows, read by no weight
        self._output_slots = np.stack(
            [plan.output_slots.astype(np.int64) for plan in plans]
        )

        self._layers = []
        for level in range(depth):
            width = max(
                len(plan.layers[level].node_slots)
                for plan in plans
                if level < plan.n_layers
            )
            weights_t = np.zeros(
                (self.n_genomes, slots, width), dtype=np.float64
            )
            bias = np.zeros((self.n_genomes, width), dtype=np.float64)
            # padded rows' pre-activation is 0 (or NaN) at any response
            response = np.ones_like(bias)
            node_slots = np.full(
                (self.n_genomes, width), scratch, dtype=np.int64
            )
            act_masks: dict[str, "np.ndarray"] = {}
            generic = []
            for g, plan in enumerate(plans):
                if level >= plan.n_layers:
                    continue
                layer = plan.layers[level]
                k = len(layer.node_slots)
                weights_t[g, : layer.weights.shape[1], :k] = layer.weights.T
                bias[g, :k] = layer.bias
                response[g, :k] = layer.response
                node_slots[g, :k] = layer.node_slots
                for name, rows in layer.act_groups:
                    mask = act_masks.get(name)
                    if mask is None:
                        mask = np.zeros(
                            (self.n_genomes, width), dtype=bool
                        )
                        act_masks[name] = mask
                    mask[g, rows] = True
                generic += [
                    (g, row, get_batched_aggregation(agg),
                     EMPTY_AGGREGATION[agg], src_slots, link_weights)
                    for row, agg, src_slots, link_weights in (
                        layer.generic_nodes
                    )
                ]
            act_ops = [
                (get_batched_activation(name), mask)
                for name, mask in sorted(act_masks.items())
            ]
            self._layers.append(
                (
                    weights_t, bias, _unless_unit(response),
                    node_slots, act_ops, generic,
                )
            )
        # the per-step views of ``_layers`` are built on first use and
        # cached; genome subsets too, since the evaluator's alive set only
        # shrinks a handful of times per rollout and re-slicing per step
        # would dominate the late (small) steps
        self._full_cache: tuple | None = None
        self._subset_key: "np.ndarray | None" = None
        self._subset_cache: tuple | None = None

    @classmethod
    def create(
        cls, genomes: Sequence["Genome"], config: "NEATConfig"
    ) -> "StackedPopulationNetwork":
        """Compile and stack a whole population of genomes."""
        return cls([compile_batched(g, config) for g in genomes])

    def activate_all(
        self, observations, genome_idx: "np.ndarray | None" = None
    ) -> "np.ndarray":
        """Forward-pass a ``(genomes, episodes, n_inputs)`` batch.

        Lane block ``g`` runs through genome ``g``'s network; returns a
        ``(genomes, episodes, n_outputs)`` float64 array. ``genome_idx``
        restricts the pass to a subset of genomes (the evaluator retires
        genomes whose lanes have all finished): observations then carry
        ``len(genome_idx)`` blocks and the result matches that subset.
        """
        return self._forward(observations, genome_idx).transpose(0, 2, 1)

    def _forward(self, observations, genome_idx: "np.ndarray | None"):
        """Run all layers; returns the output values, ``(active,
        outputs, episodes)``."""
        obs = np.asarray(observations, dtype=np.float64)
        n_active = (
            self.n_genomes if genome_idx is None else len(genome_idx)
        )
        if obs.ndim != 3 or obs.shape[0] != n_active or (
            obs.shape[2] != self.n_inputs
        ):
            raise ValueError(
                f"expected ({n_active}, episodes, {self.n_inputs}) "
                f"observations, got shape {obs.shape}"
            )
        episodes = obs.shape[1]
        values = np.zeros(
            (n_active, episodes, self.total_slots), dtype=np.float64
        )
        values[:, :, : self.n_inputs] = obs
        layers, (out_g, out_s) = self._resolve_subset(genome_idx)
        for weights_t, bias, response, g_flat, s_flat, act_ops, generic in (
            layers
        ):
            agg = np.matmul(values, weights_t)
            for i, row, reduce_fn, empty_value, src, link_w in generic:
                if src.size == 0:
                    agg[i, :, row] = empty_value
                else:
                    agg[i, :, row] = reduce_fn(values[i][:, src] * link_w)
            # pre = bias + response * agg, fused in place (bias and
            # response are pre-shaped (genomes, 1, width); an all-1.0
            # response is None: multiplying by it is exact, so skipped)
            if response is not None:
                np.multiply(agg, response, out=agg)
            np.add(agg, bias, out=agg)
            for activation, rows in act_ops:
                if rows is None:
                    activation(agg)
                else:
                    gi, ri = rows
                    agg[gi, :, ri] = activation(agg[gi, :, ri])
            values[g_flat, :, s_flat] = agg.transpose(0, 2, 1).reshape(
                -1, episodes
            )
        return values[out_g, :, out_s].reshape(n_active, self.n_outputs, -1)

    def _resolve_subset(self, genome_idx: "np.ndarray | None"):
        """``(layers, outputs)`` for ``genome_idx``, cached between calls.

        The population evaluator retires genomes as their lanes finish,
        so the alive set shrinks at most ``n_genomes`` times per rollout
        while ``activate_all`` runs every step; caching the sliced
        tensors keeps the slicing cost off the per-step path.
        """
        if genome_idx is None:
            if self._full_cache is None:
                self._full_cache = self._select(None)
            return self._full_cache
        if self._subset_key is None or not np.array_equal(
            genome_idx, self._subset_key
        ):
            self._subset_cache = self._select(genome_idx)
            self._subset_key = np.array(genome_idx, copy=True)
        return self._subset_cache

    def _select(self, genome_idx: "np.ndarray | None") -> tuple:
        """Per-layer tensors, with flat scatter indices (cheaper than
        ``np.put_along_axis``), and the flat output gather, for
        ``genome_idx`` (every genome, as views, when ``None``)."""
        if genome_idx is None:
            sel, n_active, depth = slice(None), self.n_genomes, None
            position = range(self.n_genomes)
        else:
            sel, n_active = genome_idx, len(genome_idx)
            depth = int(self._depths[genome_idx].max())
            position = {int(g): i for i, g in enumerate(genome_idx)}
        layers = []
        for weights_t, bias, response, node_slots, act_ops, generic in (
            self._layers[:depth]
        ):
            node_sub = node_slots[sel]
            layers.append(
                (
                    weights_t[sel],
                    bias[sel][:, None, :],
                    None if response is None else response[sel][:, None, :],
                    np.repeat(
                        np.arange(n_active, dtype=np.int64), node_sub.shape[1]
                    ),
                    node_sub.reshape(-1),
                    # a layer whose real rows share one activation applies
                    # it to the whole padded tensor (``None``): padded rows
                    # land in the scratch slot no weight reads
                    [
                        (activation, None if len(act_ops) == 1
                         else np.nonzero(mask[sel]))
                        for activation, mask in act_ops
                    ],
                    [
                        (position[g], row, fn, empty, src, link_w)
                        for g, row, fn, empty, src, link_w in generic
                        if g in position
                    ],
                )
            )
        return layers, (
            np.repeat(np.arange(n_active, dtype=np.int64), self.n_outputs),
            self._output_slots[sel].reshape(-1),
        )

    def policy_all(
        self, observations, genome_idx: "np.ndarray | None" = None
    ) -> "np.ndarray":
        """Greedy actions, ``(genomes, episodes)`` int64.

        ``argmax`` keeps the scalar policy's first-max tie-break (the
        output gather transposes to ``(genomes, outputs, episodes)``, so
        the argmax runs over axis 1 — same first-max semantics).
        """
        return np.argmax(self._forward(observations, genome_idx), axis=1)
