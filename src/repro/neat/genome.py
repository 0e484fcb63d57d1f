"""The NEAT genome: a unique collection of genes describing one network.

Implements the operations of the paper's Table III:

* **Crossover** — attributes picked from parents by relative fitness; genes
  aligned by historical marking (structural key).
* **Mutation** — add/delete connection, add/delete node, perturb weights.
* **Distance** — the compatibility metric used for speciation.

Genomes here are always feed-forward (the gym workloads use feed-forward
policies); structural mutation refuses to create cycles.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.neat.attributes import gaussians, new_floats
from repro.neat.genes import ConnectionGene, NodeGene
from repro.neat.innovation import InnovationTracker

if TYPE_CHECKING:
    from repro.neat.config import NEATConfig


def creates_cycle(
    connections: Iterable[tuple[int, int]], test: tuple[int, int]
) -> bool:
    """Would adding directed edge ``test`` create a cycle?

    ``connections`` are the existing directed edges. A self-loop always
    counts as a cycle.
    """
    in_node, out_node = test
    if in_node == out_node:
        return True
    # walk forward from out_node; a cycle exists iff we can reach in_node
    adjacency: dict[int, list[int]] = {}
    for a, b in connections:
        adjacency.setdefault(a, []).append(b)
    visited = {out_node}
    frontier = [out_node]
    while frontier:
        node = frontier.pop()
        if node == in_node:
            return True
        for nxt in adjacency.get(node, ()):
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
    return False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while genomes are built from
    nothing, then restore the caller's collector state.

    Genes, their dicts and their key tuples form no reference cycles,
    yet a population's worth of them triggers several full collections
    that find nothing. Use it only around construction from nothing
    (population birth, batch decode), never inside a generation: the
    collections it defers would then run outside every traced span.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Genome:
    """One member of the population: nodes + connections + fitness."""

    __slots__ = ("key", "nodes", "connections", "fitness")

    def __init__(self, key: int):
        self.key = key
        self.nodes: dict[int, NodeGene] = {}
        self.connections: dict[tuple[int, int], ConnectionGene] = {}
        self.fitness: float | None = None

    # -- construction -------------------------------------------------------

    def configure_new(self, config: "NEATConfig", rng: random.Random) -> None:
        """Initialise a minimal genome per ``config.initial_connection``.

        Draw-for-draw the per-gene birth: bias then response per output
        node, then one weight per connection in (input, output) order,
        each a clamped ``rng.gauss`` (see ``docs/genetics.md``). The
        connection keys are the config's shared key tuples.
        """
        output_keys = config.output_keys
        conn_keys = config.initial_connection_keys
        n_node_draws = 2 * len(output_keys)
        normals = gaussians(rng, n_node_draws + len(conn_keys))
        self.nodes = NodeGene.from_columns(
            output_keys,
            new_floats(
                normals[0:n_node_draws:2],
                config.bias_init_mean,
                config.bias_init_stdev,
                config.bias_min,
                config.bias_max,
            ),
            new_floats(
                normals[1:n_node_draws:2],
                config.response_init_mean,
                config.response_init_stdev,
                config.response_min,
                config.response_max,
            ),
            repeat(config.default_activation),
            repeat(config.default_aggregation),
        )
        self.connections = ConnectionGene.from_columns(
            conn_keys,
            new_floats(
                normals[n_node_draws:],
                config.weight_init_mean,
                config.weight_init_stdev,
                config.weight_min,
                config.weight_max,
            ),
            repeat(True),
        )

    def copy(self, new_key: int | None = None) -> "Genome":
        """Deep copy; fitness is *not* carried over unless key is kept."""
        clone = Genome(self.key if new_key is None else new_key)
        clone.nodes = {k: g.copy() for k, g in self.nodes.items()}
        clone.connections = {k: g.copy() for k, g in self.connections.items()}
        if new_key is None:
            clone.fitness = self.fitness
        return clone

    @classmethod
    def crossover(
        cls,
        key: int,
        parent1: "Genome",
        parent2: "Genome",
        rng: random.Random,
    ) -> "Genome":
        """Create a child from two parents.

        ``parent1`` must be the fitter parent (ties broken by the caller);
        matching genes mix attributes at random, disjoint and excess genes
        come from the fitter parent only (Stanley & Miikkulainen 2002).
        """
        if parent1.fitness is None or parent2.fitness is None:
            raise ValueError("both parents need an assigned fitness")
        if parent1.fitness < parent2.fitness:
            raise ValueError(
                "parent1 must be the fitter parent "
                f"({parent1.fitness} < {parent2.fitness})"
            )
        # iterate in sorted key order so the child is independent of the
        # parents' dict insertion history (e.g. after a wire round-trip)
        child = cls(key)
        for node_key in sorted(parent1.nodes):
            gene1 = parent1.nodes[node_key]
            gene2 = parent2.nodes.get(node_key)
            if gene2 is None:
                child.nodes[node_key] = gene1.copy()
            else:
                child.nodes[node_key] = gene1.crossover(gene2, rng)
        for conn_key in sorted(parent1.connections):
            gene1 = parent1.connections[conn_key]
            gene2 = parent2.connections.get(conn_key)
            if gene2 is None:
                child.connections[conn_key] = gene1.copy()
            else:
                child.connections[conn_key] = gene1.crossover(gene2, rng)
        return child

    # -- mutation ------------------------------------------------------------

    def mutate(
        self,
        config: "NEATConfig",
        rng: random.Random,
        innovation: InnovationTracker,
    ) -> None:
        """Apply the NEAT mutation suite in place.

        Structural mutations draw from ``rng`` first, attribute
        mutations second — the split methods below expose the two phases
        so the vectorized genetics engine can keep structure on this
        exact stream while batching the attribute updates elsewhere.
        """
        self.mutate_structural(config, rng, innovation)
        self.mutate_attributes(config, rng)

    def mutate_structural(
        self,
        config: "NEATConfig",
        rng: random.Random,
        innovation: InnovationTracker,
    ) -> None:
        """Apply only the add/delete node/connection mutations."""
        if config.single_structural_mutation:
            div = max(
                1.0,
                config.node_add_prob
                + config.node_delete_prob
                + config.conn_add_prob
                + config.conn_delete_prob,
            )
            r = rng.random()
            if r < config.node_add_prob / div:
                self.mutate_add_node(config, rng, innovation)
            elif r < (config.node_add_prob + config.node_delete_prob) / div:
                self.mutate_delete_node(config, rng)
            elif (
                r
                < (
                    config.node_add_prob
                    + config.node_delete_prob
                    + config.conn_add_prob
                )
                / div
            ):
                self.mutate_add_connection(config, rng)
            elif (
                r
                < (
                    config.node_add_prob
                    + config.node_delete_prob
                    + config.conn_add_prob
                    + config.conn_delete_prob
                )
                / div
            ):
                self.mutate_delete_connection(config, rng)
        else:
            if rng.random() < config.node_add_prob:
                self.mutate_add_node(config, rng, innovation)
            if rng.random() < config.node_delete_prob:
                self.mutate_delete_node(config, rng)
            if rng.random() < config.conn_add_prob:
                self.mutate_add_connection(config, rng)
            if rng.random() < config.conn_delete_prob:
                self.mutate_delete_connection(config, rng)

    def mutate_attributes(
        self, config: "NEATConfig", rng: random.Random
    ) -> None:
        """Apply only the per-gene scalar attribute mutations."""
        # sorted order keeps the RNG-to-gene mapping canonical regardless of
        # how the dicts were populated (fresh, crossover, or deserialised)
        for conn_key in sorted(self.connections):
            self.connections[conn_key].mutate(config, rng)
        for node_key in sorted(self.nodes):
            self.nodes[node_key].mutate(config, rng)

    def mutate_add_node(
        self,
        config: "NEATConfig",
        rng: random.Random,
        innovation: InnovationTracker,
    ) -> bool:
        """Split an enabled connection with a node (Table III: Add Node)."""
        enabled = [g for g in self.connections.values() if g.enabled]
        if not enabled:
            return False
        gene = rng.choice(sorted(enabled, key=lambda g: g.key))
        new_id = innovation.get_split_node_id(gene.key)
        if new_id in self.nodes:
            return False
        gene.enabled = False
        in_node, out_node = gene.key
        node = NodeGene.random(new_id, config, rng)
        self.nodes[new_id] = node
        # into-connection gets weight 1, out-connection inherits the weight,
        # preserving initial behaviour (original NEAT construction)
        self.connections[(in_node, new_id)] = ConnectionGene(
            (in_node, new_id), weight=1.0, enabled=True
        )
        self.connections[(new_id, out_node)] = ConnectionGene(
            (new_id, out_node), weight=gene.weight, enabled=True
        )
        return True

    def mutate_delete_node(
        self, config: "NEATConfig", rng: random.Random
    ) -> bool:
        """Remove a random hidden node and its incident connections."""
        output_keys = config.output_keys
        hidden = [k for k in self.nodes if k not in output_keys]
        if not hidden:
            return False
        node_key = rng.choice(sorted(hidden))
        del self.nodes[node_key]
        for conn_key in [
            k for k in self.connections if node_key in k
        ]:
            del self.connections[conn_key]
        return True

    def mutate_add_connection(
        self, config: "NEATConfig", rng: random.Random
    ) -> bool:
        """Connect two previously unconnected nodes (Table III: Add Conn)."""
        possible_outputs = sorted(self.nodes)
        possible_inputs = sorted(
            set(possible_outputs) | set(config.input_keys)
        )
        out_node = rng.choice(possible_outputs)
        in_node = rng.choice(possible_inputs)
        key = (in_node, out_node)
        if key in self.connections:
            # re-enable a disabled duplicate instead of stacking genes
            self.connections[key].enabled = True
            return False
        output_keys = config.output_keys
        if in_node in output_keys and out_node in output_keys:
            return False
        if creates_cycle(self.connections, key):
            return False
        self.connections[key] = ConnectionGene.random(key, config, rng)
        return True

    def mutate_delete_connection(
        self, config: "NEATConfig", rng: random.Random
    ) -> bool:
        """Remove a random connection gene (Table III: Delete Conn)."""
        if not self.connections:
            return False
        key = rng.choice(sorted(self.connections))
        del self.connections[key]
        return True

    # -- measurement ---------------------------------------------------------

    def distance(self, other: "Genome", config: "NEATConfig") -> float:
        """Compatibility distance (node term + connection term).

        Each term is ``(Cw * matching_attribute_distance + Cd * disjoint)
        / max_gene_count`` following the neat-python formulation the paper
        builds on.
        """
        node_distance = 0.0
        if self.nodes or other.nodes:
            disjoint = 0
            for key, other_gene in other.nodes.items():
                if key not in self.nodes:
                    disjoint += 1
            for key, gene in self.nodes.items():
                other_gene = other.nodes.get(key)
                if other_gene is None:
                    disjoint += 1
                else:
                    node_distance += gene.distance(other_gene, config)
            max_nodes = max(len(self.nodes), len(other.nodes))
            node_distance = (
                node_distance
                + config.compatibility_disjoint_coefficient * disjoint
            ) / max_nodes

        connection_distance = 0.0
        if self.connections or other.connections:
            disjoint = 0
            for key in other.connections:
                if key not in self.connections:
                    disjoint += 1
            for key, gene in self.connections.items():
                other_gene = other.connections.get(key)
                if other_gene is None:
                    disjoint += 1
                else:
                    connection_distance += gene.distance(other_gene, config)
            max_conns = max(len(self.connections), len(other.connections))
            connection_distance = (
                connection_distance
                + config.compatibility_disjoint_coefficient * disjoint
            ) / max_conns

        return node_distance + connection_distance

    def gene_count(self) -> int:
        """Total genes (the paper's communication/compute cost unit)."""
        return len(self.nodes) + len(self.connections)

    def complexity(self) -> tuple[int, int]:
        """(node count, enabled connection count)."""
        enabled = sum(1 for g in self.connections.values() if g.enabled)
        return (len(self.nodes), enabled)

    def max_node_id(self) -> int:
        """Largest node id present (innovation watermark)."""
        return max(self.nodes, default=-1)

    def __repr__(self) -> str:
        nodes, conns = self.complexity()
        return (
            f"Genome(key={self.key}, nodes={nodes}, enabled_conns={conns}, "
            f"fitness={self.fitness})"
        )
