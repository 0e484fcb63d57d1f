"""Recurrent network execution for NEAT genomes.

The CLAN workloads use feed-forward policies, but NEAT as published
evolves arbitrary digraphs; a complete library must be able to *run* a
genome with cycles. :class:`RecurrentNetwork` evaluates every node once
per activation using the node values of the previous time-step — the
standard discrete-time recurrent semantics of the original NEAT release —
so loops (including self-loops) become unit delays instead of errors.

Note the division of labour: :class:`~repro.neat.network.FeedForwardNetwork`
*rejects* cyclic genomes (and the mutation operators never create them when
evolving for the gym workloads); this class accepts any genome, acyclic
ones included, for which its output converges to the feed-forward result
after as many steps as the network has layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.neat.activations import get_activation
from repro.neat.aggregations import get_aggregation
from repro.neat.network import required_for_output

if TYPE_CHECKING:
    from repro.neat.config import NEATConfig
    from repro.neat.genome import Genome


class RecurrentNetwork:
    """Discrete-time recurrent evaluation of a genome.

    Every activation reads the *previous* step's node values, so the
    network carries state between calls; :meth:`reset` clears it (call it
    at episode boundaries).
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
        self._previous: dict[int, float] = {}
        self._current: dict[int, float] = {}
        self.reset()

    @classmethod
    def create(
        cls, genome: "Genome", config: "NEATConfig"
    ) -> "RecurrentNetwork":
        """Compile ``genome`` (cycles allowed) into a recurrent plan."""
        input_keys = config.input_keys  # a tuple built per access
        input_set = set(input_keys)
        enabled = [
            gene.key for gene in genome.connections.values() if gene.enabled
        ]
        required = required_for_output(
            input_keys, config.output_keys, enabled
        )
        incoming: dict[int, list[tuple[int, float]]] = {
            key: [] for key in required
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

        node_evals = []
        for key in sorted(required):
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

    def reset(self) -> None:
        """Zero all state (start of an episode)."""
        keys = [key for key, *_rest in self.node_evals]
        self._previous = {key: 0.0 for key in keys}
        self._current = dict(self._previous)
        for key in self.input_keys:
            self._previous[key] = 0.0
            self._current[key] = 0.0

    def activate(self, inputs: Sequence[float]) -> list[float]:
        """One synchronous time-step; returns output node values."""
        if len(inputs) != len(self.input_keys):
            raise ValueError(
                f"expected {len(self.input_keys)} inputs, got {len(inputs)}"
            )
        for key, value in zip(self.input_keys, inputs):
            self._previous[key] = float(value)
            self._current[key] = float(value)
        for key, activation, aggregation, bias, response, links in (
            self.node_evals
        ):
            node_inputs = [
                self._previous[src] * weight for src, weight in links
            ]
            self._current[key] = activation(
                bias + response * aggregation(node_inputs)
            )
        # commit the step: current becomes the next step's previous
        self._previous, self._current = self._current, dict(self._current)
        return [self._previous.get(key, 0.0) for key in self.output_keys]

    def policy(self, observation: Sequence[float]) -> int:
        """Greedy discrete policy over output activations."""
        outputs = self.activate(observation)
        best_index = 0
        best_value = outputs[0]
        for index, value in enumerate(outputs):
            if value > best_value:
                best_index = index
                best_value = value
        return best_index
