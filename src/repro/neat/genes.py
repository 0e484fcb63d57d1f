"""Node and connection genes.

Per the paper's Table II a *gene* is the basic NEAT building block — a
neuron (node gene) or a synapse (connection gene) — and the paper's cost
metric counts genes, each "a 32-bit datastructure". Both gene classes expose
:attr:`FLOAT_FIELDS`, the number of 32-bit words they occupy on the wire;
cost accounting in :mod:`repro.core.costs` and serialisation in
:mod:`repro.cluster.serialization` use it.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.neat.attributes import mutate_bool, mutate_float, new_float

if TYPE_CHECKING:
    from repro.neat.config import NEATConfig


class NodeGene:
    """A neuron: bias, response multiplier, activation and aggregation."""

    #: wire footprint in 32-bit words: key, bias, response, act id, agg id
    FLOAT_FIELDS = 5

    #: mutable float attributes; each name doubles as the config-knob
    #: prefix (``bias_mutate_rate``, ...) — the scalar mutation below and
    #: the brood-batched path in :mod:`repro.neat.vectorized` both
    #: resolve their parameters from this schema
    FLOAT_ATTRS = ("bias", "response")

    __slots__ = ("key", "bias", "response", "activation", "aggregation")

    def __init__(
        self,
        key: int,
        bias: float = 0.0,
        response: float = 1.0,
        activation: str = "tanh",
        aggregation: str = "sum",
    ):
        if key < 0:
            raise ValueError(
                f"node gene key must be >= 0 (inputs are implicit), got {key}"
            )
        self.key = key
        self.bias = bias
        self.response = response
        self.activation = activation
        self.aggregation = aggregation

    @classmethod
    def from_columns(
        cls,
        keys: Sequence[int],
        biases: Iterable[float],
        responses: Iterable[float],
        activations: Iterable[str],
        aggregations: Iterable[str],
    ) -> dict[int, "NodeGene"]:
        """Node genes built in bulk from attribute columns, keyed and
        ordered as ``keys``.

        The construction-from-nothing twin of ``__init__`` (population
        birth, the wire codec): keys are validated once per block and
        each gene is made with ``__new__`` plus attribute stores.
        """
        if keys and min(keys) < 0:
            bad = next(key for key in keys if key < 0)
            raise ValueError(
                f"node gene key must be >= 0 (inputs are implicit), got {bad}"
            )
        new = cls.__new__
        genes = {}
        for key, bias, response, activation, aggregation in zip(
            keys, biases, responses, activations, aggregations
        ):
            gene = new(cls)
            gene.key = key
            gene.bias = bias
            gene.response = response
            gene.activation = activation
            gene.aggregation = aggregation
            genes[key] = gene
        return genes

    @classmethod
    def random(
        cls, key: int, config: "NEATConfig", rng: random.Random
    ) -> "NodeGene":
        """Fresh node gene, attributes drawn from the init distributions."""
        return cls(
            key=key,
            bias=new_float(
                rng,
                config.bias_init_mean,
                config.bias_init_stdev,
                config.bias_min,
                config.bias_max,
            ),
            response=new_float(
                rng,
                config.response_init_mean,
                config.response_init_stdev,
                config.response_min,
                config.response_max,
            ),
            activation=config.default_activation,
            aggregation=config.default_aggregation,
        )

    def copy(self) -> "NodeGene":
        # bypasses __init__: the source gene is already validated, and
        # clone construction is the hottest allocation in reproduction
        clone = NodeGene.__new__(NodeGene)
        clone.key = self.key
        clone.bias = self.bias
        clone.response = self.response
        clone.activation = self.activation
        clone.aggregation = self.aggregation
        return clone

    def mutate(self, config: "NEATConfig", rng: random.Random) -> None:
        """Perturb the node's scalar attributes in place.

        Parameters are spelled out rather than routed through
        :func:`float_mutation_params` — building a kwargs dict per gene
        is measurable on this hot path (millions of calls per run).
        """
        self.bias = mutate_float(
            self.bias,
            rng,
            mutate_rate=config.bias_mutate_rate,
            replace_rate=config.bias_replace_rate,
            mutate_power=config.bias_mutate_power,
            init_mean=config.bias_init_mean,
            init_stdev=config.bias_init_stdev,
            low=config.bias_min,
            high=config.bias_max,
        )
        self.response = mutate_float(
            self.response,
            rng,
            mutate_rate=config.response_mutate_rate,
            replace_rate=config.response_replace_rate,
            mutate_power=config.response_mutate_power,
            init_mean=config.response_init_mean,
            init_stdev=config.response_init_stdev,
            low=config.response_min,
            high=config.response_max,
        )
        if (
            config.activation_mutate_rate > 0
            and rng.random() < config.activation_mutate_rate
        ):
            self.activation = rng.choice(config.allowed_activations)
        if (
            config.aggregation_mutate_rate > 0
            and rng.random() < config.aggregation_mutate_rate
        ):
            self.aggregation = rng.choice(config.allowed_aggregations)

    def crossover(self, other: "NodeGene", rng: random.Random) -> "NodeGene":
        """Create a child gene taking each attribute from a random parent."""
        if self.key != other.key:
            raise ValueError(
                f"cannot cross node genes with keys {self.key} != {other.key}"
            )
        # one draw per attribute, in this order (pinned by
        # tests/test_plan_golden.py); inline: this runs per gene per child
        draw = rng.random
        child = NodeGene.__new__(NodeGene)
        child.key = self.key
        child.bias = self.bias if draw() < 0.5 else other.bias
        child.response = (
            self.response if draw() < 0.5 else other.response
        )
        child.activation = (
            self.activation if draw() < 0.5 else other.activation
        )
        child.aggregation = (
            self.aggregation if draw() < 0.5 else other.aggregation
        )
        return child

    def distance(self, other: "NodeGene", config: "NEATConfig") -> float:
        """Attribute distance used by genome compatibility."""
        d = abs(self.bias - other.bias) + abs(self.response - other.response)
        if self.activation != other.activation:
            d += 1.0
        if self.aggregation != other.aggregation:
            d += 1.0
        return d * config.compatibility_weight_coefficient

    def __repr__(self) -> str:
        return (
            f"NodeGene(key={self.key}, bias={self.bias:.3f}, "
            f"act={self.activation})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NodeGene)
            and self.key == other.key
            and self.bias == other.bias
            and self.response == other.response
            and self.activation == other.activation
            and self.aggregation == other.aggregation
        )


_OUT_KEY = itemgetter(1)


class ConnectionGene:
    """A synapse: weight and enabled flag, keyed by (input, output) node."""

    #: wire footprint in 32-bit words: in key, out key, weight, enabled
    FLOAT_FIELDS = 4

    #: mutable float attributes (see :attr:`NodeGene.FLOAT_ATTRS`)
    FLOAT_ATTRS = ("weight",)

    __slots__ = ("key", "weight", "enabled")

    def __init__(
        self, key: tuple[int, int], weight: float = 0.0, enabled: bool = True
    ):
        in_node, out_node = key
        if out_node < 0:
            raise ValueError(
                f"connection cannot end at an input node: {key}"
            )
        self.key = (int(in_node), int(out_node))
        self.weight = weight
        self.enabled = enabled

    @classmethod
    def from_columns(
        cls,
        keys: Sequence[tuple[int, int]],
        weights: Iterable[float],
        enabled: Iterable[bool],
    ) -> dict[tuple[int, int], "ConnectionGene"]:
        """Connection genes built in bulk from columns, keyed and ordered
        as ``keys`` (see :meth:`NodeGene.from_columns`).

        ``keys`` must already be ``(int, int)`` tuples; each gene stores
        its key tuple itself, so callers that pass shared tuples (a
        config's key layout, a decoded batch's interned keys) get genes
        that share them.
        """
        if keys and min(map(_OUT_KEY, keys)) < 0:
            bad = next(key for key in keys if key[1] < 0)
            raise ValueError(
                f"connection cannot end at an input node: {bad}"
            )
        new = cls.__new__
        genes = {}
        for key, weight, on in zip(keys, weights, enabled):
            gene = new(cls)
            gene.key = key
            gene.weight = weight
            gene.enabled = on
            genes[key] = gene
        return genes

    @classmethod
    def random(
        cls,
        key: tuple[int, int],
        config: "NEATConfig",
        rng: random.Random,
    ) -> "ConnectionGene":
        """Fresh connection gene with a weight from the init distribution."""
        return cls(
            key=key,
            weight=new_float(
                rng,
                config.weight_init_mean,
                config.weight_init_stdev,
                config.weight_min,
                config.weight_max,
            ),
            enabled=True,
        )

    def copy(self) -> "ConnectionGene":
        # bypasses __init__ (key already normalised/validated) — see
        # NodeGene.copy
        clone = ConnectionGene.__new__(ConnectionGene)
        clone.key = self.key
        clone.weight = self.weight
        clone.enabled = self.enabled
        return clone

    def mutate(self, config: "NEATConfig", rng: random.Random) -> None:
        """Perturb weight / enabled flag (Table III: Perturb Weights).

        Parameters are spelled out for the same hot-path reason as
        :meth:`NodeGene.mutate`.
        """
        self.weight = mutate_float(
            self.weight,
            rng,
            mutate_rate=config.weight_mutate_rate,
            replace_rate=config.weight_replace_rate,
            mutate_power=config.weight_mutate_power,
            init_mean=config.weight_init_mean,
            init_stdev=config.weight_init_stdev,
            low=config.weight_min,
            high=config.weight_max,
        )
        self.enabled = mutate_bool(
            self.enabled, rng, config.enabled_mutate_rate
        )

    def crossover(
        self, other: "ConnectionGene", rng: random.Random
    ) -> "ConnectionGene":
        """Create a child gene taking each attribute from a random parent."""
        if self.key != other.key:
            raise ValueError(
                f"cannot cross connection genes {self.key} != {other.key}"
            )
        # one draw per attribute, in this order (see NodeGene.crossover)
        draw = rng.random
        child = ConnectionGene.__new__(ConnectionGene)
        child.key = self.key
        child.weight = self.weight if draw() < 0.5 else other.weight
        child.enabled = self.enabled if draw() < 0.5 else other.enabled
        return child

    def distance(
        self, other: "ConnectionGene", config: "NEATConfig"
    ) -> float:
        """Attribute distance used by genome compatibility."""
        d = abs(self.weight - other.weight)
        if self.enabled != other.enabled:
            d += 1.0
        return d * config.compatibility_weight_coefficient

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"ConnectionGene({self.key[0]}->{self.key[1]}, "
            f"w={self.weight:.3f}, {state})"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConnectionGene)
            and self.key == other.key
            and self.weight == other.weight
            and self.enabled == other.enabled
        )
