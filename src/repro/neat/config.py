"""NEAT hyper-parameter configuration.

A single dataclass holds every knob, grouped to mirror the compute blocks of
the paper's Table III (genome/mutation, speciation, reproduction/generation
planning, stagnation). Defaults are the widely used neat-python settings
tuned for the gym control workloads; the paper stresses that NE
hyper-parameters "can remain unchanged across different tasks", and all
workloads here share these defaults (only input/output sizes change, via
:meth:`NEATConfig.for_env`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

from repro.neat.activations import ACTIVATIONS
from repro.neat.aggregations import AGGREGATIONS

#: genetics engines accepted by :attr:`NEATConfig.genetics`
GENETICS_ENGINES = ("scalar", "vectorized")


# Key layouts are built once per problem shape and shared: every genome
# born from a config holds these very tuples (and their int objects) as
# its gene keys, instead of a fresh copy per gene.
@cache
def _input_keys(num_inputs: int) -> tuple[int, ...]:
    return tuple(-(i + 1) for i in range(num_inputs))


@cache
def _output_keys(num_outputs: int) -> tuple[int, ...]:
    return tuple(range(num_outputs))


@cache
def _full_connection_keys(
    num_inputs: int, num_outputs: int
) -> tuple[tuple[int, int], ...]:
    outputs = _output_keys(num_outputs)
    return tuple(
        (in_key, out_key)
        for in_key in _input_keys(num_inputs)
        for out_key in outputs
    )


@dataclass
class NEATConfig:
    """All NEAT hyper-parameters.

    Instances are immutable by convention (use :meth:`evolve_with` to derive
    variants) and validated on construction.
    """

    # -- problem shape ----------------------------------------------------
    num_inputs: int = 4
    num_outputs: int = 2
    pop_size: int = 150  # paper: "a population size of 150 members"

    # -- genome initialisation ---------------------------------------------
    initial_connection: str = "full"  # "full" | "none"
    bias_init_mean: float = 0.0
    bias_init_stdev: float = 1.0
    weight_init_mean: float = 0.0
    weight_init_stdev: float = 1.0
    response_init_mean: float = 1.0
    response_init_stdev: float = 0.0
    default_activation: str = "tanh"
    default_aggregation: str = "sum"

    # -- mutation (paper Table III: the five mutation classes) -------------
    conn_add_prob: float = 0.25
    conn_delete_prob: float = 0.1
    node_add_prob: float = 0.05
    node_delete_prob: float = 0.02
    weight_mutate_rate: float = 0.8
    weight_replace_rate: float = 0.1
    weight_mutate_power: float = 0.8
    weight_min: float = -30.0
    weight_max: float = 30.0
    bias_mutate_rate: float = 0.7
    bias_replace_rate: float = 0.1
    bias_mutate_power: float = 0.5
    bias_min: float = -30.0
    bias_max: float = 30.0
    response_mutate_rate: float = 0.0
    response_replace_rate: float = 0.0
    response_mutate_power: float = 0.0
    response_min: float = -30.0
    response_max: float = 30.0
    enabled_mutate_rate: float = 0.01
    activation_mutate_rate: float = 0.0
    aggregation_mutate_rate: float = 0.0
    #: apply at most one structural mutation per genome per generation
    single_structural_mutation: bool = False

    # -- speciation ---------------------------------------------------------
    compatibility_threshold: float = 3.0
    compatibility_disjoint_coefficient: float = 1.0
    compatibility_weight_coefficient: float = 0.5

    # -- reproduction / generation planning ---------------------------------
    elitism: int = 2
    survival_threshold: float = 0.2
    min_species_size: int = 2
    crossover_prob: float = 0.75  # fraction of children from two parents

    # -- stagnation -----------------------------------------------------------
    max_stagnation: int = 15
    species_elitism: int = 2

    # -- execution ------------------------------------------------------------
    #: genetics engine: ``"scalar"`` runs speciation distances and
    #: attribute mutation gene-by-gene through ``random.Random`` (the
    #: bit-exact paper reference); ``"vectorized"`` lowers genomes to
    #: arrays and batches both through NumPy (see ``docs/genetics.md``).
    #: Orthogonal to the inference ``backend`` — this switch covers the
    #: evolution phase (Speciation + Reproduction blocks), not Inference.
    genetics: str = "scalar"

    # -- evaluation -----------------------------------------------------------
    fitness_criterion: str = "max"  # how population fitness is summarised
    allowed_activations: tuple[str, ...] = field(
        default_factory=lambda: ("tanh",)
    )
    allowed_aggregations: tuple[str, ...] = field(
        default_factory=lambda: ("sum",)
    )

    def __post_init__(self) -> None:
        if self.num_inputs < 1:
            raise ValueError("num_inputs must be >= 1")
        if self.num_outputs < 1:
            raise ValueError("num_outputs must be >= 1")
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if self.genetics not in GENETICS_ENGINES:
            known = ", ".join(GENETICS_ENGINES)
            raise ValueError(
                f"unknown genetics engine {self.genetics!r}; known: {known}"
            )
        if self.initial_connection not in ("full", "none"):
            raise ValueError(
                "initial_connection must be 'full' or 'none', got "
                f"{self.initial_connection!r}"
            )
        if not 0.0 <= self.survival_threshold <= 1.0:
            raise ValueError("survival_threshold must be in [0, 1]")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be in [0, 1]")
        if self.elitism < 0:
            raise ValueError("elitism must be >= 0")
        if self.min_species_size < 1:
            raise ValueError("min_species_size must be >= 1")
        if self.default_activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown default_activation {self.default_activation!r}"
            )
        if self.default_aggregation not in AGGREGATIONS:
            raise ValueError(
                f"unknown default_aggregation {self.default_aggregation!r}"
            )
        for name in self.allowed_activations:
            if name not in ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r} in allowed set")
        for name in self.allowed_aggregations:
            if name not in AGGREGATIONS:
                raise ValueError(
                    f"unknown aggregation {name!r} in allowed set"
                )

    # -- derivation helpers ---------------------------------------------------

    def evolve_with(self, **changes) -> "NEATConfig":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)

    @classmethod
    def for_env(cls, env_id: str, **overrides) -> "NEATConfig":
        """Build a config sized for a registered environment.

        Input count = observation dimension, output count = action count;
        everything else keeps the shared defaults (overridable).
        """
        from repro.envs.registry import workload_spec

        spec = workload_spec(env_id)
        params = {
            "num_inputs": spec.obs_dim,
            "num_outputs": spec.n_actions,
        }
        params.update(overrides)
        return cls(**params)

    @property
    def input_keys(self) -> tuple[int, ...]:
        """Node keys reserved for inputs: -1, -2, ... (neat-python scheme)."""
        return _input_keys(self.num_inputs)

    @property
    def output_keys(self) -> tuple[int, ...]:
        """Node keys reserved for outputs: 0 .. num_outputs - 1."""
        return _output_keys(self.num_outputs)

    @property
    def initial_connection_keys(self) -> tuple[tuple[int, int], ...]:
        """A newborn genome's connection keys, in birth draw order:
        every (input, output) pair, input-major, for ``"full"``;
        none for ``"none"``."""
        if self.initial_connection == "full":
            return _full_connection_keys(self.num_inputs, self.num_outputs)
        return ()
