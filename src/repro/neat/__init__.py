"""From-scratch NEAT (NeuroEvolution of Augmenting Topologies).

Implements the algorithm of Stanley & Miikkulainen (2002) with the same
structure as the `neat-python` library the paper builds on:

* :mod:`repro.neat.genes` / :mod:`repro.neat.genome` — node and connection
  genes, crossover, the five mutation classes of the paper's Table III
  (add/delete connection, add/delete node, perturb weights).
* :mod:`repro.neat.innovation` — historical-marking bookkeeping so identical
  structural mutations receive identical gene identifiers.
* :mod:`repro.neat.species` — compatibility-distance speciation with fitness
  sharing.
* :mod:`repro.neat.reproduction` — generation planning (spawn counts, parent
  pools) separated from child formation, mirroring the paper's compute-block
  decomposition so the CLAN protocols can distribute each block.
* :mod:`repro.neat.population` — the generation loop (paper Fig 2a), for
  a whole population and for a CLAN_DDA clan alike.
* :mod:`repro.neat.network` — feed-forward network compilers: the scalar
  interpreter and the batched NumPy engine (see ``docs/backends.md``),
  plus the topology-keyed :class:`PlanCache` that lets weight-only
  children skip re-lowering.
* :mod:`repro.neat.vectorized` — the array-native genetics engine
  (batched speciation distances + brood attribute mutation), selected by
  ``NEATConfig.genetics = "vectorized"`` (see ``docs/genetics.md``).
"""

from repro.neat.config import NEATConfig
from repro.neat.genome import Genome
from repro.neat.innovation import InnovationTracker
from repro.neat.network import (
    BatchedFeedForwardNetwork,
    BatchedPlan,
    FeedForwardNetwork,
    PlanCache,
    compile_batched,
    structural_signature,
)
from repro.neat.population import GenerationStats, Population
from repro.neat.evaluation import FitnessResult, GenomeEvaluator
from repro.neat.checkpoint import load_population, save_population
from repro.neat.visualize import describe_genome, genome_to_dot

__all__ = [
    "NEATConfig",
    "Genome",
    "InnovationTracker",
    "FeedForwardNetwork",
    "BatchedFeedForwardNetwork",
    "BatchedPlan",
    "PlanCache",
    "compile_batched",
    "structural_signature",
    "Population",
    "GenerationStats",
    "FitnessResult",
    "GenomeEvaluator",
    "save_population",
    "load_population",
    "describe_genome",
    "genome_to_dot",
]
