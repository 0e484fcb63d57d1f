#!/usr/bin/env python3
"""Quickstart: evolve a CartPole controller with serial NEAT.

The minimal end-to-end use of the library: build a config sized for a
workload, run the serial NEAT loop until the gym convergence criterion, and
replay the champion.

Run:  python examples/quickstart.py
"""

from repro.core import SerialNEAT
from repro.envs import make, rollout
from repro.neat import FeedForwardNetwork, NEATConfig
from repro.neat.statistics import sparkline, summarise
from repro.neat.visualize import describe_layers


def main() -> None:
    env_id = "CartPole-v0"
    config = NEATConfig.for_env(env_id, pop_size=100)
    # fitness = mean over 3 episodes, so champions generalise across
    # initial conditions instead of overfitting one seed
    engine = SerialNEAT(env_id, config=config, seed=7, episodes=3)

    print(f"evolving {env_id}: population {config.pop_size}, "
          f"solved at {engine.solved_threshold} points")
    result = engine.run(max_generations=40)

    for record in result.records:
        print(
            f"  generation {record.generation:2d}: "
            f"best {record.best_fitness:6.1f}  "
            f"mean {record.mean_fitness:6.1f}  "
            f"species {record.n_species}"
        )

    if not result.converged:
        print("did not converge within the generation budget")
        return

    champion = engine.best_genome
    nodes, connections = champion.complexity()
    print(
        f"\nconverged in {result.generations_to_converge} generations; "
        f"champion has {nodes} nodes / {connections} enabled connections"
    )
    print(describe_layers(champion, config))

    # the per-generation trend, read off the population's history
    history = engine.population.history
    fitness = [stats.best_fitness for stats in history]
    species = [stats.n_species for stats in history]
    best = summarise(fitness)
    print(f"\nbest fitness {sparkline(fitness)}  "
          f"[{best.first:.1f} -> {best.last:.1f}, peak {best.best:.1f}]")
    print(f"species      {sparkline(species)}  "
          f"[{species[0]} -> {species[-1]}]")

    network = FeedForwardNetwork.create(champion, config)
    env = make(env_id)
    for episode in range(3):
        outcome = rollout(env, network.policy, seed=1000 + episode)
        print(
            f"replay episode {episode}: reward {outcome.total_reward:.0f} "
            f"over {outcome.steps} steps"
        )


if __name__ == "__main__":
    main()
