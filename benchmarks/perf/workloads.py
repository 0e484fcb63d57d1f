"""The four workloads, as they run inside one fresh child process.

``run.py`` starts a child per measurement (clean RSS, plan caches and
fork state) and gives it a *mode*:

* ``setup`` - build the engine / runtime / fleet, report ``setup_s``,
  tear down;
* ``prefix`` - ``setup`` plus the first measurement window, so the
  parent can check that two processes with one seed walk the same
  trajectory;
* ``measure`` - the untraced run the end-to-end numbers come from:
  windows until ``--seconds`` is used up (or exactly ``windows`` of
  them, when it serves as the untraced reference of a traced run);
* ``traced`` - ``windows`` windows with the timing wrappers installed,
  plus the in-process probes; gives the per-layer numbers.

Every function returns a plain dict that ``run.py`` merges and prints.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import pickle
import random
import resource
import statistics
import time
from contextlib import nullcontext

from benchmarks.perf import adapter, calibrate, load, spec, tracing
from benchmarks.perf.stats import (
    INF,
    chain_digest,
    derive_seed,
    percentile,
    quiet_quartile,
    window_summary,
)

perf = time.perf_counter


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this (driver) process; Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, mode, windows, t_spawn, out_dir):
    recorder = tracing.Recorder() if mode == "traced" else None
    if workload in spec.LEARN:
        result = _learn(
            workload, seed, seconds, mode, windows, t_spawn, recorder
        )
    elif workload == "clans_async":
        result = _clans(seed, seconds, mode, windows, t_spawn, recorder)
    elif workload == "serve_fleet":
        result = asyncio.run(
            _serve(seed, seconds, mode, t_spawn, recorder)
        )
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    if recorder is not None:
        path = out_dir / f"{workload}-seed{seed}.trace.jsonl"
        result["trace_file"] = str(path)
        result["trace_spans"] = len(recorder.spans)
        result["trace_spans_written"] = tracing.write_jsonl(
            recorder.spans, path, track=workload
        )
    return result


# -- shared pieces -----------------------------------------------------------


def _generation_metrics(windows, generations_per_row: int) -> dict:
    """End-to-end numbers of an evolution workload from its windows.

    A window is ``(rows, speed factor)`` with one ``(wall_s,
    env_steps)`` row per generation (``generations_per_row`` of them
    when a row stands for one generation of every clan; the population
    is ``spec.POP_SIZE`` genomes either way). Requests and serving
    latency do not exist here, so the serving-side names carry the
    evolution-side quantity a user of this workload waits for - see
    the README's "what each metric means on each workload" table.
    """
    factors = [factor for _rows, factor in windows]
    walls = [sum(row[0] for row in rows) for rows, _f in windows]

    def rates(per_window):
        return window_summary(
            [
                per_window(rows) / wall
                for (rows, _f), wall in zip(windows, walls)
            ],
            factors,
        )

    def periods_ms(q):
        return window_summary(
            [
                percentile([row[0] * 1e3 for row in rows], q)
                for rows, _f in windows
            ],
            factors,
            rate=False,
        )

    p95 = periods_ms(95)
    return {
        "gens_per_s": rates(lambda rows: len(rows) * generations_per_row),
        "env_steps_per_s": rates(
            lambda rows: sum(row[1] for row in rows)
        ),
        # genome evaluations answered per second
        "served_qps": rates(lambda rows: len(rows) * spec.POP_SIZE),
        # how long a user waits for the next generation
        "latency_p50_ms": periods_ms(50),
        "latency_p95_ms": p95,
        # every generation replaces the population: no separate phase
        "churn_latency_p95_ms": p95,
    }


def _time_calls(fn, repeats: int = 7) -> float:
    """Median seconds of one ``fn()`` call."""
    samples = []
    for _ in range(repeats):
        start = perf()
        fn()
        samples.append(perf() - start)
    return statistics.median(samples)


def _payload_probes(genomes, champion, config, seed) -> dict:
    """Codec and single-plan probes on the workload's real payloads:
    the genomes it ships (a population, a clan, the champions) and the
    compiled plan of its champion."""
    from repro.cluster import serialization as wire
    from repro.neat.network import (
        BatchedFeedForwardNetwork,
        compile_batched,
    )

    genomes = list(genomes)
    genomes_wire = wire.encode_genomes(genomes)
    plan = compile_batched(champion, config)
    plan_wire = wire.encode_batched_plan(plan)
    network = BatchedFeedForwardNetwork(plan)
    rng = random.Random(derive_seed(seed, "probe-observations"))
    out = {
        "cluster.serialization.genomes_encode_s": _time_calls(
            lambda: wire.encode_genomes(genomes)
        ),
        "cluster.serialization.genomes_decode_s": _time_calls(
            lambda: wire.decode_genomes(genomes_wire)
        ),
        "cluster.serialization.genomes_bytes": len(genomes_wire),
        "cluster.serialization.plan_encode_s": _time_calls(
            lambda: wire.encode_batched_plan(plan)
        ),
        "cluster.serialization.plan_decode_s": _time_calls(
            lambda: wire.decode_batched_plan(plan_wire)
        ),
        "cluster.serialization.plan_bytes": len(plan_wire),
    }
    for batch in (8, 32):
        rows = load.observations(batch, config.num_inputs, rng)
        out[f"neat.network.policy_batch_us.b{batch}"] = 1e6 * _time_calls(
            lambda: network.policy_batch(rows), repeats=101
        )
    return out


def _oracle_check(env_id, neat_seed, genome, config, generation, reported):
    """Whether the scalar interpreter reproduces ``reported``, the
    fitness the fast cell gave ``genome`` in ``generation``.

    The two engines sum a node's inputs in different orders, so their
    outputs can differ in the last bit; on saturated outputs that flips
    an argmax and the episodes part ways. Such a run still passes, as
    ``"tie"``, when at the first step where the two engines choose
    different actions the outputs of the two choices tie to 1e-9 -
    until that step both saw the same observations.
    """
    from repro.envs import make, rollout
    from repro.neat.network import (
        BatchedFeedForwardNetwork,
        FeedForwardNetwork,
    )

    oracle = adapter.scalar_evaluator(env_id, neat_seed)
    scalar_fitness = oracle.evaluate(genome, config, generation).fitness
    if abs(scalar_fitness - reported) <= 1e-9:
        return "exact"
    scalar = FeedForwardNetwork.create(genome, config)
    batched = BatchedFeedForwardNetwork.create(genome, config)
    gaps = []

    def policy(observation):
        action = scalar.policy(observation)
        if not gaps:
            other = batched.policy(observation)
            if other != action:
                outputs = scalar.activate(observation)
                gaps.append(abs(outputs[action] - outputs[other]))
        return action

    rollout(make(env_id), policy, seed=oracle.episode_seed(generation, 0))
    return "tie" if gaps and gaps[0] <= 1e-9 else "MISMATCH"


def _neat_layers(totals: dict, plan_cache) -> dict:
    """Per-layer numbers of the in-process NEAT layers from the spans."""

    def own(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def note(name, key):
        return totals.get(name, {}).get("notes", {}).get(key, 0)

    return {
        "envs.vector.step_s": own("envs.vector.step"),
        "envs.vector.step_calls": calls("envs.vector.step"),
        "envs.vector.lane_steps": note("envs.vector.step", "lanes"),
        "envs.vector.reset_s": own("envs.vector.reset"),
        "neat.network.forward_s": own("neat.network.forward"),
        "neat.network.forward_calls": calls("neat.network.forward"),
        "neat.network.stack_s": own("neat.network.stack"),
        "neat.network.stack_calls": calls("neat.network.stack"),
        "neat.network.compile_s": own("neat.network.compile"),
        "neat.network.compile_calls": calls("neat.network.compile"),
        "neat.network.plan_cache_hit_ratio": (
            plan_cache.hit_rate if plan_cache is not None else 0.0
        ),
        "neat.evaluation.evaluate_many_self_s": own(
            "neat.evaluation.evaluate_many"
        ),
        "neat.evaluation.genomes": note(
            "neat.evaluation.evaluate_many", "genomes"
        ),
        "neat.species.speciate_s": own("neat.species.speciate"),
        "neat.species.comparisons": note(
            "neat.species.speciate", "comparisons"
        ),
        "neat.species.distance_cache_hits": note(
            "neat.species.speciate", "cache_hits"
        ),
        "neat.reproduction.plan_s": own("neat.reproduction.plan"),
        "neat.reproduction.execute_s": own("neat.reproduction.execute"),
        "neat.reproduction.children": note(
            "neat.reproduction.execute", "children"
        ),
    }


def _enough(started: float, seconds: float, done: int, windows) -> bool:
    """Stop rule of a run: a fixed window count when one is given
    (work fixed by the seed), the time budget otherwise."""
    if windows is not None:
        return done >= windows
    return perf() - started >= seconds


def _run_windows(one_window, seconds, windows, recorder, root):
    """Call ``one_window`` until the stop rule says so; in a traced run
    the wrappers are on and each window is a root span ``root``."""
    traced = recorder is not None
    started = perf()
    done = 0
    with tracing.installed(recorder) if traced else nullcontext():
        while not _enough(started, seconds, done, windows):
            with recorder.span(root) if traced else nullcontext():
                one_window()
            done += 1


# -- learn_small / learn_large -----------------------------------------------


def _learn(workload, seed, seconds, mode, windows, t_spawn, recorder):
    sizing = spec.LEARN[workload]
    env_id, window_gens = sizing["env_id"], sizing["window_gens"]
    neat_seed = derive_seed(seed, "neat")
    engine = adapter.learn_engine(env_id, neat_seed)
    out = {"setup_s": time.time() - t_spawn}
    if mode == "setup":
        return out
    if mode == "prefix":
        windows = 1

    measured = []  # (rows, speed factor) per window
    rows: list[tuple[float, int]] = []
    speed: list[float] = []
    chain: list[str] = []
    best = {"fitness": -INF, "generation": -1}
    last = [0.0]

    def on_generation(_engine, record):
        now = perf()
        steps = sum(agent.env_steps for agent in record.agent_loads)
        rows.append((now - last[0], steps))
        chain.append(
            chain_digest(
                chain[-1] if chain else "",
                record.best_fitness,
                record.mean_fitness,
                record.n_species,
            )
        )
        if record.best_fitness > best["fitness"]:
            best.update(
                fitness=record.best_fitness, generation=record.generation
            )
        # the machine's speed is sampled between generations, off the
        # generation's clock
        speed.extend(calibrate.burst(sizing["kernels_per_generation"]))
        last[0] = perf()

    def one_window():
        del rows[:], speed[:]
        speed.extend(calibrate.burst(3))
        last[0] = perf()
        engine.run(
            window_gens,
            fitness_threshold=adapter.NO_THRESHOLD,
            on_generation=on_generation,
        )
        measured.append((list(rows), calibrate.speed_factor(speed)))

    _run_windows(one_window, seconds, windows, recorder,
                 "core.protocols.run")
    rss_mb = peak_rss_mb()

    champion = engine.best_genome
    oracle = _oracle_check(
        env_id, neat_seed, champion, engine.config, best["generation"],
        engine.best_fitness,
    )
    out["checks"] = {
        "best_genome_reproduced_by_scalar_interpreter": (
            oracle != "MISMATCH"
            and engine.best_fitness == best["fitness"]
        ),
    }
    out["chain"] = chain
    out["attempted"] = len(chain)
    out["failed"] = 0
    out["metrics"] = _generation_metrics(measured, 1)
    out["metrics"]["peak_rss_mb"] = {"value": rss_mb}
    out["info"] = {
        "generations": len(chain),
        "best_fitness": engine.best_fitness,
        "scalar_oracle": oracle,
        "speed_factor": statistics.median(f for _rows, f in measured),
    }
    if recorder is not None:
        totals = tracing.layer_totals(recorder.spans)
        layers = _neat_layers(totals, engine.evaluator.plan_cache)
        layers["core.protocols.run_self_s"] = totals[
            "core.protocols.run"
        ]["self_s"]
        layers["attributed_share"] = tracing.attributed_share(
            totals, "core.protocols.run"
        )
        layers.update(
            _payload_probes(
                engine.population.genomes.values(),
                champion,
                engine.config,
                seed,
            )
        )
        out["layers"] = layers
    return out


# -- clans_async -------------------------------------------------------------


def _clan_state_digest(payload: dict) -> str:
    """One clan's state after a window, from its public checkpoint."""
    members = hashlib.sha256(payload["members_hex"].encode()).hexdigest()
    return "|".join(
        str(part)
        for part in (
            payload["clan_id"],
            payload["completed_generation"],
            payload["next_genome_key"],
            payload["next_node_id"],
            members,
            payload["best_hex"],
        )
    )


def _clans(seed, seconds, mode, windows, t_spawn, recorder):
    n_clans = spec.CLANS["n_clans"]
    window_gens = spec.CLANS["window_gens"]
    neat_seed = derive_seed(seed, "neat")
    started = perf()
    # forked before any wrapper is installed: nothing is wrapped inside
    # the clans
    runtime = adapter.clan_runtime(neat_seed)
    init_s = perf() - started
    out = {"setup_s": time.time() - t_spawn}
    if mode == "setup":
        runtime.shutdown()
        return out
    if mode == "prefix":
        windows = 1

    measured = []  # (rows, speed factor) per window
    chain: list[str] = []
    champions = []
    checks = {
        "every_clan_spends_its_budget": True,
        "one_report_per_clan_generation": True,
        "churn_counters_all_zero": True,
    }
    churn_total = {"deaths": 0, "respawns": 0}
    # the clans own both cores while they run, so the machine's speed
    # is sampled between windows, when they are idle
    speed = [calibrate.burst()]

    def one_window():
        begin = perf()
        stats = runtime.run_async(
            window_gens,
            fitness_threshold=adapter.NO_THRESHOLD,
            on_champion=champions.append,
        )
        wall = perf() - begin
        speed.append(calibrate.burst())
        # one row per generation of every clan; the clans report no
        # env steps
        measured.append(
            (
                [(wall / window_gens, 0)] * window_gens,
                calibrate.speed_factor(speed[-2] + speed[-1]),
            )
        )
        churn = stats.churn
        churn_total["deaths"] += churn.deaths
        churn_total["respawns"] += churn.respawns
        if stats.per_clan_generations != [window_gens] * n_clans:
            checks["every_clan_spends_its_budget"] = False
        if len(stats.best_fitness_per_generation) != window_gens * n_clans:
            checks["one_report_per_clan_generation"] = False
        if (
            churn.deaths or churn.respawns or churn.clans_lost
            or churn.lost_generations or churn.reassigned_generations
        ):
            checks["churn_counters_all_zero"] = False
        # report arrival order is not deterministic, each clan's own
        # walk is: the digest is kept per clan, from its checkpoint
        payloads = runtime.pool.broadcast(
            "clan_checkpoint", [None] * n_clans, timeout=30.0
        )
        chain.append(
            chain_digest(
                chain[-1] if chain else "",
                *(_clan_state_digest(p) for p in payloads),
            )
        )

    try:
        _run_windows(one_window, seconds, windows, recorder,
                     "cluster.runtime.run_async")
        begin = perf()
        best = runtime.best_genome()
        best_genome_s = perf() - begin
    finally:
        begin = perf()
        runtime.shutdown()
        shutdown_s = perf() - begin
    rss_mb = peak_rss_mb()

    # the global champion is the first event that reached the best
    # fitness; its clan evaluated it in ``generation`` under that
    # generation's episode seed, which the scalar oracle replays
    event = max(champions, key=lambda e: e.fitness)
    oracle = _oracle_check(
        spec.CLANS["env_id"], neat_seed, event.genome, runtime.config,
        event.generation, event.fitness,
    )
    checks["best_genome_reproduced_by_scalar_interpreter"] = (
        oracle != "MISMATCH" and best.fitness == event.fitness
    )
    out["checks"] = checks
    out["chain"] = chain
    out["attempted"] = len(measured) * window_gens * n_clans
    out["failed"] = 0
    metrics = _generation_metrics(measured, n_clans)
    # no env steps cross the pipe: episodes (one per genome evaluation)
    # stand in for them
    metrics["env_steps_per_s"] = metrics["served_qps"]
    metrics["peak_rss_mb"] = {"value": rss_mb}
    out["metrics"] = metrics
    out["info"] = {
        "generations_per_clan": len(measured) * window_gens,
        "best_fitness": best.fitness,
        "scalar_oracle": oracle,
        "speed_factor": statistics.median(f for _rows, f in measured),
    }
    if recorder is not None:
        probe = _worker_clan_probe(recorder, neat_seed)
        totals = tracing.layer_totals(recorder.spans)
        wait = totals.get("cluster.transport.wait_any", {})

        def total(name):
            return totals.get(name, {}).get("total_s", 0.0)

        # every neat-layer span of this process belongs to the probe
        layers = _neat_layers(totals, probe["clan"].evaluator.plan_cache)
        layers.update(
            {
                "cluster.runtime.init_s": init_s,
                "cluster.runtime.shutdown_s": shutdown_s,
                "cluster.runtime.best_genome_s": best_genome_s,
                "cluster.runtime.deaths": churn_total["deaths"],
                "cluster.runtime.respawns": churn_total["respawns"],
                "cluster.runtime.parallel_efficiency": (
                    metrics["gens_per_s"]["raw"]
                    / (n_clans * probe["gens_per_s"])
                ),
                "cluster.transport.wait_any_s": wait.get("self_s", 0.0),
                "cluster.transport.wait_any_calls": wait.get("calls", 0),
                "cluster.transport.send_calls": totals.get(
                    "cluster.transport.send", {}
                ).get("calls", 0),
                "cluster.transport.reports": wait.get("notes", {}).get(
                    "reports", 0
                ),
                "cluster.worker_clan.evaluate_s": total(
                    "neat.evaluation.evaluate_many"
                ),
                "cluster.worker_clan.speciate_s": total(
                    "neat.species.speciate"
                ),
                "cluster.worker_clan.reproduce_s": total(
                    "neat.reproduction.plan"
                ) + total("neat.reproduction.execute"),
                "cluster.worker_clan.checkpoint_payload_s": probe[
                    "checkpoint_s"
                ],
                "cluster.worker_clan.checkpoint_bytes": probe[
                    "checkpoint_bytes"
                ],
                "attributed_share": tracing.attributed_share(
                    totals, "cluster.runtime.run_async"
                ),
            }
        )
        members = list(probe["clan"].members.values())
        layers.update(
            _payload_probes(
                members,
                max(members, key=lambda g: g.gene_count()),
                probe["clan"].config,
                seed,
            )
        )
        out["layers"] = layers
    return out


def _worker_clan_probe(recorder, neat_seed) -> dict:
    """Clan 0's first generations through the public ``WorkerClan`` in
    this process, wrappers on: the layer split the forked clans cannot
    report, and the single-clan rate ``parallel_efficiency`` compares
    the asynchronous run with."""
    gens = spec.CLANS["probe_gens"]
    checkpoint_s = []
    with tracing.installed(recorder):
        clan = adapter.probe_clan(neat_seed)
        with recorder.span("cluster.worker_clan.probe"):
            begin = perf()
            for generation in range(gens):
                clan.run_generation(generation)
            wall = perf() - begin
            for _ in range(5):
                start = perf()
                payload = clan.checkpoint_payload()
                checkpoint_s.append(perf() - start)
    return {
        "clan": clan,
        "gens_per_s": gens / wall,
        "checkpoint_s": statistics.median(checkpoint_s),
        # what the pipe carries: Connection.send pickles the payload
        "checkpoint_bytes": len(pickle.dumps(payload)),
    }


# -- serve_fleet -------------------------------------------------------------


async def _publish_on_schedule(deploy, rotation, until) -> None:
    """One ``deploy`` per period until ``until``, walking the champion
    ``rotation``."""
    clock = asyncio.get_running_loop().time
    period = spec.SERVE["publish_period_s"]
    due = clock() + period
    while due < until:
        await asyncio.sleep(max(0.0, due - clock()))
        await deploy(next(rotation))
        due += period


def _spread_evenly(plans: dict) -> list:
    """``(kind, window)`` pairs ordered so that the windows of every
    kind are spread over the whole run. A spell of host contention
    lasts up to 20 s here; it then spoils a few windows of each kind
    instead of most windows of one."""
    slots = [
        ((i + 0.5) / len(windows), kind, window)
        for kind, windows in plans.items()
        for i, window in enumerate(windows)
    ]
    slots.sort(key=lambda slot: slot[0])
    return [(kind, window) for _position, kind, window in slots]


def _stale_serves(phase: load.PhaseResult, deployments) -> int:
    """Responses that carry a version older than the deployment every
    replica had acked before the request was even due. One publisher
    awaits each ack before the next publish, so ``deployments`` is in
    ack order and its versions rise."""
    acked_at = [done for _version, _begin, done in deployments]
    stale = 0
    for i in phase.answered():
        settled = bisect.bisect_left(acked_at, phase.due[i])
        if settled and phase.version[i] < deployments[settled - 1][0]:
            stale += 1
    return stale


def _parity(registry, phases, rng) -> dict:
    """Re-answer a seeded sample of requests with a fresh scalar
    interpreter of the champion version each response names.

    The batched engine sums a node's inputs in another order than the
    interpreter, so two outputs that tie to within rounding may rank
    differently; such a response is counted as a tie, not a mismatch.
    """
    answered = [(phase, i) for phase in phases for i in phase.answered()]
    sample = rng.sample(
        answered, min(spec.SERVE["parity_sample"], len(answered))
    )
    oracles = {}
    out = {"sampled": len(sample), "mismatches": 0, "ties": 0}
    for phase, i in sample:
        version = phase.version[i]
        if version not in oracles:
            oracles[version] = registry.record_for(
                version
            ).scalar_network()
        outputs = oracles[version].activate(phase.observation(i))
        chosen = outputs[phase.action[i]]
        if chosen == max(outputs):
            continue
        out["ties" if max(outputs) - chosen <= 1e-9 else "mismatches"] += 1
    return out


def _latency(windows, q: float) -> dict:
    """Percentile ``q`` of latency from due time per window; the
    lower-quartile window is reported."""
    return window_summary(
        [percentile(phase.latencies_ms(), q) for phase in windows],
        rate=False,
        pick=quiet_quartile,
    )


async def _serve(seed, seconds, mode, t_spawn, recorder):
    sizing = spec.SERVE
    clock = asyncio.get_running_loop().time
    # the fleet walks no trajectory, so its "prefix" is its set-up
    setup_only = mode in ("setup", "prefix")
    inputs_started = time.time()
    config = adapter.champion_config()
    # set-up needs only the first champion; the others join the churn
    champions = [
        adapter.champion(config, champion_seed, key=key)
        for key, champion_seed in enumerate(
            sizing["champion_seeds"][:1 if setup_only else None], 1
        )
    ]
    inputs_s = time.time() - inputs_started
    registry, fleet = adapter.registry_and_fleet(
        config, derive_seed(seed, "balancer")
    )
    begin = perf()
    # replicas fork here, before any wrapper is installed
    await fleet.start()
    start_s = perf() - begin
    deployments = []  # (version, published, acked by every replica)

    async def deploy(champion):
        begin = clock()
        record = registry.publish(champion)
        await fleet.wait_deployed()
        deployments.append((record.version, begin, clock()))

    await deploy(champions[0])
    # the champions are inputs drawn from the seed, not system set-up
    out = {"setup_s": time.time() - t_spawn - inputs_s}
    if setup_only:
        await fleet.close()
        registry.close()
        return out

    traced = recorder is not None
    shares = sizing["traced_shares" if traced else "shares"]
    rates = sizing["ladder_hz"] if traced else (sizing["steady_hz"],)
    width = sizing["open_window_s"]
    rng = random.Random(derive_seed(seed, "load"))
    # every request draws its observation from one seeded pool
    pool = load.observations(sizing["pool"], sizing["obs_dim"], rng)

    def windows_of(share, width_s):
        return max(1, round(share * seconds / width_s))

    def open_plan(rate, share):
        """The seeded arrival schedules of one open-loop phase, drawn
        before anything runs."""
        return [
            (load.poisson_schedule(rate, width, rng),
             rng.randrange(len(pool)))
            for _ in range(windows_of(share, width))
        ]

    closed_plan = [
        rng.randrange(len(pool))
        for _ in range(
            windows_of(shares["closed"], sizing["closed_window_s"])
        )
    ]
    steady_plan = {rate: open_plan(rate, shares["steady"]) for rate in rates}
    churn_plan = open_plan(sizing["churn_hz"], shares["churn"])

    # closed and steady windows all serve the first champion; a churn
    # window walks the others and ends on the first again
    rotation = itertools.cycle(champions[1:] + champions[:1])
    churn_deployments = []

    async def phases():
        closed, churn = [], []
        steady = {rate: [] for rate in rates}
        for kind, window in _spread_evenly(
            {"closed": closed_plan, "churn": churn_plan, **steady_plan}
        ):
            if kind == "closed":
                closed.append(
                    await load.closed_loop(
                        fleet.submit, pool, window,
                        sizing["closed_clients"],
                        sizing["closed_window_requests"],
                    )
                )
                continue
            schedule, base = window
            if kind != "churn":
                steady[kind].append(
                    await load.open_loop(fleet.submit, schedule, pool, base)
                )
                continue
            before = len(deployments)
            publisher = asyncio.ensure_future(
                _publish_on_schedule(deploy, rotation, clock() + width)
            )
            churn.append(
                await load.open_loop(fleet.submit, schedule, pool, base)
            )
            await publisher
            churn_deployments.extend(deployments[before:])
            # a publish that slipped past the window's end is made up
            # for off the clock, so the next window sees champion one
            while len(deployments) % len(champions) != 1:
                await deploy(next(rotation))
        return closed, steady, churn

    try:
        with tracing.installed(recorder) if traced else nullcontext():
            with (
                recorder.span("serve_fleet.phases") if traced
                else nullcontext()
            ):
                closed, steady, churn = await phases()
            replica_stats = await fleet.scrape()
        health = fleet.health()
        traces = fleet.version_traces()
    finally:
        begin = perf()
        await fleet.close()
        close_s = perf() - begin
    rss_mb = peak_rss_mb()

    main = steady[sizing["steady_hz"]]
    everything = [
        phase
        for windows in (closed, churn, *steady.values())
        for phase in windows
    ]
    parity = _parity(
        registry, everything, random.Random(derive_seed(seed, "parity"))
    )
    registry.close()
    offered = sum(phase.offered for phase in everything)
    shed = sum(phase.count(load.SHED) for phase in everything)
    failed = sum(phase.count(load.FAILED) for phase in everything)
    lateness_p95 = percentile(
        [ms for phase in main for ms in phase.lateness_ms()], 95
    )
    out["checks"] = {
        "sampled_responses_match_scalar_interpreter": (
            parity["mismatches"] == 0
        ),
        "replica_version_traces_monotone": all(
            list(trace) == sorted(trace) for trace in traces.values()
        ),
        "no_stale_version_served_under_churn": not any(
            _stale_serves(phase, deployments) for phase in churn
        ),
    }
    # nothing here is scaled by machine speed: the fleet's three
    # processes already contend for the two cores, and sizing runs
    # showed its raw numbers steadier than any scaled by calibrate.py
    out["metrics"] = {
        # champion generations deployed per second under churn: the
        # publisher only falls behind 1/period when deploys back up
        "gens_per_s": {
            "value": len(churn_deployments)
            / sum(phase.finished - phase.started for phase in churn)
        },
        # observations answered per second at the steady offered rate
        "env_steps_per_s": window_summary(
            [phase.answers_per_s() for phase in main]
        ),
        "peak_rss_mb": {"value": rss_mb},
        "served_qps": window_summary(
            [phase.answers_per_s() for phase in closed]
        ),
        "latency_p50_ms": _latency(main, 50),
        "latency_p95_ms": _latency(main, 95),
        "churn_latency_p95_ms": _latency(churn, 95),
    }
    out["attempted"] = offered
    out["failed"] = shed + failed
    out["info"] = {
        "parity": parity,
        "latency_samples": sum(phase.offered for phase in main),
        "churn_publishes": len(churn_deployments),
        "lateness_p95_ms": lateness_p95,
        "latency_valid": lateness_p95 < sizing["max_lateness_p95_ms"],
    }
    if traced:
        out["layers"] = _serve_layers(
            recorder, steady, everything, churn_deployments, replica_stats,
            health, offered, shed, failed,
        )
        out["layers"].update(
            {
                "serve.fleet.start_s": start_s,
                "serve.fleet.close_s": close_s,
                "loadgen.lateness_p95_ms": lateness_p95,
            }
        )
        out["layers"].update(
            _payload_probes(champions, champions[0], config, seed)
        )
    return out


def _serve_layers(
    recorder, steady, everything, deployments, replica_stats, health,
    offered, shed, failed,
) -> dict:
    sizing = spec.SERVE
    totals = tracing.layer_totals(recorder.spans)

    def pooled_ms(rate):
        return [
            ms for phase in steady[rate] for ms in phase.latencies_ms()
        ]

    latencies = pooled_ms(sizing["steady_hz"])
    deploy_ms = [(done - begin) * 1e3 for _v, begin, done in deployments]
    submit_ms = [
        phase.served_latency_s[i] * 1e3
        for phase in everything
        for i in phase.answered()
    ]
    histogram = replica_stats.batch_size_histogram
    batches = sum(histogram.values())
    # highest ladder rate that meets the SLO with no growing backlog
    slo_rate = 0.0
    for rate in sorted(steady):
        phases = steady[rate]
        answered = sum(phase.count(load.OK) for phase in phases)
        if (
            percentile(pooled_ms(rate), 95) <= sizing["slo_p95_ms"]
            and answered
            >= sizing["slo_served_share"]
            * sum(phase.offered for phase in phases)
            and not any(phase.backlog_grows() for phase in phases)
        ):
            slo_rate = rate
    publish = totals.get("serve.registry.publish", {})
    compile_ = totals.get("neat.network.compile", {})
    return {
        "neat.network.compile_s": compile_.get("self_s", 0.0),
        "neat.network.compile_calls": compile_.get("calls", 0),
        "serve.registry.publish_s": publish.get("self_s", 0.0),
        "serve.registry.publishes": publish.get("calls", 0),
        "serve.fleet.deploy_p50_ms": percentile(deploy_ms, 50),
        "serve.fleet.deploy_max_ms": max(deploy_ms),
        "serve.fleet.submit_p50_ms": percentile(submit_ms, 50),
        "serve.fleet.fleet_shed": health["fleet_shed"],
        "serve.fleet.retried": health["requests_retried"],
        "serve.fleet.respawns": health["replica_respawns"],
        "serve.batcher.replica_p50_ms": replica_stats.p50_latency_s * 1e3,
        "serve.batcher.replica_p95_ms": replica_stats.p95_latency_s * 1e3,
        "serve.batcher.mean_batch": (
            sum(size * n for size, n in histogram.items()) / batches
            if batches else 0.0
        ),
        "serve.batcher.shed": replica_stats.shed,
        "loadgen.offered": offered,
        "loadgen.served": offered - shed - failed,
        "loadgen.shed": shed,
        "loadgen.failed": failed,
        "loadgen.p99_ms": percentile(latencies, 99),
        "loadgen.p999_ms": percentile(latencies, 99.9),
        "loadgen.p95_ms.r2000": percentile(pooled_ms(2000.0), 95),
        "loadgen.p95_ms.r6000": percentile(pooled_ms(6000.0), 95),
        "loadgen.slo_rate_hz": slo_rate,
    }
