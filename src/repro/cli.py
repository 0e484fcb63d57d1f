"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points so a cluster operator
never needs to write Python:

* ``learn``      — evolve a workload on a modelled cluster (homogeneous or
  heterogeneous), optionally checkpointing the population.
* ``serve``      — run the continuous-learning inference service: clans
  evolve in the background while a micro-batching gateway answers
  synthetic Poisson traffic, hot-swapping champions mid-run.
* ``chaos``      — execute a deterministic fault plan against a learn or
  serve workload and report whether the healing machinery fully
  recovered (see ``docs/chaos.md``).
* ``model``      — replay one run through the execution-mode simulator
  (barrier / pipelined / async) and compare modelled wall-clock.
* ``inspect``    — summarise the champion genome of a checkpoint.
* ``scale``      — the Fig 9 scaling study (measure, fit, extrapolate).
* ``ppp``        — the Fig 11 price-performance table.
* ``platforms``  — the Table IV device registry.
* ``lint``       — the determinism & concurrency invariant linter
  (see ``docs/linting.md``).

Installed entry points: both ``clan-repro`` and the shorter ``repro``
dispatch here, matching the ``python -m repro`` invocations in the docs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.figures import fig9_extrapolation, fig11_ppp
from repro.analysis.report import render_extrapolation, render_platforms
from repro.analysis.tables import table4_platforms
from repro.cluster.analytic import ClusterSpec
from repro.cluster.device import available_devices
from repro.cluster.simulator import MODES as SIM_MODES
from repro.core.driver import ClanDriver
from repro.core.protocols import available_protocols
from repro.envs.registry import available_env_ids
from repro.neat.config import GENETICS_ENGINES
from repro.neat.evaluation import BACKENDS, EVAL_MODES
from repro.utils.fmt import format_seconds, format_table


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """Device-fleet options shared by ``learn`` and ``model``."""
    parser.add_argument(
        "--device",
        default="raspberry_pi",
        choices=available_devices(),
        help="device model every agent runs on (homogeneous fleet)",
    )
    parser.add_argument(
        "--devices",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated per-agent device models for a heterogeneous "
        "fleet; overrides --device and sets the agent count to the list "
        "length (e.g. jetson_nano,raspberry_pi,pi_zero)",
    )
    parser.add_argument(
        "--resync-period",
        type=int,
        default=None,
        metavar="K",
        help="CLAN_DDA only: gather, re-partition and redistribute all "
        "clans every K generations (the paper's periodic global "
        "speciation extension)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Trace/metrics export options shared by ``learn`` and ``serve``."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record evolve/serve tracing spans and write them as a "
        "JSONL event log (see docs/observability.md)",
    )
    parser.add_argument(
        "--chrome-trace",
        default=None,
        metavar="FILE",
        help="write the recorded spans as Chrome trace-event JSON — "
        "open the file at https://ui.perfetto.dev (one track per "
        "clan/replica)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the end-of-run measurements (run result; serving, "
        "churn and fleet health stats) in Prometheus text exposition "
        "format",
    )


def _activate_tracer(args):
    """Install a driver tracer when any span export was requested."""
    if not (args.trace_out or args.chrome_trace):
        return None
    from repro.obs import tracer as obs

    tracer = obs.Tracer(track="driver")
    obs.activate(tracer)
    return tracer


def _export_telemetry(args, tracer, **measurements) -> None:
    """Write whichever of the three telemetry sinks were requested;
    ``measurements`` are :func:`repro.obs.metrics.to_prometheus`'s."""
    from repro.obs import export

    if tracer is not None:
        from repro.obs import tracer as obs

        obs.deactivate()
        events = tracer.events()
        if args.trace_out:
            target = export.write_jsonl(events, args.trace_out)
            print(f"[trace event log saved to {target}]")
        if args.chrome_trace:
            target = export.write_chrome_trace(
                events, args.chrome_trace, dropped=tracer.dropped
            )
            print(
                f"[chrome trace saved to {target}; open it at "
                "https://ui.perfetto.dev]"
            )
    if args.metrics_out:
        from repro.obs.metrics import to_prometheus

        target = export.write_prometheus(
            to_prometheus(**measurements), args.metrics_out
        )
        print(f"[prometheus metrics saved to {target}]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CLAN: collaborative neuroevolution on edge clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="evolve a workload on a cluster")
    learn.add_argument("env", choices=available_env_ids())
    learn.add_argument(
        "--protocol", default="CLAN_DDA", choices=available_protocols()
    )
    learn.add_argument("--agents", type=int, default=8)
    learn.add_argument("--pop", type=int, default=100)
    learn.add_argument("--generations", type=int, default=50)
    learn.add_argument("--seed", type=int, default=0)
    _add_fleet_arguments(learn)
    learn.add_argument(
        "--sim-mode",
        default="analytic",
        choices=("analytic",) + SIM_MODES,
        help="timing model for the learning report: the closed-form "
        "analytic phase model, or the event-driven simulator in barrier, "
        "pipelined or barrier-free async execution (async requires "
        "CLAN_DDA or Serial; see docs/asynchrony.md)",
    )
    learn.add_argument(
        "--backend",
        default="scalar",
        choices=BACKENDS,
        help="inference engine: the scalar interpreter or the batched "
        "NumPy engine (equivalent to float64 rounding; see "
        "docs/backends.md)",
    )
    learn.add_argument(
        "--eval-mode",
        default="per_genome",
        choices=EVAL_MODES,
        help="how each agent evaluates its genome block: one genome at "
        "a time (the bit-exact reference) or one vectorized population "
        "sweep over the array-native environment (requires --backend "
        "batched; see docs/vectorization.md)",
    )
    learn.add_argument(
        "--genetics",
        default="scalar",
        choices=GENETICS_ENGINES,
        help="evolution-phase engine: gene-by-gene scalar genetics (the "
        "bit-exact paper reference) or array-native batched speciation "
        "distances + brood mutation (same speciation partition, "
        "distribution-equivalent mutation; see docs/genetics.md)",
    )
    learn.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="fitness threshold (default: the gym convergence criterion)",
    )
    learn.add_argument(
        "--checkpoint",
        default=None,
        help="write the final population to this JSON file",
    )
    learn.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="stream a crash-resumable checkpoint (engine state + run "
        "manifest, atomically written and checksummed) to this directory "
        "after every generation (every protocol; see "
        "docs/fault_tolerance.md)",
    )
    learn.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous --checkpoint-dir run from its latest "
        "checkpoint; the continuation is bit-identical to a run that "
        "never stopped",
    )
    _add_telemetry_arguments(learn)

    serve = sub.add_parser(
        "serve",
        help="serve a continuously evolving champion under synthetic "
        "load (evolve->deploy loop with mid-traffic hot-swaps)",
    )
    serve.add_argument("env", choices=available_env_ids())
    serve.add_argument(
        "--clans", type=int, default=2,
        help="background clan workers evolving the champion",
    )
    serve.add_argument("--pop", type=int, default=24)
    serve.add_argument(
        "--generations", type=int, default=30,
        help="per-clan local generation budget for the background run",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--rate", type=float, default=300.0, metavar="QPS",
        help="open-loop Poisson arrival rate of the synthetic load",
    )
    serve.add_argument(
        "--requests", type=int, default=600,
        help="total synthetic requests to offer",
    )
    serve.add_argument(
        "--max-batch", type=int, default=None,
        help="most requests coalesced into one forward pass (default: "
        "the serving library's DEFAULT_MAX_BATCH)",
    )
    serve.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="gateway replica processes (1 = single in-process "
        "gateway; >1 runs a ServingFleet behind a seeded balancer "
        "with champion propagation over pipes)",
    )
    serve.add_argument(
        "--max-replica-respawns", type=int, default=2, metavar="N",
        help="times a dead gateway replica is respawned (with backoff "
        "and deployment catch-up) before being abandoned; 0 restores "
        "the pre-healing fail-fast behaviour (see docs/chaos.md)",
    )
    serve.add_argument(
        "--client-retries", type=int, default=0, metavar="N",
        help="times the load generator retries a shed or replica-death "
        "failure before counting the request as shed/failed",
    )
    serve.add_argument(
        "--threshold", type=float, default=None,
        help="halt background evolution at this fitness (default: the "
        "gym convergence criterion; serving continues either way)",
    )
    serve.add_argument(
        "--max-respawns", type=int, default=2, metavar="N",
        help="times a dead/hung clan worker is respawned from its "
        "latest checkpoint before being abandoned (see "
        "docs/fault_tolerance.md)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=30.0, metavar="SECONDS",
        help="longest a clan may go without reporting before it is "
        "presumed hung and respawned; 0 disables stall detection",
    )
    serve.add_argument(
        "--checkpoint-period", type=int, default=1, metavar="K",
        help="clan generations between streamed recovery checkpoints "
        "(1 = every generation)",
    )
    _add_telemetry_arguments(serve)

    chaos = sub.add_parser(
        "chaos",
        help="run a deterministic fault plan against a learn or serve "
        "workload and report whether the healing machinery fully "
        "recovered (see docs/chaos.md)",
    )
    chaos.add_argument("env", choices=available_env_ids())
    chaos.add_argument(
        "--workload", default="learn", choices=("learn", "serve"),
        help="what to inject into: a distributed clan run (real worker "
        "processes) or a serving fleet under Poisson load",
    )
    chaos.add_argument(
        "--plan", default=None, metavar="FILE",
        help="JSON fault plan to execute (schema in docs/chaos.md)",
    )
    chaos.add_argument(
        "--fault", action="append", default=[], metavar="SPEC",
        help="inline fault spec "
        "'action,scope=S[,target=N][,kind=K][,at=N][,value=X]', e.g. "
        "'kill,scope=worker,target=1,kind=clan_run,at=2'; repeatable, "
        "appended to any --plan faults",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed for fault payload randomness such as corrupt bit "
        "flips (a --plan file's own seed wins)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--clans", type=int, default=2,
        help="learn workload: clan worker processes",
    )
    chaos.add_argument(
        "--pop", type=int, default=24,
        help="learn workload: population size",
    )
    chaos.add_argument(
        "--generations", type=int, default=4,
        help="learn workload: generation budget",
    )
    chaos.add_argument(
        "--replicas", type=int, default=2,
        help="serve workload: gateway replica processes",
    )
    chaos.add_argument(
        "--rate", type=float, default=400.0, metavar="QPS",
        help="serve workload: Poisson arrival rate",
    )
    chaos.add_argument(
        "--requests", type=int, default=200,
        help="serve workload: total requests to offer",
    )
    chaos.add_argument(
        "--publishes", type=int, default=2,
        help="serve workload: deployments spread across the traffic "
        "window (the first lands before any request)",
    )
    chaos.add_argument(
        "--json", default=None, metavar="FILE", dest="json_path",
        help="also write the full outcome as JSON",
    )

    inspect = sub.add_parser(
        "inspect", help="describe the champion of a checkpoint"
    )
    inspect.add_argument("checkpoint")
    inspect.add_argument(
        "--dot", action="store_true", help="emit Graphviz DOT instead"
    )

    scale = sub.add_parser("scale", help="Fig 9 scaling study")
    scale.add_argument("env", choices=available_env_ids())
    scale.add_argument("--single-step", action="store_true")
    scale.add_argument("--pop", type=int, default=60)
    scale.add_argument("--generations", type=int, default=5)
    scale.add_argument("--seed", type=int, default=0)

    ppp = sub.add_parser("ppp", help="Fig 11 price-performance table")
    ppp.add_argument("env", choices=available_env_ids())
    ppp.add_argument("--pop", type=int, default=60)
    ppp.add_argument("--generations", type=int, default=5)
    ppp.add_argument("--seed", type=int, default=0)

    model = sub.add_parser(
        "model",
        help="compare execution modes (barrier/pipelined/async) for a run",
    )
    model.add_argument("env", choices=available_env_ids())
    model.add_argument(
        "--protocol", default="CLAN_DDA", choices=available_protocols()
    )
    model.add_argument("--agents", type=int, default=8)
    model.add_argument("--pop", type=int, default=60)
    model.add_argument("--generations", type=int, default=5)
    model.add_argument("--seed", type=int, default=0)
    _add_fleet_arguments(model)
    model.add_argument(
        "--sim-mode",
        default="all",
        choices=("all",) + SIM_MODES,
        help="which execution mode(s) to simulate (default: every mode "
        "the protocol supports)",
    )

    sub.add_parser("platforms", help="Table IV device registry")

    lint = sub.add_parser(
        "lint",
        help="check determinism & concurrency invariants "
        "(RPR rules; see docs/linting.md)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the src/ tree "
        "if present, else the installed repro package)",
    )
    lint.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (e.g. RPR001,RPR004); "
        "default: every rule",
    )
    lint.add_argument(
        "--json", default=None, metavar="FILE", dest="json_path",
        help="also write the findings report as JSON (benchmark-report "
        "provenance shape) to this file",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list suppressed findings with their reasons",
    )
    return parser


#: protocols whose generation records the barrier-free simulator accepts
#: (clans evolve locally; no centre-side evolution phases)
_ASYNC_PROTOCOLS = ("CLAN_DDA", "Serial")


def _validate_fleet(args) -> int | None:
    """Common --devices / --resync-period validation; exit code on error."""
    if args.devices is not None:
        names = [n.strip() for n in args.devices.split(",") if n.strip()]
        known = available_devices()
        unknown = [n for n in names if n not in known]
        if not names or unknown:
            print(
                f"--devices needs a comma-separated list from "
                f"{', '.join(known)}"
                + (f" (unknown: {', '.join(unknown)})" if unknown else ""),
                file=sys.stderr,
            )
            return 2
        args.devices = names
        args.agents = len(names)
    if args.resync_period is not None:
        if args.resync_period < 1:
            print("--resync-period must be >= 1", file=sys.stderr)
            return 2
        if args.protocol != "CLAN_DDA":
            print(
                "--resync-period is a CLAN_DDA extension (periodic global "
                f"speciation); {args.protocol} has no clans to resync",
                file=sys.stderr,
            )
            return 2
    if (
        getattr(args, "sim_mode", None) == "async"
        and args.protocol not in _ASYNC_PROTOCOLS
    ):
        print(
            f"--sim-mode async models barrier-free clans; {args.protocol} "
            "generations synchronise on the centre (use CLAN_DDA)",
            file=sys.stderr,
        )
        return 2
    if args.protocol == "Serial" and args.agents != 1:
        if args.devices is not None:
            print(
                "Serial runs on exactly one device; pass a single name "
                "to --devices",
                file=sys.stderr,
            )
            return 2
        args.agents = 1
    return None


def _build_cluster(args) -> ClusterSpec:
    """The fleet the validated arguments describe."""
    if args.devices is not None:
        return ClusterSpec.of_devices(args.devices)
    from repro.cluster.device import get_device

    return ClusterSpec(
        n_agents=args.agents, agent_device=get_device(args.device)
    )


def _protocol_kwargs(args) -> dict:
    kwargs = {}
    if args.resync_period is not None:
        kwargs["resync_period"] = args.resync_period
    return kwargs


def _fleet_label(cluster: ClusterSpec) -> str:
    """Human-readable fleet description for reports."""
    if cluster.agent_devices is not None:
        return "[" + ", ".join(d.name for d in cluster.agent_devices) + "]"
    return f"{cluster.n_agents} x {cluster.agent_device.name}"


def _simulated_summary(generations) -> tuple[float, float]:
    """(mean radio idle share, worst straggler gap) over a simulated run."""
    if not generations:
        return 0.0, 0.0
    idle = sum(g.radio_idle_share for g in generations) / len(generations)
    gap = max(g.straggler_gap_s for g in generations)
    return idle, gap


#: args fields a ``--resume`` continuation must agree with the manifest
#: on — any of these changing would change trajectories, so a mismatch
#: is an error rather than a silent divergence
_RESUME_PARAMS = (
    "env", "protocol", "agents", "pop", "seed",
    "backend", "eval_mode", "genetics",
)

#: store document name holding the resumable engine checkpoint
#: (:meth:`repro.core.protocols.ProtocolBase.checkpoint`)
_POPULATION_DOC = "population"


def _cmd_learn(args) -> int:
    if args.eval_mode == "population" and args.backend != "batched":
        print(
            "--eval-mode population requires --backend batched "
            "(the population sweep stacks compiled batched plans)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint_dir:
        print(
            "--resume continues a checkpointed run; point --checkpoint-dir "
            "at the directory a previous run wrote",
            file=sys.stderr,
        )
        return 2
    code = _validate_fleet(args)
    if code is not None:
        return code
    store = manifest = None
    if args.checkpoint_dir:
        from repro.cluster.store import CheckpointStore
        from repro.neat.checkpoint import CheckpointCorrupt

        store = CheckpointStore(args.checkpoint_dir)
        if args.resume:
            try:
                manifest = store.read_manifest(kind="learn")
            except (CheckpointCorrupt, ValueError) as error:
                print(str(error), file=sys.stderr)
                return 2
            mismatched = [
                f"--{param.replace('_', '-')} "
                f"{getattr(args, param)!r} != {manifest.get(param)!r}"
                for param in _RESUME_PARAMS
                if manifest.get(param) != getattr(args, param)
            ]
            if mismatched:
                print(
                    "cannot resume: these arguments disagree with the "
                    "checkpointed run (" + "; ".join(mismatched) + ")",
                    file=sys.stderr,
                )
                return 2
    tracer = _activate_tracer(args)
    cluster = _build_cluster(args)
    driver = ClanDriver(
        args.env,
        cluster,
        protocol=args.protocol,
        pop_size=args.pop,
        seed=args.seed,
        backend=args.backend,
        eval_mode=args.eval_mode,
        genetics=args.genetics,
        **_protocol_kwargs(args),
    )
    engine = driver.engine
    on_generation = None
    if store is not None:
        static_manifest = {
            param: getattr(args, param) for param in _RESUME_PARAMS
        }

        def on_generation(engine, record):
            # the hook runs between generations — the one boundary where
            # the engine is a complete, replayable state
            store.write(_POPULATION_DOC, engine.checkpoint())
            store.write_manifest("learn", {
                **static_manifest,
                "completed_generations": engine.generation,
                "best_fitness": engine.best_fitness,
            })

    budget = args.generations
    if args.resume:
        from repro.neat.checkpoint import CheckpointCorrupt

        try:
            engine.restore(store.read(_POPULATION_DOC))
        except (CheckpointCorrupt, KeyError, TypeError, ValueError) as error:
            print(f"cannot resume: {error}", file=sys.stderr)
            return 2
        budget = args.generations - engine.generation
        if budget <= 0:
            print(
                f"checkpoint already holds {engine.generation} "
                f"generation(s) — nothing left of a --generations "
                f"{args.generations} budget"
            )
            return 0
    eval_note = (
        ", population sweep" if args.eval_mode == "population" else ""
    )
    genetics_note = (
        ", vectorized genetics" if args.genetics == "vectorized" else ""
    )
    resume_note = (
        f", resumed at generation {engine.generation}" if args.resume
        else ""
    )
    print(
        f"learning {args.env} with {args.protocol} on "
        f"{_fleet_label(cluster)} "
        f"(population {args.pop}, {args.backend} inference"
        f"{eval_note}{genetics_note}{resume_note})"
    )
    run = driver.learn(
        max_generations=budget,
        fitness_threshold=args.threshold,
        on_generation=on_generation,
    )
    for record in run.result.records:
        print(
            f"  generation {record.generation:3d}: "
            f"best {record.best_fitness:9.2f}  "
            f"species {record.n_species:2d}"
        )
    status = "converged" if run.converged else "budget exhausted"
    timing = run.timing_per_generation
    print(
        f"{status} after {run.generations} generations; modelled cluster "
        f"time {format_seconds(run.timing_total.total_s)} "
        f"({format_seconds(timing.total_s)}/generation: "
        f"inference {format_seconds(timing.inference_s)}, evolution "
        f"{format_seconds(timing.evolution_s)}, communication "
        f"{format_seconds(timing.communication_s)})"
    )
    # Fig 3c cost counters: speciation is the block CLAN cannot
    # parallelise, so its comparison/gene totals headline the summary
    result = run.result
    summary = (
        f"speciation: {result.total_speciation_comparisons():,} "
        f"comparisons, {result.total_speciation_gene_ops():,} genes "
        f"compared, {result.final_n_species()} final species "
        f"({args.genetics} genetics)"
    )
    hits, misses = result.plan_cache_hits, result.plan_cache_misses
    if hits + misses:
        summary += (
            f"; plan cache: {hits:,} hits / {misses:,} misses "
            f"({result.plan_cache_hit_rate():.0%})"
        )
    print(summary)
    if args.sim_mode != "analytic":
        generations, total = driver.simulate(mode=args.sim_mode)
        line = (
            f"simulated ({args.sim_mode}): total "
            f"{format_seconds(total)}"
        )
        if args.sim_mode == "async" and generations:
            idle, gap = _simulated_summary(generations)
            line += (
                f", worst straggler gap {format_seconds(gap)}, "
                f"radio idle {idle:.0%}"
            )
        print(line)
    if args.checkpoint:
        from repro.neat.checkpoint import save_population

        engine = driver.engine
        population = getattr(engine, "population", None)
        if population is None:
            print(
                "checkpointing is supported for Serial/CLAN_DCS/CLAN_DDS "
                "engines only",
                file=sys.stderr,
            )
            return 2
        save_population(population, args.checkpoint)
        print(f"population checkpointed to {args.checkpoint}")
    if store is not None:
        print(
            f"resumable checkpoint in {args.checkpoint_dir} "
            f"({engine.generation} generation(s) completed; continue "
            "with --resume)"
        )
    _export_telemetry(args, tracer, run=result)
    return 0 if run.converged or args.threshold is None else 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import (
        ContinuousService,
        LoadGenerator,
        observation_sampler,
    )
    from repro.serve.batcher import DEFAULT_MAX_BATCH

    max_batch = (
        DEFAULT_MAX_BATCH if args.max_batch is None else args.max_batch
    )

    if args.clans < 1:
        print("--clans must be >= 1", file=sys.stderr)
        return 2
    if args.rate <= 0 or args.requests < 1:
        print(
            "--rate must be positive and --requests >= 1",
            file=sys.stderr,
        )
        return 2
    if max_batch < 1:
        print("--max-batch must be >= 1", file=sys.stderr)
        return 2
    if args.max_respawns < 0 or args.checkpoint_period < 1:
        print(
            "--max-respawns must be >= 0 and --checkpoint-period >= 1",
            file=sys.stderr,
        )
        return 2
    if args.replicas < 1:
        print("--replicas must be >= 1", file=sys.stderr)
        return 2
    if args.max_replica_respawns < 0 or args.client_retries < 0:
        print(
            "--max-replica-respawns and --client-retries must be >= 0",
            file=sys.stderr,
        )
        return 2
    # must be active before the service starts: the fleet checks for a
    # driver tracer when spawning replicas, and run_async tells clan
    # workers to trace over the same check
    tracer = _activate_tracer(args)

    async def run():
        service = ContinuousService(
            args.env,
            n_clans=args.clans,
            pop_size=args.pop,
            seed=args.seed,
            max_generations=args.generations,
            fitness_threshold=args.threshold,
            max_batch=max_batch,
            max_respawns=args.max_respawns,
            heartbeat_timeout_s=(
                args.heartbeat_timeout if args.heartbeat_timeout > 0
                else None
            ),
            checkpoint_period=args.checkpoint_period,
            replicas=args.replicas,
            max_replica_respawns=args.max_replica_respawns,
        )
        await service.start()
        generator = LoadGenerator(
            service.submit,
            observation_sampler(args.env),
            rate_hz=args.rate,
            n_requests=args.requests,
            seed=args.seed,
            max_retries=args.client_retries,
        )
        report = await generator.run()
        # let the (bounded) background budget finish so the summary is
        # deterministic — most swaps land mid-traffic anyway, and a
        # long-lived deployment would simply keep serving here
        evolution = await service.evolution_done()
        # scrape *before* close so fleet replicas report fresh numbers
        stats = await service.scrape()
        per_replica = service.replica_stats()
        health = service.health()
        await service.close()
        return service, report, stats, per_replica, health, evolution

    topology = (
        f"{args.replicas} gateway replicas"
        if args.replicas > 1
        else "single gateway"
    )
    print(
        f"serving {args.env} ({topology}): {args.clans} clans evolving "
        f"in the background (population {args.pop}, budget "
        f"{args.generations} generations/clan), {args.rate:.0f} qps "
        "Poisson load"
    )
    service, report, stats, per_replica, health, evolution = asyncio.run(
        run()
    )

    # the champion-changed events run_async streamed, one line per swap
    for record, event in service.promotions:
        print(
            f"  hot-swap -> v{record.version}: genome {event.genome_key} "
            f"(clan {event.clan_id}, generation {event.generation}, "
            f"fitness {event.fitness:.2f})"
        )
    histogram = " ".join(
        f"{size}x{count}"
        for size, count in sorted(stats.batch_size_histogram.items())
    )
    rows = [
        ["offered", str(report.offered)],
        ["served", str(report.served)],
        ["shed", str(stats.shed)],
        ["retried", str(report.retried)],
        ["failed", str(report.failed)],
        ["qps", f"{stats.qps:,.0f}"],
        ["p50 latency", format_seconds(stats.p50_latency_s)],
        ["p95 latency", format_seconds(stats.p95_latency_s)],
        ["mean batch", f"{stats.mean_batch_size:.2f}"],
        ["batch histogram", histogram],
        ["hot-swaps", str(stats.swaps)],
        ["champion version", f"v{stats.champion_version}"],
    ]
    print(format_table(["metric", "value"], rows, title="service stats"))
    if args.replicas > 1:
        # per-replica rollup next to the fleet numbers above, so a
        # skewed balancer or a dead replica is visible at a glance
        replica_rows = [
            [
                f"r{replica_id}",
                str(rstats.served) if rstats else "-",
                f"{rstats.qps:,.0f}" if rstats else "-",
                str(rstats.shed) if rstats else "-",
                (
                    format_seconds(rstats.p95_latency_s)
                    if rstats
                    else "-"
                ),
            ]
            for replica_id, rstats in sorted(per_replica.items())
        ]
        print(
            format_table(
                ["replica", "served", "qps", "shed", "p95"],
                replica_rows,
                title="per-replica stats",
            )
        )
    respawns = health.get("replica_respawns", 0)
    fleet_retries = health.get("requests_retried", 0)
    if respawns or fleet_retries:
        # the self-healing rollup appears only when the fleet actually
        # healed something — a clean run keeps its summary clean
        print(
            f"healing: {respawns} replica respawn(s), {fleet_retries} "
            f"in-flight request(s) retried"
        )
    print(
        f"evolution: {evolution.generations} generations/clan, best "
        f"fitness {evolution.best_fitness:.2f}, "
        f"{len(evolution.champions)} champion improvement(s)"
        + (" (converged)" if evolution.converged else "")
    )
    churn = evolution.churn
    if churn:
        print(
            f"churn: {churn.deaths} clan death(s), {churn.respawns} "
            f"respawn(s), {churn.clans_lost} clan(s) lost, "
            f"{churn.lost_generations} generation(s) re-run, "
            f"{churn.reassigned_generations} re-assigned, mean recovery "
            f"{format_seconds(churn.mean_recovery_latency_s())}"
        )
    if service.evolution_restarts:
        print(
            f"evolution thread relaunched {service.evolution_restarts} "
            "time(s) after a crash"
        )
    _export_telemetry(
        args,
        tracer,
        service=stats,
        replicas=per_replica if args.replicas > 1 else None,
        churn=evolution.churn,
        health=health,
    )
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import FaultPlan, parse_fault_spec
    from repro.chaos.runner import run_learn_plan, run_serve_plan

    faults = []
    seed = args.chaos_seed
    if args.plan:
        try:
            plan = FaultPlan.from_file(args.plan)
        except (OSError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        faults.extend(plan.faults)
        seed = plan.seed
    try:
        faults.extend(parse_fault_spec(spec) for spec in args.fault)
        plan = FaultPlan(seed=seed, faults=tuple(faults))
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.rate <= 0 or args.requests < 1 or args.publishes < 1:
        print(
            "--rate must be positive, --requests and --publishes >= 1",
            file=sys.stderr,
        )
        return 2
    print(
        f"injecting {len(plan.faults)} fault(s) into a {args.workload} "
        f"workload on {args.env} (workload seed {args.seed}, chaos "
        f"seed {plan.seed})"
    )
    for fault in plan.faults:
        print(f"  {fault.describe()}")
    if args.workload == "learn":
        outcome = run_learn_plan(
            plan,
            args.env,
            n_clans=args.clans,
            pop_size=args.pop,
            generations=args.generations,
            seed=args.seed,
        )
        churn = outcome["churn"]
        healed = churn["clans_lost"] == 0
        rows = [
            ["generations", str(outcome["generations"])],
            ["best fitness", f"{outcome['best_fitness']:.2f}"],
            ["clan deaths", str(churn["deaths"])],
            ["respawns", str(churn["respawns"])],
            ["clans lost", str(churn["clans_lost"])],
            ["generations re-run", str(churn["lost_generations"])],
            ["champion", outcome["champion_hex"][:16] + "…"],
        ]
    else:
        outcome = run_serve_plan(
            plan,
            args.env,
            replicas=args.replicas,
            rate_hz=args.rate,
            n_requests=args.requests,
            seed=args.seed,
            publishes=args.publishes,
        )
        healed = (
            outcome["failed"] == 0
            and outcome["version_regressions"] == 0
        )
        rows = [
            ["offered", str(outcome["offered"])],
            ["served", str(outcome["served"])],
            ["shed", str(outcome["shed"])],
            ["retried", str(outcome["retried"])],
            ["failed", str(outcome["failed"])],
            ["success rate", f"{outcome['success_rate']:.1%}"],
            ["version regressions", str(outcome["version_regressions"])],
            ["replica respawns",
             str(outcome["health"]["replica_respawns"])],
            ["p95 latency", format_seconds(outcome["p95_latency_s"])],
        ]
    print(
        format_table(
            ["metric", "value"], rows,
            title=f"{args.workload} outcome",
        )
    )
    injected = ", ".join(
        f"{action} x{count}"
        for action, count in sorted(outcome["faults_injected"].items())
    )
    print(
        f"faults: {outcome['faults_fired']}/{outcome['faults_planned']} "
        f"fired ({injected or 'none'})"
        + (
            f"; {outcome['faults_pending']} never matched an event"
            if outcome["faults_pending"]
            else ""
        )
    )
    if args.json_path:
        import json
        import pathlib

        target = pathlib.Path(args.json_path)
        target.write_text(json.dumps(outcome, indent=2, sort_keys=True))
        print(f"[outcome saved to {target}]")
    recovered = healed and outcome["faults_pending"] == 0
    print(
        "fully recovered" if recovered
        else "NOT fully recovered (see table above)"
    )
    return 0 if recovered else 1


def _cmd_inspect(args) -> int:
    from repro.neat.checkpoint import load_population
    from repro.neat.visualize import describe_genome, genome_to_dot

    population = load_population(args.checkpoint)
    champion = population.best_genome
    if champion is None:
        champion = max(
            population.genomes.values(),
            key=lambda g: (g.fitness or float("-inf")),
        )
    if args.dot:
        print(genome_to_dot(champion, population.config, name="champion"))
    else:
        print(
            f"checkpoint at generation {population.generation}, "
            f"population {len(population.genomes)}"
        )
        print(describe_genome(champion, population.config))
    return 0


def _cmd_scale(args) -> int:
    study = fig9_extrapolation(
        args.env,
        measure_grid=(1, 2, 4, 6, 8, 10, 12, 15),
        pop_size=args.pop,
        generations=args.generations,
        single_step=args.single_step,
        seed=args.seed,
    )
    mode = "single-step" if args.single_step else "multi-step"
    print(render_extrapolation(f"scale study, {mode}", study))
    return 0


def _cmd_ppp(args) -> int:
    points = fig11_ppp(
        (args.env,),
        (1, 2, 4, 6, 10, 15),
        args.pop,
        args.generations,
        seed=args.seed,
    )
    print(render_platforms(args.env, points[args.env]))
    return 0


def _cmd_model(args) -> int:
    code = _validate_fleet(args)
    if code is not None:
        return code
    cluster = _build_cluster(args)
    driver = ClanDriver(
        args.env,
        cluster,
        protocol=args.protocol,
        pop_size=args.pop,
        seed=args.seed,
        **_protocol_kwargs(args),
    )
    driver.learn(max_generations=args.generations, fitness_threshold=1e18)

    if args.sim_mode == "all":
        modes = [
            m
            for m in SIM_MODES
            if m != "async" or args.protocol in _ASYNC_PROTOCOLS
        ]
    else:
        modes = [args.sim_mode]

    rows = []
    for mode in modes:
        generations, total = driver.simulate(mode=mode)
        idle, gap = _simulated_summary(generations)
        rows.append(
            [
                mode,
                format_seconds(total),
                format_seconds(total / max(len(generations), 1)),
                f"{idle:.0%}",
                format_seconds(gap) if mode == "async" else "-",
            ]
        )
    print(
        format_table(
            ["mode", "total", "per generation", "radio idle",
             "straggler gap"],
            rows,
            title=(
                f"{args.env}, {args.protocol} on {_fleet_label(cluster)}, "
                f"{args.generations} generations"
            ),
        )
    )
    return 0


def _cmd_platforms(_args) -> int:
    rows = [
        [
            row["platform"],
            f"${row['price_usd']:.0f}",
            f"{row['inference_speedup_vs_pi']}x",
            f"{row['evolution_speedup_vs_pi']}x",
            row["description"],
        ]
        for row in table4_platforms()
    ]
    print(
        format_table(
            ["platform", "price", "inference", "evolution", "description"],
            rows,
            title="Table IV platform models",
        )
    )
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import LintConfig, lint_paths
    from repro.lint.report import render_rules, render_text, write_json
    from repro.lint.rules import RULES

    if args.list_rules:
        print(render_rules())
        return 0
    select = None
    if args.select is not None:
        select = tuple(
            code.strip().upper()
            for code in args.select.split(",")
            if code.strip()
        )
        unknown = [code for code in select if code not in RULES]
        if not select or unknown:
            print(
                "--select needs known rule codes"
                + (f" (unknown: {', '.join(unknown)})" if unknown else ""),
                file=sys.stderr,
            )
            return 2
    paths = list(args.paths)
    if not paths:
        import pathlib

        if pathlib.Path("src").is_dir():
            paths = ["src"]
        else:
            import repro

            paths = [str(pathlib.Path(repro.__file__).parent)]
    config = LintConfig(select=select)
    try:
        result = lint_paths(paths, config)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_text(result, verbose=args.verbose))
    if args.json_path:
        target = write_json(result, args.json_path)
        print(f"[json saved to {target}]")
    return 1 if result.findings else 0


_COMMANDS = {
    "learn": _cmd_learn,
    "serve": _cmd_serve,
    "chaos": _cmd_chaos,
    "model": _cmd_model,
    "inspect": _cmd_inspect,
    "scale": _cmd_scale,
    "ppp": _cmd_ppp,
    "platforms": _cmd_platforms,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
