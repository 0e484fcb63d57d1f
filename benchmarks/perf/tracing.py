"""Outside-in tracing: timing wrappers around the layers' entry points.

A traced run installs wrappers - from this file only, nothing under
``src/`` changes - around the public functions each layer is entered
through, keeps one span per call in memory (name, start, end, the span
that caused it, a few counts) and writes them out when the run ends.
A layer's busy time is its *self* time: the span's duration minus the
part of it its child spans cover, so the layers of one thread sum to
the wall-clock of their root span and ``attributed_share`` says how
much of a run the named layers explain.

Inside forked clans and replicas nothing is wrapped (the wrappers
would record into a copy of the recorder nobody reads); their numbers
come from the public stats those processes ship home.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: span layout: [name, start_s, end_s, parent index or -1, notes dict]
NAME, START, END, PARENT, NOTES = range(5)

#: the trace file keeps this many spans (metrics use all of them): a
#: 10 s CartPole run records ~100k, more than Perfetto needs to show
#: where a generation goes
MAX_WRITTEN_SPANS = 40_000


class Recorder:
    """In-memory span store plus the wrapper factory that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self._current = contextvars.ContextVar("perf_span", default=-1)

    @contextmanager
    def span(self, name: str, **notes):
        """Record one span around a block (roots, probes)."""
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._current.get(),
                  notes]
        self.spans.append(record)
        token = self._current.set(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._current.reset(token)

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as span ``name``.

        ``note(args, result) -> dict`` adds counts read at the same
        boundary (genomes lowered, lanes stepped), so ratios are
        measured where the work happens. Coroutine functions get an
        ``async`` wrapper; the parent link travels in a context
        variable, which asyncio copies per task.
        """
        spans, current, perf = self.spans, self._current, time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                record = [name, perf(), 0.0, current.get(), None]
                index = len(spans)
                spans.append(record)
                token = current.set(index)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    record[END] = perf()
                    current.reset(token)
                if note is not None:
                    record[NOTES] = note(args, result)
                return result

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                record = [name, perf(), 0.0, current.get(), None]
                index = len(spans)
                spans.append(record)
                token = current.set(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[END] = perf()
                    current.reset(token)
                if note is not None:
                    record[NOTES] = note(args, result)
                return result

        traced.__perf_original__ = fn
        return traced


# -- which entry points are wrapped ----------------------------------------


def _entry_points():
    """``(owner, attribute, span name, note)`` for every wrapped call.

    Imported lazily so this module (and its self-tests) load without
    ``repro`` on the path.
    """
    from repro.cluster import serialization
    from repro.cluster.transport import WorkerPool
    from repro.envs.vector import VectorEnvironment
    from repro.neat import network, reproduction
    from repro.neat.evaluation import GenomeEvaluator
    from repro.neat.network import StackedPopulationNetwork
    from repro.neat.species import SpeciesSet
    from repro.serve.fleet import ServingFleet
    from repro.serve.registry import ChampionRegistry

    def reports(_args, result):
        return {
            "reports": sum(1 for _w, status, _v in result
                           if status == "progress")
        }

    def speciation(_args, stats):
        return {
            "comparisons": stats.comparisons,
            "cache_hits": stats.cache_hits,
        }

    return [
        (GenomeEvaluator, "evaluate_many", "neat.evaluation.evaluate_many",
         lambda args, result: {"genomes": len(result)}),
        (network, "compile_batched", "neat.network.compile", None),
        (StackedPopulationNetwork, "__init__", "neat.network.stack", None),
        (StackedPopulationNetwork, "policy_all", "neat.network.forward",
         None),
        (VectorEnvironment, "reset_batch", "envs.vector.reset", None),
        (VectorEnvironment, "step_batch", "envs.vector.step",
         lambda args, _result: {"lanes": args[0].n_lanes}),
        (SpeciesSet, "speciate", "neat.species.speciate", speciation),
        (reproduction, "plan_generation", "neat.reproduction.plan", None),
        (reproduction, "execute_plan", "neat.reproduction.execute",
         lambda _args, result: {"children": result[1].children_formed}),
        (WorkerPool, "send", "cluster.transport.send", None),
        (WorkerPool, "wait_any", "cluster.transport.wait_any", reports),
        (ChampionRegistry, "publish", "serve.registry.publish", None),
        (ServingFleet, "submit", "serve.fleet.submit", None),
        (ServingFleet, "wait_deployed", "serve.fleet.wait_deployed", None),
        (ServingFleet, "scrape", "serve.fleet.scrape", None),
        (serialization, "encode_genomes",
         "cluster.serialization.encode_genomes", None),
        (serialization, "decode_genomes",
         "cluster.serialization.decode_genomes", None),
        (serialization, "encode_genome",
         "cluster.serialization.encode_genome", None),
        (serialization, "decode_genome",
         "cluster.serialization.decode_genome", None),
        (serialization, "encode_batched_plan",
         "cluster.serialization.encode_plan", None),
        (serialization, "decode_batched_plan",
         "cluster.serialization.decode_plan", None),
    ]


def _holders(owner, attribute, original):
    """Every place ``original`` is bound: its owner plus, for a module
    function, each ``repro`` module that did ``from owner import it`` -
    callers resolve the name in their own namespace."""
    holders = [(owner, attribute)]
    if inspect.ismodule(owner):
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    holders.append((module, attr))
    return holders


@contextmanager
def installed(recorder: Recorder):
    """Wrap every entry point for the duration of the block; the
    originals are put back on the way out, whatever happened."""
    undo = []
    try:
        for owner, attribute, name, note in _entry_points():
            original = vars(owner)[attribute]
            wrapper = recorder.wrap(name, original, note)
            for holder, attr in _holders(owner, attribute, original):
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))
        yield recorder
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


# -- arithmetic over recorded spans ----------------------------------------


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of the intervals
    its direct children cover (clipped to the span; children of
    concurrent tasks may overlap each other, so the union is merged,
    not summed)."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda s: s[START]):
            low = max(child[START], reach)
            high = min(child[END], end)
            if high > low:
                covered += high - low
                reach = high
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed notes."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(
            span[NAME],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": {}},
        )
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
        for key, value in (span[NOTES] or {}).items():
            if isinstance(value, (int, float)):
                entry["notes"][key] = entry["notes"].get(key, 0) + value
    return totals


def attributed_share(totals: dict, root: str) -> float:
    """Share of the root spans' wall-clock that named layers explain:
    1 - (root self time / root total time). What is left is time spent
    in code no wrapper covers; a large remainder is a measurement bug,
    not a layer."""
    entry = totals.get(root)
    if entry is None or entry["total_s"] <= 0.0:
        return 0.0
    return 1.0 - entry["self_s"] / entry["total_s"]


# -- export ------------------------------------------------------------------


def span_dicts(spans, track: str, limit: int = MAX_WRITTEN_SPANS):
    """Spans in the primitive-dict shape of ``repro.obs.SpanEvent``
    (``repro.obs.export`` turns that into a Chrome trace)."""
    depth = []
    for span in spans[:limit]:
        parent = span[PARENT]
        depth.append(depth[parent] + 1 if 0 <= parent < len(depth) else 0)
    for span, level in zip(spans, depth):
        parent = span[PARENT]
        yield {
            "name": span[NAME],
            "track": track,
            "start_s": span[START],
            "dur_s": span[END] - span[START],
            "depth": level,
            "parent": spans[parent][NAME] if parent >= 0 else None,
            "args": dict(span[NOTES] or {}),
            "kind": "span",
        }


def write_jsonl(spans, path: Path, track: str) -> int:
    """One span dict per line; returns how many were written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        for payload in span_dicts(spans, track):
            handle.write(json.dumps(payload))
            handle.write("\n")
            written += 1
    return written
