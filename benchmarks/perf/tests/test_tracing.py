"""Span arithmetic and wrapper hygiene of the outside-in tracer."""

from __future__ import annotations

import asyncio

import pytest

from benchmarks.perf import tracing


def span(name, start, end, parent=-1, notes=None):
    return [name, start, end, parent, notes]


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        span("run", 0.0, 10.0),
        span("evaluate", 1.0, 7.0, parent=0),  # sibling one
        span("step", 2.0, 3.0, parent=1),  # nested in evaluate
        span("forward", 3.0, 5.0, parent=1),  # nested sibling
        span("speciate", 7.0, 9.0, parent=0),  # sibling two
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 6 - 2, 6 - 1 - 2, 1.0, 2.0, 2.0])
    # one thread: the self times add up to the root's wall-clock
    assert sum(own) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips():
    # concurrent tasks: two children overlap each other, a third runs
    # past the end of its parent
    spans = [
        span("phase", 0.0, 10.0),
        span("submit", 1.0, 5.0, parent=0),
        span("submit", 3.0, 6.0, parent=0),
        span("submit", 9.0, 12.0, parent=0),
    ]
    own = tracing.self_times(spans)
    # covered: [1, 6] and [9, 10] -> 6 of the 10 seconds
    assert own[0] == pytest.approx(4.0)


def test_layer_totals_and_attributed_share():
    spans = [
        span("run", 0.0, 10.0),
        span("evaluate", 0.5, 8.5, parent=0, notes={"genomes": 150}),
        span("speciate", 8.5, 9.5, parent=0, notes={"comparisons": 7}),
        span("run", 10.0, 20.0),
        span("evaluate", 10.0, 19.0, parent=3, notes={"genomes": 150}),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["evaluate"]["calls"] == 2
    assert totals["evaluate"]["self_s"] == pytest.approx(17.0)
    assert totals["evaluate"]["notes"] == {"genomes": 300}
    assert totals["run"]["total_s"] == pytest.approx(20.0)
    # unexplained: 0.5 + 0.5 in the first run, 1.0 in the second
    assert totals["run"]["self_s"] == pytest.approx(2.0)
    assert tracing.attributed_share(totals, "run") == pytest.approx(0.9)
    assert tracing.attributed_share(totals, "missing") == 0.0


def test_recorder_links_children_to_the_span_that_caused_them():
    recorder = tracing.Recorder()

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = recorder.wrap(
        "inner", inner, lambda args, result: {"in": args[0], "out": result}
    )
    traced_outer = recorder.wrap("outer", outer)
    with recorder.span("root"):
        assert traced_outer(1) == 4
    names = [s[tracing.NAME] for s in recorder.spans]
    parents = [s[tracing.PARENT] for s in recorder.spans]
    assert names == ["root", "outer", "inner"]
    assert parents == [-1, 0, 1]
    assert recorder.spans[2][tracing.NOTES] == {"in": 1, "out": 2}
    assert all(s[tracing.END] >= s[tracing.START] for s in recorder.spans)


def test_recorder_closes_the_span_when_the_call_raises():
    recorder = tracing.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    assert recorder.spans[0][tracing.END] > 0.0
    # the parent link is restored: the next span is a root again
    recorder.wrap("after", lambda: None)()
    assert recorder.spans[1][tracing.PARENT] == -1


def test_async_wrappers_keep_one_parent_per_task():
    recorder = tracing.Recorder()

    async def answer(x):
        await asyncio.sleep(0)
        return x

    traced = recorder.wrap("submit", answer)

    async def main():
        with recorder.span("phase"):
            return await asyncio.gather(*(traced(i) for i in range(5)))

    assert asyncio.run(main()) == [0, 1, 2, 3, 4]
    submits = [s for s in recorder.spans if s[tracing.NAME] == "submit"]
    assert len(submits) == 5
    assert {s[tracing.PARENT] for s in submits} == {0}


def test_wrappers_are_restored_after_a_traced_run():
    from repro.envs.vector import VectorEnvironment
    from repro.neat import evaluation, network, population, reproduction
    from repro.neat.evaluation import GenomeEvaluator
    from repro.serve.fleet import ServingFleet

    def current():
        return {
            "compile": network.compile_batched,
            "compile_in_evaluation": evaluation.compile_batched,
            "plan_in_population": population.plan_generation,
            "execute": reproduction.execute_plan,
            "evaluate_many": GenomeEvaluator.__dict__["evaluate_many"],
            "step": VectorEnvironment.__dict__["step_batch"],
            "submit": ServingFleet.__dict__["submit"],
        }

    before = current()
    recorder = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with tracing.installed(recorder):
            during = current()
            # every binding is wrapped, including the from-imports
            assert all(
                during[key] is not before[key] for key in before
            )
            assert (
                during["compile_in_evaluation"].__perf_original__
                is before["compile"]
            )
            raise RuntimeError("a failing run must not leak wrappers")
    assert current() == before


def test_span_dicts_match_the_obs_span_event_shape(tmp_path):
    from repro.obs.export import read_jsonl, to_chrome_trace

    spans = [
        span("run", 1.0, 3.0),
        span("evaluate", 1.5, 2.5, parent=0, notes={"genomes": 3}),
    ]
    path = tmp_path / "trace.jsonl"
    assert tracing.write_jsonl(spans, path, track="learn_small") == 2
    events = read_jsonl(path)
    assert [e.name for e in events] == ["run", "evaluate"]
    assert events[1].parent == "run" and events[1].depth == 1
    assert events[1].dur_s == pytest.approx(1.0)
    assert events[1].args == {"genomes": 3}
    chrome = to_chrome_trace(events)
    assert sum(e["ph"] == "X" for e in chrome["traceEvents"]) == 2
