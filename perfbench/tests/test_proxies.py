"""Timing proxies are transparent and their spans nest exactly."""

import pytest

from perfbench import gen
from perfbench.layers import (
    Recorder,
    trace_engine,
    trace_index_ops,
    trace_query_layers,
)
from perfbench.system import build_index, untimed
from repro.serve import Engine


def _answers(traced: bool, seed: int = 2):
    recorder = Recorder()
    phase = recorder.call if traced else untimed
    data, kspin = build_index("DE-S", "phl", "labels", phase=phase)
    engine = Engine(kspin)
    if traced:
        trace_query_layers(recorder, kspin)
        trace_index_ops(recorder, kspin)
        trace_engine(recorder, engine)
    queries = gen.take(gen.distinct_queries(data.graph, data.keywords, seed, "t"), 90)
    updates = gen.UpdateStream(gen.Mirror.of(data.keywords), data.graph, data.keywords, seed)
    answers = []
    for i, query in enumerate(queries):
        if i % 3 == 2:
            answers.append(engine.apply(updates.next_op()))
        answers.append(engine.execute(query).pairs())
    recorder.restore()
    return answers, recorder, engine


@pytest.fixture(scope="module")
def runs():
    return _answers(False), _answers(True)


def test_traced_and_untraced_runs_give_identical_answers(runs):
    (plain, _, _), (traced, _, _) = runs
    assert plain == traced


def test_spans_cover_every_layer_and_nest(runs):
    _, (_, recorder, engine) = runs
    names = {span[3] for span in recorder.spans}
    assert {"build.dataset", "build.oracle", "build.index", "engine.execute",
            "engine.apply", "heapgen.create", "heapgen.pop"} <= names
    assert any(n.startswith("oracle.") for n in names)
    assert any(n.startswith("relevance.") for n in names)
    assert any(n.startswith("index.") for n in names)
    by_id = {span[0]: span for span in recorder.spans}
    for span in recorder.spans:
        if span[2]:
            parent = by_id[span[2]]
            assert parent[4] <= span[4] and span[5] <= parent[5]
            assert span[1] == parent[1]
    # Self times of one root's spans add up to the root's duration.
    children: dict = {}
    for span in recorder.spans:
        children.setdefault(span[2], []).append(span)

    def self_total(span):
        return span[6] + sum(self_total(child) for child in children.get(span[0], ()))

    roots = [s for s in recorder.spans if s[2] == 0 and s[3] == "engine.execute"]
    assert roots
    for root in roots:
        assert self_total(root) == pytest.approx(root[5] - root[4], rel=1e-6, abs=1e-9)
    # Proxies are gone after restore: methods are the class's again.
    assert "execute" not in engine.__dict__
    assert "heap_for" not in engine.kspin.heap_generator.__dict__
