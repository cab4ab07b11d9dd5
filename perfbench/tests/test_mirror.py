"""The engine-rw mirror and update stream against the index they shadow."""

import pytest

from perfbench import gen
from repro.api import UpdateOp
from repro.core import KSpin
from repro.core.reference import brute_force_bknn, results_equivalent
from repro.datasets import load_dataset
from repro.distance import DijkstraOracle
from repro.graph.dijkstra import dijkstra_all
from repro.lowerbound import AltLowerBounder
from repro.text.documents import KeywordDataset


@pytest.fixture(scope="module")
def small():
    return load_dataset("DE-S")


def test_mirror_applies_each_op_kind():
    mirror = gen.Mirror({1: {"a": 1, "b": 2}, 2: {"c": 1}})
    mirror.apply(UpdateOp(op="insert", object=7, document={"a": 2, "d": 1}))
    assert mirror.docs[7] == {"a": 2, "d": 1}
    mirror.apply(UpdateOp(op="add_keyword", object=2, keyword="e"))
    assert mirror.docs[2] == {"c": 1, "e": 1}
    mirror.apply(UpdateOp(op="remove_keyword", object=1, keyword="b"))
    assert mirror.docs[1] == {"a": 1}
    mirror.apply(UpdateOp(op="delete", object=2))
    assert 2 not in mirror.docs
    before = {o: dict(d) for o, d in mirror.docs.items()}
    mirror.apply(UpdateOp(op="rebuild"))
    assert mirror.docs == before
    assert mirror.objects() == [1, 7]
    assert mirror.contains_any(7, ["x", "d"]) and not mirror.contains_all(7, ["a", "x"])


def test_update_stream_is_seeded_and_follows_the_mix(small):
    def ops(seed):
        mirror = gen.Mirror.of(small.keywords)
        stream = gen.UpdateStream(mirror, small.graph, small.keywords, seed)
        return [stream.next_op() for _ in range(3 * (gen.REBUILD_EVERY + 1))]

    first = ops(3)
    assert first == ops(3) and first != ops(4)
    kinds = [op.op for op in first]
    assert kinds.count("rebuild") == 3
    assert kinds[gen.REBUILD_EVERY] == "rebuild"
    assert {"insert", "delete", "add_keyword", "remove_keyword"} <= set(kinds)


def test_mirror_tracks_the_index_documents(small):
    # Every generated op applied to a real index leaves each object's
    # live document equal to the mirror's.
    kspin = KSpin(
        small.graph, small.keywords, oracle=DijkstraOracle(small.graph),
        lower_bounder=AltLowerBounder(small.graph, num_landmarks=4),
    )
    mirror = gen.Mirror.of(small.keywords)
    stream = gen.UpdateStream(mirror, small.graph, small.keywords, seed=5)
    touched = set()
    for _ in range(120):
        op = stream.next_op()
        kspin.apply(op)
        if op.object is not None:
            touched.add(op.object)
    for obj in touched:
        assert kspin.index.document(obj) == mirror.docs.get(obj, {}), obj


def test_mirror_reference_matches_brute_force_on_an_unchanged_corpus(small):
    mirror = gen.Mirror.of(small.keywords)
    kspin = KSpin(
        small.graph, small.keywords, oracle=DijkstraOracle(small.graph),
        lower_bounder=AltLowerBounder(small.graph, num_landmarks=4),
    )
    queries = gen.take(gen.distinct_queries(small.graph, small.keywords, 1, "t"), 60)
    for query in queries:
        distances = dijkstra_all(small.graph, query.vertex)
        mine = gen.mirror_reference(distances, mirror, kspin.relevance, query)
        theirs = gen.static_reference(small.graph, small.keywords, kspin.relevance, query)
        assert results_equivalent(mine, theirs), query


def test_mirror_bknn_sees_updates(small):
    docs = {o: small.keywords.document(o) for o in small.keywords.objects()}
    mirror = gen.Mirror(docs)
    free = next(v for v in range(small.graph.num_vertices) if v not in docs)
    mirror.apply(UpdateOp(op="insert", object=free, document={"zz-new": 1}))
    query = gen.Query(vertex=free, keywords=("zz-new",), k=3)
    distances = dijkstra_all(small.graph, free)
    kspin = KSpin(
        small.graph, small.keywords, oracle=DijkstraOracle(small.graph),
        lower_bounder=AltLowerBounder(small.graph, num_landmarks=4),
    )
    assert gen.mirror_reference(distances, mirror, kspin.relevance, query) == [(free, 0.0)]
    updated = KeywordDataset({**docs, free: {"zz-new": 1}})
    assert brute_force_bknn(small.graph, updated, free, 3, ["zz-new"]) == [(free, 0.0)]
