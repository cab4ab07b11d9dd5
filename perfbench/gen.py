"""Seeded workload inputs, the live document mirror, and reference answers.

Every input is a pure function of ``--seed`` (and of the dataset, which
is itself deterministic): each purpose draws from its own
``random.Random(f"{seed}:{purpose}")`` stream, so adding draws for one
purpose never shifts another.  The program under test only ever sees
the generated :class:`repro.api.Query` and :class:`repro.api.UpdateOp`
values.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Mapping, Sequence

from repro.api import Query, UpdateOp
from repro.core.reference import brute_force_bknn, brute_force_top_k
from repro.datasets import WorkloadGenerator
from repro.text.relevance import RelevanceModel
from repro.text.zipf import ZipfSampler

#: Result count of every query.
K = 10
#: Query kinds, drawn in equal thirds (query ``i`` gets ``KINDS[i % 3]``).
KINDS = (("bknn", "or"), ("bknn", "and"), ("topk", "or"))
#: Keyword-vector lengths drawn from the correlated generator.
VECTOR_LENGTHS = (1, 2, 3)
#: engine-rw write mix: (op, share) of the non-rebuild updates.
UPDATE_MIX = (
    ("insert", 0.4), ("delete", 0.2), ("add_keyword", 0.2), ("remove_keyword", 0.2)
)
#: A rebuild op follows every this many updates (KSpin's default
#: ``rebuild_threshold``, so rebuilds really rebuild).
REBUILD_EVERY = 50
#: Keywords in a freshly inserted POI's document.
INSERT_KEYWORDS = 4


def stream(seed: int, purpose: str) -> random.Random:
    """An independent RNG for one purpose of one seed."""
    return random.Random(f"{seed}:{purpose}")


def zipf(n: int, seed: int, purpose: str) -> ZipfSampler:
    """Zipf(1) ranks ``0..n-1`` (rank 0 the most popular) from their own stream."""
    return ZipfSampler(n, seed=f"{seed}:{purpose}")


def keyword_vectors(graph, dataset, seed: int) -> list[tuple[str, ...]]:
    """Correlated keyword vectors of 1-3 keywords (``WorkloadGenerator``)."""
    generator = WorkloadGenerator(graph, dataset, seed=seed)
    vectors: list[tuple[str, ...]] = []
    for length in VECTOR_LENGTHS:
        vectors.extend(generator.keyword_vectors(length))
    return list(dict.fromkeys(vectors))


def distinct_queries(graph, dataset, seed: int, purpose: str) -> Iterator[Query]:
    """An endless stream of distinct queries from uniform vertices.

    Query ``i`` of the stream has kind ``KINDS[i % 3]``.  Distinct means
    distinct to the result cache, which ignores keyword order.
    """
    rng = stream(seed, purpose)
    vectors = keyword_vectors(graph, dataset, seed)
    seen: set[tuple] = set()
    i = 0
    while True:
        kind, mode = KINDS[i % len(KINDS)]
        query = Query(
            vertex=rng.randrange(graph.num_vertices),
            keywords=rng.choice(vectors),
            k=K,
            kind=kind,
            mode=mode,
        )
        key = (query.vertex, frozenset(query.keywords), kind, mode)
        if key in seen:
            continue
        seen.add(key)
        i += 1
        yield query


def take(queries: Iterator[Query], n: int) -> list[Query]:
    return [next(queries) for _ in range(n)]


def zipf_draws(pool: Sequence, n: int, ranks: ZipfSampler) -> list:
    """``n`` draws from ``pool`` at the ranks ``ranks`` samples."""
    return [pool[ranks.sample_rank()] for _ in range(n)]


# ----------------------------------------------------------------------
# engine-rw: the live mirror and its update stream
# ----------------------------------------------------------------------
class Mirror:
    """The benchmark's own copy of every live object's document.

    Reads ``KeywordDataset``-style (``objects``/``contains_any``/
    ``contains_all``), so reference answers over the mirror follow the
    same matching rule as ``repro.core.reference``.
    """

    def __init__(self, documents: Mapping[int, Mapping[str, int]]) -> None:
        self.docs: dict[int, dict[str, int]] = {
            obj: dict(doc) for obj, doc in documents.items()
        }

    @classmethod
    def of(cls, dataset) -> "Mirror":
        return cls({obj: dataset.document(obj) for obj in dataset.objects()})

    def apply(self, op: UpdateOp) -> None:
        """Apply one update with the index's documented semantics."""
        if op.op == "insert":
            self.docs.setdefault(op.object, {}).update(op.document_counts())
        elif op.op == "delete":
            del self.docs[op.object]
        elif op.op == "add_keyword":
            self.docs[op.object][op.keyword] = op.frequency
        elif op.op == "remove_keyword":
            del self.docs[op.object][op.keyword]
        # "rebuild" changes no document.

    def objects(self) -> list[int]:
        return sorted(self.docs)

    def contains_any(self, obj: int, keywords: Sequence[str]) -> bool:
        doc = self.docs.get(obj, {})
        return any(t in doc for t in keywords)

    def contains_all(self, obj: int, keywords: Sequence[str]) -> bool:
        doc = self.docs.get(obj, {})
        return all(t in doc for t in keywords)


class UpdateStream:
    """The engine-rw write sequence, drawn against (and applied to) a mirror.

    Inserts place a new POI on a vertex that never carried one, with
    ``INSERT_KEYWORDS`` Zipf-drawn keywords; deletes and keyword edits
    pick live objects.  ``remove_keyword`` only picks objects that keep
    at least one keyword, so every later delete stays valid.
    """

    def __init__(self, mirror: Mirror, graph, dataset, seed: int) -> None:
        self.mirror = mirror
        self._rng = stream(seed, "updates")
        self._vocabulary = [t for t, _ in dataset.frequency_rank()]
        self._zipf = zipf(len(self._vocabulary), seed, "update-keywords")
        self._free = [v for v in range(graph.num_vertices) if v not in mirror.docs]
        self._rng.shuffle(self._free)
        self._since_rebuild = 0

    def _keyword(self) -> str:
        return self._vocabulary[self._zipf.sample_rank()]

    def next_op(self) -> UpdateOp:
        """The next op, already applied to the mirror."""
        if self._since_rebuild == REBUILD_EVERY:
            self._since_rebuild = 0
            return UpdateOp(op="rebuild")
        op = self._draw()
        self._since_rebuild += 1
        self.mirror.apply(op)
        return op

    def _draw(self) -> UpdateOp:
        u = self._rng.random()
        for name, share in UPDATE_MIX:
            if u < share:
                break
            u -= share
        live = self.mirror.objects()
        if name == "insert":
            document: dict[str, int] = {}
            for _ in range(INSERT_KEYWORDS):
                keyword = self._keyword()
                document[keyword] = document.get(keyword, 0) + 1
            return UpdateOp(op="insert", object=self._free.pop(), document=document)
        if name == "delete":
            return UpdateOp(op="delete", object=self._rng.choice(live))
        if name == "add_keyword":
            obj = self._rng.choice(live)
            keyword = self._keyword()
            while keyword in self.mirror.docs[obj]:
                keyword = self._keyword()
            return UpdateOp(op="add_keyword", object=obj, keyword=keyword)
        obj = self._rng.choice([o for o in live if len(self.mirror.docs[o]) > 1])
        keyword = self._rng.choice(sorted(self.mirror.docs[obj]))
        return UpdateOp(op="remove_keyword", object=obj, keyword=keyword)


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------
def static_reference(graph, dataset, relevance, query: Query) -> list[tuple[int, float]]:
    """``repro.core.reference`` brute force for an unchanged index."""
    if query.kind == "bknn":
        return brute_force_bknn(
            graph, dataset, query.vertex, query.k, query.keywords,
            conjunctive=query.conjunctive,
        )
    return brute_force_top_k(
        graph, dataset, relevance, query.vertex, query.k, query.keywords
    )


def mirror_reference(
    distances: Sequence[float], mirror: Mirror, relevance: RelevanceModel, query: Query
) -> list[tuple[int, float]]:
    """The exact answer over the live mirror.

    BkNN filters the mirror's documents.  Top-k ranks every live object
    exhaustively with the engine's own relevance model: its query
    impacts, and ``relevance_from_document`` over the mirror document,
    so the reference follows whatever IDF semantics the model has.  The
    class functions are called directly so timing proxies on the
    engine's model never see reference work.
    """
    keywords = query.keywords
    if query.kind == "bknn":
        match = mirror.contains_all if query.conjunctive else mirror.contains_any
        ranked = sorted(
            (distances[o], o) for o in mirror.docs
            if distances[o] < math.inf and match(o, keywords)
        )
        return [(o, d) for d, o in ranked[: query.k]]
    impacts = RelevanceModel.query_impacts(relevance, keywords)
    scored = []
    for o, doc in mirror.docs.items():
        if distances[o] == math.inf or not any(t in doc for t in keywords):
            continue
        tr = RelevanceModel.relevance_from_document(relevance, doc, impacts)
        if tr > 0.0:
            scored.append((distances[o] / tr, o))
    scored.sort()
    return [(o, score) for score, o in scored[: query.k]]
