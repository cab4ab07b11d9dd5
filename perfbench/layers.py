"""Timing proxies around each layer's public calls, kept in memory.

The traced run installs a :class:`Recorder` proxy on the *instances*
the system under test already holds (the oracle, the lower bounder, the
heap generator and every heap it returns, the relevance model, the
``KSpin`` update methods, the ``Engine``, the cluster's worker
handles).  Calls resolve attributes at call time, so the proxies see
every call without any change to the program, and removing the instance
attribute restores the class method.

Each proxied call is one span ``(id, root, parent, name, start, end,
self, tag)``: ``root`` names the outermost proxied call on the same
thread (one query, one update, one batch), ``parent`` is the enclosing
span's id (0 for a root), ``tag`` identifies the request where a proxy
asks for it, and ``self`` is the span's duration
minus the time covered by its direct child spans.  Because a thread's
spans nest strictly, the self times of one root's spans add up to the
root's duration, which is what makes the per-layer split exact.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from typing import Callable

ORACLE_METHODS = ("distance", "distances_many", "knn_many")
LOWER_BOUND_METHODS = ("lower_bound", "lower_bounds_to_many", "lower_bounds_many")
RELEVANCE_METHODS = (
    "query_impacts",
    "textual_relevance",
    "relevance_from_document",
    "max_impact",
    "max_textual_relevance",
)
INDEX_METHODS = (
    "insert_object", "delete_object", "add_keyword", "remove_keyword", "rebuild_pending"
)


class Recorder:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object, bool]] = []

    def _timer(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        tag: Callable[..., str] | None = None,
        on_result: Callable | None = None,
    ) -> Callable:
        """``fn`` wrapped so that each call records one span."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        fixed = None if callable(name) else name

        def timed(*args, **kwargs):
            label = fixed or name(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0, stack[0][2] if stack else label]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append((
                    frame[0],
                    frame[2],
                    parent[0] if parent is not None else 0,
                    label,
                    start,
                    end,
                    end - start - frame[1],
                    tag(*args, **kwargs) if tag is not None else None,
                ))
            return on_result(result) if on_result is not None else result

        return timed

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span named ``name``."""
        return self._timer(name, fn)(*args, **kwargs)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        on_result: Callable | None = None,
        restore: bool = True,
        tag: Callable[..., str] | None = None,
    ) -> None:
        """Proxy ``owner.attr`` so every call records a span.

        ``name`` may be a function of the call's arguments, and ``tag``
        one that identifies the request; ``on_result`` post-processes
        the return value (used to proxy the heaps a heap generator hands
        out).  With ``restore=False`` the proxy is not removed by
        :meth:`restore` (per-query objects die with the query).
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        if restore:
            own = owner.__dict__
            self._installed.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, self._timer(name, original, tag, on_result))

    def restore(self) -> None:
        """Remove every restorable proxy, newest first."""
        while self._installed:
            owner, attr, previous, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def write(self, path) -> None:
        """Write every span, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Proxy installation per layer
# ----------------------------------------------------------------------
def trace_query_layers(recorder: Recorder, kspin) -> None:
    """core (heap generation/pops), distance, lowerbound, text.relevance."""

    def proxy_heap(heap):
        recorder.wrap(heap, "pop", "heapgen.pop", restore=False)
        return heap

    recorder.wrap(kspin.heap_generator, "heap_for", "heapgen.create", on_result=proxy_heap)
    for method in ORACLE_METHODS:
        recorder.wrap(kspin.oracle, method, f"oracle.{method}")
    for method in LOWER_BOUND_METHODS:
        recorder.wrap(kspin.lower_bounder, method, f"lowerbound.{method}")
    for method in RELEVANCE_METHODS:
        recorder.wrap(kspin.relevance, method, f"relevance.{method}")


def trace_index_ops(recorder: Recorder, kspin) -> None:
    """core.keyword_index / nvd, through ``KSpin``'s update methods."""
    for method in INDEX_METHODS:
        recorder.wrap(kspin, method, f"index.{method}")


def trace_engine(recorder: Recorder, engine) -> None:
    """serve.engine's query and update entry points."""
    recorder.wrap(engine, "execute", "engine.execute", tag=repr)
    recorder.wrap(engine, "apply", "engine.apply", tag=lambda op: op.op)


def trace_cluster(recorder: Recorder, coordinator) -> None:
    """serve.cluster's batch entry point and every worker round trip."""
    recorder.wrap(coordinator, "execute_many", "cluster.execute_many")
    for handle in coordinator.workers:
        if handle is not None:
            recorder.wrap(handle, "request", lambda kind, *_a, **_k: f"ipc.{kind}")


# ----------------------------------------------------------------------
# Reading spans back
# ----------------------------------------------------------------------
def under(spans, root: str) -> list:
    """Spans belonging to roots named ``root``."""
    return [span for span in spans if span[1] == root]


def self_ms(spans, prefix: str) -> float:
    """Total self time (ms) of spans whose name starts with ``prefix``."""
    return 1000.0 * sum(span[6] for span in spans if span[3].startswith(prefix))


def durations_ms(spans, name: str) -> list[float]:
    """Durations (ms) of the spans named ``name``."""
    return [1000.0 * (span[5] - span[4]) for span in spans if span[3] == name]


def count(spans, prefix: str) -> int:
    return sum(1 for span in spans if span[3].startswith(prefix))
