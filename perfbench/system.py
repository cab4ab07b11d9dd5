"""Building the systems under test from their parts, one public call a phase.

Shared by the in-process workloads and the HTTP server launcher so every
workload's index is built the same way.  ``phase(name, fn, *args)`` runs
one build step; the traced run passes :meth:`layers.Recorder.call` so
each step becomes a ``build.*`` span, the untraced run calls straight
through.
"""

from __future__ import annotations

from typing import Callable

from repro import kernels
from repro.core import KSpin
from repro.datasets import load_dataset
from repro.distance import DijkstraOracle, HubLabeling
from repro.lowerbound import AltLowerBounder

#: ALT landmarks: the ``KSpin`` and ``repro serve`` default.
LANDMARKS = 16
#: US-S with the Dijkstra oracle and NVD seeding: a cheap-to-build
#: index, so transport and routing dominate (http-zipf, cluster-batch).
TRANSPORT_INDEX = {"dataset": "US-S", "oracle": "dijkstra", "seeding": "nvd"}
#: E-S with CH-ordered hub labels and label seeding: the fastest exact
#: query configuration, and the one with a heavy preprocessing step.
QUERY_INDEX = {"dataset": "E-S", "oracle": "phl", "seeding": "labels"}

Phase = Callable[..., object]


def untimed(_name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


def make_oracle(kind: str, graph):
    if kind == "dijkstra":
        return DijkstraOracle(graph)
    if kind == "phl":
        return HubLabeling(graph, order="ch")
    raise ValueError(f"unknown oracle {kind!r}")


def build_index(dataset: str, oracle: str, seeding: str, phase: Phase = untimed):
    """dataset -> CSR -> oracle -> ALT -> K-SPIN index; returns ``(data, kspin)``."""
    data = phase("build.dataset", load_dataset, dataset)
    graph = data.graph
    phase("build.csr", kernels.warm, graph)
    distance = phase("build.oracle", make_oracle, oracle, graph)
    bounds = phase("build.alt", AltLowerBounder, graph, num_landmarks=LANDMARKS)
    kspin = phase(
        "build.index", KSpin, graph, data.keywords,
        oracle=distance, lower_bounder=bounds, seeding=seeding,
    )
    return data, kspin
