"""The http-zipf server process: builds the index, serves, answers stdin.

Started by ``perfbench/run.py`` as ``python3 perfbench/server.py
[--trace]``.  It builds the US-S / Dijkstra index from its parts, starts
a ``QueryServer`` over a single-process ``Engine`` with the ``repro
serve`` defaults, and prints ``{"port": ...}`` on one stdout line.  It
then reads commands from stdin, one per line, and answers each with one
JSON line:

* ``trace`` — install the layer proxies around the backend (traced runs);
* ``stats`` — peak RSS, index/oracle memory, and every recorded span;
* ``quit`` (or end of input) — shut the server down and exit.

With ``--trace`` the build phases are timed as ``build.*`` spans too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.layers import Recorder, trace_engine, trace_query_layers  # noqa: E402
from perfbench.stats import self_peak_rss_mb  # noqa: E402
from perfbench.system import TRANSPORT_INDEX, build_index, untimed  # noqa: E402
from repro.serve import Engine, QueryServer  # noqa: E402

#: ``repro serve`` defaults: result-cache entries and query threads.
CACHE_SIZE = 1024
QUERY_THREADS = 4


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    recorder = Recorder()
    phase = recorder.call if args.trace else untimed
    _data, kspin = build_index(**TRANSPORT_INDEX, phase=phase)

    def serve():
        engine = Engine(kspin, cache_size=CACHE_SIZE)
        return engine, QueryServer(engine, workers=QUERY_THREADS).start_background()

    engine, server = phase("build.serve", serve)
    print(json.dumps({"port": server.port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                trace_query_layers(recorder, kspin)
                trace_engine(recorder, engine)
                reply: dict = {"ok": True}
            elif command == "stats":
                reply = {
                    "peak_rss_mb": self_peak_rss_mb(),
                    "oracle_bytes": kspin.oracle.memory_bytes(),
                    "index_bytes": kspin.memory_bytes(),
                    "spans": recorder.spans,
                }
            elif command == "quit":
                break
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
