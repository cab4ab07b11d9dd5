"""An honest open-loop load generator over a fixed number of connections.

Requests follow a seeded schedule of due times.  Each connection is
owned by one sender thread; a free sender takes the next request in due
order, sleeps until it is due, and sends it.  A sender still busy with
an earlier response cannot send, so a stalled connection delays the
requests queued behind it, and that wait is charged to them because
every latency is timed from the request's *due* time, not from when it
was finally sent.

Per request the generator records four instants — due, connection free,
sent, done — from which it derives:

* ``latency``    = done - due
* ``queue_wait`` = max(0, free - due): waiting for a busy connection
* ``gen_late``   = sent - max(due, free): the generator's own lateness
  (sleep overshoot, scheduling); a run whose generator falls behind
  measures the generator, not the system.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

#: Lead time between building the schedule and its first due time.
START_LEAD_S = 0.05


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Due offsets of a Poisson process of ``rate`` over ``seconds``.

    Conditioned on its expected count ``round(rate * seconds)``: given
    the count, Poisson arrival times are independent and uniform, so the
    offered load is exactly the nominal rate while the gaps stay
    exponential-like and seeded.
    """
    n = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(n))


@dataclass
class Sample:
    """One request's timeline (``perf_counter`` seconds) and outcome."""

    index: int
    due: float
    free: float
    sent: float = 0.0
    done: float = 0.0
    response: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def queue_wait(self) -> float:
        return max(0.0, self.free - self.due)

    @property
    def gen_late(self) -> float:
        return self.sent - max(self.due, self.free)


def _sleep_until(deadline: float) -> None:
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining)


def run(
    offsets: Sequence[float],
    requests: Sequence,
    send: Callable[[int, object], object],
    connections: int = 2,
) -> list[Sample]:
    """Send ``requests[i]`` at ``offsets[i]`` over ``connections`` senders.

    ``send(connection, request)`` performs one request on the given
    connection and returns its response; an exception it raises is
    recorded as that request's error.  All offsets 0 makes a closed
    loop: every sender sends its next request as soon as it is free.
    """
    if len(offsets) != len(requests):
        raise ValueError("one offset per request")
    start = time.perf_counter() + START_LEAD_S
    samples: list[Sample | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def sender(connection: int) -> None:
        while True:
            free = time.perf_counter()
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + offsets[index]
            sample = Sample(index=index, due=due, free=free)
            _sleep_until(due)
            sample.sent = time.perf_counter()
            try:
                sample.response = send(connection, requests[index])
            except Exception as error:  # noqa: BLE001 - recorded as a failed request
                sample.error = f"{type(error).__name__}: {error}"
            sample.done = time.perf_counter()
            samples[index] = sample

    threads = [
        threading.Thread(target=sender, args=(c,), name=f"sender-{c}")
        for c in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [sample for sample in samples if sample is not None]


class KeepAliveClient:
    """One persistent ``http.client`` connection per sender.

    A request that fails at the transport level drops its connection;
    the next request on that sender opens a fresh one, so
    :attr:`opened` counts every connection the load used.
    """

    def __init__(self, host: str, port: int, connections: int, timeout: float = 30.0) -> None:
        self._host, self._port, self._timeout = host, port, timeout
        self._connections: list[http.client.HTTPConnection | None] = [None] * connections
        self.opened = 0

    def post(self, connection: int, path: str, payload: dict) -> tuple[int, dict]:
        conn = self._connections[connection]
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=self._timeout)
            self._connections[connection] = conn
            self.opened += 1
        body = json.dumps(payload).encode()
        try:
            conn.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            self._connections[connection] = None
            raise
        return response.status, json.loads(data)

    def close(self) -> None:
        for conn in self._connections:
            if conn is not None:
                conn.close()
        self._connections = [None] * len(self._connections)
