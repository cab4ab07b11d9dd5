"""Open-loop accounting: latency from the due time, waits charged honestly."""

import random
import threading
import time

from perfbench.openloop import Sample, poisson_schedule, run


def test_stalled_connection_charges_the_wait_to_queued_requests():
    # One sender; the first response stalls 0.2 s, so the requests due
    # during the stall wait for the connection and their latency counts
    # that wait from their due time.
    stall = 0.2

    def send(_connection, request):
        if request == 0:
            time.sleep(stall)
        return request

    offsets = [0.0, 0.05, 0.10, 0.30]
    samples = run(offsets, list(range(4)), send, connections=1)
    assert [s.response for s in samples] == [0, 1, 2, 3]
    first, second, third, fourth = samples
    assert first.latency >= stall
    for queued in (second, third):
        assert queued.queue_wait >= stall - queued.due + first.due - 0.01
        assert queued.latency >= queued.queue_wait
        assert queued.sent >= first.done
        assert queued.gen_late < 0.01
    # Due after the stall cleared: no queueing, sent on time.
    assert fourth.queue_wait == 0.0
    assert fourth.latency < 0.05


def test_second_connection_absorbs_load_during_a_stall():
    def send(connection, request):
        if request == 0:
            time.sleep(0.2)
        return threading.current_thread().name

    samples = run([0.0, 0.05, 0.10], [0, 1, 2], send, connections=2)
    assert all(s.queue_wait < 0.01 for s in samples[1:])
    assert all(s.latency < 0.05 for s in samples[1:])
    assert samples[0].response != samples[1].response


def test_errors_are_recorded_not_raised():
    def send(_connection, request):
        raise ConnectionResetError("peer went away")

    samples = run([0.0], ["x"], send, connections=1)
    assert samples[0].error == "ConnectionResetError: peer went away"
    assert samples[0].done >= samples[0].sent


def test_sample_timeline_arithmetic():
    sample = Sample(index=0, due=10.0, free=10.5, sent=10.6, done=11.0)
    assert sample.latency == 1.0
    assert sample.queue_wait == 0.5
    assert abs(sample.gen_late - 0.1) < 1e-12


def test_poisson_schedule_is_seeded_and_exact_in_count():
    a = poisson_schedule(20.0, 10.0, random.Random(7))
    b = poisson_schedule(20.0, 10.0, random.Random(7))
    assert a == b and len(a) == 200
    assert a == sorted(a) and 0.0 <= a[0] and a[-1] < 10.0
    assert a != poisson_schedule(20.0, 10.0, random.Random(8))
