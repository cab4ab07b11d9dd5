"""The tail-percentile rule: never report a percentile with <10 samples beyond."""

import random

import pytest

from perfbench.stats import TAIL_BEYOND, nearest_rank, tail


@pytest.mark.parametrize("n", [11, 12, 50, 199, 200, 201, 999, 1000, 1001, 5000])
def test_tail_keeps_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    random.Random(n).shuffle(values)
    value, percentile, beyond = tail(values)
    assert beyond == sum(1 for v in values if v > value)
    assert beyond >= TAIL_BEYOND
    assert percentile <= 99.0 + 100.0 / n
    assert value == sorted(values)[round(percentile / 100.0 * n) - 1]


def test_tail_is_p99_with_enough_samples():
    values = [float(i) for i in range(1, 2001)]
    value, percentile, beyond = tail(values)
    assert (value, percentile, beyond) == (1980.0, 99.0, 20)
    assert value == nearest_rank(values, 99)


def test_tail_drops_percentile_with_few_samples():
    value, percentile, beyond = tail([float(i) for i in range(1, 201)])
    assert (value, percentile, beyond) == (190.0, 95.0, 10)


def test_tail_without_enough_samples_reports_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail([]) == (0.0, 0.0, 0)
