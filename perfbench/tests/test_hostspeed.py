"""Host-speed scaling: the factor's arithmetic and which calls p50_ms covers."""

import pytest

from perfbench import hostspeed
from perfbench.run import Pass, p50_calls


def test_factor_is_reference_over_reading():
    ref = hostspeed.REFERENCE_MS
    assert hostspeed.factor(ref) == pytest.approx(1.0)
    assert hostspeed.factor(2 * ref) == pytest.approx(0.5)


def test_kernel_is_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.kernel_ms() > 0.0


def test_p50_covers_uncached_reads_only_where_hits_are_recorded():
    values = [0.1, 5.0, 0.2, 7.0]
    assert p50_calls(Pass(), values) == values
    rw = Pass(cached=[True, False, True, False])
    assert p50_calls(rw, values) == [5.0, 7.0]
