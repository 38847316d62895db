"""Property test: on random windows, shapes and radius ratios the array
``sweep`` prints what the per-cell loop prints, failures included.
Skipped when hypothesis is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_sweep import array_sweep, reference_sweep, sweep_argv  # noqa: E402

unit = st.floats(0.0, 1.0)
windows = st.tuples(unit, unit).map(sorted).filter(lambda w: w[0] < w[1])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_R=st.floats(math.log(1 / 8), math.log(8)),
       quantity=st.sampled_from(["height", "nff", "E"]),
       s1_window=windows, s2_window=windows,
       shape=st.tuples(st.integers(2, 12), st.integers(2, 12)))
def test_array_sweep_matches_cell_loop(log_R, quantity, s1_window,
                                       s2_window, shape):
    R = math.exp(log_R)
    if R == 1.0:
        R = 2.0
    argv = sweep_argv(R, quantity, s1_window, s2_window, shape)
    assert array_sweep(argv) == reference_sweep(argv)
