"""Property test: on random windows, shapes and radius ratios the array
``sweep`` prints what the per-cell loop prints, failures included.  R is
log-uniform on [1e-6, 1e6], and an axis window may end exactly on the
case-III line s1 = 1/2 or s2 = R/(R+1), so the grid contains it.  Skipped
when hypothesis is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from test_sweep import array_sweep, reference_sweep, sweep_argv  # noqa: E402

unit = st.floats(0.0, 1.0)
windows = st.tuples(unit, unit).map(sorted).filter(lambda w: w[0] < w[1])


def window_through(draw, line):
    """A window of the unit interval; if ``line`` is given, one of its ends
    is exactly ``line`` (linspace keeps both ends exact)."""
    if line is None:
        return draw(windows)
    return tuple(sorted((line, draw(unit.filter(lambda v: v != line)))))


@st.composite
def sweeps(draw):
    R = math.exp(draw(st.floats(math.log(1e-6), math.log(1e6))))
    if R == 1.0:
        R = 2.0
    s1_line = draw(st.sampled_from([None, 0.5]))
    s2_line = draw(st.sampled_from([None, R / (R + 1)]))
    return sweep_argv(R, draw(st.sampled_from(["height", "nff", "E"])),
                      window_through(draw, s1_line),
                      window_through(draw, s2_line),
                      draw(st.tuples(st.integers(2, 12), st.integers(2, 12))))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(argv=sweeps())
def test_array_sweep_matches_cell_loop(argv):
    assert array_sweep(argv) == reference_sweep(argv)
