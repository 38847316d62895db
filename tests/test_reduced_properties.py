"""Property tests of the Duistermaat-Heckman profile for R log-uniform on
(1, 2^53): ``rho`` is the length of the level's physical interval, and the
knots are those of the paper's slope rule (slopes 1, 0, -1, dropping by 1
at each focus-focus level).  Skipped when hypothesis is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from semitoric import reduced  # noqa: E402

LOG_R = st.floats(math.log1p(2.0 ** -52), math.log(reduced.R_LIMIT),
                  exclude_max=True)


def draw_R(log_R):
    """exp(log_R), kept inside (1, 2^53) where exp rounds onto an end."""
    return min(max(math.exp(log_R), math.nextafter(1.0, 2.0)),
               math.nextafter(reduced.R_LIMIT, 0.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_R=LOG_R, u=st.floats(0.0, 1.0))
def test_rho_is_interval_length(log_R, u):
    R = draw_R(log_R)
    l = min(-2.0 + u * (2.0 * R + 2.0), 2.0 * R)
    lo, hi = reduced.physical_interval("NS", l, R)
    assert abs(reduced.dh_function(R).rho(l) - (hi - lo)) <= 2 * math.ulp(
        2.0 * R)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_R=LOG_R)
def test_knots_follow_slope_rule(log_R, dh_slope_rule):
    R = draw_R(log_R)
    ls, rho = reduced.dh_function(R).knots
    assert repr((ls, rho)) == repr(dh_slope_rule.knots(R))  # bit for bit
    assert ls[1:-1] == reduced.ff_levels(R)
    slopes = [(v1 - v0) / (l1 - l0)
              for l0, l1, v0, v1 in zip(ls, ls[1:], rho, rho[1:])]
    assert [s1 - s0 for s0, s1 in zip(slopes, slopes[1:])] == [-1.0, -1.0]
