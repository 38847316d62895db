"""Property tests: from just above the degeneracy band of E up to
-E = 1e-2 r1 r2 the quadrature oracle finds the narrow arccos zones without
raising, and the closed form agrees with it to 1e-9, through case III
too; the s1 mirror swaps the closed-form h1 and h2 bit for bit; and both
the closed form and the oracle depend on (s1, s2) only through
kappa = k / |m|.  Skipped when hypothesis is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from semitoric.height import (_k_and_m, case_id, height_closed,  # noqa: E402
                              height_oracle)
from semitoric.model import ModelParams, ns_frame  # noqa: E402
from semitoric.numerics import find_root_bisect  # noqa: E402
from semitoric.singularity import (DEGENERACY_BAND, discriminant_E,  # noqa: E402
                                  is_degenerate)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_R=st.floats(math.log(1 / 8), math.log(8)),
       s2=st.floats(0.0, 1.0),
       log_depth=st.floats(math.log(1.01 * DEGENERACY_BAND), math.log(1e-2)),
       mirror=st.booleans())
def test_oracle_agrees_near_zero_discriminant(log_R, s2, log_depth, mirror):
    # Place s1 where -E/(r1 r2) equals the drawn depth.  E at s1 = 1/2 is
    # -r1 r2 (4 s2^2 - 4 s2 - 1)^2 <= -r1 r2, so a root lies in (0, 1/2)
    # whenever E(s1 = 0) is above -depth r1 r2.
    R, depth = math.exp(log_R), math.exp(log_depth)
    assume(R != 1.0)

    def excess(s1):
        return discriminant_E(ModelParams(1.0, R, s1, s2)) / R + depth

    assume(excess(0.0) > 0.0)
    s1 = find_root_bisect(excess, 0.0, 0.5, 1e-16)
    p = ModelParams(1.0, R, 1.0 - s1 if mirror else s1, s2)
    w = ns_frame(p)
    h1_q, h2_q = height_oracle("NS", w), height_oracle("SN", w)
    assert abs(h1_q + h2_q - 2.0) <= 1e-12
    assert abs(height_closed(p).h1 - h1_q) <= 1e-9


def _kappa(s1, s2, R):
    k, m = _k_and_m(s1, s2, R)
    return k / abs(m)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_R=st.floats(math.log(1 / 8), math.log(8)),
       i=st.integers(1, 1023), s2=st.floats(0.0, 1.0))
def test_mirror_swaps_heights_bit_for_bit(log_R, i, s2):
    # With s1 = i / 1024, 1 - s1 is exact, and so are the sign flip of k
    # and the value of m in the mirror: kappa flips sign and nothing else.
    R = math.exp(log_R)
    assume(R != 1.0)
    p = ModelParams(1.0, R, i / 1024, s2)
    e = discriminant_E(p)
    assume(e < 0 and not is_degenerate(e, p))
    a = height_closed(p)
    b = height_closed(ModelParams(1.0, R, 1.0 - i / 1024, s2))
    assert (b.h1, b.h2) == (a.h2, a.h1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(log_R=st.floats(1e-3, math.log(8)), s1=st.floats(0.02, 0.98),
       s2=st.floats(0.02, 0.98), s1_other=st.floats(0.02, 0.98))
def test_height_depends_on_kappa_only(log_R, s1, s2, s1_other):
    # A second point (s1_other, s2_other) with the same kappa, found by
    # bisection in s2 on the side of s2 = R/(R+1) where kappa has the sign
    # of the first point's.  Same kappa and R give the same closed form and
    # the same oracle integrand, so the heights agree to the rounding of
    # kappa and to the oracle's default tolerance (measured: 6.7e-16 and
    # 2.0e-15 on 300 seeded points).
    R = math.exp(log_R)
    p = ModelParams(1.0, R, s1, s2)
    kappa = _kappa(s1, s2, R)
    assume(discriminant_E(p) < -1e-4 * R and abs(kappa) > 1e-6)

    def excess(t):
        return _kappa(s1_other, t, R) - kappa

    end = 0.0 if (excess(0.0) > 0) == (kappa > 0) else 1.0
    assume((excess(end) > 0) == (kappa > 0))
    s2_other = find_root_bisect(excess, *sorted((end, R / (R + 1))), 1e-17)
    q = ModelParams(1.0, R, s1_other, s2_other)
    assume(discriminant_E(q) < -1e-4 * R)
    assume(case_id(p) != "III" and case_id(q) != "III")
    assert abs(height_closed(p).h1 - height_closed(q).h1) <= 1e-13
    for label in ("NS", "SN"):
        assert abs(height_oracle(label, p) - height_oracle(label, q)) <= 1e-9
