"""Property test: from just above the degeneracy band of E up to
-E = 1e-2 r1 r2 the quadrature oracle finds the narrow arccos zones without
raising, and the closed form agrees with it to 1e-9, through case III
too.  Skipped when hypothesis is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from semitoric.height import height_closed, height_oracle  # noqa: E402
from semitoric.model import ModelParams, ns_frame  # noqa: E402
from semitoric.numerics import find_root_bisect  # noqa: E402
from semitoric.singularity import DEGENERACY_BAND, discriminant_E  # noqa: E402


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
