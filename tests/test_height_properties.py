"""Property test: near E = 0 the quadrature oracle still finds the narrow
arccos zones and agrees with the closed form.  Skipped when hypothesis is
not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from semitoric.height import height_both  # noqa: E402
from semitoric.model import ModelParams, ns_frame  # noqa: E402
from semitoric.numerics import find_root_bisect  # noqa: E402
from semitoric.singularity import discriminant_E  # noqa: E402


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(log_R=st.floats(math.log(1 / 8), math.log(8)),
       s2=st.floats(0.0, 1.0),
       log_depth=st.floats(math.log(5e-6), math.log(1e-2)),
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
    assume(abs((2 * w.s1 - 1) * (w.R * (w.s2 - 1) + w.s2)) > 1e-3)
    assert height_both(p).discrepancy <= 1e-9
