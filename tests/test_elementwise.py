"""The elementwise contract behind the bit-identical grids.

Every formula that runs on floats and on a ``ParamGrid`` is written once:
powers as products, log and atan2 through NumPy on floats too, square roots
and copysign through ``math`` on floats and NumPy on arrays.  A grid
cell then equals its float call bit for bit only if NumPy's functions give
a Python float the same bits as the element of their vector loop, and if
``math.sqrt`` and ``math.copysign`` equal their NumPy forms.  These tests check that premise on the
NumPy at hand, so a build that breaks it fails here by name rather than as
a changed sweep digest.  They also pin the float path's errors: a
non-positive log argument raises ``math.log``'s own ``ValueError``.
"""

import math

import numpy as np
import pytest

from semitoric import height

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5,
           5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1e300, 1e-300,
           math.pi / 2, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53]


def premise_values():
    """Special values, then seeded values of every magnitude and sign; an
    odd count, so the vector loops also run their tails."""
    rng = np.random.default_rng(20261018)
    magnitudes = np.exp(rng.uniform(-745.0, 709.0, 8000))
    signs = rng.choice([-1.0, 1.0], 8000)
    return np.concatenate([SPECIAL, signs * magnitudes,
                           rng.uniform(-10.0, 10.0, 8000),
                           rng.uniform(0.0, 2.0, 4001)])


def mismatches(got, want):
    """Positions where two float64 arrays differ in their bits (two NaNs
    count as equal: a NaN cell is re-run through the float path)."""
    differ = got.view(np.int64) != want.view(np.int64)
    return np.flatnonzero(differ & ~(np.isnan(got) & np.isnan(want)))


@pytest.mark.parametrize("ufunc", [np.log, np.sqrt],
                         ids=lambda f: f.__name__)
def test_ufunc_on_float_equals_vector_loop(ufunc):
    values = premise_values()
    n = values.size // 41 * 41
    with np.errstate(all="ignore"):
        vector = ufunc(values)
        grid = ufunc(values[:n].reshape(-1, 41))
        scalar = np.array([float(ufunc(x)) for x in values.tolist()])
    bad = mismatches(scalar, vector)
    assert bad.size == 0, f"{ufunc.__name__} differs at {values[bad[:5]]}"
    assert mismatches(grid.ravel(), vector[:n]).size == 0


def test_arctan2_on_float_equals_vector_loop():
    y = premise_values()
    x = np.random.default_rng(20261019).permutation(y)
    n = y.size // 41 * 41
    with np.errstate(all="ignore"):
        vector = np.arctan2(y, x)
        grid = np.arctan2(y[:n].reshape(-1, 41), x[:n].reshape(-1, 41))
        scalar = np.array([float(np.arctan2(b, a))
                           for b, a in zip(y.tolist(), x.tolist())])
    bad = mismatches(scalar, vector)
    assert bad.size == 0, f"arctan2 differs at {y[bad[:5]]}, {x[bad[:5]]}"
    assert mismatches(grid.ravel(), vector[:n]).size == 0


def test_math_sqrt_equals_np_sqrt():
    values = np.abs(premise_values())
    scalar = np.array([math.sqrt(x) for x in values.tolist()])
    bad = mismatches(scalar, np.sqrt(values))
    assert bad.size == 0, f"sqrt differs at {values[bad[:5]]}"


def test_math_copysign_equals_np_copysign():
    # The sign of kappa goes through math.copysign on floats and
    # np.copysign on arrays; NaN and -0.0 included.
    values = premise_values()
    scalar = np.array([math.copysign(1.0, x) for x in values.tolist()])
    bad = mismatches(scalar, np.copysign(1.0, values))
    assert bad.size == 0, f"copysign differs at {values[bad[:5]]}"


def math_log_error(x):
    with pytest.raises(ValueError) as exc:
        math.log(x)
    return str(exc.value)


class TestFloatLogErrors:
    """The float path rejects what ``math.log`` rejects, with its
    message."""

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -5e-324, -math.inf])
    def test_non_positive_argument(self, x):
        with pytest.raises(ValueError) as exc:
            height._FLOAT_MATH.log(x)
        assert str(exc.value) == math_log_error(x)

    def test_values(self):
        log = height._FLOAT_MATH.log
        assert math.isnan(log(math.nan)) and log(math.inf) == math.inf
        assert type(log(2.0)) is float and log(2.0) == float(np.log(2.0))


def test_float_results_are_floats():
    # Error messages and the CLI print float results with repr.
    assert type(height.closed_form_F(0.25, 0.25, 2.0)) is float
