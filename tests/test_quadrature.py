import math

import numpy as np
import pytest

from layerforge.grids import graded_half_grid
from layerforge.quadrature import (MAX_DEPTH, QuadratureFailed, adaptive_gl,
                                   cumulative_corrected)


class TestAdaptiveGL:
    def test_smooth_integrand(self):
        value = adaptive_gl(np.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, abs=1e-14)

    def test_large_smooth_integrand_stops_at_the_roundoff_floor(self):
        """An integral of 3.6e11 carries roundoff far above the absolute
        tolerance; refinement stops there instead of bisecting every
        interval down to the depth cap."""
        calls = []

        def f(v):
            calls.append(v.size)
            return np.exp(30.0 * v)

        value = adaptive_gl(f, 0.0, 1.0, tol=1e-12)
        assert value == pytest.approx(math.expm1(30.0) / 30.0, rel=1e-14)
        assert len(calls) < 300

    @pytest.mark.parametrize("f", [
        lambda v: np.exp(1000.0 * v),
        lambda v: np.where(v > 0.25, np.nan, 1.0),
    ], ids=["overflow", "nan"])
    def test_non_finite_integrand_raises(self, f):
        with np.errstate(over="ignore"):
            with pytest.raises(QuadratureFailed, match="non-finite"):
                adaptive_gl(f, 0.0, 1.0)

    def test_depth_cap_is_reported(self):
        """A step defeats the rule on every interval that straddles it."""
        with pytest.raises(QuadratureFailed, match=f"depth {MAX_DEPTH}"):
            adaptive_gl(lambda v: np.where(v < 1.0 / 3.0, 0.0, 1.0),
                        0.0, 1.0, tol=1e-300)


class TestCumulativeCorrected:
    """Each cell integrates the cubic Hermite interpolant of (y, y'), so a
    cubic is integrated exactly on any grid, in either direction: to
    roundoff in the running sum, against the plain trapezoid's 3.8e-2 on
    this grid."""

    @pytest.mark.parametrize("to_end", [False, True])
    def test_cubic_is_exact_on_a_graded_grid(self, to_end):
        x = graded_half_grid(12.0, 200, 1e-3)
        y = 0.3 - 1.7 * x + 0.9 * x ** 2 - 0.05 * x ** 3
        dy = -1.7 + 1.8 * x - 0.15 * x ** 2
        prim = 0.3 * x - 0.85 * x ** 2 + 0.3 * x ** 3 - 0.0125 * x ** 4
        exact = prim[-1] - prim if to_end else prim - prim[0]
        z = cumulative_corrected(y, dy, x, to_end=to_end)
        assert z[-1 if to_end else 0] == 0.0
        assert np.max(np.abs(z - exact)) <= 1e-14 * prim.max()
