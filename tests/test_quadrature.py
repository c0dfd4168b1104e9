import math

import numpy as np
import pytest

from layerforge.quadrature import MAX_DEPTH, QuadratureFailed, adaptive_gl


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
