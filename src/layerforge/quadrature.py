"""Quadrature helpers: Gauss-Legendre rules, composite Simpson, and the
running endpoint-corrected trapezoid of the correction tables.

All integrands handled here are smooth; adaptivity is by interval bisection
with a two-level error estimate.  The running rule reads each integrand's
slopes at the nodes beside its values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import LayerforgeError


@lru_cache(maxsize=16)
def gl_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def gl_fixed(f, a: float, b: float, n: int) -> float:
    """Fixed-order Gauss-Legendre integral of f over [a, b]."""
    x, w = gl_rule(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


class QuadratureFailed(LayerforgeError, RuntimeError):
    """Adaptive quadrature met a non-finite estimate or its depth cap."""


#: bisection depth at which adaptive_gl gives up
MAX_DEPTH = 40

#: a gap within this many ulps of |left| + |right| is roundoff, which no
#: bisection can reduce (one ulp of an integral of 1e13 is 2e-3)
_ROUNDOFF_ULPS = 64


def adaptive_gl(f, a: float, b: float, tol: float = 1e-12, _depth: int = 0) -> float:
    """Adaptive Gauss-Legendre integral with absolute tolerance `tol`.

    Bisects until the 15-point estimate of an interval agrees with the sum
    of the two half-interval estimates, to within `tol` or to within the
    roundoff floor of that sum.  Raises QuadratureFailed on a non-finite
    estimate or when an interval still disagrees at depth MAX_DEPTH;
    smooth integrands converge long before the cap.
    """
    if a == b:
        return 0.0
    whole = gl_fixed(f, a, b, 15)
    mid = 0.5 * (a + b)
    left = gl_fixed(f, a, mid, 15)
    right = gl_fixed(f, mid, b, 15)
    if not np.isfinite(whole + left + right):
        raise QuadratureFailed(f"non-finite integral estimate on "
                               f"[{a:.17g}, {b:.17g}]")
    gap = abs(whole - (left + right))
    floor = _ROUNDOFF_ULPS * np.finfo(float).eps * (abs(left) + abs(right))
    if gap <= tol or gap <= floor:
        return left + right
    if _depth >= MAX_DEPTH:
        raise QuadratureFailed(
            f"adaptive quadrature reached depth {MAX_DEPTH} on "
            f"[{a:.17g}, {b:.17g}] with gap {gap:.3e} (tol {tol:.3e})")
    return (adaptive_gl(f, a, mid, 0.5 * tol, _depth + 1)
            + adaptive_gl(f, mid, b, 0.5 * tol, _depth + 1))


def composite_simpson(f, a: float, b: float, n: int) -> float:
    """Composite Simpson rule with n subintervals (n made even)."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * float(y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def cumulative_corrected(y: np.ndarray, dy: np.ndarray, x: np.ndarray,
                         to_end: bool = False) -> np.ndarray:
    """Running endpoint-corrected trapezoid integral of y, given its slopes dy.

    Each cell [x0, x1] of width h adds h/2 (y0 + y1) + h^2/12 (y0' - y1'),
    the integral of the cubic Hermite interpolant of (y, y') on the cell
    (Euler-Maclaurin's first correction), so the rule is exact for cubics
    and its error is O(h^4) on any graded grid.  Returns z with z[0] = 0
    and z[i] = integral of y from x[0] to x[i]; with to_end, z[-1] = 0 and
    z[i] = integral of y from x[i] to x[-1], accumulated from the far end
    so that exponentially small tail values keep full relative accuracy
    (no large-minus-large cancellation).
    """
    h = np.diff(x)
    inc = h * (0.5 * (y[1:] + y[:-1]) + (h / 12.0) * (dy[:-1] - dy[1:]))
    z = np.empty_like(y)
    if to_end:
        z[-1] = 0.0
        z[:-1] = np.cumsum(inc[::-1])[::-1]
    else:
        z[0] = 0.0
        np.cumsum(inc, out=z[1:])
    return z
