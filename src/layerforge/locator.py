"""Layer location: the interior point where the signed area of the
reaction term between the outer roots vanishes, and the matching constants
attached to it."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import LayerforgeError
from .problem import CHECK_GRID, ProblemSpec, decay_floor_sq
from .quadrature import adaptive_gl

#: endpoint exclusion for the root bracket, keeps the layer away from the
#: boundary-compatibility points
ENDPOINT_MARGIN = 1e-3

QUAD_TOL = 1e-12

#: points of the sign-change scan of the area integral
SCAN_POINTS = 64


class NoSignChange(LayerforgeError, RuntimeError):
    """The area integral does not change sign: no layer of this type."""


class WrongOrientation(LayerforgeError, RuntimeError):
    """The area derivative has the sign of the mirrored (unstable) layer."""


class DegenerateRoot(LayerforgeError, RuntimeError):
    """The located root of the area integral is not simple."""


@dataclass(frozen=True)
class LayerLocation:
    """Every matching constant of the expansion around one layer point.

    The *_side pairs hold the outer roots (lower first) at t0, evaluated
    once here for the profile, every configuration and every jump: the
    value, slope and curvature of phi_k, b_u(t0, phi_k(t0)) (the squared
    tail rate), and the smooth correction u2 with its slope.  t1 and t2
    (and the constants they derive from) are filled by the corrections
    machinery.  Every field is epsilon-free: epsilon enters only through
    shift(eps), which each configuration names.
    """

    t0: float
    C_I: float
    gamma_bar: float
    gamma: float
    u0_side: tuple
    du0_side: tuple
    ddu0_side: tuple
    bs0_side: tuple
    u2_side: tuple
    du2_side: tuple
    C_II: float | None = None
    C_III: float | None = None
    t1: float | None = None
    t2: float | None = None

    def shift(self, eps: float) -> float:
        """Profile shift t1 + eps*t2 of the expansion at this epsilon."""
        if self.t1 is None or self.t2 is None:
            raise ValueError("matching constants not computed yet")
        return self.t1 + eps * self.t2

    def with_matching(self, C_II: float, C_III: float,
                      t1: float, t2: float) -> "LayerLocation":
        return replace(self, C_II=C_II, C_III=C_III, t1=t1, t2=t2)


def integral_I(spec: ProblemSpec, x: float, dx: int = 0) -> float:
    """Area of the reaction term between the outer roots at fixed x, or
    with dx=1 its exact x-derivative: the endpoint terms vanish because b
    is zero on the roots."""
    return adaptive_gl(lambda v: spec.b_val(x, v, dx=dx), spec.phi(1, x),
                       spec.phi(2, x), tol=QUAD_TOL)


def locate_t0(spec: ProblemSpec) -> LayerLocation:
    """Find the first simple root of the area integral inside (0, 1).

    Bracketing bisection on the first sign change, refined by Newton with
    the exact x-derivative of the area.  Raises NoSignChange when the scan
    sees none, WrongOrientation when the derivative sign corresponds to the
    mirrored layer, and DegenerateRoot when the root is not simple.
    """
    a = ENDPOINT_MARGIN
    b = 1.0 - ENDPOINT_MARGIN
    xs = np.linspace(a, b, SCAN_POINTS)
    vals = np.array([integral_I(spec, float(x)) for x in xs])

    bracket = None
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            bracket = (xs[i], xs[i])
            break
        if vals[i] * vals[i + 1] < 0.0:
            bracket = (xs[i], xs[i + 1])
            break
    if bracket is None:
        if vals[-1] == 0.0:
            bracket = (xs[-1], xs[-1])
        else:
            raise NoSignChange(
                "area integral has no sign change on "
                f"[{a}, {b}] (range {vals.min():.3e} .. {vals.max():.3e})")

    lo, hi = bracket
    if lo != hi:
        flo = integral_I(spec, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = integral_I(spec, mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < 1e-13:
                break
    t0 = 0.5 * (lo + hi)

    # Newton polish on the quadrature-defined area; land as close to the
    # quadrature's own noise floor as possible (the kink tail construction
    # benefits from every digit here)
    best_t, best_f = t0, abs(integral_I(spec, t0))
    for _ in range(12):
        f = integral_I(spec, t0)
        if abs(f) < best_f:
            best_t, best_f = t0, abs(f)
        if abs(f) <= 1e-16:
            break
        df = integral_I(spec, t0, dx=1)
        if df == 0.0:
            break
        step = f / df
        t0 -= step
        if abs(step) < 1e-17:
            break
    f = abs(integral_I(spec, t0))
    if f < best_f:
        best_t, best_f = t0, f
    t0 = best_t
    if best_f > QUAD_TOL:
        raise DegenerateRoot(
            f"area residual {best_f:.3e} at t0={t0:.15g} exceeds {QUAD_TOL}")

    d_area = integral_I(spec, t0, dx=1)
    C_I = -d_area
    if abs(C_I) < 1e-10:
        raise DegenerateRoot(
            f"area derivative {d_area:.3e} at t0={t0:.15g}: root not simple")
    if C_I <= 0.0:
        raise WrongOrientation(
            f"area derivative {d_area:.3e} at t0={t0:.15g} has the sign of "
            "the mirrored layer (upper-to-lower switch), which is not built")

    u0 = tuple(spec.phi(k, t0) for k in (1, 2))
    bs0 = tuple(spec.b_val(t0, u, du=1) for u in u0)
    gamma_bar_sq = min(bs0)
    if gamma_bar_sq <= 0.0:
        raise DegenerateRoot(
            f"du-slope of b at the layer roots is not positive: {gamma_bar_sq:.3e}")

    # decay-rate floor across the domain, on the assumption-check grid
    xg = np.linspace(0.0, 1.0, CHECK_GRID + 1)
    gamma = float(np.sqrt(decay_floor_sq(
        *(spec.b_val(xg, spec.phi(k, xg), du=1) for k in (1, 2)))))

    # b_u > 0 on both roots, so u2 = phi_k'' / b_u is defined
    roots, u2 = zip(*(spec.outer(k, t0, order=1) for k in (1, 2)))
    return LayerLocation(t0=float(t0), C_I=float(C_I),
                         gamma_bar=float(np.sqrt(gamma_bar_sq)),
                         gamma=gamma, u0_side=u0,
                         du0_side=tuple(d[1] for d in roots),
                         ddu0_side=tuple(d[2] for d in roots), bs0_side=bs0,
                         u2_side=tuple(u[0] for u in u2),
                         du2_side=tuple(u[1] for u in u2))
