"""Zero-order interior-layer profile from the first integral.

The autonomous layer equation conserves (V')^2/2 - W(V), so the monotone
connecting profile satisfies dV/dxi = sqrt(2 W(V)) with W the running
integral of the reaction term at the layer point.  Its inverse,
xi(V) = int_anchor^V dv / sqrt(2 W(v)), is a plain quadrature from the
anchor (kernels.integrate_kink), so no boundary condition at infinity has to
be shot for.  The quadrature stops `SWITCH_EPS` from each root, the table
between its nodes is filled by quintic Hermite interpolation, and the
exponential tails are attached analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from . import expr as ex
from .grids import graded_half_grid
from .kernels import eval_program_array, integrate_kink
from .locator import LayerLocation
from .problem import ProblemSpec
from .quadrature import gl_fixed, gl_rule

#: largest admissible profile shift parameter
P_STAR = 0.1

#: switch to the linearized tail once the profile is this close to a root
SWITCH_EPS = 1e-8

_N_PANELS = 64
_GL_ORDER = 16


class PotentialNegative(RuntimeError):
    """The potential dips below zero strictly between the outer roots."""


class AnchorOutOfRange(RuntimeError):
    """The middle root does not lie strictly between the outer roots."""


class ProfileIntegrationFailed(RuntimeError):
    """The profile quadrature met a non-positive or non-finite potential, or
    the tabulated weight is not positive."""


#: within this distance of a root the potential switches to its Taylor form
_TAYLOR_DIST = 1e-5


@dataclass(frozen=True)
class PotentialTable:
    """Panel-decomposed potential W(v) between the outer roots.

    W integrates the reaction term at the layer point from the lower root.
    Panels cover [root_lo, root_hi]; prefix[j] sums the panels below edge j
    and suffix[j] the panels from edge j upward (accumulated top-down so the
    upper tail keeps full relative accuracy).  Values above the interval
    midpoint are assembled from the top, as minus the integral up to the
    upper root, so W stays relatively accurate where it vanishes
    quadratically.  That takes the structural zero W(root_hi) = 0 as exact:
    the located layer point leaves an O(1e-16) residual in the whole
    integral, far below every tolerance, which as an absolute offset would
    swamp the quadratic vanishing.  Within _TAYLOR_DIST of a root even that
    is not enough (the quadratic is below the quadrature roundoff), so the
    value switches to the quartic Taylor expansion in the signed distance
    d = v - root, whose coefficients are exact symbolic partials of the
    reaction term.
    """

    b: ex.Expr
    t0: float
    edges: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray
    taylor: np.ndarray  # rows (b_u, b_uu, b_uuu) at the lower, upper root

    def w(self, v):
        """W(v) for scalar or array v."""
        a = np.atleast_1d(np.asarray(v, dtype=float))
        edges = self.edges
        m = edges.size - 1
        j = np.clip(np.searchsorted(edges, a) - 1, 0, m - 1)
        upper = a > 0.5 * (edges[0] + edges[m])
        start = np.where(upper, edges[j + 1], edges[j])
        half = 0.5 * np.where(upper, start - a, a - start)
        mid = 0.5 * (start + a)
        glx, glw = gl_rule(_GL_ORDER)
        pts = mid[:, None] + half[:, None] * glx[None, :]
        seg = half * (eval_program_array(self.b, self.t0, pts) @ glw)
        out = np.where(upper, -(seg + self.suffix[j + 1]), self.prefix[j] + seg)
        for root, (b_u, b_uu, b_uuu) in zip((edges[0], edges[m]), self.taylor):
            d = a - root
            near = np.abs(d) < _TAYLOR_DIST
            if near.any():
                d = d[near]
                out[near] = d * d * (0.5 * b_u
                                     + d * (b_uu / 6.0 + d * b_uuu / 24.0))
        return ex.shaped_like(out, v)


@dataclass(frozen=True)
class KinkProfile:
    """Tabulated monotone profile with analytic exponential tails."""

    potential: PotentialTable = field(repr=False)
    t0: float
    phi1_t0: float
    phi2_t0: float
    mu_minus: float        # tail rate toward the lower root
    mu_plus: float         # tail rate toward the upper root
    gamma_bar: float
    xi_max: float
    xi: np.ndarray = field(repr=False)
    v_table: np.ndarray = field(repr=False)
    chi_table: np.ndarray = field(repr=False)
    A_minus: float
    A_plus: float
    _v_interp: CubicHermiteSpline = field(repr=False)
    _chi_interp: CubicHermiteSpline = field(repr=False)

    @property
    def chi_at_zero(self) -> float:
        return float(self.chi_table[self.xi.size // 2])

    def value(self, s):
        """Profile value at unshifted argument s (scalar or array)."""
        return self._table_or_tail(s, self._v_interp,
                                   (self.phi1_t0, self.A_minus),
                                   (self.phi2_t0, -self.A_plus))

    def slope(self, s):
        """Profile derivative (the positive layer weight) at argument s."""
        return self._table_or_tail(s, self._chi_interp,
                                   (0.0, self.mu_minus * self.A_minus),
                                   (0.0, self.mu_plus * self.A_plus))

    def _table_or_tail(self, s, interp, lower, upper):
        """interp(s) on [-xi_max, xi_max], and base + scale exp(-mu |s|)
        with (base, scale) = lower or upper beyond each end."""
        a = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(a)
        below, above = a < -self.xi_max, a > self.xi_max
        mid = ~(below | above)  # NaN is in neither end: the table maps it
        if mid.any():
            out[mid] = interp(a[mid])
        for end, (base, scale), mu in ((below, lower, self.mu_minus),
                                       (above, upper, self.mu_plus)):
            if end.any():
                out[end] = base + scale * np.exp(-mu * np.abs(a[end]))
        return ex.shaped_like(out, s)


def build_potential(spec: ProblemSpec, loc: LayerLocation) -> PotentialTable:
    t0 = loc.t0
    lo = float(spec.phi(1, t0))
    hi = float(spec.phi(2, t0))
    edges = np.linspace(lo, hi, _N_PANELS + 1)
    glx, glw = gl_rule(_GL_ORDER)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = mid[:, None] + half[:, None] * glx[None, :]
    bv = eval_program_array(spec.b, t0, pts)
    panels = half * (bv @ glw)
    prefix = np.concatenate([[0.0], np.cumsum(panels)])
    suffix = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]])
    taylor = np.array([[float(spec.b_val(t0, root, du=k)) for k in (1, 2, 3)]
                       for root in (lo, hi)])
    return PotentialTable(b=spec.b, t0=t0, edges=edges, prefix=prefix,
                          suffix=suffix, taylor=taylor)


def _hermite_quintic(s_t, s_k, v_k, d1_k, d2_k):
    """Two-point quintic Hermite interpolation of node data onto s_t."""
    idx = np.clip(np.searchsorted(s_k, s_t) - 1, 0, s_k.size - 2)
    h = s_k[idx + 1] - s_k[idx]
    t = (s_t - s_k[idx]) / h
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    h00 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h10 = t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h20 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
    h01 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    h11 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
    h21 = 0.5 * t3 - t4 + 0.5 * t5
    return (v_k[idx] * h00 + h * d1_k[idx] * h10 + h * h * d2_k[idx] * h20
            + v_k[idx + 1] * h01 + h * d1_k[idx + 1] * h11
            + h * h * d2_k[idx + 1] * h21)


def _profile_side(pot: PotentialTable, anchor: float, root: float,
                  sign: float, mu: float, s_t: np.ndarray):
    """One side of the profile on s_t = |xi|, and its tail amplitude.

    sign is +1 toward the upper root and -1 toward the lower one, so that
    d = sign (root - v) is the distance to the approached root and
    V = root - sign A exp(-mu s) in the tail.
    """
    s_k, v_k, c_k, b_k, _, status = integrate_kink(pot, anchor, root,
                                                   SWITCH_EPS)
    if status != 0:
        raise ProfileIntegrationFailed(
            f"profile quadrature toward {root:.15g} failed with "
            f"status {status} (1: potential <= 0, 2: non-finite)")

    # Tail amplitude.  A node's own rounding (~1e-16 in V) is a poor
    # *relative* error on the root distance deep in the tail, so the
    # amplitude is read off at moderate depth (distance ~1e-4) and
    # transported to infinity with the exact first-integral correction
    # int_0^d* (1/chi(delta) - 1/(mu delta)) d delta.
    dist = sign * (root - v_k)
    idx = int(np.nonzero(dist >= 1e-4)[0][-1])
    d_star, s_star = float(dist[idx]), float(s_k[idx])

    def correction_integrand(delta):
        # subtract at the distance the potential sees: the rounding of
        # vv is a relative error of ~1e-16 / delta in 1/chi, which the
        # exact delta would leave unmatched next to the root
        vv = root - sign * delta
        seen = sign * (root - vv)
        chi_tilde = np.sqrt(np.maximum(2.0 * pot.w(vv), 0.0))
        return 1.0 / chi_tilde - 1.0 / (mu * seen)

    g_inf = gl_fixed(correction_integrand, 0.0, d_star, n=32)
    amp = d_star * float(np.exp(mu * (s_star + g_inf)))
    # below this depth the pure exponential is accurate to ~1e-6 relative
    s_tail = float(np.log(amp / 1e-6) / mu)

    inside = s_t <= min(s_tail, float(s_k[-1]))
    vals = np.empty_like(s_t)
    vals[inside] = _hermite_quintic(s_t[inside], s_k, v_k, sign * c_k, b_k)
    vals[~inside] = root - sign * amp * np.exp(-mu * s_t[~inside])
    return vals, amp


def build_kink(spec: ProblemSpec, loc: LayerLocation) -> KinkProfile:
    """Construct the profile table from the first integral.

    Computes xi(V) = int dv / sqrt(2 W(v)) from the anchor toward both roots
    down to SWITCH_EPS from each, switches to the linearized exponential
    tail, and fills a graded table (clustered at 0) via quintic Hermite
    interpolation of the quadrature nodes, which carry exact first and
    second derivatives of the profile.
    """
    t0 = loc.t0
    phi1_t0 = float(spec.phi(1, t0))
    phi2_t0 = float(spec.phi(2, t0))
    anchor = float(spec.phi(0, t0))
    if not phi1_t0 < anchor < phi2_t0:
        raise AnchorOutOfRange(
            f"middle root {anchor:.15g} outside ({phi1_t0:.15g}, {phi2_t0:.15g})")

    pot = build_potential(spec, loc)

    # the potential must be strictly positive between the roots
    span = phi2_t0 - phi1_t0
    probe = np.linspace(phi1_t0 + 1e-4 * span, phi2_t0 - 1e-4 * span, 401)
    wvals = pot.w(probe)
    if np.min(wvals) <= 0.0:
        bad = probe[int(np.argmin(wvals))]
        raise PotentialNegative(
            f"potential is {np.min(wvals):.3e} at v={bad:.15g}; "
            "no monotone connecting profile exists")

    mu_minus, mu_plus = (float(mu) for mu in np.sqrt(pot.taylor[:, 0]))
    gamma_bar = min(mu_minus, mu_plus)
    xi_max = 20.0 / gamma_bar

    # each side is tabulated on s = |xi| over the same graded half grid; the
    # lower side's s = 0 repeats the anchor and is dropped
    half_grid = graded_half_grid(xi_max, 3000, 1e-3)
    v_upper, A_plus = _profile_side(pot, anchor, phi2_t0, 1.0, mu_plus,
                                    half_grid)
    v_lower, A_minus = _profile_side(pot, anchor, phi1_t0, -1.0, mu_minus,
                                     half_grid)
    xi = np.concatenate([-half_grid[::-1], half_grid[1:]])
    v_table = np.concatenate([v_lower[:0:-1], v_upper])

    # slope table from the first integral itself: this ties the tabulated
    # weight to the potential exactly at every node
    chi_table = np.sqrt(np.maximum(2.0 * pot.w(v_table), 0.0))
    if not np.all(chi_table > 0.0):
        bad = np.flatnonzero(~(chi_table > 0.0))
        i = bad[np.argmin(np.abs(xi[bad]))]
        raise ProfileIntegrationFailed(
            f"profile weight is {chi_table[i]:.3e} at xi={xi[i]:.6g}: the "
            "profile reaches a root inside the table")
    b_table = ex.evaluate(spec.b, t0, v_table)
    return KinkProfile(
        potential=pot, t0=t0, phi1_t0=phi1_t0, phi2_t0=phi2_t0,
        mu_minus=mu_minus, mu_plus=mu_plus, gamma_bar=gamma_bar,
        xi_max=xi_max, xi=xi, v_table=v_table, chi_table=chi_table,
        A_minus=A_minus, A_plus=A_plus,
        _v_interp=CubicHermiteSpline(xi, v_table, chi_table),
        _chi_interp=CubicHermiteSpline(xi, chi_table, b_table))
