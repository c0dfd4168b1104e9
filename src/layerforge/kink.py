"""Zero-order interior-layer profile from the first integral.

The autonomous layer equation conserves (V')^2/2 - W(V), so the monotone
connecting profile satisfies dV/dxi = sqrt(2 W(V)) with W the running
integral of the reaction term at the layer point.  Its inverse,
xi(V) = int_anchor^V dv / sqrt(2 W(v)), is a plain quadrature from the
anchor (kernels.integrate_kink), so no boundary condition at infinity has to
be shot for.  The quadrature nodes, which stop `SWITCH_EPS` from each root,
are the profile table: V and chi = V' are read between them by quintic
Hermite pieces on their exact derivatives (V'' = b(V), chi'' = b_u chi),
and the exponential tails are attached analytically past each side's end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PPoly

from . import expr as ex
from .errors import LayerforgeError
from .grids import quintic_pieces
from .kernels import eval_program_array, integrate_kink
from .locator import LayerLocation
from .problem import ProblemSpec
from .quadrature import gl_fixed, gl_rule

#: largest admissible profile shift parameter
P_STAR = 0.1

#: the quadrature nodes stop this close to each root
SWITCH_EPS = 1e-10

_N_PANELS = 64
_GL_ORDER = 16


class PotentialNegative(LayerforgeError, RuntimeError):
    """The potential dips below zero strictly between the outer roots."""


class AnchorOutOfRange(LayerforgeError, RuntimeError):
    """The middle root does not lie strictly between the outer roots."""


class ProfileIntegrationFailed(LayerforgeError, RuntimeError):
    """The profile quadrature met a non-positive or non-finite potential."""


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
    """The profile's quadrature nodes as its table, with analytic
    exponential tails past each side's end."""

    potential: PotentialTable = field(repr=False)
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
    _v_interp: PPoly = field(repr=False)
    _chi_interp: PPoly = field(repr=False)

    @property
    def chi_at_zero(self) -> float:
        return float(self.chi_table[self.xi.size // 2])

    @property
    def ends(self) -> tuple[float, float]:
        """The table's lower and upper end: each side's last node, or
        -+xi_max where that comes first."""
        return max(-self.xi_max, float(self.xi[0])), min(self.xi_max,
                                                         float(self.xi[-1]))

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
        """interp(s) between the table's ends, and base + scale
        exp(-mu |s|) with (base, scale) = lower or upper beyond each."""
        a = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(a)
        lo, hi = self.ends
        below, above = a < lo, a > hi
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
    lo, hi = loc.u0_side
    edges = np.linspace(lo, hi, _N_PANELS + 1)
    glx, glw = gl_rule(_GL_ORDER)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = mid[:, None] + half[:, None] * glx[None, :]
    bv = eval_program_array(spec.b, t0, pts)
    panels = half * (bv @ glw)
    prefix = np.concatenate([[0.0], np.cumsum(panels)])
    suffix = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]])
    taylor = np.array([(b_u, *(spec.b_val(t0, root, du=k) for k in (2, 3)))
                       for root, b_u in zip(loc.u0_side, loc.bs0_side)])
    return PotentialTable(b=spec.b, t0=t0, edges=edges, prefix=prefix,
                          suffix=suffix, taylor=taylor)


def _profile_side(pot: PotentialTable, anchor: float, root: float,
                  sign: float, mu: float):
    """One side of the profile: its quadrature nodes (s, V, chi, b) on
    s = |xi|, and its tail amplitude.

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

    g_inf = gl_fixed(correction_integrand, 0.0, d_star, 32)
    amp = d_star * float(np.exp(mu * (s_star + g_inf)))
    return (s_k, v_k, c_k, b_k), amp


def build_kink(spec: ProblemSpec, loc: LayerLocation) -> KinkProfile:
    """Construct the profile table from the first integral.

    Computes xi(V) = int dv / sqrt(2 W(v)) from the anchor toward both roots
    down to SWITCH_EPS from each.  Those nodes, which carry the exact
    derivatives chi = V', b = V'' and b_u chi = chi'', are the table; V and
    chi are read between them by one quintic Hermite PPoly each, and past
    each side's end (its last node, or xi_max = 20 / gamma_bar where that
    comes first) by the linearized exponential tail.
    """
    t0 = loc.t0
    phi1_t0, phi2_t0 = loc.u0_side
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

    upper, A_plus = _profile_side(pot, anchor, phi2_t0, 1.0, mu_plus)
    lower, A_minus = _profile_side(pot, anchor, phi1_t0, -1.0, mu_minus)
    # the lower side's nodes in ascending xi = -s; its s = 0 repeats the
    # anchor and is dropped
    xi, v_table, chi_table, b_table = (
        np.concatenate([sign * lo[:0:-1], up])
        for sign, lo, up in zip((-1.0, 1.0, 1.0, 1.0), lower, upper))
    d2chi = spec.b_val(t0, v_table, du=1) * chi_table
    return KinkProfile(
        potential=pot, phi1_t0=phi1_t0, phi2_t0=phi2_t0,
        mu_minus=mu_minus, mu_plus=mu_plus, gamma_bar=gamma_bar,
        xi_max=20.0 / gamma_bar, xi=xi, v_table=v_table, chi_table=chi_table,
        A_minus=A_minus, A_plus=A_plus,
        _v_interp=quintic_pieces(xi, v_table, chi_table, b_table),
        _chi_interp=quintic_pieces(xi, chi_table, b_table, d2chi))
