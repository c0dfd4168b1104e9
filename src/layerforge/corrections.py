"""Layer correction terms.

All four corrections (the first- and second-order layer terms and the two
perturbation shapes) solve the same two-branch jump problem

    [-d^2/dxi^2 + B_s(v0)] nu = psi   on R \\ {0},
    nu(0-) = jump_minus, nu(0+) = jump_plus, nu(+-inf) = 0,

whose explicit solution by variation of parameters uses the profile weight
chi as the decaying homogeneous solution.  The nested double integral is
evaluated with running trapezoid sums on a graded grid (O(n)), and the
derivative jump at 0 comes from the quadrature identity

    Phi[nu] = ( -int psi chi + (jump_minus - jump_plus) chi'(0) ) / chi(0),

never from numerically differentiating nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import expr as ex
from .grids import graded_half_grid, one_sided_derivative
from .kink import KinkProfile, P_STAR
from .locator import DegenerateRoot, LayerLocation
from .problem import ProblemSpec
from .quadrature import adaptive_gl, cumtrapz_from_zero, cumtrapz_to_end

#: default graded grid for correction tables; the range runs far beyond the
#: profile table because the corrections carry polynomial factors (up to
#: quartic) on top of the exponential decay and the tail-rate fits need the
#: polynomial bias 1/|xi| to be small across the fit window; the density is
#: set by the running trapezoid sums needing ~1e-7 accuracy mid-range
GRID_N_PER_SIDE = 40000
GRID_SPACING0 = 2.5e-4
GRID_RANGE_FACTOR = 82.0


class NonDecayingSource(ValueError):
    """The source grows faster than |xi|^6 relative to the profile weight."""


# ---------------------------------------------------------------------------
# Auxiliary evaluators around one (p, shift) configuration


@dataclass(frozen=True)
class LayerAuxiliary:
    """Shifted-profile evaluators and partials of B(x,s) = b(x, u0(x)+s).

    Because the profile value V0 equals u0 at the layer point plus the layer
    component, every partial of B at the layer point collapses to partials
    of b evaluated at (t0, V0(xi)), with the side entering only through the
    one-sided derivatives of the outer roots.  side=-1 is the branch left of
    the layer point, +1 the right branch.
    """

    spec: ProblemSpec = field(repr=False)
    kink: KinkProfile = field(repr=False)
    p: float
    tbar1: float
    u0_side: tuple          # (phi1(t0), phi2(t0))
    du0_side: tuple         # first root derivatives at t0
    ddu0_side: tuple        # second root derivatives at t0
    u2_side: tuple          # smooth second-order correction, one-sided values
    bs0_side: tuple         # B_s(., 0) per side (squared tail rates)

    @property
    def t0(self) -> float:
        return self.kink.t0

    def _idx(self, side: int) -> int:
        return 0 if side < 0 else 1

    def V0(self, xi):
        return self.kink.value(np.asarray(xi, dtype=float) - self.tbar1 + self.p)

    def chi(self, xi):
        return self.kink.slope(np.asarray(xi, dtype=float) - self.tbar1 + self.p)

    def chi_prime(self, xi):
        # chi' equals the reaction at the profile
        return self.spec.b_val(self.t0, self.V0(xi))

    def chi_ppp(self, xi):
        v = self.V0(xi)
        chi = self.chi(xi)
        return (self.spec.b_val(self.t0, v, du=2) * chi * chi
                + self.spec.b_val(self.t0, v, du=1) * self.spec.b_val(self.t0, v))

    def v0(self, xi, side: int):
        return self.V0(xi) - self.u0_side[self._idx(side)]

    def B_s(self, xi):
        return self.spec.b_val(self.t0, self.V0(xi), du=1)

    def B_x(self, xi, side: int):
        v = self.V0(xi)
        du0 = self.du0_side[self._idx(side)]
        return (self.spec.b_val(self.t0, v, dx=1)
                + du0 * self.spec.b_val(self.t0, v, du=1))

    def B_xx(self, xi, side: int):
        v = self.V0(xi)
        i = self._idx(side)
        du0 = self.du0_side[i]
        ddu0 = self.ddu0_side[i]
        return (self.spec.b_val(self.t0, v, dx=2)
                + 2.0 * du0 * self.spec.b_val(self.t0, v, dx=1, du=1)
                + du0 * du0 * self.spec.b_val(self.t0, v, du=2)
                + ddu0 * self.spec.b_val(self.t0, v, du=1))

    def B_xs(self, xi, side: int):
        v = self.V0(xi)
        du0 = self.du0_side[self._idx(side)]
        return (self.spec.b_val(self.t0, v, dx=1, du=1)
                + du0 * self.spec.b_val(self.t0, v, du=2))

    def B_ss(self, xi):
        return self.spec.b_val(self.t0, self.V0(xi), du=2)


def make_auxiliary(spec: ProblemSpec, kink: KinkProfile, loc: LayerLocation,
                   p: float, tbar1: float | None = None) -> LayerAuxiliary:
    """Bundle the evaluators for one (p, shift) configuration.

    tbar1 defaults to the location's matched shift; the matching pass itself
    supplies explicit intermediate values.
    """
    if abs(p) > P_STAR:
        raise ValueError(f"|p| must not exceed {P_STAR}, got {p}")
    if tbar1 is None:
        tbar1 = loc.tbar1
    t0 = loc.t0
    u0 = (float(spec.phi(1, t0)), float(spec.phi(2, t0)))
    du0 = (float(spec.phi(1, t0, order=1)), float(spec.phi(2, t0, order=1)))
    ddu0 = (float(spec.phi(1, t0, order=2)), float(spec.phi(2, t0, order=2)))
    bs0 = (float(spec.b_val(t0, u0[0], du=1)), float(spec.b_val(t0, u0[1], du=1)))
    u2 = (ddu0[0] / bs0[0], ddu0[1] / bs0[1])
    return LayerAuxiliary(spec=spec, kink=kink, p=p, tbar1=float(tbar1),
                          u0_side=u0, du0_side=du0, ddu0_side=ddu0,
                          u2_side=u2, bs0_side=bs0)


# ---------------------------------------------------------------------------
# The generic jump problem


@dataclass(frozen=True)
class CorrectionTerm:
    """Two-branch solution of the jump problem with its jump data."""

    label: str
    p: float
    tbar1: float
    xi_neg: np.ndarray = field(repr=False)   # ascending, [-Xi .. 0]
    val_neg: np.ndarray = field(repr=False)
    xi_pos: np.ndarray = field(repr=False)   # ascending, [0 .. Xi]
    val_pos: np.ndarray = field(repr=False)
    jump_minus: float
    jump_plus: float
    phi_numerator: float
    phi_value: float
    chi0: float
    dchi0: float
    mu_minus: float
    mu_plus: float
    psi_fn: object = field(repr=False, compare=False)
    _spline_neg: CubicSpline = field(repr=False, compare=False)
    _spline_pos: CubicSpline = field(repr=False, compare=False)

    @property
    def xi_max(self) -> float:
        return float(self.xi_pos[-1])

    def _branch_eval(self, xi, positive: bool):
        xi = np.asarray(xi, dtype=float)
        out = np.empty_like(xi)
        if positive:
            inside = xi <= self.xi_max
            out[inside] = self._spline_pos(xi[inside])
            out[~inside] = (self.val_pos[-1]
                            * np.exp(-self.mu_plus * (xi[~inside] - self.xi_max)))
        else:
            inside = xi >= -self.xi_max
            out[inside] = self._spline_neg(xi[inside])
            out[~inside] = (self.val_neg[0]
                            * np.exp(self.mu_minus * (xi[~inside] + self.xi_max)))
        return out

    def value(self, xi, side: int | None = None):
        """nu(xi); the branch at xi=0 is picked by `side` (+1 by default)."""
        a = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty_like(a)
        if side is not None:
            out[:] = self._branch_eval(a, side > 0)
        else:
            neg = a < 0.0
            out[neg] = self._branch_eval(a[neg], False)
            out[~neg] = self._branch_eval(a[~neg], True)
        return ex.shaped_like(out, xi)


def solve_jump(chi, psi, nu0_minus: float, nu0_plus: float,
               grid: np.ndarray, *, chi_prime, bs, mu_minus: float,
               mu_plus: float, label: str = "nu", p: float = 0.0,
               tbar1: float = 0.0) -> CorrectionTerm:
    """Solve the two-branch jump problem on a graded half-grid.

    chi, chi_prime, bs are callables of xi; psi is a callable of (xi, side).
    `grid` is the ascending half-grid [0 .. Xi]; the negative branch uses its
    mirror image.  Inner integrals accumulate running trapezoid sums once
    over each branch; the integral tails beyond the grid use the analytic
    exponential rate of chi*psi.
    """
    grid = np.asarray(grid, dtype=float)
    xi_pos = grid
    xi_neg = -grid[::-1]

    chi_pos = np.asarray(chi(xi_pos), dtype=float)
    chi_neg = np.asarray(chi(xi_neg), dtype=float)
    psi_pos = np.asarray(psi(xi_pos, 1), dtype=float)
    psi_neg = np.asarray(psi(xi_neg, -1), dtype=float)
    chi0 = float(chi_pos[0])
    dchi0 = float(chi_prime(0.0))

    _check_decay(xi_pos, psi_pos, chi_pos, label)
    _check_decay(-xi_neg[::-1], psi_neg[::-1], chi_neg[::-1], label)

    # negative branch: inner integral from -inf up to xi
    g_neg = chi_neg * psi_neg
    tail_neg = g_neg[0] / (2.0 * mu_minus)
    inner_neg = tail_neg + cumtrapz_from_zero(g_neg, xi_neg)
    r_neg = inner_neg / (chi_neg * chi_neg)
    # outer integral from xi up to 0, accumulated backwards
    outer_neg = cumtrapz_from_zero(r_neg, xi_neg)
    outer_neg = outer_neg[-1] - outer_neg
    val_neg = chi_neg * outer_neg + (nu0_minus / chi0) * chi_neg

    # positive branch: inner integral from xi up to +inf, accumulated from
    # the far end so the exponentially small tail survives the chi^-2 weight
    g_pos = chi_pos * psi_pos
    tail_pos = g_pos[-1] / (2.0 * mu_plus)
    inner_pos = cumtrapz_to_end(g_pos, xi_pos) + tail_pos
    r_pos = inner_pos / (chi_pos * chi_pos)
    outer_pos = cumtrapz_from_zero(r_pos, xi_pos)
    val_pos = chi_pos * outer_pos + (nu0_plus / chi0) * chi_pos

    # jump data is exact at the table ends by construction
    val_neg[-1] = nu0_minus
    val_pos[0] = nu0_plus

    phi_numerator = (-(inner_neg[-1] + inner_pos[0])
                     + (nu0_minus - nu0_plus) * dchi0)
    phi_value = phi_numerator / chi0

    # end conditions: nu'' from the governing equation at both branch ends
    ends = [0, -1]
    d2_neg = (np.asarray(bs(xi_neg[ends]), dtype=float) * val_neg[ends]
              - psi_neg[ends])
    d2_pos = (np.asarray(bs(xi_pos[ends]), dtype=float) * val_pos[ends]
              - psi_pos[ends])
    spline_neg = CubicSpline(xi_neg, val_neg,
                             bc_type=((2, d2_neg[0]), (2, d2_neg[1])))
    spline_pos = CubicSpline(xi_pos, val_pos,
                             bc_type=((2, d2_pos[0]), (2, d2_pos[1])))

    return CorrectionTerm(label=label, p=p, tbar1=tbar1, xi_neg=xi_neg,
                          val_neg=val_neg, xi_pos=xi_pos, val_pos=val_pos,
                          jump_minus=float(nu0_minus), jump_plus=float(nu0_plus),
                          phi_numerator=float(phi_numerator),
                          phi_value=float(phi_value), chi0=chi0, dchi0=dchi0,
                          mu_minus=mu_minus, mu_plus=mu_plus, psi_fn=psi,
                          _spline_neg=spline_neg, _spline_pos=spline_pos)


def _check_decay(xi_abs, psi, chi, label):
    """Reject sources growing faster than |xi|^6 relative to the weight.

    Estimates the growth exponent of |psi|/chi from the ratio of its maxima
    near the grid end and near the window middle; admissible sources stay at
    or below the sixth power.
    """
    ratio = np.abs(psi) / chi
    hi = xi_abs[-1]
    mid = ratio[(xi_abs >= 0.45 * hi) & (xi_abs <= 0.55 * hi)].max()
    end = ratio[xi_abs >= 0.9 * hi].max()
    if mid <= 1e-280 or end <= 1e-280:
        return
    exponent = np.log(end / mid) / np.log(0.95 * hi / (0.5 * hi))
    if exponent > 6.5:
        raise NonDecayingSource(
            f"source of {label!r} grows like |xi|^{exponent:.1f} relative "
            "to the profile weight (limit is the sixth power)")


def phi_from_tables(term: CorrectionTerm) -> float:
    """Cross-check value of the jump from one-sided table derivatives."""
    left = one_sided_derivative(term.xi_neg, term.val_neg, at_start=False)
    right = one_sided_derivative(term.xi_pos, term.val_pos, at_start=True)
    return left - right


# ---------------------------------------------------------------------------
# The four concrete corrections


def _default_grid(kink: KinkProfile) -> np.ndarray:
    xi_max = max(kink.xi_max, GRID_RANGE_FACTOR / kink.gamma_bar)
    return graded_half_grid(xi_max, GRID_N_PER_SIDE, GRID_SPACING0)


def build_v1(aux: LayerAuxiliary) -> CorrectionTerm:
    """First-order layer correction: source -xi * B_x, zero jumps."""
    def psi(xi, side):
        return -xi * aux.B_x(xi, side)

    return solve_jump(aux.chi, psi, 0.0, 0.0, _default_grid(aux.kink), chi_prime=aux.chi_prime,
                      bs=aux.B_s, mu_minus=aux.kink.mu_minus,
                      mu_plus=aux.kink.mu_plus, label="v1", p=aux.p,
                      tbar1=aux.tbar1)


def build_v2(aux: LayerAuxiliary, v1: CorrectionTerm) -> CorrectionTerm:
    """Second-order layer correction.

    Source assembled termwise from the B partials and the first-order term;
    jump data cancels the one-sided smooth correction so their sum stays
    continuous across the layer point.
    """
    u2 = aux.u2_side

    def psi(xi, side):
        i = 0 if side < 0 else 1
        w1 = v1.value(xi, side=side)
        return (-0.5 * xi * xi * aux.B_xx(xi, side)
                - xi * w1 * aux.B_xs(xi, side)
                - 0.5 * w1 * w1 * aux.B_ss(xi)
                - u2[i] * (aux.B_s(xi) - aux.bs0_side[i]))

    return solve_jump(aux.chi, psi, -u2[0], -u2[1], _default_grid(aux.kink),
                      chi_prime=aux.chi_prime, bs=aux.B_s,
                      mu_minus=aux.kink.mu_minus, mu_plus=aux.kink.mu_plus,
                      label="v2", p=aux.p, tbar1=aux.tbar1)


def build_vstar(aux: LayerAuxiliary) -> CorrectionTerm:
    """Nonnegative perturbation shape: source |v0|, zero jumps.

    The absolute value is non-smooth only at xi = 0, which is already the
    branch boundary.
    """
    def psi(xi, side):
        return np.abs(aux.v0(xi, side))

    return solve_jump(aux.chi, psi, 0.0, 0.0, _default_grid(aux.kink), chi_prime=aux.chi_prime,
                      bs=aux.B_s, mu_minus=aux.kink.mu_minus,
                      mu_plus=aux.kink.mu_plus, label="vstar", p=aux.p,
                      tbar1=aux.tbar1)


def build_z(aux: LayerAuxiliary) -> CorrectionTerm:
    """Truncation-error compensation shape: source is a twelfth of the
    fourth profile derivative (analytically: the third weight derivative)."""
    def psi(xi, side):
        return aux.chi_ppp(xi) / 12.0

    return solve_jump(aux.chi, psi, 0.0, 0.0, _default_grid(aux.kink), chi_prime=aux.chi_prime,
                      bs=aux.B_s, mu_minus=aux.kink.mu_minus,
                      mu_plus=aux.kink.mu_plus, label="z", p=aux.p,
                      tbar1=aux.tbar1)


def build_terms(aux: LayerAuxiliary) -> dict:
    """The four corrections of one configuration: v1, v2, vstar, z."""
    v1 = build_v1(aux)
    return {"v1": v1, "v2": build_v2(aux, v1), "vstar": build_vstar(aux),
            "z": build_z(aux)}


# ---------------------------------------------------------------------------
# Matching constants


def compute_matching(spec: ProblemSpec, kink: KinkProfile,
                     loc: LayerLocation) -> LayerLocation:
    """Fill the second- and third-order matching constants.

    Two-pass construction: the first-moment constant fixes the first-order
    shift by direct quadrature in the unshifted profile variable; the
    second shift then needs the first- and second-order corrections built
    at p=0 with exactly that shift.
    """
    if loc.C_I <= 1e-10:
        raise DegenerateRoot(f"C_I={loc.C_I:.3e} too small for matching")
    t0 = loc.t0

    def moment(xi):
        return xi * spec.b_val(t0, kink.value(xi), dx=1) * kink.slope(xi)

    C_II = adaptive_gl(moment, -kink.xi_max, kink.xi_max, tol=1e-13)
    t1 = C_II / loc.C_I

    aux0 = make_auxiliary(spec, kink, loc, p=0.0, tbar1=t1)
    v1 = build_v1(aux0)
    v2 = build_v2(aux0, v1)
    C_III = v2.phi_numerator
    t2 = C_III / loc.C_I
    return loc.with_matching(float(C_II), float(C_III), float(t1), float(t2))
