"""Layer correction terms.

All four corrections (the first- and second-order layer terms and the two
perturbation shapes) solve the same two-branch jump problem

    [-d^2/dxi^2 + B_s(v0)] nu = psi   on R \\ {0},
    nu(0-) = jump_minus, nu(0+) = jump_plus, nu(+-inf) = 0,

whose explicit solution by variation of parameters uses the profile weight
chi as the decaying homogeneous solution.  The nested double integral is
evaluated with running endpoint-corrected trapezoid sums on a graded grid
(O(n), fourth order: each cell also reads the integrand's slopes), and the
derivative jump at 0 comes from the quadrature identity

    Phi[nu] = ( -int psi chi + (jump_minus - jump_plus) chi'(0) ) / chi(0),

never from numerically differentiating nu.  The same solution gives nu' at
every node, and the equation gives nu'', so each branch is tabulated with
its exact node derivatives and interpolated by quintic Hermite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from . import expr as ex
from .errors import ArgumentError, LayerforgeError
from .grids import graded_half_grid, hermite_quintic, one_sided_derivative
from .kink import KinkProfile, P_STAR, build_kink
from .locator import DegenerateRoot, LayerLocation, locate_t0
from .problem import ProblemSpec, chain_rule
from .quadrature import adaptive_gl, cumulative_corrected

#: default graded grid for correction tables; the range runs far beyond the
#: profile table because the corrections carry polynomial factors (up to
#: quartic) on top of the exponential decay and the tail-rate fits need the
#: polynomial bias 1/|xi| to be small across the fit window; the density is
#: set by the fourth-order running sums of _half_line: at this density the
#: built-ins' jump values agree with the same rule on 160 000 nodes to 4e-14
GRID_N_PER_SIDE = 10000
GRID_SPACING0 = 2.5e-4
GRID_RANGE_FACTOR = 82.0


class NonDecayingSource(LayerforgeError, ValueError):
    """The source grows faster than |xi|^6 relative to the profile weight."""


class WeightUnderflow(LayerforgeError, RuntimeError):
    """The profile weight underflows to 0 inside the correction grid: its
    tail rate is too steep for the grid's range on that branch."""


def sides_of(xi, side=None):
    """Branch of each point of R \\ {0}: -1 where xi < 0, +1 elsewhere,
    unless an explicit side (+-1, a scalar or one per point) overrides it."""
    if side is None:
        return np.where(np.asarray(xi) < 0.0, -1, 1)
    return np.broadcast_to(side, np.shape(xi))


def at_side(pair, side):
    """pair[0] where side < 0 and pair[1] elsewhere (scalar or per point)."""
    return np.where(np.asarray(side) < 0, pair[0], pair[1])


# ---------------------------------------------------------------------------
# One (p, shift) configuration and its layer points


@dataclass(frozen=True)
class LayerAuxiliary:
    """The data every layer term of one (p, shift) configuration shares:
    the problem, its profile and layer location, the shift and the
    correction grid.

    `at(xi, side)` gives the layer point: the shifted profile and the
    partials of B(x,s) = b(x, u0(x)+s) there.  Because the profile value V0
    equals u0 at the layer point plus the layer component, every partial of
    B at the layer point collapses to partials of b at (t0, V0(xi)), with
    the side entering only through the one-sided derivatives of the outer
    roots, which `loc` holds.
    """

    spec: ProblemSpec = field(repr=False)
    kink: KinkProfile = field(repr=False)
    loc: LayerLocation = field(repr=False)
    p: float
    tbar1: float
    grid: np.ndarray = field(repr=False)  # correction half-grid [0 .. Xi]

    def at(self, xi, side=None) -> LayerPoint:
        """The layer point at xi on the branches sides_of(xi, side)."""
        return LayerPoint(self, xi, side)

    def branches(self) -> tuple[LayerPoint, LayerPoint]:
        """The layer points xi = -s and xi = s of the correction grid s: one
        pair serves every term a build solves, so the profile and the b
        partials there are looked up once per build."""
        return self.at(-self.grid, -1), self.at(self.grid, 1)


class LayerPoint:
    """Layer quantities at xi on one configuration's branches.

    The profile V0 and weight chi are looked up, and each partial of b at
    (t0, V0) and each layer term's value evaluated, at most once, on first
    use.
    """

    def __init__(self, aux: LayerAuxiliary, xi, side=None):
        self.aux = aux
        self.xi = np.asarray(xi, dtype=float)
        self.side = sides_of(self.xi, side)
        self._nu = {}

    @cached_property
    def shifted(self):
        """The profile's own argument xi - tbar1 + p."""
        return self.xi - self.aux.tbar1 + self.aux.p

    @cached_property
    def V0(self):
        """The shifted profile."""
        return self.aux.kink.value(self.shifted)

    @cached_property
    def chi(self):
        """The profile weight V0'."""
        return self.aux.kink.slope(self.shifted)

    @cached_property
    def dchi(self):
        """The weight's xi-derivative as the profile lookup defines it:
        chi' = B on the profile table, and the tail's own -+mu chi past
        its ends, where V0 has rounded onto a root and B has lost the
        decay."""
        kk, a = self.aux.kink, self.shifted
        lo, hi = kk.ends
        return np.where(a > hi, -kk.mu_plus * self.chi,
                        np.where(a < lo, kk.mu_minus * self.chi, self.B()))

    def nu(self, term: CorrectionTerm):
        """The layer term's value at the point."""
        if term not in self._nu:
            self._nu[term] = term.value(self.xi, self.side)
        return self._nu[term]

    @property
    def v0(self):
        """The layer component V0 - u0(t0) on each point's side."""
        return self.V0 - at_side(self.aux.loc.u0_side, self.side)

    @cached_property
    def _chain(self):
        """chain_rule's b partials at (t0, V0), each evaluated at most once,
        and u0's one-sided slope and curvature at t0."""
        aux, loc = self.aux, self.aux.loc
        return (cache(partial(aux.spec.b_val, loc.t0, self.V0)),
                at_side(loc.du0_side, self.side),
                at_side(loc.ddu0_side, self.side))

    def B(self, nx: int = 0, ns: int = 0):
        """d^{nx+ns} B / dx^nx ds^ns at the layer point (nx <= 2): the chain
        rule through u0(x) + s."""
        return chain_rule(*self._chain, nx, ns)


def make_auxiliary(spec: ProblemSpec, kink: KinkProfile, loc: LayerLocation,
                   p: float, tbar1: float | None = None) -> LayerAuxiliary:
    """One (p, shift) configuration: the correction grid, built here,
    beside the problem, the profile and the layer location, which already
    holds the outer roots at t0.

    tbar1 defaults to the location's matched shift; the matching pass itself
    supplies explicit intermediate values.
    """
    if not abs(p) <= P_STAR:
        raise ArgumentError("p", f"magnitude must not exceed {P_STAR}, "
                                 f"got {p}")
    if tbar1 is None:
        tbar1 = loc.tbar1
    xi_max = max(kink.xi_max, GRID_RANGE_FACTOR / kink.gamma_bar)
    grid = graded_half_grid(xi_max, GRID_N_PER_SIDE, GRID_SPACING0)
    return LayerAuxiliary(spec=spec, kink=kink, loc=loc, p=p,
                          tbar1=float(tbar1), grid=grid)


# ---------------------------------------------------------------------------
# The generic jump problem


@dataclass(frozen=True, eq=False)
class CorrectionTerm:
    """Two-branch solution of the jump problem with its jump data.

    Each branch is the table (s, nu, nu', nu'') on the distance s = |xi|
    from the layer point, derivatives taken in s: exact node values of the
    explicit solution, of its derivative, and of the equation's
    nu'' = B_s nu - psi.  Terms compare and hash by identity, so a layer
    point can hold their values.
    """

    label: str
    neg: tuple = field(repr=False)   # xi = -s
    pos: tuple = field(repr=False)   # xi = s
    jump_minus: float
    jump_plus: float
    phi_numerator: float
    phi_value: float
    chi0: float
    dchi0: float
    mu_minus: float
    mu_plus: float
    psi_fn: object = field(repr=False)

    @property
    def xi_neg(self):
        """The negative branch's nodes, ascending over [-Xi .. 0]."""
        return -self.neg[0][::-1]

    @property
    def val_neg(self):
        return self.neg[1][::-1]

    @property
    def xi_pos(self):
        """The positive branch's nodes, ascending over [0 .. Xi]."""
        return self.pos[0]

    @property
    def val_pos(self):
        return self.pos[1]

    def value(self, xi, side=None):
        """nu(xi) on the branch `sides_of(xi, side)` picks at each point:
        quintic Hermite in s on its table, and past the table end its
        exponential tail."""
        a = np.atleast_1d(np.asarray(xi, dtype=float))
        left = sides_of(a, side) < 0
        s = np.where(left, -a, a)
        s_max = float(self.pos[0][-1])
        far = s > s_max
        out = np.empty_like(a)
        for on, table, mu in ((left, self.neg, self.mu_minus),
                              (~left, self.pos, self.mu_plus)):
            near, tail = on & ~far, on & far
            out[near] = hermite_quintic(s[near], *table)
            out[tail] = table[1][-1] * np.exp(-mu * (s[tail] - s_max))
        return ex.shaped_like(out, xi)


def solve_jump(aux: LayerAuxiliary, psi, nu0_minus: float, nu0_plus: float,
               label: str, points: tuple) -> CorrectionTerm:
    """Solve the two-branch jump problem of one configuration.

    The weight chi, its derivative, the coefficient B_s, the tail rates and
    the grid `aux.grid` of distances s = |xi| from the layer point come from
    `aux`; psi is a callable of a LayerPoint.  xi -> -xi maps one branch's
    problem onto the other's, so each branch is one _half_line solve on the
    layer point xi = side * s.  `points` are those two layer points,
    `aux.branches()`: a build passes one pair to all its terms, and each
    term leaves its node values there for the sources that read it.  The
    grid starts at s = 0, so the positive branch's first node is the layer
    point itself: chi(0) and chi'(0) = B there.
    """
    s = np.asarray(aux.grid, dtype=float)
    neg_pt, pos_pt = points
    chi0 = float(pos_pt.chi[0])
    dchi0 = float(pos_pt.B()[0])
    branch = {}
    for side, pt, mu, nu0 in ((1, pos_pt, aux.kink.mu_plus, nu0_plus),
                              (-1, neg_pt, aux.kink.mu_minus, nu0_minus)):
        chi = np.asarray(pt.chi, dtype=float)
        _check_weight(s, chi, side, mu, label)
        psi_s = np.asarray(psi(pt), dtype=float)
        _check_decay(s, psi_s, chi, label)
        branch[side] = _half_line(s, chi, side * pt.dchi, psi_s, pt.B(0, 1),
                                  mu, nu0, chi0)
    (neg, inner_neg), (pos, inner_pos) = branch[-1], branch[1]
    phi_numerator = -(inner_neg + inner_pos) + (nu0_minus - nu0_plus) * dchi0
    term = CorrectionTerm(label=label, neg=neg, pos=pos,
                          jump_minus=float(nu0_minus), jump_plus=float(nu0_plus),
                          phi_numerator=float(phi_numerator),
                          phi_value=float(phi_numerator / chi0), chi0=chi0,
                          dchi0=dchi0, mu_minus=aux.kink.mu_minus,
                          mu_plus=aux.kink.mu_plus, psi_fn=psi)
    for pt, table in ((neg_pt, neg), (pos_pt, pos)):
        pt._nu[term] = table[1]
    return term


def _half_line(s, chi, dchi, psi, bs, mu, nu0, chi0):
    """One branch of the jump problem, on the distance s from the layer point.

    Solves -nu'' + B_s nu = psi for s > 0 with nu(0) = nu0 and decay at
    infinity, where chi (decaying in s, with s-derivative dchi) is the
    homogeneous solution:

        nu(s) = chi(s) [nu0 / chi0 + int_0^s chi^-2 int_t^inf chi psi].

    Both integrals are endpoint-corrected trapezoid sums, each cell reading
    the integrand's slopes.  The inner integrand g = chi psi has the slope
    dchi psi + chi psi', with psi' by second-order differences on the grid;
    the outer one, q = inner / chi^2, has the exact slope
    -(psi + 2 q dchi) / chi from the equation (a chi^3 form would
    underflow where chi is tiny).  The inner integral starts from the
    analytic tail of chi*psi past the grid and is summed from the far end,
    so its exponentially small values survive the chi^-2 weight; the outer
    one is summed outward from 0.
    Returns the table (s, nu, nu', nu'') of the CorrectionTerm branch, its
    values exactly nu0 at s = 0, and the integral of chi*psi over the
    half-line.
    """
    g = chi * psi
    dg = dchi * psi + chi * np.gradient(psi, s, edge_order=2)
    inner = cumulative_corrected(g, dg, s, to_end=True) + g[-1] / (2.0 * mu)
    q = inner / (chi * chi)
    outer = cumulative_corrected(q, -(psi + 2.0 * q * dchi) / chi, s)
    val = chi * outer + (nu0 / chi0) * chi
    val[0] = nu0
    d1 = dchi * outer + (nu0 / chi0) * dchi + inner / chi
    return (s, val, d1, bs * val - psi), float(inner[0])


def _check_weight(s, chi, side, mu, label):
    """Reject a branch whose weight chi underflows to 0 on the grid.

    chi decays monotonically in its exponential tail, so the grid end
    underflows whenever any node does; the error line names that end,
    not the first zero node, which moves with the node count.  The grid's
    range follows the smaller tail rate (GRID_RANGE_FACTOR / gamma_bar),
    so a branch with a much steeper tail can reach it.
    """
    if chi[-1] > 0.0:
        return
    raise WeightUnderflow(
        f"profile weight of the {'plus' if side > 0 else 'minus'} branch "
        f"of {label!r} underflows to 0 before the grid end at "
        f"{s[-1]:.4g} (tail rate {mu:.4g})")


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


def build_v1(aux: LayerAuxiliary, points) -> CorrectionTerm:
    """First-order layer correction: source -xi * B_x, zero jumps."""
    def psi(pt):
        return -pt.xi * pt.B(1, 0)

    return solve_jump(aux, psi, 0.0, 0.0, "v1", points)


def build_v2(aux: LayerAuxiliary, v1: CorrectionTerm,
             points) -> CorrectionTerm:
    """Second-order layer correction.

    Source assembled termwise from the B partials and the first-order term;
    jump data cancels the one-sided smooth correction so their sum stays
    continuous across the layer point.
    """
    u2 = aux.loc.u2_side

    def psi(pt):
        xi, w1 = pt.xi, pt.nu(v1)
        return (-0.5 * xi * xi * pt.B(2, 0)
                - xi * w1 * pt.B(1, 1)
                - 0.5 * w1 * w1 * pt.B(0, 2)
                - at_side(u2, pt.side)
                * (pt.B(0, 1) - at_side(aux.loc.bs0_side, pt.side)))

    return solve_jump(aux, psi, -u2[0], -u2[1], "v2", points)


def build_vstar(aux: LayerAuxiliary, points) -> CorrectionTerm:
    """Nonnegative perturbation shape: source |v0|, zero jumps.

    The absolute value is non-smooth only at xi = 0, which is already the
    branch boundary.
    """
    def psi(pt):
        return np.abs(pt.v0)

    return solve_jump(aux, psi, 0.0, 0.0, "vstar", points)


def build_z(aux: LayerAuxiliary, points) -> CorrectionTerm:
    """Truncation-error compensation shape: source is a twelfth of the
    fourth profile derivative, the third weight derivative
    chi''' = B_ss chi^2 + B_s B (chi' = B along the profile)."""
    def psi(pt):
        return (pt.B(0, 2) * pt.chi * pt.chi + pt.B(0, 1) * pt.B()) / 12.0

    return solve_jump(aux, psi, 0.0, 0.0, "z", points)


def build_terms(aux: LayerAuxiliary) -> dict:
    """The four corrections of one configuration: v1, v2, vstar, z."""
    points = aux.branches()
    v1 = build_v1(aux, points)
    return {"v1": v1, "v2": build_v2(aux, v1, points),
            "vstar": build_vstar(aux, points), "z": build_z(aux, points)}


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
    points = aux0.branches()
    v1 = build_v1(aux0, points)
    v2 = build_v2(aux0, v1, points)
    C_III = v2.phi_numerator
    t2 = C_III / loc.C_I
    return loc.with_matching(float(C_II), float(C_III), float(t1), float(t2))


def locate_and_match(spec: ProblemSpec) -> tuple[LayerLocation, KinkProfile]:
    """The epsilon-independent pipeline: locate the layer point, build the
    profile, and fill the matching constants."""
    loc = locate_t0(spec)
    kink = build_kink(spec, loc)
    return compute_matching(spec, kink, loc), kink
