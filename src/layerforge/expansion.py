"""Assembled expansions.

The full expansion stitches the piecewise smooth part (outer roots plus
their second-order correction) to the layer terms living on the stretched
coordinate.  All derivatives used for residual work are analytic: symbolic
x-derivatives for the smooth part, governing-equation substitution for the
layer terms, so residual orders are never polluted by numeric
differentiation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .corrections import (CorrectionTerm, LayerAuxiliary, at_side, build_v1,
                          build_v2, build_vstar, build_z, make_auxiliary,
                          sides_of)
from .grids import graded_half_grid
from .kink import KinkProfile
from .locator import LayerLocation
from .problem import ProblemSpec

#: largest admissible perturbation weight
PPRIME_STAR = 0.05

#: mesh-width square is capped at HHAT_CAP * eps (exponent one)
HHAT_CAP = 10.0


@dataclass(frozen=True)
class Expansion:
    """Evaluator for the second-order interior-layer expansion."""

    spec: ProblemSpec = field(repr=False)
    loc: LayerLocation
    kink: KinkProfile = field(repr=False)
    aux: LayerAuxiliary = field(repr=False)
    v1: CorrectionTerm = field(repr=False)
    v2: CorrectionTerm = field(repr=False)
    eps: float
    p: float

    @property
    def t0(self) -> float:
        return self.loc.t0

    def xi_of(self, x):
        return (np.asarray(x, dtype=float) - self.t0) / self.eps

    # -- smooth part ---------------------------------------------------------

    def _outer(self, x, side, root):
        """root(k, points) for the left (k = 0) and right (k = 1) outer root
        on its own side's points only: beyond, it may leave its domain."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        sides = sides_of(a - self.t0, side)
        out = np.empty_like(a)
        for k, s in enumerate((-1, 1)):
            m = sides == s
            if m.any():
                out[m] = root(k, a[m])
        return ex.shaped_like(out, x)

    def u0(self, x, side=None, order: int = 0):
        return self._outer(x, side, lambda k, a: self.spec.phi(k + 1, a,
                                                               order=order))

    def u2(self, x, side=None, order: int = 0):
        return self._outer(x, side, lambda k, a: ex.evaluate(
            self.spec.u2_exprs[k][order], a, 0.0))

    # -- assembled values ----------------------------------------------------

    def u_as(self, x, side=None):
        """Expansion value; `side` picks the branch (scalar or per point)."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.xi_of(a)
        sides = sides_of(xi, side)
        eps = self.eps
        out = (self.u0(a, sides) + eps * eps * self.u2(a, sides)
               + self.aux.V0(xi))
        out += (-at_side(self.aux.u0_side, sides)
                + eps * self.v1.value(xi, sides)
                + eps * eps * self.v2.value(xi, sides))
        return ex.shaped_like(out, x)

    def u_as_second_derivative(self, x, side=None):
        """Exact second derivative via the layer governing equations."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.xi_of(a)
        sides = sides_of(xi, side)
        eps = self.eps
        out = (self.u0(a, sides, order=2)
               + eps * eps * self.u2(a, sides, order=2)
               + self.spec.b_val(self.t0, self.aux.V0(xi)) / (eps * eps))
        bs = self.aux.B_s(xi)
        out += ((bs * self.v1.value(xi, sides) - self.v1.psi_fn(xi, sides))
                / eps
                + (bs * self.v2.value(xi, sides) - self.v2.psi_fn(xi, sides)))
        return ex.shaped_like(out, x)

    def residual(self, x, side=None):
        """Defect of the expansion in the differential operator."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        val = self.u_as(a, side)
        d2 = self.u_as_second_derivative(a, side)
        return ex.shaped_like(-self.eps ** 2 * d2 + self.spec.b_val(a, val), x)

    def phi_u_as(self) -> float:
        """Scaled derivative jump of the expansion at the layer point.

        Assembled from parts: the outer roots jump their slope, the smooth
        second-order correction contributes at third order, the profile
        itself is smooth (no jump), and the layer corrections contribute
        their quadrature-formula jumps at first and second order.
        """
        t0 = self.t0
        eps = self.eps
        phi_u0 = self.spec.phi(1, t0, order=1) - self.spec.phi(2, t0, order=1)
        u2_exprs = self.spec.u2_exprs
        phi_u2 = (ex.evaluate(u2_exprs[0][1], t0, 0.0)
                  - ex.evaluate(u2_exprs[1][1], t0, 0.0))
        return float(eps * phi_u0 + eps ** 3 * phi_u2
                     + eps * self.v1.phi_value + eps * eps * self.v2.phi_value)

    def truncated(self, x, N: int, C_tau: float):
        """Two-piece reduced representation: profile inside the transition
        width, outer roots beyond it.  Uses the unperturbed profile shift."""
        if not C_tau > 2.0:
            raise ValueError("C_tau must exceed 2")
        if N < 2:
            raise ValueError("N must be at least 2")
        a = np.atleast_1d(np.asarray(x, dtype=float))
        tau = (C_tau / self.kink.gamma_bar) * self.eps * np.log(N)
        xi = self.xi_of(a)
        shift = self.loc.shift(self.eps)
        inside = np.abs(a - self.t0) <= tau
        out = np.empty_like(a)
        out[inside] = self.kink.value(xi[inside] - shift)
        out[~inside] = self.u0(a[~inside])
        return ex.shaped_like(out, x)


def build_expansion(spec: ProblemSpec, p: float, eps: float,
                    loc: LayerLocation, kink: KinkProfile) -> Expansion:
    """Construct the full expansion at one (p, eps).

    `loc` carries the matching constants and, with `kink`, the
    epsilon-independent work that a parameter sweep reuses.
    """
    aux = make_auxiliary(spec, kink, loc, p=p, tbar1=loc.shift(eps))
    v1 = build_v1(aux)
    v2 = build_v2(aux, v1)
    return Expansion(spec=spec, loc=loc, kink=kink, aux=aux, v1=v1, v2=v2,
                     eps=float(eps), p=float(p))


@dataclass(frozen=True)
class PerturbedExpansion:
    """Expansion plus the signed perturbation used for solution bracketing."""

    base: Expansion
    pprime: float
    hhat: float
    vstar: CorrectionTerm = field(repr=False)
    z: CorrectionTerm = field(repr=False)
    C0: float

    @property
    def eps(self) -> float:
        return self.base.eps

    def beta(self, x, side=None):
        a = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.base.xi_of(a)
        sides = sides_of(xi, side)
        out = self.base.u_as(a, sides)
        out += (self.pprime * (self.vstar.value(xi, sides) + self.C0)
                + self.hhat ** 2 * self.z.value(xi, sides))
        return ex.shaped_like(out, x)

    def f_beta(self, x, side=None):
        """Operator defect of the perturbed expansion (analytic)."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.base.xi_of(a)
        sides = sides_of(xi, side)
        bs = self.base.aux.B_s(xi)
        val = self.beta(a, sides)
        vstar_d2 = (bs * self.vstar.value(xi, sides)
                    - self.vstar.psi_fn(xi, sides))
        z_d2 = bs * self.z.value(xi, sides) - self.z.psi_fn(xi, sides)
        d2_layer = self.pprime * vstar_d2 + self.hhat ** 2 * z_d2
        d2_base = self.base.u_as_second_derivative(a, sides)
        out = (-self.eps ** 2 * d2_base - d2_layer
               + self.base.spec.b_val(a, val))
        return ex.shaped_like(out, x)

    def f_beta_centered(self, x, side=None):
        """f_beta minus the truncation-compensation source term, the
        combination whose sign the bracketing argument controls."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.base.xi_of(a)
        out = (self.f_beta(a, side)
               - self.hhat ** 2 / 12.0 * self.base.aux.chi_ppp(xi))
        return ex.shaped_like(out, x)

    def phi_beta(self) -> float:
        return float(self.base.phi_u_as() + self.pprime * self.vstar.phi_value
                     + self.hhat ** 2 * self.z.phi_value)


def estimate_C0(aux: LayerAuxiliary, eps: float | None = None):
    """(C5, C0): bound on the curvature ratio of the shifted reaction and
    the perturbation offset it dictates.

    C5 is the sampled supremum of |B_s(x,0) - B_s(x,v0)| / |v0| over the
    domain (layer coordinate mapped through x), switching to the analytic
    second-derivative limit where v0 vanishes; it is inflated 5% and floored,
    and C0 = 1/C5 capped for the degenerate linear-reaction case.
    """
    spec = aux.spec
    t0 = aux.t0
    if eps is None:
        eps = spec.eps
    half = graded_half_grid(aux.kink.xi_max, 400, 1e-2)[1:]
    xi = np.concatenate([-half[::-1], half])
    x_layer = t0 + eps * xi
    x = np.unique(np.concatenate([np.linspace(1e-4, 1.0 - 1e-4, 801),
                                  x_layer]))
    x = x[(x > 0.0) & (x < 1.0) & (x != t0)]
    xi = (x - t0) / eps
    sides = sides_of(xi)
    u0 = at_side((spec.phi(1, x), spec.phi(2, x)), sides)
    v0 = aux.v0(xi, sides)
    bs_zero = spec.b_val(x, u0, du=1)
    bs_v0 = spec.b_val(x, u0 + v0, du=1)
    small = np.abs(v0) < 1e-8
    ratio = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[~small] = np.abs(bs_zero[~small] - bs_v0[~small]) / np.abs(v0[~small])
    ratio[small] = np.abs(spec.b_val(x[small], u0[small], du=2))
    C5 = max(float(np.max(ratio)) * 1.05, 1e-8)
    C0 = min(1.0 / C5, 1e8)
    return C5, C0


def build_perturbed(base: Expansion, pprime: float,
                    hhat: float) -> PerturbedExpansion:
    """Attach the bracketing perturbation to an expansion.

    Enforces the admissible ranges: |p'| within its cap and the squared
    mesh width at most a fixed multiple of eps.
    """
    if not abs(pprime) <= PPRIME_STAR:
        raise ValueError(f"|p'| must not exceed {PPRIME_STAR}, got {pprime}")
    if not hhat ** 2 <= HHAT_CAP * base.eps:
        raise ValueError(
            f"hhat^2 = {hhat ** 2:.3g} exceeds {HHAT_CAP} * eps = "
            f"{HHAT_CAP * base.eps:.3g}")
    vstar = build_vstar(base.aux)
    z = build_z(base.aux)
    _, C0 = estimate_C0(base.aux, eps=base.eps)
    return PerturbedExpansion(base=base, pprime=float(pprime),
                              hhat=float(hhat), vstar=vstar, z=z, C0=C0)
