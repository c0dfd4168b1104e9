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
from .corrections import (CorrectionTerm, LayerAuxiliary, build_v1, build_v2,
                          build_vstar, build_z, compute_matching,
                          make_auxiliary)
from .grids import graded_half_grid
from .kink import KinkProfile, build_kink
from .locator import LayerLocation, locate_t0
from .problem import ProblemSpec

#: largest admissible perturbation weight
PPRIME_STAR = 0.05

#: mesh-width square is capped at HHAT_CAP * eps (exponent one)
HHAT_CAP = 10.0


def _sides_for(x: np.ndarray, t0: float, side: int | None):
    if side is not None:
        return np.full(x.shape, side)
    return np.where(x < t0, -1, 1)


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
    u2_exprs: tuple = field(repr=False)   # per side: (u2, u2', u2'') in x

    @property
    def t0(self) -> float:
        return self.loc.t0

    def xi_of(self, x):
        return (np.asarray(x, dtype=float) - self.t0) / self.eps

    # -- smooth part ---------------------------------------------------------

    def u0(self, x, side=None, order: int = 0):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sides = _sides_for(x, self.t0, side)
        out = np.empty_like(x)
        for s, k in ((-1, 1), (1, 2)):
            m = sides == s
            if m.any():
                out[m] = self.spec.phi(k, x[m], order=order)
        return out if out.size != 1 else float(out[0])

    def u2(self, x, side=None, order: int = 0):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sides = _sides_for(x, self.t0, side)
        out = np.empty_like(x)
        for s, idx in ((-1, 0), (1, 1)):
            m = sides == s
            if m.any():
                out[m] = ex.evaluate(self.u2_exprs[idx][order], x[m], 0.0)
        return out if out.size != 1 else float(out[0])

    # -- assembled values ----------------------------------------------------

    def u_as(self, x, side=None):
        """Expansion value; `side` picks the branch at the layer point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sides = _sides_for(x, self.t0, side)
        xi = self.xi_of(x)
        eps = self.eps
        out = np.atleast_1d(self.u0(x, side) + eps * eps * self.u2(x, side)
                            + self.aux.V0(xi))
        for s, idx in ((-1, 0), (1, 1)):
            m = sides == s
            if m.any():
                out[m] += (-self.aux.u0_side[idx]
                           + eps * self.v1.value(xi[m], side=s)
                           + eps * eps * self.v2.value(xi[m], side=s))
        return out if out.size > 1 else float(out[0])

    def u_as_second_derivative(self, x, side=None):
        """Exact second derivative via the layer governing equations."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        sides = _sides_for(x, self.t0, side)
        xi = self.xi_of(x)
        eps = self.eps
        out = np.atleast_1d(
            self.u0(x, side, order=2) + eps * eps * self.u2(x, side, order=2)
            + self.spec.b_val(self.t0, self.aux.V0(xi)) / (eps * eps))
        bs = np.atleast_1d(self.aux.B_s(xi))
        for s in (-1, 1):
            m = sides == s
            if m.any():
                w1 = self.v1.value(xi[m], side=s)
                w2 = self.v2.value(xi[m], side=s)
                psi1 = self.v1.psi_fn(xi[m], s)
                psi2 = self.v2.psi_fn(xi[m], s)
                out[m] += ((bs[m] * w1 - psi1) / eps
                           + (bs[m] * w2 - psi2))
        return out if out.size > 1 else float(out[0])

    def residual(self, x, side=None):
        """Defect of the expansion in the differential operator."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        val = np.atleast_1d(self.u_as(x, side))
        d2 = np.atleast_1d(self.u_as_second_derivative(x, side))
        out = -self.eps ** 2 * d2 + self.spec.b_val(x, val)
        return out if out.size > 1 else float(out[0])

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
        phi_u2 = (ex.evaluate(self.u2_exprs[0][1], t0, 0.0)
                  - ex.evaluate(self.u2_exprs[1][1], t0, 0.0))
        return float(eps * phi_u0 + eps ** 3 * phi_u2
                     + eps * self.v1.phi_value + eps * eps * self.v2.phi_value)

    def truncated(self, x, N: int, C_tau: float):
        """Two-piece reduced representation: profile inside the transition
        width, outer roots beyond it.  Uses the unperturbed profile shift."""
        if C_tau <= 2.0:
            raise ValueError("C_tau must exceed 2")
        if N < 2:
            raise ValueError("N must be at least 2")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        tau = (C_tau / self.kink.gamma_bar) * self.eps * np.log(N)
        xi = self.xi_of(x)
        shift = self.loc.t1 + self.eps * self.loc.t2
        inside = np.abs(x - self.t0) <= tau
        out = np.empty_like(x)
        out[inside] = self.kink.value(xi[inside] - shift)
        out[~inside] = self.u0(x[~inside])
        return out if out.size > 1 else float(out[0])


def _u2_side_exprs(spec: ProblemSpec):
    exprs = []
    for k in (1, 2):
        phi_k = spec.phi_derivs[k][0]
        num = spec.phi_derivs[k][2]
        den = ex.substitute(spec.b_partials[(0, 1)], "u", phi_k)
        u2 = ex.div(num, den)
        du2 = ex.differentiate(u2, "x")
        ddu2 = ex.differentiate(du2, "x")
        exprs.append((u2, du2, ddu2))
    return tuple(exprs)


def build_expansion(spec: ProblemSpec, p: float = 0.0,
                    eps: float | None = None,
                    loc: LayerLocation | None = None,
                    kink: KinkProfile | None = None,
                    grid: np.ndarray | None = None) -> Expansion:
    """Construct the full expansion, locating and matching as needed.

    `loc` (with matching constants) and `kink` may be supplied to reuse the
    epsilon-independent work across a parameter sweep.
    """
    if eps is None:
        eps = spec.eps
    if loc is None:
        loc = locate_t0(spec)
    if kink is None:
        kink = build_kink(spec, loc)
    if loc.t1 is None:
        loc = compute_matching(spec, kink, loc)
    tbar1 = loc.t1 + eps * loc.t2
    aux = make_auxiliary(spec, kink, loc, p=p, tbar1=tbar1)
    v1 = build_v1(aux, grid)
    v2 = build_v2(aux, v1, grid)
    return Expansion(spec=spec, loc=loc, kink=kink, aux=aux, v1=v1, v2=v2,
                     eps=float(eps), p=float(p),
                     u2_exprs=_u2_side_exprs(spec))


@dataclass(frozen=True)
class PerturbedExpansion:
    """Expansion plus the signed perturbation used for solution bracketing."""

    base: Expansion
    pprime: float
    hhat: float
    vstar: CorrectionTerm = field(repr=False)
    z: CorrectionTerm = field(repr=False)
    C0: float
    C5: float

    @property
    def eps(self) -> float:
        return self.base.eps

    def beta(self, x, side=None):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.base.xi_of(x)
        sides = _sides_for(x, self.base.t0, side)
        out = np.atleast_1d(self.base.u_as(x, side)).copy()
        for s in (-1, 1):
            m = sides == s
            if m.any():
                out[m] += (self.pprime * (self.vstar.value(xi[m], side=s)
                                          + self.C0)
                           + self.hhat ** 2 * self.z.value(xi[m], side=s))
        return out if out.size > 1 else float(out[0])

    def f_beta(self, x, side=None):
        """Operator defect of the perturbed expansion (analytic)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.base.xi_of(x)
        sides = _sides_for(x, self.base.t0, side)
        bs = np.atleast_1d(self.base.aux.B_s(xi))
        d2_layer = np.empty_like(x)
        val = np.atleast_1d(self.beta(x, side))
        for s in (-1, 1):
            m = sides == s
            if m.any():
                vstar_d2 = (bs[m] * self.vstar.value(xi[m], side=s)
                            - self.vstar.psi_fn(xi[m], s))
                z_d2 = (bs[m] * self.z.value(xi[m], side=s)
                        - self.z.psi_fn(xi[m], s))
                d2_layer[m] = self.pprime * vstar_d2 + self.hhat ** 2 * z_d2
        d2_base = np.atleast_1d(self.base.u_as_second_derivative(x, side))
        out = (-self.eps ** 2 * d2_base - d2_layer
               + self.base.spec.b_val(x, val))
        return out if out.size > 1 else float(out[0])

    def f_beta_centered(self, x, side=None):
        """f_beta minus the truncation-compensation source term, the
        combination whose sign the bracketing argument controls."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = self.base.xi_of(x)
        out = (np.atleast_1d(self.f_beta(x, side))
               - self.hhat ** 2 / 12.0 * self.base.aux.chi_ppp(xi))
        return out if out.size > 1 else float(out[0])

    def phi_beta(self) -> float:
        return float(self.base.phi_u_as() + self.pprime * self.vstar.phi_value
                     + self.hhat ** 2 * self.z.phi_value)


def estimate_C0(aux: LayerAuxiliary, kink: KinkProfile,
                grid: np.ndarray | None = None, eps: float | None = None):
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
    if grid is None:
        half = graded_half_grid(kink.xi_max, 400, 1e-2)[1:]
        xi = np.concatenate([-half[::-1], half])
        x_layer = t0 + eps * xi
        x = np.unique(np.concatenate([np.linspace(1e-4, 1.0 - 1e-4, 801),
                                      x_layer]))
        x = x[(x > 0.0) & (x < 1.0) & (x != t0)]
    else:
        x = np.asarray(grid, dtype=float)
    xi = (x - t0) / eps
    sides = np.where(x < t0, -1, 1)
    u0 = np.where(sides < 0, spec.phi(1, x) + 0.0 * x, spec.phi(2, x) + 0.0 * x)
    v0 = np.empty_like(x)
    for s in (-1, 1):
        m = sides == s
        v0[m] = aux.v0(xi[m], s)
    # constant-folded partials evaluate to scalars; broadcast them back
    bs_zero = np.asarray(spec.b_val(x, u0, du=1), dtype=float) + 0.0 * x
    bs_v0 = np.asarray(spec.b_val(x, u0 + v0, du=1), dtype=float) + 0.0 * x
    small = np.abs(v0) < 1e-8
    ratio = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[~small] = np.abs(bs_zero[~small] - bs_v0[~small]) / np.abs(v0[~small])
    ratio[small] = np.abs(np.asarray(
        spec.b_val(x[small], u0[small], du=2), dtype=float) + 0.0 * x[small])
    C5 = max(float(np.max(ratio)) * 1.05, 1e-8)
    C0 = min(1.0 / C5, 1e8)
    return C5, C0


def build_perturbed(base: Expansion, pprime: float, hhat: float,
                    grid: np.ndarray | None = None) -> PerturbedExpansion:
    """Attach the bracketing perturbation to an expansion.

    Enforces the admissible ranges: |p'| within its cap and the squared
    mesh width at most a fixed multiple of eps.
    """
    if abs(pprime) > PPRIME_STAR:
        raise ValueError(f"|p'| must not exceed {PPRIME_STAR}, got {pprime}")
    if hhat ** 2 > HHAT_CAP * base.eps:
        raise ValueError(
            f"hhat^2 = {hhat ** 2:.3g} exceeds {HHAT_CAP} * eps = "
            f"{HHAT_CAP * base.eps:.3g}")
    vstar = build_vstar(base.aux, grid)
    z = build_z(base.aux, grid)
    C5, C0 = estimate_C0(base.aux, base.kink, eps=base.eps)
    return PerturbedExpansion(base=base, pprime=float(pprime),
                              hhat=float(hhat), vstar=vstar, z=z,
                              C0=C0, C5=C5)
