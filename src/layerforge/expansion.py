"""Assembled expansions.

The full expansion stitches the piecewise smooth part (outer roots plus
their second-order correction) to a weighted sum of layer terms on the
stretched coordinate: eps v1 + eps^2 v2, plus p' (v* + C0) + hhat^2 z for
the bracketing perturbation.  All derivatives used for residual work are
analytic: the product and chain rules over the b partials for the smooth
part (ProblemSpec.outer), the governing equation for the layer terms, so
residual orders are never polluted by numeric differentiation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .corrections import (CorrectionTerm, LayerAuxiliary, at_side, build_v1,
                          build_v2, build_vstar, build_z, make_auxiliary,
                          sides_of)
from .errors import ArgumentError
from .grids import graded_half_grid
from .kink import KinkProfile
from .locator import LayerLocation
from .problem import ProblemSpec
from .solver import layer_half_width

#: largest admissible perturbation weight
PPRIME_STAR = 0.05

#: mesh-width square is capped at HHAT_CAP * eps (exponent one)
HHAT_CAP = 10.0


def _outer_sides(sides):
    """Each outer root k (1 left, 2 right) with the mask of the points on
    its own side, where alone it is evaluated: beyond, it may leave its
    domain."""
    for k, s in ((1, -1), (2, 1)):
        m = sides == s
        if m.any():
            yield k, m


@dataclass(frozen=True)
class Expansion:
    """Evaluator for the second-order interior-layer expansion: one
    configuration `aux` (problem, profile, location and shift) and its two
    layer terms at one epsilon."""

    aux: LayerAuxiliary = field(repr=False)
    v1: CorrectionTerm = field(repr=False)
    v2: CorrectionTerm = field(repr=False)
    eps: float

    def xi_of(self, x):
        return (np.asarray(x, dtype=float) - self.aux.loc.t0) / self.eps

    def at(self, x, side=None):
        """The layer point of the points x (see corrections.LayerPoint)."""
        return self.aux.at(np.atleast_1d(self.xi_of(x)), side)

    # -- assembled values ----------------------------------------------------

    def _pairs(self, extra):
        return ((self.eps, self.v1), (self.eps * self.eps, self.v2), *extra)

    def _assemble(self, x, pt, extra=(), offset=0.0, defect=False):
        """Value u0 + eps^2 u2 + V0 - u0(t0) + sum(w nu) + offset at the
        points x with layer point pt = self.at(x, side), over the pairs
        (w, nu) = (eps, v1), (eps^2, v2) and `extra`, or with `defect` the
        operator defect -eps^2 u'' + b(x, u).  u'' is exact: analytic for
        the smooth part (from the same ProblemSpec.outer pass per side as
        its value) and, in xi, V0'' = B and nu'' = B_s nu - psi.
        """
        a = np.atleast_1d(np.asarray(x, dtype=float))
        spec, sides, eps = self.aux.spec, pt.side, self.eps
        smooth, d2_smooth = np.empty_like(a), np.empty_like(a)
        for k, m in _outer_sides(sides):
            d, u2 = spec.outer(k, a[m], order=2 if defect else 0)
            smooth[m] = d[0] + eps * eps * u2[0]
            if defect:
                d2_smooth[m] = d[2] + eps * eps * u2[2]
        terms = [(w, t, pt.nu(t)) for w, t in self._pairs(extra)]
        out = smooth + pt.V0
        out += sum((w * nu for w, _, nu in terms),
                   -at_side(self.aux.loc.u0_side, sides))
        out += offset
        if defect:
            d2_layer = sum((w * (pt.B(0, 1) * nu - t.psi_fn(pt))
                            for w, t, nu in terms), pt.B())
            out = -eps * eps * d2_smooth - d2_layer + spec.b_val(a, out)
        return ex.shaped_like(out, x)

    def _jump(self, extra=()) -> float:
        """Scaled derivative jump at the layer point of the sum _assemble
        values: the outer roots jump their slope, the smooth second-order
        correction at third order, V0 and the offset not at all, and each
        layer term by its quadrature-formula jump."""
        loc, eps = self.aux.loc, self.eps
        phi_u0 = loc.du0_side[0] - loc.du0_side[1]
        phi_u2 = loc.du2_side[0] - loc.du2_side[1]
        return float(sum((w * t.phi_value for w, t in self._pairs(extra)),
                         eps * phi_u0 + eps ** 3 * phi_u2))

    def u_as(self, x, side=None):
        """Expansion value; `side` picks the branch (scalar or per point)."""
        return self._assemble(x, self.at(x, side))

    def residual(self, x, side=None):
        """Defect of the expansion in the differential operator."""
        return self._assemble(x, self.at(x, side), defect=True)

    def phi_u_as(self) -> float:
        """Scaled derivative jump of the expansion at the layer point."""
        return self._jump()

    def truncated(self, x, N: int, C_tau: float):
        """Two-piece reduced representation: profile inside the layer
        region of the N-cell mesh, outer roots beyond it.  Uses the
        unperturbed profile shift."""
        a = np.atleast_1d(np.asarray(x, dtype=float))
        aux = self.aux
        tau = layer_half_width(aux.loc, self.eps, N, C_tau)
        xi = self.xi_of(a)
        inside = np.abs(a - aux.loc.t0) <= tau
        out = np.empty_like(a)
        out[inside] = aux.kink.value(xi[inside] - aux.tbar1)
        for k, m in _outer_sides(np.where(inside, 0, sides_of(xi))):
            out[m] = aux.spec.phi(k, a[m])
        return ex.shaped_like(out, x)


def build_expansion(spec: ProblemSpec, p: float, eps: float,
                    loc: LayerLocation, kink: KinkProfile) -> Expansion:
    """Construct the full expansion at one (p, eps).

    `loc` carries the matching constants and, with `kink`, the
    epsilon-independent work that a parameter sweep reuses.
    """
    aux = make_auxiliary(spec, kink, loc, p=p, tbar1=loc.shift(eps))
    points = aux.branches()
    v1 = build_v1(aux, points)
    v2 = build_v2(aux, v1, points)
    return Expansion(aux=aux, v1=v1, v2=v2, eps=float(eps))


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
    def _extra(self):
        """The perturbation's (weight, term) pairs: p' v* + hhat^2 z."""
        return ((self.pprime, self.vstar), (self.hhat ** 2, self.z))

    def beta(self, x, side=None):
        """u_as + p' (v* + C0) + hhat^2 z."""
        return self.base._assemble(x, self.base.at(x, side), self._extra,
                                   self.pprime * self.C0)

    def f_beta_centered(self, x, side=None):
        """Operator defect of beta minus the truncation-compensation source
        hhat^2 psi_z, the combination whose sign the bracketing argument
        controls."""
        pt = self.base.at(x, side)
        out = (self.base._assemble(x, pt, self._extra,
                                   self.pprime * self.C0, defect=True)
               - self.hhat ** 2 * self.z.psi_fn(pt))
        return ex.shaped_like(out, x)

    def phi_beta(self) -> float:
        return self.base._jump(self._extra)


def estimate_C0(aux: LayerAuxiliary, eps: float):
    """(C5, C0): bound on the curvature ratio of the shifted reaction and
    the perturbation offset it dictates.

    C5 is the sampled supremum of |B_s(x,0) - B_s(x,v0)| / |v0| over the
    domain (layer coordinate mapped through x), switching to the analytic
    second-derivative limit where v0 vanishes; it is inflated 5% and floored,
    and C0 = 1/C5 capped for the degenerate linear-reaction case.
    """
    spec = aux.spec
    t0 = aux.loc.t0
    half = graded_half_grid(aux.kink.xi_max, 400, 1e-2)[1:]
    xi = np.concatenate([-half[::-1], half])
    x_layer = t0 + eps * xi
    x = np.unique(np.concatenate([np.linspace(1e-4, 1.0 - 1e-4, 801),
                                  x_layer]))
    x = x[(x > 0.0) & (x < 1.0) & (x != t0)]
    pt = aux.at((x - t0) / eps)
    u0 = at_side((spec.phi(1, x), spec.phi(2, x)), pt.side)
    v0 = pt.v0
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
        raise ArgumentError("pprime", f"magnitude must not exceed "
                                      f"{PPRIME_STAR}, got {pprime}")
    if not hhat ** 2 <= HHAT_CAP * base.eps:
        raise ArgumentError("hhat", f"squared must not exceed {HHAT_CAP} * "
                                    f"eps = {HHAT_CAP * base.eps:.3g}, "
                                    f"got {hhat}")
    points = base.aux.branches()
    vstar = build_vstar(base.aux, points)
    z = build_z(base.aux, points)
    _, C0 = estimate_C0(base.aux, eps=base.eps)
    return PerturbedExpansion(base=base, pprime=float(pprime),
                              hhat=float(hhat), vstar=vstar, z=z, C0=C0)
