"""Independent finite-difference machinery.

A damped-Newton nonlinear solve on a layer-adapted mesh validates the
assembled expansion end to end, and a fourth-order (Numerov) solve of the
two-branch jump problem provides the oracle the explicit integral formula
is tested against.  Both solve for the interior unknowns only, with the
Dirichlet data moved into the right-hand side, through one tridiagonal
kernel.  Everything here deliberately shares nothing with the
variation-of-parameters construction beyond the problem data itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, LayerforgeError
from .kernels import thomas_solve
from .locator import LayerLocation
from .problem import ProblemSpec


class NoConvergence(LayerforgeError, RuntimeError):
    def __init__(self, message: str, last_residual: float):
        super().__init__(f"{message} (last residual {last_residual:.3e})")
        self.last_residual = last_residual


class SingularJacobian(LayerforgeError, RuntimeError):
    pass


@dataclass(frozen=True)
class Mesh:
    nodes: np.ndarray = field(repr=False)
    breaks: tuple       # node indices where the cell width changes
    tau: float
    N: int
    center: float       # the layer point the transition region brackets

    def __post_init__(self):
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("mesh nodes must be strictly increasing")


@dataclass(frozen=True)
class MeshSolution:
    mesh: Mesh = field(repr=False)
    values: np.ndarray = field(repr=False)
    iterations: int
    residual_norm: float
    damping: tuple


#: the layer region's transition constant C_tau and the floor it must exceed
C_TAU = 2.5
C_TAU_FLOOR = 2.0

#: fewest cells N with a layer region (ln N > 0), and of a mesh: each half
#: of the layer region gets one, ending at t0
MIN_REGION_N = 2
MIN_CELLS = 4


def layer_half_width(loc: LayerLocation, eps: float, N: int,
                     C_tau: float) -> float:
    """Half-width (C_tau / gamma_bar) eps ln N of the layer region, capped
    at min(t0, 1 - t0) / 2; the mesh and the truncation both read it."""
    if N < MIN_REGION_N:
        raise InputError(f"N must be at least {MIN_REGION_N}")
    if not C_tau > C_TAU_FLOOR:
        raise InputError(f"C_tau must exceed {C_TAU_FLOOR:g}")
    return min(float((C_tau / loc.gamma_bar) * eps * np.log(N)),
               min(loc.t0, 1.0 - loc.t0) / 2.0)


def build_mesh(loc: LayerLocation, eps: float, N: int, C_tau: float = C_TAU,
               kind: str = "layer-adapted") -> Mesh:
    """Piecewise-uniform mesh with half the cells inside the layer region.

    The layer-adapted kind always has a node at the layer point, and its
    breaks are the joints of its four uniform pieces whose cell widths
    differ: t0 - tau and t0 + tau unless the cap makes the outer piece as
    fine as the region, and t0 when N/2 is odd.  The uniform kind has no
    breaks and ignores the half-width (but records it for bookkeeping).
    """
    if N % 2 or not N >= MIN_CELLS:
        raise InputError(f"N must be even and at least {MIN_CELLS}, got {N}")
    tau = layer_half_width(loc, eps, N, C_tau)
    if kind == "uniform":
        return Mesh(nodes=np.linspace(0.0, 1.0, N + 1), breaks=(),
                    tau=tau, N=N, center=loc.t0)
    if kind != "layer-adapted":
        raise InputError(f"unknown mesh kind {kind!r}")
    t0 = loc.t0
    # N/2 cells in the region and N/2 outside, each split at t0 (right >= left)
    edges = (0.0, t0 - tau, t0, t0 + tau, 1.0)
    q = N // 4
    cells = (q, q, N // 2 - q, N // 2 - q)
    nodes = np.concatenate([[0.0]] + [
        np.linspace(lo, hi, n + 1)[1:] for lo, hi, n in
        zip(edges, edges[1:], cells)])
    h = [width / n for width, n in
         zip((edges[1], tau, tau, 1.0 - edges[3]), cells)]
    breaks = tuple(int(j) for j, hm, hp in zip(np.cumsum(cells), h, h[1:])
                   if abs(hp - hm) > 1e-12 * (hm + hp))
    return Mesh(nodes=nodes, breaks=breaks, tau=tau, N=N, center=t0)


def _scheme_weights(x: np.ndarray, breaks):
    """Interior-node weights (wl, wc, wr, al, ac, ar) of the difference scheme.

    (wl, wc, wr) is the three-point stencil of u'' on the nonuniform mesh.
    (al, ac, ar) averages the reaction with the fourth-order compact
    (Numerov) average (1, 10, 1)/12, except at the node indices `breaks`,
    where it takes the plain nodal value.  These are the few mesh-transition
    nodes where the cell width changes: build_mesh reads them off its
    pieces and records them as Mesh.breaks (at most 3).  The second-order
    defect they leave is localized and does not affect the global order.
    """
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    wl = 2.0 / (hm * (hm + hp))
    wc = -2.0 / (hm * hp)
    wr = 2.0 / (hp * (hm + hp))
    al = np.full(hm.size, 1.0 / 12.0)
    ac = np.full(hm.size, 10.0 / 12.0)
    ar = np.full(hm.size, 1.0 / 12.0)
    plain = np.asarray(breaks, dtype=int) - 1
    al[plain], ac[plain], ar[plain] = 0.0, 1.0, 0.0
    return wl, wc, wr, al, ac, ar


def _average(weights, v: np.ndarray) -> np.ndarray:
    """The scheme's average of nodal values v at the interior nodes."""
    _, _, _, al, ac, ar = weights
    return al * v[:-2] + ac * v[1:-1] + ar * v[2:]


def _tridiagonal(scale: float, weights, c: np.ndarray):
    """(lower, diag, upper) of the scheme's matrix for -scale u'' + c u."""
    wl, wc, wr, al, ac, ar = weights
    return (-scale * wl + al * c[:-2], -scale * wc + ac * c[1:-1],
            -scale * wr + ar * c[2:])


def _residual(eps_sq: float, weights, u: np.ndarray,
              b_nodes: np.ndarray) -> np.ndarray:
    wl, wc, wr = weights[:3]
    d2 = wl * u[:-2] + wc * u[1:-1] + wr * u[2:]
    return -eps_sq * d2 + _average(weights, b_nodes)


def discrete_residual(spec: ProblemSpec, mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Interior residual of the difference scheme at the given nodal values."""
    x = mesh.nodes
    return _residual(spec.eps ** 2, _scheme_weights(x, mesh.breaks), u,
                     spec.b_val(x, u))


#: Newton iterations before NoConvergence
MAX_ITER = 50

#: A residual norm up to FLOOR_FACTOR * F counts as converged, where
#: F = eps^2 max(|wl| + |wc| + |wr|) u_round max(1, max|u|).  A residual
#: row rounds its three stencil products, together by at most F, and two
#: partial sums.  As |wc| = |wl| + |wr|, the first sum is about the size of
#: the last product (at most F / 2 of rounding); the second is O(|b|), which
#: the fixed tolerance 1e-10 (1 + max|b|) covers.
FLOOR_FACTOR = 2.0


def newton_solve(spec: ProblemSpec, mesh: Mesh, initial) -> MeshSolution:
    """Damped Newton iteration with tridiagonal linear solves.

    `initial` is an evaluator x -> u seeding the iteration; the boundary
    values are imposed exactly and only the interior values are updated.
    The iteration stops once the residual norm is below 1e-10 (1 + max|b|)
    or below the roundoff floor of the residual, whichever is larger.  The
    step is halved until the residual norm decreases; running out of
    halvings or iterations raises NoConvergence, which is the expected
    outcome when seeding from the unstable root.
    """
    x = mesh.nodes
    u = np.asarray(initial(x), dtype=float).copy()
    u[0] = spec.g0
    u[-1] = spec.g1
    weights = _scheme_weights(x, mesh.breaks)
    wl, wc, wr = weights[:3]
    eps_sq = spec.eps ** 2
    floor = (FLOOR_FACTOR * eps_sq * np.finfo(float).eps / 2.0
             * float(np.max(np.abs(wl) + np.abs(wc) + np.abs(wr))))
    damping: list = []

    b_nodes = spec.b_val(x, u)
    res = _residual(eps_sq, weights, u, b_nodes)
    norm = float(np.max(np.abs(res)))
    for iteration in range(MAX_ITER + 1):
        tol = max(1e-10 * (1.0 + float(np.max(np.abs(b_nodes)))),
                  floor * max(1.0, float(np.max(np.abs(u)))))
        if norm <= tol:
            return MeshSolution(mesh=mesh, values=u, iterations=iteration,
                                residual_norm=norm, damping=tuple(damping))
        if iteration == MAX_ITER:
            break
        # the update vanishes at both boundary nodes, so lower[0] and
        # upper[-1] (the couplings to them) drop out
        lower, diag, upper = _tridiagonal(eps_sq, weights,
                                          spec.b_val(x, u, du=1))
        ok, step = thomas_solve(lower, diag, upper, -res,
                                1e-14 * float(np.max(np.abs(diag))))
        if not ok:
            raise SingularJacobian(
                f"tridiagonal pivot breakdown at iteration {iteration + 1}")
        lam = 1.0
        while lam >= 2.0 ** -20:
            trial = u.copy()
            trial[1:-1] += lam * step
            trial_b = spec.b_val(x, trial)
            trial_res = _residual(eps_sq, weights, trial, trial_b)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < norm or trial_norm <= tol:
                break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at iteration {iteration + 1}", norm)
        damping.append(lam)
        u, b_nodes, res, norm = trial, trial_b, trial_res, trial_norm
    raise NoConvergence(f"no convergence in {MAX_ITER} iterations", norm)


def compare(sol: MeshSolution, u_fn):
    """(max, layer-region, outer-region) nodal distances to an evaluator."""
    x = sol.mesh.nodes
    diff = np.abs(sol.values - np.asarray(u_fn(x), dtype=float))
    layer = np.abs(x - sol.mesh.center) <= sol.mesh.tau
    d_max = float(np.max(diff))
    d_layer = float(np.max(diff[layer])) if layer.any() else 0.0
    d_outer = float(np.max(diff[~layer])) if (~layer).any() else 0.0
    return d_max, d_layer, d_outer


def solve_jump_fd_numerov(coeff_fn, psi_fn, nu0_minus: float, nu0_plus: float,
                          half_width: float = 40.0, n: int = 4000):
    """Fourth-order tridiagonal (Numerov) solve of the jump problem
    -nu'' + coeff nu = psi, with the difference scheme of newton_solve.

    Uniform branch meshes on [-half_width, 0] and [0, half_width] with n
    nodes each and no breaks; Dirichlet data 0 at the far end and the jump
    value at 0.  Returns the two branch grids with their solutions.
    """
    results = []
    for side, ends, left_bc, right_bc in (
            (-1, (-half_width, 0.0), 0.0, nu0_minus),
            (1, (0.0, half_width), nu0_plus, 0.0)):
        xi = np.linspace(*ends, n)
        weights = _scheme_weights(xi, ())
        lower, diag, upper = _tridiagonal(
            1.0, weights, np.asarray(coeff_fn(xi), dtype=float))
        rhs = _average(weights, np.asarray(psi_fn(xi, side), dtype=float))
        rhs[0] -= lower[0] * left_bc
        rhs[-1] -= upper[-1] * right_bc
        ok, inner = thomas_solve(lower, diag, upper, rhs, 1e-300)
        if not ok:
            raise SingularJacobian("jump-problem oracle: pivot breakdown")
        results.append((xi, np.concatenate([[left_bc], inner, [right_bc]])))
    return results[0], results[1]
