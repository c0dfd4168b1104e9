"""Numeric kernels: the potential, the kink nodes and the tridiagonal solve.

The reaction term is evaluated by the expression tree walk of expr.evaluate;
the potential and the kink nodes are computed in one batched numpy pass
each; the Thomas tridiagonal solve is a plain Python loop.
"""

from __future__ import annotations

import math

import numpy as np

# the benchmark's trace resolves this name to time every expression evaluation
from .expr import evaluate as eval_program_array
from .quadrature import gl_rule

#: no kernel is compiled; perfbench/run.py records this flag with each run
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Two-sided potential evaluation from precomputed panel integrals.
#
# The potential integrates the reaction term at the layer point from the
# lower reduced root.  Panels cover [root_lo, root_hi]; prefix[j] sums the
# panels below edge j and suffix[j] sums the panels from edge j upward
# (accumulated top-down so the upper tail keeps full relative accuracy).
# Values above the interval midpoint are assembled from the top, as minus
# the integral up to the upper root, so the potential stays relatively
# accurate where it vanishes quadratically.  That takes the structural zero
# W(root_hi) = 0 as exact: the located layer point leaves an O(1e-16)
# residual in the whole integral, far below every tolerance, which as an
# absolute offset would swamp the quadratic vanishing.  Within `taylor_dist`
# of either root the value switches to the quartic Taylor expansion with the
# exact derivative coefficients `taylor` = (c1-, c2-, c3-, c1+, c2+, c3+).


def eval_potential(b, t0, edges, prefix, suffix, taylor,
                   taylor_dist, glx, glw, v):
    """W(v) at every point of v, as a 1-D array, for the reaction Expr b."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    m = edges.size - 1
    j = np.clip(np.searchsorted(edges, v) - 1, 0, m - 1)
    upper = v > 0.5 * (edges[0] + edges[m])
    a = np.where(upper, edges[j + 1], edges[j])
    half = 0.5 * np.where(upper, a - v, v - a)
    mid = 0.5 * (a + v)
    pts = mid[:, None] + half[:, None] * glx[None, :]
    seg = half * (eval_program_array(b, t0, pts) @ glw)
    out = np.where(upper, -(seg + suffix[j + 1]), prefix[j] + seg)

    d_lo = v - edges[0]
    near = np.abs(d_lo) < taylor_dist
    if near.any():
        d = d_lo[near]
        out[near] = d * d * (0.5 * taylor[0]
                             + d * (taylor[1] / 6.0 + d * taylor[2] / 24.0))
    d_hi = edges[m] - v
    near = np.abs(d_hi) < taylor_dist
    if near.any():
        d = d_hi[near]
        out[near] = d * d * (0.5 * taylor[3]
                             - d * (taylor[4] / 6.0 - d * taylor[5] / 24.0))
    return out


# ---------------------------------------------------------------------------
# One side of the connecting profile by inverse quadrature of the first
# integral dV/ds = sqrt(2 W(V)), s = |xi|:
#
#     s(V) = int_anchor^V dv / sqrt(2 W(v)),
#
# written in tau = ln d, d the distance to the approached root, so that the
# integrand d / sqrt(2 W) stays bounded (it tends to 1/mu) down to
# d = switch_eps.  The nodes are uniform in tau from the anchor to
# d = switch_eps; each interval carries a Gauss-Legendre rule and a
# cumulative sum gives s at the nodes.  Every W value comes from one
# batched potential call.  The node data (s, V, chi = V', b = V'') feed the
# quintic Hermite fill of the profile table.
# Status: 0 ok, 1 W <= 0 at a node or quadrature point, 2 a non-finite W.

#: tau-intervals per side of the profile, and Gauss-Legendre points on each
KINK_INTERVALS = 600
KINK_GL_ORDER = 8


def integrate_kink(b, t0, edges, prefix, suffix, taylor,
                   taylor_dist, glx, glw, anchor, target, switch_eps):
    """Profile nodes from the anchor toward `target`.

    Returns (s, v, chi, b(t0, v), count, status): `count` nodes with s
    strictly increasing from 0 at the anchor, the last node switch_eps from
    target.  On a nonzero status the arrays are empty.
    """
    direction = 1.0 if target > anchor else -1.0
    qx, qw = gl_rule(KINK_GL_ORDER)
    tau = np.linspace(math.log(abs(target - anchor)), math.log(switch_eps),
                      KINK_INTERVALS + 1)
    half = 0.5 * np.diff(tau)
    tau_q = (0.5 * (tau[1:] + tau[:-1]))[:, None] + half[:, None] * qx
    d = np.exp(np.concatenate([tau, tau_q.ravel()]))
    v_all = target - direction * d
    v_all[0] = anchor
    w = eval_potential(b, t0, edges, prefix, suffix, taylor,
                       taylor_dist, glx, glw, v_all)
    empty = np.empty(0)
    if not np.all(np.isfinite(w)):
        return empty, empty, empty, empty, 0, 2
    if np.min(w) <= 0.0:
        return empty, empty, empty, empty, 0, 1

    n = tau.size
    chi_all = np.sqrt(2.0 * w)
    # ds = d dtau / chi, with dtau < 0 along the march
    ds = -half * ((d[n:] / chi_all[n:]).reshape(tau_q.shape) @ qw)
    s = np.concatenate([[0.0], np.cumsum(ds)])
    v = v_all[:n]
    return s, v, chi_all[:n], eval_program_array(b, t0, v), n, 0


def thomas_solve(lower, diag, upper, rhs, pivot_tol):
    """Thomas solve of a tridiagonal system; returns (ok, x).

    lower[0] and upper[-1] are ignored.  Fails when a forward-elimination
    pivot falls below pivot_tol in magnitude.
    """
    n = diag.shape[0]
    cp = np.empty(n)
    dp = np.empty(n)
    x = np.empty(n)
    piv = diag[0]
    if abs(piv) < pivot_tol:
        return False, x
    cp[0] = upper[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i] * cp[i - 1]
        if abs(piv) < pivot_tol:
            return False, x
        cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / piv
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return True, x
