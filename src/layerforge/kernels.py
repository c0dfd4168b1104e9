"""Numeric kernels: the kink nodes and the tridiagonal solve.

The kink nodes are computed in one batched numpy pass over the potential
table of kink.py; the tridiagonal solve is LAPACK's LU with partial
pivoting.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgtsv

# the benchmark's trace resolves this name to time every expression evaluation
from .expr import evaluate as eval_program_array
from .quadrature import gl_rule

#: no kernel is compiled; perfbench/run.py records this flag with each run
USE_NUMBA = False


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


def integrate_kink(pot, anchor, target, switch_eps):
    """Profile nodes from the anchor toward `target` on the potential table
    `pot` (a kink.PotentialTable).

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
    w = pot.w(v_all)
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
    return s, v, chi_all[:n], eval_program_array(pot.b, pot.t0, v), n, 0


def thomas_solve(lower, diag, upper, rhs, pivot_tol):
    """Tridiagonal solve by LU with partial pivoting; returns (ok, x).

    lower[0] and upper[-1] are ignored.  Fails when a diagonal entry of the
    pivoted U factor is zero or below pivot_tol in magnitude.  LAPACK's
    dgtsv factors and solves in one pass and leaves U's diagonal in place
    of `diag`.
    """
    if diag.size > 1:
        _, u_diag, _, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
    else:
        # scipy's dgtsv wrapper takes no 1 x 1 system; U is the matrix itself
        u_diag, info = diag, int(diag[0] == 0.0)
        x = rhs if info else rhs / diag
    return info == 0 and float(np.min(np.abs(u_diag))) >= pivot_tol, x
