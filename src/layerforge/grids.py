"""Graded grids for layer-scale functions and local polynomial derivatives."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PPoly
from scipy.optimize import brentq

from .errors import InputError


def graded_half_grid(xi_max: float, n: int, spacing0: float = 1e-3) -> np.ndarray:
    """Graded nodes 0 = xi_0 < ... < xi_n = xi_max clustered at 0.

    Nodes follow xi_j = xi_max * (e^{q j/n} - 1) / (e^q - 1) with q chosen so
    the first spacing is <= spacing0.  Falls back to uniform when the uniform
    spacing already satisfies the target.
    """
    if n < 2:
        raise InputError("need at least 2 intervals")
    if xi_max / n <= spacing0:
        return np.linspace(0.0, xi_max, n + 1)

    # first spacing as a function of q; decreasing in q
    def gap(q):
        return xi_max * np.expm1(q / n) / np.expm1(q) - spacing0

    q = brentq(gap, 1e-8, 200.0, xtol=1e-10)
    j = np.arange(n + 1, dtype=float)
    xi = xi_max * np.expm1(q * j / n) / np.expm1(q)
    xi[0] = 0.0
    xi[-1] = xi_max
    return xi


def graded_x_grid(t0: float, eps: float, n: int) -> np.ndarray:
    """Points of (0,1) clustered around t0 on the layer scale.

    Half the points map a graded grid of |xi| <= 30 through x = t0 + eps*xi
    (clipped to the domain); the rest cover (0,1) uniformly.  t0 itself is
    excluded.
    """
    n_layer = n // 2
    half = graded_half_grid(min(30.0, 0.45 / eps), max(n_layer // 2, 8), 1e-2)[1:]
    layer = np.concatenate([t0 - eps * half[::-1], t0 + eps * half])
    outer = np.linspace(0.0, 1.0, max(n - layer.size, 0) + 2)[1:-1]
    x = np.unique(np.concatenate([layer, outer]))
    x = x[(x > 0.0) & (x < 1.0) & (x != t0)]
    return x


def hermite_quintic(s_t, s_k, v_k, d1_k, d2_k):
    """Two-point quintic Hermite interpolation of node values v_k, first
    derivatives d1_k and second derivatives d2_k on the ascending nodes s_k
    onto s_t.  At a node every basis term but its own value's is exactly
    0, so the node value comes back bitwise; outside [s_k[0], s_k[-1]] the
    end cell's quintic extrapolates."""
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


def quintic_pieces(s_k, v_k, d1_k, d2_k) -> PPoly:
    """hermite_quintic's interpolant as one PPoly: per cell the power-form
    coefficients of the quintic with the end values v_k, first derivatives
    d1_k and second derivatives d2_k."""
    h = np.diff(s_k)
    r0 = v_k[1:] - v_k[:-1] - h * (d1_k[:-1] + 0.5 * h * d2_k[:-1])
    r1 = h * (d1_k[1:] - d1_k[:-1] - h * d2_k[:-1])
    r2 = h * h * (d2_k[1:] - d2_k[:-1])
    c = np.array([(6.0 * r0 - 3.0 * r1 + 0.5 * r2) / h ** 5,
                  (-15.0 * r0 + 7.0 * r1 - r2) / h ** 4,
                  (10.0 * r0 - 4.0 * r1 + 0.5 * r2) / h ** 3,
                  0.5 * d2_k[:-1], d1_k[:-1], v_k[:-1]])
    return PPoly(c, s_k)


def local_poly_derivative(x: np.ndarray, y: np.ndarray, i: int,
                          order: int, width: int = 5) -> float:
    """Derivative of given order at node i from a local polynomial fit.

    Fits a degree-(width-1) interpolating polynomial through `width` nodes
    centred (as far as possible) on node i and differentiates it there.
    """
    n = x.size
    lo = max(0, min(i - width // 2, n - width))
    xs = x[lo:lo + width] - x[i]
    ys = y[lo:lo + width]
    coeff = np.polynomial.polynomial.polyfit(xs, ys, width - 1)
    fact = 1.0
    for k in range(2, order + 1):
        fact *= k
    return float(coeff[order] * fact)


def one_sided_derivative(x: np.ndarray, y: np.ndarray,
                         at_start: bool) -> float:
    """First derivative at an endpoint of a table by a local polynomial fit
    through its 6 end nodes."""
    idx = 0 if at_start else x.size - 1
    return local_poly_derivative(x, y, idx, 1, 6)
