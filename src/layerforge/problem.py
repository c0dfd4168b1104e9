"""Problem instances: the reaction term, its reduced roots, and the
numerical verification of the structural assumptions they must satisfy."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import expr as ex
from .errors import InputError

_REQUIRED_FIELDS = ("name", "b", "phi0", "phi1", "phi2", "g0", "g1", "epsilon")

#: tallest derived tree (b partial or root derivative) a problem may carry:
#: evaluation and differentiation recurse once per level.  Each derivative
#: of a parsed tree (at most expr.MAX_DEPTH) can add a few levels per level
#: of its input; the shipped and generated problems derive trees of at most
#: 15 levels.
MAX_DERIVED_DEPTH = 4 * ex.MAX_DEPTH

#: the partials d^{i+j} b / dx^i du^j, besides b itself, that the pipeline
#: reads: chain_rule for the layer terms (nx + ns <= 2) and for u2 (nx <= 2,
#: ns = 1), and the potential's quartic Taylor form (du <= 3)
B_PARTIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (0, 3), (2, 1), (1, 2))

#: relative safety margin of the decay-rate floor (see decay_floor_sq)
GAMMA_MARGIN = 0.01

#: fewest intervals of check_assumptions' uniform grid, and its default
#: count, which the locator's decay-rate floor also samples
MIN_GRID = 16
CHECK_GRID = 256

#: the shipped instances, one per problems/<name>.json, in name order
BUILTIN_PROBLEMS = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(Path(__file__).with_name("problems").glob("*.json"),
                       key=lambda path: path.stem)}


class ProblemError(InputError):
    """A problem file is malformed or violates a load-time precondition."""


@dataclass(frozen=True)
class ProblemSpec:
    """A complete problem instance with derivative caches.

    b_partials[(i, j)] is the exact symbolic d^{i+j} b / dx^i du^j for
    (0, 0) and each (i, j) of B_PARTIALS; phi_derivs[k][m] is the m-th
    x-derivative of root k, for m <= 4 on the outer roots (k = 1, 2; the
    curvature of u2 reads the fourth) and m = 0 on phi0.  Both are derived
    in __post_init__, never passed in.
    """

    name: str
    b: ex.Expr
    phi0: ex.Expr
    phi1: ex.Expr
    phi2: ex.Expr
    g0: float
    g1: float
    eps: float
    b_partials: dict = field(init=False, compare=False, repr=False)
    phi_derivs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ProblemError(f"epsilon must be in (0, 1), got {self.eps}")
        for label, root in (("phi0", self.phi0), ("phi1", self.phi1),
                            ("phi2", self.phi2)):
            if ex.uses_variable(root, "u"):
                raise ProblemError(f"root {label} may not reference u")
        partials = {(0, 0): self.b}
        for i, j in B_PARTIALS:
            if i > 0:
                d = ex.differentiate(partials[(i - 1, j)], "x")
            else:
                d = ex.differentiate(partials[(i, j - 1)], "u")
            partials[(i, j)] = _bounded(d, f"b partial {(i, j)}")
        object.__setattr__(self, "b_partials", partials)
        derivs = [(self.phi0,)]
        for label, root in (("phi1", self.phi1), ("phi2", self.phi2)):
            chain = [root]
            for m in range(1, 5):
                chain.append(_bounded(ex.differentiate(chain[-1], "x"),
                                      f"derivative {m} of {label}"))
            derivs.append(tuple(chain))
        object.__setattr__(self, "phi_derivs", tuple(derivs))

    # -- evaluators ---------------------------------------------------------

    def b_val(self, x, u, dx: int = 0, du: int = 0):
        """Evaluate d^{dx+du} b / dx^dx du^du at (x, u)."""
        return ex.evaluate(self.b_partials[(dx, du)], x, u)

    def phi(self, k: int, x, order: int = 0):
        """Evaluate the order-th x-derivative of root k at x."""
        return ex.evaluate(self.phi_derivs[k][order], x, 0.0)

    def outer(self, k: int, x, order: int = 0):
        """Outer root k (1 or 2) and its smooth second-order correction
        u2 = phi_k'' / g, where g = b_u(x, phi_k(x)), in one pass: the
        root's x-derivatives of orders 0..order+2 and u2's of orders
        0..order (order <= 2), by the product rule on phi_k'' = u2 g, each
        g^(n) the chain rule along phi_k.  DomainError where g vanishes."""
        d = [self.phi(k, x, order=m) for m in range(order + 3)]
        b = cache(partial(self.b_val, x, d[0]))
        g = [chain_rule(b, d[1], d[2], n, 1) for n in range(order + 1)]
        if np.any(g[0] == 0.0):
            raise ex.DomainError(f"u2 undefined: b_u = 0 on root phi{k} at "
                                 f"x = {ex._sample(x, g[0] == 0.0)}")
        u2 = [d[2] / g[0]]
        if order >= 1:
            u2.append((d[3] - u2[0] * g[1]) / g[0])
        if order >= 2:
            u2.append((d[4] - 2.0 * u2[1] * g[1] - u2[0] * g[2]) / g[0])
        return d, u2


def chain_rule(b, du0, ddu0, nx: int, ns: int):
    """d^{nx+ns} / dx^nx ds^ns (nx <= 2) of b(x, c(x) + s) from the partials
    b(dx, du) there and the path's slope du0 = c'(x) and curvature ddu0."""
    if nx == 0:
        return b(0, ns)
    if nx == 1:
        return b(1, ns) + du0 * b(0, ns + 1)
    return (b(2, ns) + 2.0 * du0 * b(1, ns + 1)
            + du0 * du0 * b(0, ns + 2) + ddu0 * b(0, ns + 1))


def _bounded(e: ex.Expr, label: str) -> ex.Expr:
    """e, unless its tree is taller than MAX_DERIVED_DEPTH."""
    if e.height > MAX_DERIVED_DEPTH:
        raise ProblemError(f"{label} is {e.height} levels deep, above the "
                           f"limit of {MAX_DERIVED_DEPTH}")
    return e


def _number(data: dict, key: str) -> float:
    try:
        return float(data[key])
    except (TypeError, ValueError) as err:
        raise ProblemError(
            f"field {key!r} must be a number, got {data[key]!r}") from err


def problem_from_dict(data: dict) -> ProblemSpec:
    """A problem instance whose roots, and b on the outer roots, are finite
    at both ends of the domain."""
    missing = [f for f in _REQUIRED_FIELDS if f not in data]
    if missing:
        raise ProblemError(f"problem file missing fields: {', '.join(missing)}")
    spec = ProblemSpec(
        name=str(data["name"]),
        b=ex.parse(str(data["b"])),
        phi0=ex.parse(str(data["phi0"])),
        phi1=ex.parse(str(data["phi1"])),
        phi2=ex.parse(str(data["phi2"])),
        g0=_number(data, "g0"),
        g1=_number(data, "g1"),
        eps=_number(data, "epsilon"),
    )
    with np.errstate(all="ignore"):
        for x in (0.0, 1.0):
            for label, value in _end_values(spec, x):
                if not math.isfinite(value):
                    raise ProblemError(f"{label} is {value} at x = {x:g}")
    return spec


def _end_values(spec: ProblemSpec, x: float):
    """(field, value) at an end x of the domain: each root, then b on each
    outer root, where the boundary compatibility and u2 read it."""
    roots = [spec.phi(k, x) for k in range(3)]
    yield from ((f"phi{k}", root) for k, root in enumerate(roots))
    yield from ((f"b(x, phi{k}(x))", spec.b_val(x, roots[k])) for k in (1, 2))


def load_problem(path) -> ProblemSpec:
    """Load a problem instance from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ProblemError(f"{path}: cannot read ({err.strerror})") from err
    except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
        raise ProblemError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(data, dict):
        raise ProblemError(f"{path}: expected a JSON object")
    return problem_from_dict(data)


def builtin_problem(name: str, eps: float | None = None) -> ProblemSpec:
    """One of the shipped instances, optionally at a different epsilon."""
    if name not in BUILTIN_PROBLEMS:
        raise ProblemError(
            f"unknown built-in problem {name!r}; have {sorted(BUILTIN_PROBLEMS)}")
    data = dict(BUILTIN_PROBLEMS[name])
    if eps is not None:
        data["epsilon"] = eps
    return problem_from_dict(data)


def resolve_problem(name_or_path: str, eps: float | None = None) -> ProblemSpec:
    """Accept either a built-in name or a path to a JSON problem file."""
    if name_or_path in BUILTIN_PROBLEMS:
        return builtin_problem(name_or_path, eps)
    if Path(name_or_path).exists():
        spec = load_problem(name_or_path)
        return spec if eps is None else replace(spec, eps=eps)
    raise ProblemError(f"no built-in problem or file named {name_or_path!r}")


# ---------------------------------------------------------------------------
# Assumption checking


@dataclass(frozen=True)
class CheckResult:
    passed: bool | None  # None = deferred to the layer locator
    worst_x: float | None = None
    worst_value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: dict
    gamma_sq_est: float
    scale: float
    n_grid: int

    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.checks.values())


def decay_floor_sq(*bu_outer) -> float:
    """gamma^2, the squared decay-rate floor: the least of the b_u values on
    the outer roots, clipped at 0, less GAMMA_MARGIN of it."""
    least = min(float(np.min(bu)) for bu in bu_outer)
    return max(least, 0.0) * (1.0 - GAMMA_MARGIN)


def _worst(x: np.ndarray, values: np.ndarray, take_max: bool):
    idx = int(np.argmax(values) if take_max else np.argmin(values))
    return float(x[idx]), float(values[idx])


def check_assumptions(spec: ProblemSpec,
                      n_grid: int = CHECK_GRID) -> AssumptionReport:
    """Verify the structural assumptions on a uniform grid.

    Failures are reported, never thrown.  The layer-orientation condition
    is deferred to the locator, which owns the quadrature it needs.
    """
    if n_grid < MIN_GRID:
        raise InputError(f"n_grid must be at least {MIN_GRID}")
    x = np.linspace(0.0, 1.0, n_grid + 1)
    roots = [spec.phi(k, x) for k in range(3)]

    # tolerance scale from the largest reaction value seen on the grid,
    # sampling u across the root span
    span_lo = roots[1].min()
    span_hi = roots[2].max()
    b_mag = 0.0
    for frac in np.linspace(0.0, 1.0, 9):
        u = span_lo + frac * (span_hi - span_lo)
        b_mag = max(b_mag, float(np.max(np.abs(spec.b_val(x, u)))))
    scale = 1.0 + b_mag
    tol = 1e-10 * scale

    checks = {}

    root_resid = np.max([np.abs(spec.b_val(x, roots[k])) for k in range(3)], axis=0)
    wx, wv = _worst(x, root_resid, take_max=True)
    checks["A1"] = CheckResult(bool(wv <= tol), wx, wv,
                               "max |b(x, root_k)| over the grid")

    gap_lo = roots[0] - roots[1]
    gap_hi = roots[2] - roots[0]
    gaps = np.minimum(gap_lo, gap_hi)
    wx, wv = _worst(x, gaps, take_max=False)
    checks["A2"] = CheckResult(bool(wv > tol), wx, wv,
                               "min root separation (needs ordering with margin)")

    bu_stable = np.minimum(spec.b_val(x, roots[1], du=1),
                           spec.b_val(x, roots[2], du=1))
    wx, wv = _worst(x, bu_stable, take_max=False)
    checks["A3"] = CheckResult(bool(wv > 0.0), wx, wv,
                               "min du-slope of b on the outer roots")
    gamma_sq_est = decay_floor_sq(bu_stable)

    bu_middle = spec.b_val(x, roots[0], du=1)
    wx, wv = _worst(x, bu_middle, take_max=True)
    checks["A4"] = CheckResult(bool(wv < 0.0), wx, wv,
                               "max du-slope of b on the middle root")

    checks["A5"] = CheckResult(None, None, None,
                               "layer location and orientation: see locator")

    a6_values = {
        "phi1(0)-g0": float(spec.phi(1, 0.0) - spec.g0),
        "phi2(1)-g1": float(spec.phi(2, 1.0) - spec.g1),
        "phi1''(0)": float(spec.phi(1, 0.0, order=2)),
        "phi2''(1)": float(spec.phi(2, 1.0, order=2)),
    }
    worst_name = max(a6_values, key=lambda k: abs(a6_values[k]))
    checks["A6"] = CheckResult(
        bool(all(abs(v) <= tol for v in a6_values.values())),
        0.0 if "(0)" in worst_name else 1.0,
        a6_values[worst_name],
        f"boundary compatibility, worst: {worst_name}")

    return AssumptionReport(checks=checks, gamma_sq_est=float(gamma_sq_est),
                            scale=float(scale), n_grid=n_grid)
