"""Seeded generator of admissible problem dicts for the `construct` workload.

Every problem is a bistable cubic

    b(x, u) = w(x) (u - phi1(x)) (u - phi0(x)) (u - phi2(x)),  g0 = 0, g1 = 1,

whose middle root crosses 1/2 (relative to the outer roots) at a chosen
layer point t0 with negative slope, so the area integral changes sign at t0
with the orientation the library builds.  Three kinds are generated:

``flat``
    phi1 = 0, phi2 = 1, phi0 = 1/2 - s (x - t0), weight w = 1 + a x^2.  The
    layer point, the area slope and the profile have closed forms:
    t0 as generated, C_I = (1 + a t0^2) s / 6, and the logistic
    V(xi) = 1 / (1 + exp(-xi sqrt(k/2))) with k = 1 + a t0^2.
``translated``
    all three roots shifted by d(x) = A sin(k pi x), k odd, t0 = 1/2, so the
    shift is flat at the layer point (as in the shipped ``cubic-wavy``).
``curved``
    the same shift with t0 away from 1/2, so the outer roots have a nonzero
    slope at the layer point.

Many ``translated`` and ``curved`` instances currently fail in the
second-order correction with ``NonDecayingSource``, a false positive of the
decay test that depends on roundoff, not on the root slope (see NOTES.md).

The generator draws the kinds in blocks of ``BLOCK_KINDS`` (2 flat, 5
translated, 1 curved, shuffled), so the curved share is exactly 1/8 of
every whole block.  Ops on x-dependent roots cost about 1.5 times a flat
one, and vary less with the machine's speed; at three quarters of the
ops, both the op median and p90 fall inside their cluster.
"""

from __future__ import annotations

import math
import random

#: the kinds of one generator block; the curved share is 1/8
BLOCK_KINDS = ("flat",) * 2 + ("translated",) * 5 + ("curved",)

#: epsilon range, log-uniform; small enough that the layer tails are below
#: 1e-9 at both boundaries for every generated layer point
EPS_RANGE = (1e-3, 1e-2)

_PI = "3.14159265358979"


def _num(v: float) -> str:
    return repr(float(v))


def flat_problem(name: str, t0: float, s: float, a: float, eps: float) -> dict:
    c = f"(0.5-{_num(s)}*(x-{_num(t0)}))"
    return {
        "name": name,
        "b": f"(1+{_num(a)}*x^2)*u*(u-{c})*(u-1)",
        "phi0": c,
        "phi1": "0",
        "phi2": "1",
        "g0": 0.0,
        "g1": 1.0,
        "epsilon": eps,
        # generator metadata; problem_from_dict ignores unknown keys
        "kind": "flat",
        "closed_form": {"t0": t0, "C_I": (1.0 + a * t0 * t0) * s / 6.0,
                        "rate": math.sqrt(0.5 * (1.0 + a * t0 * t0))},
    }


def shifted_problem(name: str, kind: str, t0: float, s: float, amp: float,
                    k: int, eps: float) -> dict:
    d = f"{_num(amp)}*sin({k}*{_PI}*x)"
    c = f"(0.5-{_num(s)}*(x-{_num(t0)}))"
    phi1 = d
    phi0 = f"{c}+{d}"
    phi2 = f"1+{d}"
    return {
        "name": name,
        "b": f"(u-{d})*(u-({phi0}))*(u-({phi2}))",
        "phi0": phi0,
        "phi1": phi1,
        "phi2": phi2,
        "g0": 0.0,
        "g1": 1.0,
        "epsilon": eps,
        "kind": kind,
    }


def _draw(rng: random.Random, kind: str, index: int) -> dict:
    eps = round(math.exp(rng.uniform(math.log(EPS_RANGE[0]),
                                     math.log(EPS_RANGE[1]))), 6)
    name = f"gen-{kind}-{index}"
    if kind == "flat":
        t0 = round(rng.uniform(0.35, 0.65), 4)
        s = round(rng.uniform(0.2, 0.6), 4)
        a = round(rng.uniform(0.1, 1.0), 4)
        return flat_problem(name, t0, s, a, eps)
    s = round(rng.uniform(0.3, 0.6), 4)
    if kind == "translated":
        amp = round(rng.uniform(0.05, 0.15), 4)
        return shifted_problem(name, kind, 0.5, s, amp, rng.choice((1, 3)), eps)
    if kind == "curved":
        amp = round(rng.uniform(0.05, 0.15), 4)
        t0 = round(rng.choice((rng.uniform(0.35, 0.45),
                               rng.uniform(0.55, 0.65))), 4)
        return shifted_problem(name, kind, t0, s, amp, 1, eps)
    raise ValueError(f"unknown problem kind {kind!r}")


def generate(seed: int, n_blocks: int) -> list:
    """``n_blocks`` shuffled blocks of problem dicts, reproducible per seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_blocks):
        kinds = list(BLOCK_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            out.append(_draw(rng, kind, len(out)))
    return out


def self_check(data: dict) -> list:
    """Admissibility of one generated dict; returns the list of violations.

    Checks A1-A4 and A6 of ``check_assumptions`` and the orientation test of
    ``locate_t0`` (a ``WrongOrientation`` counts as a violation).
    """
    from layerforge import check_assumptions, locate_t0
    from layerforge.locator import WrongOrientation
    from layerforge.problem import problem_from_dict

    spec = problem_from_dict(data)
    report = check_assumptions(spec)
    bad = [k for k in ("A1", "A2", "A3", "A4", "A6")
           if report.checks[k].passed is not True]
    try:
        locate_t0(spec)
    except WrongOrientation as err:
        bad.append(f"orientation: {err}")
    return bad
