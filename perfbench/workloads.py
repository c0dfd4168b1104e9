"""The three workloads: set-up, op generation, the op itself, and its check.

Each workload is one closed loop with a single client: the next op is
issued only after the previous one has returned.  Ops come in shuffled
blocks whose composition is fixed (the cost-dominant op properties are
stratified; the rest is drawn from the seed), so every run of whole blocks
has the same mix and its percentiles do not move with the share of each
kind of op.  A run
executes a number of blocks fixed by its time budget and the workload's
nominal block time (``plan``), so a seed always gives the same ops, and
the same failures, however fast the machine happens to run.

An op either returns an output, which the workload's check must accept, or
raises.  ``expected_failure`` names the typed failures the library is known
to raise on some inputs today (see NOTES.md); they count as failed ops but
do not make the run incorrect.  Any other exception, or an output that
fails its check, does.
"""

from __future__ import annotations

import math
import random

import numpy as np

from layerforge import cli, corrections, kink, locator, problem, solver, verify
from layerforge import expansion
from layerforge.grids import graded_x_grid

from . import checks
from . import problems as gen

SHIPPED = ("cubic", "cubic-wavy")


def _pipeline(name: str, eps: float | None = None):
    spec = problem.builtin_problem(name, eps)
    loc = locator.locate_t0(spec)
    kk = kink.build_kink(spec, loc)
    loc = corrections.compute_matching(spec, kk, loc)
    return spec, loc, kk


def plan(wl, seed: int, seconds: float, min_ops: int | None = None) -> list:
    """The ops of one run, as whole blocks drawn from `seed`.

    The block count is `seconds` over the workload's nominal block time
    (``block_s``, measured on the machine of NOTES.md), rounded, and at least
    enough blocks for `min_ops` ops (default: the workload's ``min_ops``).
    It does not depend on how fast the machine runs, so two runs with one
    seed attempt the same ops.
    """
    min_ops = wl.min_ops if min_ops is None else min_ops
    blocks = wl.blocks(seed)
    out = [next(blocks)]
    count = max(1, round(seconds / wl.block_s),
                math.ceil(min_ops / len(out[0])))
    out.extend(next(blocks) for _ in range(count - 1))
    return out


def _column_payload(columns, *arrays) -> dict:
    return {"columns": list(columns),
            "rows": np.column_stack(arrays).tolist()}


class Construct:
    """Cold construction of never-seen problems, as ``layerforge expand
    --problem my.json --format json`` does it.  No work is shared between
    ops, so a cache across requests cannot help."""

    name = "construct"
    min_ops = 0
    #: nominal seconds of one block of 8 ops
    block_s = 9.5
    points = 1001
    trunc_n = 64
    c_tau = 2.5

    def setup(self):
        return None

    def fit(self, state):
        """Warm up on the shipped cubic, checking its closed forms."""
        data = gen.flat_problem("cubic", t0=0.5, s=0.5, a=0.0, eps=0.01)
        data.update({k: v for k, v in problem.BUILTIN_PROBLEMS["cubic"].items()
                     if k in ("b", "phi0")})
        bad = self.check(state, None, data, self.run(state, data))
        if bad:
            raise RuntimeError(f"shipped cubic fails its checks: {bad}")
        return None

    def blocks(self, seed: int):
        rng = random.Random(seed)
        index = 0
        while True:
            block = gen.generate(rng.getrandbits(32), 1)
            for data in block:
                data["name"] = f"{data['name']}-{index}"
                index += 1
            yield block

    def run(self, state, data):
        spec = problem.problem_from_dict(data)
        report = problem.check_assumptions(spec)
        loc = locator.locate_t0(spec)
        kk = kink.build_kink(spec, loc)
        loc = corrections.compute_matching(spec, kk, loc)
        e = expansion.build_expansion(spec, p=0.0, eps=spec.eps, loc=loc,
                                      kink=kk)
        pe = expansion.build_perturbed(e, pprime=0.0, hhat=0.0)
        xs = np.linspace(0.0, 1.0, self.points)
        payload = _column_payload(
            checks.EXPAND_COLUMNS, xs, np.atleast_1d(e.u_as(xs)),
            np.atleast_1d(pe.beta(xs)),
            np.atleast_1d(e.truncated(xs, self.trunc_n, self.c_tau)))
        payload = {"schema_version": cli.SCHEMA_VERSION, "command": "expand",
                   "problem": spec.name, **payload}
        return {"report": report, "loc": loc, "kink": kk,
                "points": self.points, "text": cli.dumps(payload)}

    def check(self, state, const, data, out):
        return checks.check_construct(data, out)

    def expected_failure(self, data, exc) -> bool:
        # a false positive of the decay test on x-dependent roots
        return (data["kind"] in ("translated", "curved")
                and isinstance(exc, corrections.NonDecayingSource))

    def describe(self, data) -> str:
        return data["kind"]


class Sweep:
    """Warm verification traffic: the inner body of the c06-c09 sweeps.
    Set-up builds the eps-independent pipeline of both shipped problems;
    ops share (problem, p), so a cache across requests would show here."""

    name = "sweep"
    min_ops = 100
    #: nominal seconds of one block of 14 ops
    block_s = 2.5
    residual_points = 2000
    fbeta_points = 1000

    def setup(self):
        return {name: _pipeline(name) for name in SHIPPED}

    def fit(self, state):
        eps0 = verify.EPS_LADDER[0]
        const = {}
        for name, (spec, loc, kk) in state.items():
            outs = [self.run(state, (name, eps0, p)) for p in verify.P_SWEEP]
            const[name] = checks.fit_sweep_constants(
                loc, float(np.max(kk.chi_table)), eps0, outs)
        return const

    def blocks(self, seed: int):
        rng = random.Random(seed)
        combos = [(name, eps) for name in SHIPPED for eps in verify.EPS_LADDER]
        while True:
            order = list(combos)
            rng.shuffle(order)
            yield [(name, eps, rng.choice(verify.P_SWEEP))
                   for name, eps in order]

    def run(self, state, item):
        name, eps, p = item
        spec, loc, kk = state[name]
        e = expansion.build_expansion(spec, p=p, eps=eps, loc=loc, kink=kk)
        phi_u = e.phi_u_as()
        hhat = math.sqrt(eps)
        pe = expansion.build_perturbed(e, pprime=eps * p, hhat=hhat)
        phi_beta = pe.phi_beta()
        residual = e.residual(graded_x_grid(loc.t0, eps, self.residual_points))
        fbc = pe.f_beta_centered(graded_x_grid(loc.t0, eps, self.fbeta_points))
        return {"eps": eps, "p": p, "hhat": hhat, "phi_u": phi_u,
                "phi_beta": phi_beta, "vstar_phi": pe.vstar.phi_value,
                "C0": pe.C0, "residual": residual, "fbeta_centered": fbc}

    def check(self, state, const, item, out):
        return checks.check_sweep(state[item[0]][1], const[item[0]], out)

    def expected_failure(self, item, exc) -> bool:
        return False

    def describe(self, item) -> str:
        return item[0]


class Oracle:
    """The independent finite-difference check, as ``layerforge compare``
    and ``solve --format json`` run it, on meshes of 2^11 to 2^16 cells."""

    name = "oracle"
    min_ops = 100
    #: nominal seconds of one block of 17 ops
    block_s = 3.9
    eps_values = tuple(2.0 ** -k for k in range(5, 11))
    c_tau = 2.5
    #: mesh cells of the ops of one block, as (N, count): the cheap meshes
    #: dominate the count so the median falls inside the 2^12 ops and p90
    #: inside the 2^16 ops, not between two mesh sizes; the 2^16 ops vary
    #: 4x in cost with (problem, eps, guess), hence the balanced decks
    block_n = ((2 ** 11, 4), (2 ** 12, 6), (2 ** 13, 2), (2 ** 14, 1),
               (2 ** 15, 1), (2 ** 16, 3))
    #: the expected NoConvergence: the line search stalls against the fixed
    #: residual tolerance on fine meshes
    fine_mesh = 2 ** 14

    def setup(self):
        state = {}
        for name in SHIPPED:
            spec, loc, kk = _pipeline(name)
            for eps in self.eps_values:
                e = expansion.build_expansion(spec, p=0.0, eps=eps, loc=loc,
                                              kink=kk)
                state[(name, eps)] = (problem.builtin_problem(name, eps), loc, e)
        return state

    def fit(self, state):
        """Envelope constants from u_as-seeded solves on the coarsest mesh:
        C over every eps but the smallest, D at the smallest."""
        n0 = self.block_n[0][0]
        smallest = min(self.eps_values)
        coarse, fine = [], []
        for name in SHIPPED:
            for eps in self.eps_values:
                out = self.run(state, (name, eps, n0, "u_as"))
                bucket = fine if eps == smallest else coarse
                bucket.append((eps, out["mesh"], out["d_max"]))
        return checks.fit_oracle_constants(coarse, fine)

    def blocks(self, seed: int):
        rng = random.Random(seed)
        combos = [(name, eps, guess) for name in SHIPPED
                  for eps in self.eps_values
                  for guess in ("u_as", "truncated")]
        # each mesh size deals its ops from its own shuffled deck of every
        # (problem, eps, guess), so a run's draws stay close to balanced
        decks = {n: [] for n, _ in self.block_n}
        while True:
            block = []
            for n, count in self.block_n:
                for _ in range(count):
                    if not decks[n]:
                        decks[n] = rng.sample(combos, len(combos))
                    name, eps, guess = decks[n].pop()
                    block.append((name, eps, n, guess))
            rng.shuffle(block)
            yield block

    def run(self, state, item):
        name, eps, n, guess = item
        spec, loc, e = state[(name, eps)]
        mesh = solver.build_mesh(loc, eps, n, self.c_tau)
        if guess == "u_as":
            def initial(x):
                return np.atleast_1d(e.u_as(x))
        else:
            def initial(x):
                return np.atleast_1d(e.truncated(x, n, self.c_tau))
        sol = solver.newton_solve(spec, mesh, initial)
        d_max, _, _ = solver.compare(sol, lambda x: np.atleast_1d(e.u_as(x)))
        payload = {"schema_version": cli.SCHEMA_VERSION, "command": "solve",
                   "problem": spec.name, "iterations": sol.iterations,
                   "residual_norm": sol.residual_norm,
                   **_column_payload(checks.SOLVE_COLUMNS, mesh.nodes,
                                     sol.values)}
        return {"eps": eps, "mesh": mesh, "iterations": sol.iterations,
                "d_max": d_max, "text": cli.dumps(payload)}

    def check(self, state, const, item, out):
        return checks.check_oracle(const, state[(item[0], item[1])][0], out)

    def expected_failure(self, item, exc) -> bool:
        return item[2] >= self.fine_mesh and isinstance(exc, solver.NoConvergence)

    def describe(self, item) -> str:
        return f"N={item[2]}"


WORKLOADS = {w.name: w for w in (Construct, Sweep, Oracle)}
