"""Tests of the benchmark itself: deterministic inputs, admissible generated
problems, checks that reject corrupted outputs, and the tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from layerforge import corrections, expansion, problem, solver  # noqa: E402
from layerforge.problem import CheckResult  # noqa: E402

from perfbench import checks, run, trace, workloads  # noqa: E402
from perfbench import problems as gen  # noqa: E402


def _first_blocks(wl, seed, n=2):
    it = wl.blocks(seed)
    return [next(it) for _ in range(n)]


# -- inputs ------------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert gen.generate(7, 3) == gen.generate(7, 3)
    assert gen.generate(7, 3) != gen.generate(8, 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_blocks_are_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    assert _first_blocks(cls(), 3) == _first_blocks(cls(), 3)
    assert _first_blocks(cls(), 3) != _first_blocks(cls(), 4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_plan_is_fixed_by_seed_and_seconds(name):
    wl = workloads.WORKLOADS[name]()
    seconds = 25.0
    ops = workloads.plan(wl, 3, seconds)
    assert ops == workloads.plan(wl, 3, seconds)
    assert ops != workloads.plan(wl, 4, seconds)
    assert sum(map(len, ops)) >= wl.min_ops
    assert len(ops) == max(1, round(seconds / wl.block_s),
                           -(-wl.min_ops // len(ops[0])))
    assert len(workloads.plan(wl, 3, 0.1, min_ops=0)) == 1


def test_block_composition_is_fixed():
    for block in _first_blocks(workloads.Construct(), 5, 3):
        kinds = sorted(d["kind"] for d in block)
        assert kinds == sorted(gen.BLOCK_KINDS)
    for block in _first_blocks(workloads.Sweep(), 5, 3):
        assert sorted((n, e) for n, e, _ in block) == sorted(
            (n, e) for n in workloads.SHIPPED for e in workloads.verify.EPS_LADDER)
    for block in _first_blocks(workloads.Oracle(), 5, 3):
        sizes = sorted(n for _, _, n, _ in block)
        assert sizes == sorted(n for n, c in workloads.Oracle.block_n
                               for _ in range(c))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_problems_are_admissible(seed):
    for data in gen.generate(seed, 2):
        assert gen.self_check(data) == [], data


def test_self_check_flags_a_mirrored_layer():
    data = gen.flat_problem("mirror", t0=0.5, s=-0.5, a=0.0, eps=0.01)
    assert any("orientation" in v for v in gen.self_check(data))


def test_percentile_is_the_harrell_davis_estimate():
    from scipy.stats.mstats import hdquantiles

    lat = np.random.default_rng(1).exponential(size=24)
    for q in (50, 90):
        assert run.percentile(lat, q) == pytest.approx(
            float(hdquantiles(lat, [q / 100.0])[0]), rel=1e-12)
    assert run.percentile([0.5] * 7, 90) == pytest.approx(0.5, rel=1e-12)
    assert run.percentile([0.5], 50) == 0.5


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    emitted = run.per_layer_metrics(trace.Tracer(), [], 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (_, u) in emitted.items()}


# -- construct check -----------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_construct():
    wl = workloads.Construct()
    data = gen.flat_problem("cubic", t0=0.5, s=0.5, a=0.0, eps=0.01)
    return wl, data, wl.run(None, data)


def _replace_rows(text, fn):
    payload = json.loads(text)
    payload["rows"] = fn(payload["rows"])
    return json.dumps(payload)


def test_construct_check_accepts_the_real_output(cubic_construct):
    _, data, out = cubic_construct
    assert checks.check_construct(data, out) == []


def _corrupt_u0(rows):
    rows[0][1] += 1e-6
    return rows


def _corrupt_beta(rows):
    rows[500][2] += 1e-9
    return rows


@pytest.mark.parametrize("corrupt", [
    "assumption", "v_table", "chi_table", "u_left", "beta", "rows", "t0",
    "C_I", "profile"])
def test_construct_check_rejects_corrupted_output(cubic_construct, corrupt):
    _, data, out = cubic_construct
    out = dict(out)
    kk, loc = out["kink"], out["loc"]
    if corrupt == "assumption":
        report = out["report"]
        bad = dict(report.checks, A3=CheckResult(False, 0.5, -1.0, "corrupted"))
        out["report"] = dataclasses.replace(report, checks=bad)
    elif corrupt == "v_table":
        v = kk.v_table.copy()
        v[10], v[11] = v[11], v[10]
        out["kink"] = dataclasses.replace(kk, v_table=v)
    elif corrupt == "chi_table":
        c = kk.chi_table.copy()
        c[-1] = 0.0
        out["kink"] = dataclasses.replace(kk, chi_table=c)
    elif corrupt == "u_left":
        out["text"] = _replace_rows(out["text"], _corrupt_u0)
    elif corrupt == "beta":
        out["text"] = _replace_rows(out["text"], _corrupt_beta)
    elif corrupt == "rows":
        out["text"] = _replace_rows(out["text"], lambda rows: rows[:-1])
    elif corrupt == "t0":
        out["loc"] = dataclasses.replace(loc, t0=loc.t0 + 1e-8)
    elif corrupt == "C_I":
        out["loc"] = dataclasses.replace(loc, C_I=loc.C_I * (1 + 1e-6))
    elif corrupt == "profile":
        interp = kk._v_interp
        out["kink"] = dataclasses.replace(
            kk, _v_interp=lambda s: interp(s) + 1e-7)
    assert checks.check_construct(data, out) != []


# -- sweep check -------------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_sweep():
    wl = workloads.Sweep()
    state = {"cubic": workloads._pipeline("cubic")}
    const = wl.fit(state)
    out = wl.run(state, ("cubic", 2.0 ** -6, 1e-3))
    return wl, state, const, out


def test_sweep_check_accepts_the_real_output(cubic_sweep):
    wl, state, const, out = cubic_sweep
    assert wl.check(state, const, ("cubic", out["eps"], out["p"]), out) == []


@pytest.mark.parametrize("field, change", [
    ("residual", lambda r: r * 1e3),
    ("phi_u", lambda v: -v),
    ("phi_beta", lambda v: v - 1e-3),
    ("fbeta_centered", lambda f: f - 1e-3),
])
def test_sweep_check_rejects_corrupted_output(cubic_sweep, field, change):
    wl, state, const, out = cubic_sweep
    bad = dict(out, **{field: change(out[field])})
    assert wl.check(state, const, ("cubic", out["eps"], out["p"]), bad) != []


# -- oracle check --------------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_oracle():
    wl = workloads.Oracle()
    spec, loc, kk = workloads._pipeline("cubic")
    state = {}
    for eps in (2.0 ** -5, 2.0 ** -10):
        e = expansion.build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
        state[("cubic", eps)] = (problem.builtin_problem("cubic", eps), loc, e)
    coarse = [wl.run(state, ("cubic", 2.0 ** -5, 2048, "u_as"))]
    fine = [wl.run(state, ("cubic", 2.0 ** -10, 2048, "u_as"))]
    const = checks.fit_oracle_constants(
        [(o["eps"], o["mesh"], o["d_max"]) for o in coarse],
        [(o["eps"], o["mesh"], o["d_max"]) for o in fine])
    item = ("cubic", 2.0 ** -5, 4096, "truncated")
    return wl, state, const, item, wl.run(state, item)


def test_oracle_check_accepts_the_real_output(cubic_oracle):
    wl, state, const, item, out = cubic_oracle
    assert wl.check(state, const, item, out) == []


def _corrupt_boundary(rows):
    rows[-1][1] = 0.5
    return rows


@pytest.mark.parametrize("corrupt", ["distance", "rows", "boundary"])
def test_oracle_check_rejects_corrupted_output(cubic_oracle, corrupt):
    wl, state, const, item, out = cubic_oracle
    out = dict(out)
    if corrupt == "distance":
        out["d_max"] = 1e-2
    elif corrupt == "rows":
        out["text"] = _replace_rows(out["text"], lambda rows: rows[1:])
    else:
        out["text"] = _replace_rows(out["text"], _corrupt_boundary)
    assert wl.check(state, const, item, out) != []


def test_expected_failures_are_typed_and_scoped():
    wl = workloads.Oracle()
    err = solver.NoConvergence("stalled", 1e-10)
    assert wl.expected_failure(("cubic", 0.01, 2 ** 16, "u_as"), err)
    assert not wl.expected_failure(("cubic", 0.01, 2 ** 12, "u_as"), err)
    assert not wl.expected_failure(("cubic", 0.01, 2 ** 16, "u_as"),
                                   RuntimeError("other"))
    wc = workloads.Construct()
    nd = corrections.NonDecayingSource("v2")
    assert wc.expected_failure({"kind": "curved"}, nd)
    assert not wc.expected_failure({"kind": "flat"}, nd)


# -- tracer ------------------------------------------------------------------


def test_tracer_patches_rebound_names_and_restores_them():
    originals = (corrections.build_v1, expansion.build_v1,
                 problem.ProblemSpec.b_val)
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert expansion.build_v1 is corrections.build_v1
        assert expansion.build_v1 is not originals[1]
        assert problem.ProblemSpec.b_val is not originals[2]
    finally:
        tracer.uninstall()
    assert (corrections.build_v1, expansion.build_v1,
            problem.ProblemSpec.b_val) == originals


def test_tracer_self_time_excludes_child_spans():
    tracer = trace.Tracer()
    tracer.install()
    try:
        spec = tracer.run("op", 0, problem.builtin_problem, "cubic")
        tracer.run("op", 1, problem.check_assumptions, spec)
    finally:
        tracer.uninstall()
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, op, name, start, end, self_s, _, _ in tracer.spans:
        assert 0.0 <= self_s <= end - start
        if parent:
            p = by_id[parent]
            assert p[2] == op and p[4] <= start and end <= p[5]
    roots = [s for s in tracer.spans if s[3] == "op"]
    assert len(roots) == 2
    for root in roots:
        children = [s for s in tracer.spans if s[1] == root[0]]
        assert children
        covered = sum(c[5] - c[4] for c in children)
        assert root[6] == pytest.approx(root[5] - root[4] - covered, abs=1e-9)
    summary = tracer.summary([1])
    assert summary["counts"][("problem.check", None)] == 1
    assert summary["counts"][("expr.eval", None)] > 0
    assert np.isclose(sum(summary["self_s"].values()),
                      roots[1][5] - roots[1][4])
