"""Per-op correctness checks, each with its stated tolerance.

Every check returns a list of violations; an empty list means the op's
output is correct.  The constants the sweep and oracle checks use are
fitted once per run, after set-up, the way ``layerforge.verify`` fits its
constants: at the coarsest parameter, inflated 5%.
"""

from __future__ import annotations

import json
import math

import numpy as np

# -- construct ---------------------------------------------------------------

#: |u_as(0) - g0| and |u_as(1) - g1|: the layer tails are below 1e-10 at both
#: ends for every generated (t0, eps)
ENDPOINT_TOL = 1e-9
#: closed forms on constant-root ("flat") problems, the tolerances of
#: acceptance criteria 01 and 02
T0_TOL = 1e-10
C_I_TOL = 1e-9
PROFILE_TOL = 1e-8
#: beta equals u_as when p' = 0 and hhat = 0
BETA_TOL = 1e-14

EXPAND_COLUMNS = ["x", "u_as", "beta", "U_trunc"]


def check_construct(data: dict, out: dict) -> list:
    """Assumptions, profile table shape, boundary values, closed forms and
    the serialised expand payload of one constructed problem."""
    bad = []
    if not out["report"].all_passed():
        failed = [k for k, r in out["report"].checks.items() if r.passed is False]
        bad.append(f"assumptions fail: {failed}")
    kk, loc = out["kink"], out["loc"]
    if not np.all(np.diff(kk.v_table) > 0.0):
        bad.append("v_table is not strictly increasing")
    if not np.all(kk.chi_table > 0.0):
        bad.append("chi_table has a non-positive entry")

    payload = json.loads(out["text"])
    rows = np.asarray(payload["rows"], dtype=float)
    if payload["columns"] != EXPAND_COLUMNS or rows.shape != (out["points"], 4):
        bad.append(f"payload shape {rows.shape} / columns {payload['columns']}")
    else:
        if abs(rows[0, 1] - data["g0"]) > ENDPOINT_TOL:
            bad.append(f"|u_as(0) - g0| = {abs(rows[0, 1] - data['g0']):.3e}")
        if abs(rows[-1, 1] - data["g1"]) > ENDPOINT_TOL:
            bad.append(f"|u_as(1) - g1| = {abs(rows[-1, 1] - data['g1']):.3e}")
        if np.max(np.abs(rows[:, 2] - rows[:, 1])) > BETA_TOL:
            bad.append("beta differs from u_as at p' = 0, hhat = 0")

    cf = data.get("closed_form")
    if cf is not None:
        if abs(loc.t0 - cf["t0"]) > T0_TOL:
            bad.append(f"|t0 - t0*| = {abs(loc.t0 - cf['t0']):.3e}")
        if abs(loc.C_I - cf["C_I"]) > C_I_TOL:
            bad.append(f"|C_I - C_I*| = {abs(loc.C_I - cf['C_I']):.3e}")
        probe = np.linspace(-10.0, 10.0, 4001)
        exact = 1.0 / (1.0 + np.exp(-cf["rate"] * probe))
        err = float(np.max(np.abs(kk.value(probe) - exact)))
        if err > PROFILE_TOL:
            bad.append(f"profile vs logistic: {err:.3e}")
    return bad


# -- sweep -------------------------------------------------------------------

#: residual order the check demands (acceptance criterion 06)
RESIDUAL_ORDER = 2.7
#: absolute slack of the signed jump bounds, as in verify.phi_sign_inequality
PHI_SLACK = 1e-14


def fit_sweep_constants(loc, chi_max: float, eps0: float, outs: list) -> dict:
    """Constants of the c06 and c08 inequalities from the ops at eps0.

    ``outs`` holds one sweep-op output per p of the fitting sweep.  C1 comes
    from the construction; C2 (base and perturbed), C3, C4 and the residual
    constant are fitted at eps0 and inflated 5%.
    """
    C1 = 0.5 * loc.C_I / chi_max
    C3 = 1.05 * max(abs(o["vstar_phi"]) for o in outs)
    base_def = [C1 * eps0 * abs(o["p"]) - np.sign(o["p"]) * o["phi_u"]
                for o in outs]
    pert_def = [(C1 - C3) * eps0 * abs(o["p"]) - np.sign(o["p"]) * o["phi_beta"]
                for o in outs]
    C4 = 0.0
    for o in outs:
        lhs, base, scale = _fbeta_terms(loc, o)
        C4 = max(C4, float(np.max(base - lhs)) / scale)
    r_max = max(float(np.max(np.abs(o["residual"]))) for o in outs)
    return {
        "C1": C1,
        "C2": 1.05 * max(max(base_def) / eps0 ** 3, 0.0) + 1e-9,
        "C2p": 1.05 * max(max(pert_def) / eps0 ** 3, 0.0) + 1e-9,
        "C3": C3,
        "C4": 1.05 * max(C4, 0.0) + 1e-12,
        "K_res": 1.05 * r_max / eps0 ** RESIDUAL_ORDER,
    }


def _fbeta_terms(loc, o):
    pprime = o["eps"] * o["p"]
    lhs = np.sign(pprime) * o["fbeta_centered"]
    base = 0.5 * o["C0"] * abs(pprime) * loc.gamma ** 2
    scale = o["eps"] ** 3 + o["eps"] * o["hhat"] ** 2 + o["hhat"] ** 4
    return lhs, base, scale


def check_sweep(loc, const: dict, o: dict) -> list:
    """c06 residual order and the three c08 signed bounds at (eps, p)."""
    bad = []
    eps, p = o["eps"], o["p"]
    r = float(np.max(np.abs(o["residual"])))
    if not r <= const["K_res"] * eps ** RESIDUAL_ORDER:
        bad.append(f"residual {r:.3e} > K eps^{RESIDUAL_ORDER} = "
                   f"{const['K_res'] * eps ** RESIDUAL_ORDER:.3e}")
    s_phi = np.sign(p) * o["phi_u"]
    bound = const["C1"] * eps * abs(p) - const["C2"] * eps ** 3
    if not s_phi >= bound - PHI_SLACK:
        bad.append(f"sign(p) Phi[u_as] = {s_phi:.6e} below {bound:.6e}")
    s_beta = np.sign(p) * o["phi_beta"]
    bound = ((const["C1"] - const["C3"]) * eps * abs(p)
             - const["C2p"] * eps ** 3)
    if not s_beta >= bound - PHI_SLACK:
        bad.append(f"sign(p) Phi[beta] = {s_beta:.6e} below {bound:.6e}")
    lhs, base, scale = _fbeta_terms(loc, o)
    margin = float(np.min(lhs - (base - const["C4"] * scale)))
    if not margin >= 0.0:
        bad.append(f"f_beta margin {margin:.3e} < 0")
    return bad


# -- oracle ------------------------------------------------------------------

#: safety factor on the fitted distance envelope; the mesh term is not
#: monotone in N (see NOTES.md), so the 5% of verify is too tight here
ENVELOPE_FACTOR = 2.0
SOLVE_COLUMNS = ["x", "u"]


def layer_spacing(mesh) -> float:
    """Cell width inside the layer region of a layer-adapted mesh."""
    return 4.0 * mesh.tau / mesh.N


def envelope(const: dict, eps: float, mesh) -> float:
    """C eps^2 (expansion error) + D (h/eps)^2 (discrete layer shift)."""
    return (const["C"] * eps ** 2
            + const["D"] * (layer_spacing(mesh) / eps) ** 2)


def fit_oracle_constants(coarse: list, fine: list) -> dict:
    """C from the solves at the larger eps, where the mesh term is
    negligible; D from the solves at the smallest eps, after removing the C
    term.  Each item is (eps, mesh, d_max)."""
    C = max(d / eps ** 2 for eps, _, d in coarse)
    D = max(max(d - C * eps ** 2, 0.0) / (layer_spacing(mesh) / eps) ** 2
            for eps, mesh, d in fine)
    return {"C": 1.05 * C, "D": 1.05 * D}


def check_oracle(const: dict, spec, o: dict) -> list:
    """Distance to the expansion within the envelope, and the serialised
    solve payload matching the mesh and the boundary data."""
    bad = []
    limit = ENVELOPE_FACTOR * envelope(const, o["eps"], o["mesh"])
    if not o["d_max"] <= limit:
        bad.append(f"d_max {o['d_max']:.3e} > envelope {limit:.3e}")
    payload = json.loads(o["text"])
    rows = np.asarray(payload["rows"], dtype=float)
    n = o["mesh"].N + 1
    if payload["columns"] != SOLVE_COLUMNS or rows.shape != (n, 2):
        bad.append(f"payload shape {rows.shape} / columns {payload['columns']}")
    elif (rows[0, 0] != 0.0 or rows[-1, 0] != 1.0
          or rows[0, 1] != spec.g0 or rows[-1, 1] != spec.g1):
        bad.append("payload end rows do not carry the boundary data")
    elif not math.isfinite(float(np.sum(rows))):
        bad.append("payload holds a non-finite value")
    return bad
