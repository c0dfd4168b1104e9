import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from layerforge import cli, kernels, problem, solver
from layerforge.errors import InputError
from layerforge.expansion import build_expansion


def _dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


class TestTridiagonalKernel:
    def test_matches_dense_solve_with_row_interchanges(self):
        rng = np.random.default_rng(3)
        lower, diag, upper, rhs = rng.standard_normal((4, 200))
        diag[0] = 0.0           # elimination without interchanges fails here
        ok, x = kernels.thomas_solve(lower, diag, upper, rhs, 1e-300)
        ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
        assert ok
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_dense_solve_diagonally_dominant(self):
        rng = np.random.default_rng(4)
        lower, upper, rhs = rng.standard_normal((3, 200))
        diag = 2.5 + rng.random(200)
        ok, x = kernels.thomas_solve(lower, diag, upper, rhs, 1e-300)
        ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
        assert ok
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_unknown(self):
        one = np.ones(1)
        assert kernels.thomas_solve(one, 4.0 * one, one, 2.0 * one,
                                    1e-300) == (True, pytest.approx([0.5]))
        assert not kernels.thomas_solve(one, 0.0 * one, one, one, 1e-300)[0]

    def test_exactly_zero_pivot_fails(self):
        # rows 0 and 1 are equal, so U has an exact zero on its diagonal
        lower = np.array([0.0, 1.0, 1.0])
        diag = np.array([1.0, 1.0, 1.0])
        upper = np.array([1.0, 0.0, 0.0])
        ok, _ = kernels.thomas_solve(lower, diag, upper, np.ones(3), 0.0)
        assert not ok

    def test_pivot_below_tolerance_fails(self):
        # the determinant is 1e-12, so one diagonal entry of U is that small
        lower = np.array([0.0, 1.0, 1.0])
        diag = np.array([1.0, 1.0 + 1e-12, 1.0])
        upper = np.array([1.0, 0.0, 0.0])
        ok, _ = kernels.thomas_solve(lower, diag, upper, np.ones(3), 1e-300)
        assert ok
        ok, _ = kernels.thomas_solve(lower, diag, upper, np.ones(3), 1e-10)
        assert not ok

    def test_failing_kernel_is_singular_jacobian(self, cubic, capsys,
                                                 monkeypatch):
        spec, loc, _ = cubic
        monkeypatch.setattr(solver, "thomas_solve",
                            lambda lower, *args: (False, lower))
        mesh = solver.build_mesh(loc, 1e-2, 64, 2.5)
        with pytest.raises(solver.SingularJacobian):
            solver.newton_solve(spec, mesh, lambda x: np.asarray(x))
        assert cli.main(["solve", "--problem", "cubic"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("SingularJacobian: ")
        assert err.count("\n") == 1


class TestMesh:
    def test_transition_width_value(self, cubic):
        _, loc, _ = cubic
        mesh = solver.build_mesh(loc, 1e-2, 64, 2.5)
        expected = 2.5 * math.sqrt(2.0) * 1e-2 * math.log(64)
        assert mesh.tau == pytest.approx(expected, abs=1e-12)
        assert mesh.tau == pytest.approx(0.1470, abs=5e-4)

    def test_clamp_engages_at_large_epsilon(self, cubic):
        _, loc, _ = cubic
        mesh = solver.build_mesh(loc, 0.1, 64, 2.5)
        assert mesh.tau == 0.25

    @pytest.mark.parametrize("eps", [1e-2, 0.1], ids=["uncapped", "capped"])
    def test_tau_is_the_layer_half_width(self, cubic, eps):
        """The mesh reads the one layer region the truncation reads."""
        _, loc, _ = cubic
        mesh = solver.build_mesh(loc, eps, 64)
        assert mesh.tau == solver.layer_half_width(loc, eps, 64, solver.C_TAU)
        assert (mesh.tau == 0.25) == (eps == 0.1)

    def test_uniform_kind_ignores_tau(self, cubic):
        _, loc, _ = cubic
        mesh = solver.build_mesh(loc, 1e-2, 64, 2.5, kind="uniform")
        assert np.allclose(np.diff(mesh.nodes), 1.0 / 64)

    def test_layer_point_is_a_node(self, cubic):
        _, loc, _ = cubic
        for N in (64, 66, 128):
            mesh = solver.build_mesh(loc, 1e-2, N, 2.5)
            assert np.min(np.abs(mesh.nodes - loc.t0)) == 0.0
            assert mesh.nodes.size == N + 1
            assert np.all(np.diff(mesh.nodes) > 0.0)

    def test_half_the_cells_inside(self, cubic):
        _, loc, _ = cubic
        mesh = solver.build_mesh(loc, 1e-2, 128, 2.5)
        inside = (mesh.nodes >= loc.t0 - mesh.tau) & \
                 (mesh.nodes <= loc.t0 + mesh.tau)
        assert inside.sum() == 128 // 2 + 1

    def test_preconditions(self, cubic):
        _, loc, _ = cubic
        with pytest.raises(ValueError):
            solver.build_mesh(loc, 1e-2, 63, 2.5)
        with pytest.raises(ValueError):
            solver.build_mesh(loc, 1e-2, 64, 2.0)
        with pytest.raises(ValueError):
            solver.build_mesh(loc, 1e-2, 64, float("nan"))

    @pytest.mark.parametrize("name", ["cubic", "cubic-wavy"])
    def test_plain_average_only_at_the_breaks(self, actx, name):
        """On every (eps, N) of the benchmark's oracle deck the scheme
        falls back to the plain reaction value at the mesh's breaks and
        nowhere else, and there are at most 2: t0 - tau and t0 + tau."""
        _, loc, _ = actx.pipeline(name)
        for eps in (2.0 ** -k for k in range(5, 11)):
            for N in (2 ** m for m in range(11, 17)):
                mesh = solver.build_mesh(loc, eps, N)
                ac = solver._scheme_weights(mesh.nodes, mesh.breaks)[4]
                plain = tuple(int(i) + 1 for i in np.flatnonzero(ac == 1.0))
                assert plain == mesh.breaks, (eps, N)
                assert len(plain) <= 2, (eps, N)
                assert set(mesh.nodes[list(plain)]) <= {
                    loc.t0 - mesh.tau, loc.t0 + mesh.tau}, (eps, N)

    def test_breaks(self, cubic):
        """With N/2 odd the region halves have unequal cells and t0 is a
        break (the third, besides t0 -+ tau); where the cap makes the
        mesh uniform there is none."""
        _, loc, _ = cubic
        mesh = solver.build_mesh(loc, 2.0 ** -9, 2050)
        assert mesh.breaks == (512, 1024, 1537)
        assert mesh.nodes[1024] == loc.t0
        assert solver.build_mesh(loc, 2.0 ** -5, 2048).breaks == ()
        assert solver.build_mesh(loc, 1e-2, 2048, kind="uniform").breaks == ()

    @pytest.mark.parametrize("N", [2, 0, -4])
    def test_too_few_cells(self, cubic, N):
        """Below four cells a half of the layer region has none, and the
        layer point would not be a node (N = 2), or the mesh would be
        empty or NaN."""
        _, loc, _ = cubic
        with pytest.raises(InputError, match="at least 4"):
            solver.build_mesh(loc, 1e-2, N, 2.5)


class TestNewton:
    def test_converges_from_expansion_seed(self, cubic):
        spec, loc, kk = cubic
        e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, 1e-2, 512, 2.5)
        sol = solver.newton_solve(spec, mesh,
                                  lambda x: np.atleast_1d(e.u_as(x)))
        assert sol.iterations <= 8
        scale = 1.0 + np.max(np.abs(spec.b_val(mesh.nodes, sol.values)))
        assert sol.residual_norm <= 1e-10 * scale

    def test_residual_norm_is_that_of_the_returned_values(self, cubic):
        spec, loc, kk = cubic
        e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, 1e-2, 512, 2.5)
        sol = solver.newton_solve(spec, mesh, e.u_as)
        res = solver.discrete_residual(spec, mesh, sol.values)
        assert float(np.max(np.abs(res))) == sol.residual_norm

    def test_truncated_seed_lands_in_same_basin(self, cubic):
        spec, loc, kk = cubic
        e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, 1e-2, 512, 2.5)
        ref = solver.newton_solve(spec, mesh,
                                  lambda x: np.atleast_1d(e.u_as(x)))
        alt = solver.newton_solve(spec, mesh,
                                  lambda x: np.atleast_1d(
                                      e.truncated(x, 512, 2.5)))
        assert np.max(np.abs(ref.values - alt.values)) <= 1e-8

    def test_unstable_seed_does_not_reach_layer_solution(self, cubic):
        spec, loc, kk = cubic
        e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, 1e-2, 512, 2.5)
        ref = solver.newton_solve(spec, mesh,
                                  lambda x: np.atleast_1d(e.u_as(x)))
        try:
            sol = solver.newton_solve(
                spec, mesh, lambda x: np.atleast_1d(spec.phi(0, x) + 0.0 * x))
        except (solver.NoConvergence, solver.SingularJacobian):
            return
        assert np.max(np.abs(sol.values - ref.values)) > 0.1

    def test_basin_stability_across_seeds(self, cubic):
        spec, loc, kk = cubic
        mesh = solver.build_mesh(loc, 1e-2, 512, 2.5)
        solutions = []
        for p in (-1e-2, 0.0, 1e-2):
            e = build_expansion(spec, p=p, eps=1e-2, loc=loc, kink=kk)
            sol = solver.newton_solve(spec, mesh,
                                      lambda x: np.atleast_1d(e.u_as(x)))
            solutions.append(sol.values)
        for other in solutions[1:]:
            assert np.max(np.abs(solutions[0] - other)) <= 1e-8

    def test_fine_mesh_converges_with_exact_boundary_values(self, wavy):
        """On 2^16 cells the residual norm cannot reach the fixed tolerance;
        the roundoff floor of the residual ends the iteration instead."""
        spec, loc, kk = wavy
        eps = 2.0 ** -7
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, eps, 2 ** 16, 2.5)
        sol = solver.newton_solve(spec, mesh, e.u_as)
        assert sol.values[0] == spec.g0
        assert sol.values[-1] == spec.g1

    def test_damping_history_recorded(self, cubic):
        spec, loc, kk = cubic
        e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, 1e-2, 128, 2.5)
        sol = solver.newton_solve(spec, mesh,
                                  lambda x: np.atleast_1d(e.u_as(x)))
        assert len(sol.damping) == sol.iterations
        assert all(0.0 < lam <= 1.0 for lam in sol.damping)

    def test_mesh_epsilon_decides_the_solve(self, cubic):
        """The solve reads its mesh's epsilon, not the problem's: the
        0.01-epsilon cubic on a 2^-5 mesh solves bitwise as the cubic at
        2^-5 does, and so does its residual."""
        spec, loc, kk = cubic
        eps = 2.0 ** -5
        assert spec.eps != eps
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, eps, 1024)
        assert mesh.eps == eps
        specs = (spec, problem.builtin_problem("cubic", eps=eps))
        sols = [solver.newton_solve(s, mesh, e.u_as) for s in specs]
        assert np.array_equal(sols[0].values, sols[1].values)
        assert sols[0].iterations == sols[1].iterations
        residuals = [solver.discrete_residual(s, mesh, sols[0].values)
                     for s in specs]
        assert np.array_equal(*residuals)


def _cubic_solves(cubic, eps, sizes):
    """cubic's Newton solutions at eps on each N of sizes, seeded from
    u_as, with their distance to it, by N."""
    spec, loc, kk = cubic
    e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
    solves = {}
    for N in sizes:
        sol = solver.newton_solve(spec, solver.build_mesh(loc, eps, N),
                                  e.u_as)
        solves[N] = (sol, solver.compare(sol, e.u_as)[0])
    return solves


def _asymmetry(u):
    """max|u + u[::-1] - 1|: 0 for cubic's exact discrete solution, as
    b(1 - x, 1 - u) = -b(x, u) and its mesh is symmetric about t0 = 1/2."""
    return float(np.max(np.abs(u + u[::-1] - 1.0)))


@pytest.fixture(scope="module")
def cubic_fine_solves(cubic):
    """cubic's solves at eps = 2^-9 on N = 2^12..2^16 cells."""
    return _cubic_solves(cubic, 2.0 ** -9, [2 ** m for m in range(12, 17)])


class TestFineMesh:
    """The compact average holds at every node of the layer region, so the
    scheme stays fourth order on fine meshes at small eps."""

    def test_distance_is_independent_of_N(self, cubic_fine_solves):
        d_max = [d for _, d in cubic_fine_solves.values()]
        assert max(d_max) <= 1.05 * min(d_max)

    def test_symmetric_problem_has_symmetric_solution(self, cubic_fine_solves):
        assert _asymmetry(cubic_fine_solves[2 ** 13][0].values) <= 1e-10


class TestFluxRow:
    """The residual row is in flux form, so its rounding scales with the
    differences of u, not with u.  In the three-product form that rounding
    does not shrink with eps on the layer region's cells, and the layer
    mode amplifies it by about 1 / eps: the error then grew with N."""

    def test_symmetric_at_small_eps(self, cubic):
        (sol, _), = _cubic_solves(cubic, 2.0 ** -16, [2 ** 16]).values()
        assert _asymmetry(sol.values) <= 1e-10

    def test_distance_does_not_grow_with_N(self, cubic):
        solves = _cubic_solves(cubic, 2.0 ** -14, [2 ** 12, 2 ** 14, 2 ** 16])
        d_max = [d for _, d in solves.values()]
        assert d_max == sorted(d_max, reverse=True)


class TestCompare:
    def test_self_distance_is_zero(self, cubic):
        spec, loc, kk = cubic
        e = build_expansion(spec, p=0.0, eps=1e-2, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, 1e-2, 256, 2.5)
        sol = solver.newton_solve(spec, mesh,
                                  lambda x: np.atleast_1d(e.u_as(x)))
        d_max, d_layer, d_outer = solver.compare(
            sol, lambda x: np.interp(x, mesh.nodes, sol.values))
        assert d_max == 0.0

    def test_outer_region_second_order(self, cubic):
        spec, loc, kk = cubic
        eps = 1e-2
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
        mesh = solver.build_mesh(loc, eps, 1024, 2.5)
        sol = solver.newton_solve(spec, mesh,
                                  lambda x: np.atleast_1d(e.u_as(x)))
        _, _, d_outer = solver.compare(sol,
                                       lambda x: np.atleast_1d(e.u_as(x)))
        assert d_outer <= 10.0 * eps ** 2

    def test_distance_order_in_epsilon(self, cubic):
        from layerforge import verify
        spec, loc, kk = cubic
        rep = verify.solver_convergence(spec, loc, kk)
        assert rep.passed
        assert rep.slope >= 1.7

    def test_wavy_distance_decreases(self, wavy):
        """The curved-root variant is preasymptotic at the coarse end of
        the ladder; require decrease and a softer fitted order."""
        from layerforge import verify
        spec, loc, kk = wavy
        rep = verify.solver_convergence(spec, loc, kk)
        assert rep.slope >= 1.4
        assert all(a > b for a, b in zip(rep.measured, rep.measured[1:]))


class TestInterpolatedResidual:
    def test_monotone_in_resolution(self, cubic):
        """Continuous-operator residual of the spline-interpolated discrete
        solution, sampled on a twice-finer grid, drops with N."""
        spec, loc, kk = cubic
        eps = 2.0 ** -5
        e = build_expansion(spec, p=0.0, eps=eps, loc=loc, kink=kk)
        worsts = []
        for N in (128, 256, 512, 1024):
            mesh = solver.build_mesh(loc, eps, N, 2.5)
            sol = solver.newton_solve(spec, mesh,
                                      lambda x: np.atleast_1d(e.u_as(x)))
            spline = CubicSpline(mesh.nodes, sol.values)
            fine = np.sort(np.concatenate(
                [mesh.nodes, 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])]))
            fine = fine[1:-1]
            resid = (-eps ** 2 * spline(fine, 2)
                     + spec.b_val(fine, spline(fine)))
            worsts.append(float(np.max(np.abs(resid))))
        assert all(a > b for a, b in zip(worsts, worsts[1:]))


class TestJumpOracle:
    def test_numerov_reproduces_known_solution(self, cubic_terms):
        """Feed the oracle a manufactured problem with a known answer."""
        aux, _ = cubic_terms

        def exact(xi):
            return np.exp(-np.abs(xi)) * np.sin(xi) ** 2

        def psi(xi, side):
            # manufactured source: -(exact)'' + B_s * exact
            h = 1e-5
            d2 = (exact(xi + h) - 2 * exact(xi) + exact(xi - h)) / h ** 2
            return -d2 + aux.at(xi).B(0, 1) * exact(xi)

        (xn, fn), (xp, fp) = solver.solve_jump_fd_numerov(
            lambda xi: aux.at(xi).B(0, 1), psi, 0.0, 0.0, half_width=30.0,
            n=3000)
        assert np.max(np.abs(fn - exact(xn))) <= 1e-4
        assert np.max(np.abs(fp - exact(xp))) <= 1e-4
