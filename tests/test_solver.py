"""Fixed-eps minimization and the vanishing-eps continuation."""

import dataclasses

import numpy as np
import pytest

import plapsolve.solver
from plapsolve import (
    ContinuationBoundError,
    DiscreteFunction,
    EnergyParams,
    EpsSchedule,
    ForcingTerm,
    IndefiniteEnergyError,
    Potential,
    Weight,
    blowup_demo,
    box,
    build_mesh,
    continuation_solve,
    dual_norm,
    integrate,
    interval,
    minimize_phi,
)
from plapsolve._descent import METRIC_RTOL, NEWTON_RTOL
from plapsolve.energy import _grad_square, _phi_arrays, _phi_gradient_arrays, _q_v_arrays
from oracles import wide_system_1d


class TestEpsSchedule:
    def test_values(self):
        sched = EpsSchedule(0.5, 0.5, 4)
        assert np.allclose(sched.values, [0.5, 0.25, 0.125, 0.0625])
        assert sched.terminal == pytest.approx(0.0625)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(eps0=1.0, ratio=0.5, steps=3), dict(eps0=0.5, ratio=1.0, steps=3), dict(eps0=0.5, ratio=0.5, steps=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EpsSchedule(**kwargs)

    def test_strictly_decreasing_in_unit_interval(self):
        vals = EpsSchedule(0.9, 0.3, 6).values
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals < 1))


class TestMinimizePhi:
    def test_zero_forcing_returns_zero(self):
        mesh = build_mesh(interval(0.0, 1.0), [51])
        params = EnergyParams(p=2.0, eps=0.5)
        f = ForcingTerm.zero(mesh)
        result = minimize_phi(DiscreteFunction.zeros(mesh), Potential.zero(), f, params, tol=1e-10)
        assert result.phi_value <= 0.0 + 1e-15
        assert np.max(np.abs(result.u.values)) <= 1e-8
        assert result.converged

    def test_refuses_a_forcing_on_another_mesh(self):
        mesh, other = (build_mesh(interval(0.0, 1.0), [51]) for _ in range(2))
        with pytest.raises(ValueError, match="different mesh"):
            minimize_phi(DiscreteFunction.zeros(mesh), Potential.zero(), ForcingTerm.zero(other), EnergyParams(p=2.0))

    def test_failed_steepest_descent_search_counts_once(self, monkeypatch):
        # a failed preconditioned search is not retried along -g: it counts
        # one failure, warns once and returns the last iterate
        calls = []

        def failing_search(objective, x, direction, *args, **kwargs):
            calls.append(direction)
            return None, None, None

        monkeypatch.setattr(plapsolve.solver, "armijo_backtrack", failing_search)
        mesh = build_mesh(interval(0.0, 1.0), [21])
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        start, params = DiscreteFunction.zeros(mesh), EnergyParams(p=2.0, eps=0.5)
        with pytest.warns(RuntimeWarning, match="line search stalled") as record:
            result = minimize_phi(start, Potential.zero(), f, params)
        assert len(record) == 1
        zero = np.zeros_like(mesh.free_weights)
        r = _phi_gradient_arrays(mesh, zero, zero, f, params, _grad_square(mesh, zero))
        assert len(calls) == 1
        assert not np.array_equal(calls[0], -r / mesh.free_weights)
        assert result.linesearch_failures == 1
        assert result.iterations == 1
        assert np.array_equal(result.u.values, start.values)

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_converged_call_evaluates_one_gradient_per_iteration(self, monkeypatch, p):
        # the loop's last gradient is already the final one at the delta floor
        calls = []
        gradient = plapsolve.solver._phi_gradient_arrays

        def counting(*args, **kwargs):
            calls.append(1)
            return gradient(*args, **kwargs)

        monkeypatch.setattr(plapsolve.solver, "_phi_gradient_arrays", counting)
        mesh = build_mesh(interval(0.0, 1.0), [41])
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        params = EnergyParams(p=p, eps=0.3, delta=1e-4)
        result = minimize_phi(DiscreteFunction.zeros(mesh), Potential.zero(), f, params, tol=1e-8)
        assert result.converged and result.residual <= 1e-8
        assert len(calls) == result.iterations

    def test_linear_solve_oracle(self):
        # p = 2, V = 0, eps = 0.5: must match the hand-assembled direct solve
        n = 401
        x, h, w, A = wide_system_1d(n)
        fvals = np.sin(np.pi * x)
        eps = 0.5
        inner = slice(1, n - 1)
        sys = (A + eps * np.diag(w))[inner, inner]
        u_star = np.zeros(n)
        u_star[inner] = np.linalg.solve(sys, (w * fvals)[inner])

        mesh = build_mesh(interval(0.0, 1.0), [n])
        params = EnergyParams(p=2.0, eps=eps)
        f = ForcingTerm.density(mesh, fvals)
        result = minimize_phi(DiscreteFunction.zeros(mesh), Potential.zero(), f, params, tol=1e-11)
        assert np.max(np.abs(result.u.values - u_star)) <= 1e-6

    def test_multi_start_consistency_p3(self):
        # distinct random starts converge to the same objective value; the
        # minimizers themselves are not asserted unique
        mesh = build_mesh(interval(0.0, 1.0), [51])
        params = EnergyParams(p=3.0, eps=0.1, delta=1e-5)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        rng = np.random.default_rng(0)
        values = []
        best_in = None
        for _ in range(20):
            start_vals = 0.5 * rng.standard_normal(mesh.n_nodes)
            start = DiscreteFunction(mesh, start_vals)
            u = start.values[mesh.free_mask]
            phi_in = _phi_arrays(mesh, u, np.zeros_like(u), f, params, _grad_square(mesh, u))
            result = minimize_phi(start, Potential.zero(), f, params, tol=1e-10, max_iter=2000)
            assert result.phi_value < phi_in
            values.append(result.phi_value)
        assert max(values) - min(values) <= 1e-8

    def test_monotone_per_accepted_step(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        params = EnergyParams(p=2.5, eps=0.3, delta=1e-4)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        result = minimize_phi(DiscreteFunction.zeros(mesh), Potential.zero(), f, params, tol=1e-9)
        assert result.phi_increase_max <= 1e-12

    def test_indefinite_newton_operator_raises_before_any_step(self, monkeypatch):
        # V = 60 lies above the first eigenvalue (about pi^2): at eps = 0 the
        # Newton operator is the form's own matrix plus 1e-10 M, and its
        # 49-node block is small, so Cholesky refuses it when the
        # preconditioner is built, before any line search
        searches = []
        monkeypatch.setattr(plapsolve.solver, "armijo_backtrack", lambda *a, **k: searches.append(1))
        mesh = build_mesh(interval(0.0, 1.0), [51])
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(IndefiniteEnergyError, match="Cholesky refuses"):
            minimize_phi(DiscreteFunction.zeros(mesh), Potential.constant(60.0), f, EnergyParams(p=2.0))
        assert not searches

    def test_indefinite_potential_raises(self):
        mesh = build_mesh(interval(0.0, 1.0), [51])
        params = EnergyParams(p=2.0, eps=0.01)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(IndefiniteEnergyError):
            minimize_phi(
                DiscreteFunction.zeros(mesh), Potential.constant(60.0), f, params,
                tol=1e-10, max_iter=500,
            )


@pytest.fixture(scope="module")
def bounded_potential_run():
    """The ``bounded_potential`` preset's continuation (p = 2.5, tabulated
    potential below the first eigenvalue, 33x33 unit square), with the
    initial trial step of every ``minimize_phi`` line search recorded."""
    mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [33, 33])
    x, y = mesh.points.T
    V = Potential.tabulated(14.3 * np.sin(np.pi * x) * np.sin(np.pi * y))
    f = ForcingTerm.manufactured(mesh, lambda pts: np.sin(np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1]))
    init_steps = []
    search = plapsolve.solver.armijo_backtrack

    def recording_search(*args, init_step=1.0, **kwargs):
        init_steps.append(init_step)
        return search(*args, init_step=init_step, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plapsolve.solver, "armijo_backtrack", recording_search)
        report = continuation_solve(
            V, f, EnergyParams(p=2.5, q=2.5, delta=1e-4), EpsSchedule(0.5, 0.25, 6),
            tol=2e-5, max_iter=2500,
        )
    return report, init_steps


class TestUnitStep:
    """The lagged metric majorizes the flux curvature, so ``minimize_phi``
    never tries a step longer than one."""

    def test_trial_step_never_exceeds_one(self, bounded_potential_run):
        _, init_steps = bounded_potential_run
        assert init_steps
        assert max(init_steps) <= 1.0

    def test_every_stage_converges_quickly(self, bounded_potential_run):
        report, _ = bounded_potential_run
        iterations = [stage.iterations for stage in report.stages]
        assert report.converged
        assert len(iterations) == 6 and max(iterations) <= 20, iterations

    @pytest.mark.parametrize("p, rtol", [(2.0, NEWTON_RTOL), (2.5, METRIC_RTOL)], ids=["newton", "metric"])
    def test_preconditioner_tolerance_by_role(self, monkeypatch, p, rtol):
        built = []

        class Recording(plapsolve.solver.Preconditioner):
            def __init__(self, mesh, *, rtol, **kwargs):
                built.append(rtol)
                super().__init__(mesh, rtol=rtol, **kwargs)

        monkeypatch.setattr(plapsolve.solver, "Preconditioner", Recording)
        mesh = build_mesh(interval(0.0, 1.0), [41])
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        params = EnergyParams(p=p, eps=0.3, delta=1e-4)
        minimize_phi(DiscreteFunction.zeros(mesh), Potential.zero(), f, params, tol=1e-8, max_iter=20)
        assert built
        assert set(built) == {rtol}


class TestContinuation:
    def test_zero_forcing(self):
        mesh = build_mesh(interval(0.0, 1.0), [51])
        params = EnergyParams(p=2.0)
        report = continuation_solve(
            Potential.zero(), ForcingTerm.zero(mesh), params, EpsSchedule(0.5, 0.25, 4)
        )
        assert np.max(np.abs(report.solution.values)) <= 1e-10
        for stage in report.stages:
            assert abs(stage.phi_value) <= 1e-12
            assert abs(stage.q_v_value) <= 1e-12

    def test_linear_limit_oracle(self):
        # the continuation limit matches one direct solve of the unregularized
        # equation
        n = 201
        x, h, w, A = wide_system_1d(n)
        fvals = np.pi**2 * np.sin(np.pi * x)
        inner = slice(1, n - 1)
        u_star = np.zeros(n)
        u_star[inner] = np.linalg.solve(A[inner, inner], (w * fvals)[inner])

        mesh = build_mesh(interval(0.0, 1.0), [n])
        params = EnergyParams(p=2.0)
        f = ForcingTerm.density(mesh, fvals)
        report = continuation_solve(
            Potential.zero(), f, params, EpsSchedule(0.5, 0.25, 8), tol=1e-10
        )
        assert np.max(np.abs(report.solution.values - u_star)) <= 1e-5
        assert report.converged

    def test_hardy_continuation_bounds(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [17, 17, 17], singular_cap_radius=0.05)
        params = EnergyParams(p=2.0, q=1.8)
        f = ForcingTerm.manufactured(
            mesh, lambda x: np.exp(-4 * ((x[:, 0] - 0.3) ** 2 + x[:, 1] ** 2 + x[:, 2] ** 2))
        )
        W = Weight.constant(0.29)
        report = continuation_solve(
            Potential.quadratic_hardy(3), f, params, EpsSchedule(0.5, 0.25, 5),
            tol=1e-9, W=W,
        )
        pc = 2.0
        qvs = [s.q_v_value for s in report.stages]
        for stage in report.stages:
            assert stage.q_v_value <= report.dual_norm_estimate**pc * (1 + 1e-3)
            assert stage.y_norm_value**2 <= stage.q_v_value + 1e-9
        # energies settle monotonically up to solver noise
        assert all(b >= a - 1e-6 for a, b in zip(qvs, qvs[1:]))
        assert report.stages[-1].residual <= 1e-9

    def test_energy_identity_at_stationarity(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        params = EnergyParams(p=2.0)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        report = continuation_solve(Potential.zero(), f, params, EpsSchedule(0.5, 0.25, 6), tol=1e-11)
        pairing = f.pairing(report.solution)
        assert report.stages[-1].phi_value == pytest.approx((1 / 2 - 1) * pairing, rel=1e-9)

    def test_warm_start_monotonicity(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        params = EnergyParams(p=2.0)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        report = continuation_solve(Potential.zero(), f, params, EpsSchedule(0.5, 0.25, 6), tol=1e-11)
        for stage in report.stages:
            assert stage.phi_start >= stage.phi_value - 1e-12

    def test_cauchy_diagnostic_decays(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        params = EnergyParams(p=2.0)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        report = continuation_solve(Potential.zero(), f, params, EpsSchedule(0.5, 0.25, 6), tol=1e-11)
        diags = [s.cauchy_vs_prev for s in report.stages]
        assert diags[-1] < diags[0]
        assert diags[-1] <= 1e-6

    def test_indefinite_aborts(self):
        mesh = build_mesh(interval(0.0, 1.0), [51])
        params = EnergyParams(p=2.0)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises((IndefiniteEnergyError, ContinuationBoundError)):
            continuation_solve(
                Potential.constant(60.0), f, params, EpsSchedule(0.5, 0.25, 3), tol=1e-8
            )

    def test_stage_above_the_dual_norm_bound_aborts(self, monkeypatch):
        # q_v(u_eps) <= D^(p') is the a-priori bound of a minimizer; a stage
        # whose iterate is inflated tenfold breaks it at the first stage,
        # while the eps = 0 minimization behind the dual norm is left alone
        minimize = plapsolve.solver.minimize_phi

        def inflated(start, V, f, params, *args, **kwargs):
            result = minimize(start, V, f, params, *args, **kwargs)
            return dataclasses.replace(result, u=10.0 * result.u) if params.eps > 0 else result

        monkeypatch.setattr(plapsolve.solver, "minimize_phi", inflated)
        mesh = build_mesh(interval(0.0, 1.0), [51])
        f = ForcingTerm.manufactured(mesh, lambda x: np.pi**2 * np.sin(np.pi * x[:, 0]))
        with pytest.raises(ContinuationBoundError, match=r"stage eps=5\.000e-01: q_v=.* exceeds the dual-norm bound"):
            continuation_solve(Potential.zero(), f, EnergyParams(p=2.0), EpsSchedule(0.5, 0.25, 3))

    def test_non_finite_dual_norm_refuses_to_start(self, monkeypatch):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran after a non-finite dual norm")

        monkeypatch.setattr(plapsolve.solver, "dual_norm", lambda *args: np.inf)
        monkeypatch.setattr(plapsolve.solver, "minimize_phi", no_stage)
        mesh = build_mesh(interval(0.0, 1.0), [51])
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(ValueError, match="dual norm estimate inf is not usably finite"):
            continuation_solve(Potential.zero(), f, EnergyParams(p=2.0), EpsSchedule(0.5, 0.25, 3))

    # relative max errors on 101/201/401 nodes (each pinned 10 % above its
    # measured value) and the least observed order between refinements; at
    # p = 3 the solution behaves like |x - 1/2|^(3/2) at the midpoint, which
    # limits the order to about 1.5
    @pytest.mark.parametrize("p, errors, order", [
        (3.0, (6.8e-4, 2.4e-4, 8.6e-5), 1.4),
        (1.5, (1.2e-3, 3.0e-4, 7.4e-5), 1.9),
    ], ids=["p3", "p1.5"])
    def test_forced_torsion_converges_in_the_field(self, p, errors, order):
        # the p-torsion function u* = ((p-1)/p)((1/2)^p' - |x - 1/2|^p') solves
        # -div(|u'|^(p-2) u') = 1 on (0, 1); the field error is asserted, not
        # ``converged``, which the p = 1.5 stall rule leaves False
        pc = p / (p - 1.0)
        got = []
        for n in (101, 201, 401):
            mesh = build_mesh(interval(0.0, 1.0), [n])
            x = mesh.points[:, 0]
            u_star = (p - 1.0) / p * (0.5**pc - np.abs(x - 0.5) ** pc)
            report = continuation_solve(
                Potential.zero(), ForcingTerm.density(mesh, np.ones(n)), EnergyParams(p=p, q=p, delta=1e-4),
                EpsSchedule(0.5, 0.25, 7), tol=1e-9, W=Weight.constant(0.45), max_iter=2500,
            )
            got.append(np.max(np.abs(report.solution.values - u_star)) / np.max(u_star))
        assert all(e <= 1.1 * pinned for e, pinned in zip(got, errors)), got
        assert min(np.log2(np.array(got[:-1]) / got[1:])) >= order, got

    def test_blowup_forcing_solves_at_p2(self):
        # the paper's forcing f = sum_k (-lap(phi_k) - lam phi_k), paired by
        # parts, with V = lam = lambda_1(Omega) is solved by u = sum_k phi_k,
        # whose energy gap is sum_k 1/k^2 and equals the squared dual norm;
        # the field error is pinned 10 % above its measured value
        res = blowup_demo(build_mesh(interval(0.0, 1.0), [17]), n_terms=4)
        lam, mesh = res.lambda_omega, res.mesh
        f = ForcingTerm.distributional_sum([(phi_k, lam) for phi_k in res.components])
        V, params = Potential.constant(lam), EnergyParams(p=2.0)
        u = minimize_phi(DiscreteFunction.zeros(mesh), V, f, params, tol=1e-10).u
        exact = sum(phi_k.values for phi_k in res.components)
        assert np.max(np.abs(u.values - exact)) / np.max(np.abs(exact)) <= 1.1 * 6.42e-10
        free = mesh.free_mask
        qv = _q_v_arrays(mesh, u.values[free], np.full(np.count_nonzero(free), lam), 2.0,
                         _grad_square(mesh, u.values[free]))
        assert qv == pytest.approx(sum(1.0 / k**2 for k in range(1, 5)), rel=1e-9)
        assert dual_norm(f, V, params, tol=1e-10) == pytest.approx(np.sqrt(qv), rel=1e-9)

    def test_pure_equation_residual_reported(self):
        mesh = build_mesh(interval(0.0, 1.0), [201])
        params = EnergyParams(p=2.0)
        f = ForcingTerm.manufactured(mesh, lambda x: np.pi**2 * np.sin(np.pi * x[:, 0]))
        report = continuation_solve(Potential.zero(), f, params, EpsSchedule(0.5, 0.25, 8), tol=1e-10)
        # the pure residual drops the eps term, so it is dominated by
        # eps_terminal * |u| and stays small for a deep schedule
        assert report.terminal_residual <= 1e-4
        assert report.terminal_residual > 0.0
