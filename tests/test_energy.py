"""Energy functionals, norms, the truncation clamp, and the dual norm.

Oracles here are independent of the library code paths: hand-assembled
difference matrices, closed-form integrals, and central finite differences.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapsolve import (
    DiscreteFunction,
    EnergyParams,
    EpsSchedule,
    ForcingTerm,
    IndefiniteEnergyError,
    Potential,
    Weight,
    box,
    build_mesh,
    cauchy_diagnostic,
    continuation_solve,
    dual_norm,
    integrate,
    interval,
    minimize_phi,
    phi,
    phi_gradient,
    q_v,
    sobolev_norm,
    truncate,
    y_norm,
)
from plapsolve.sampling import bump_family
from oracles import wide_system_1d


@pytest.fixture(scope="module")
def mesh201():
    return build_mesh(interval(0.0, 1.0), [201])


@pytest.fixture(scope="module")
def p2():
    return EnergyParams(p=2.0)


class TestEnergyParams:
    def test_defaults(self):
        params = EnergyParams(p=2.5)
        assert params.q == 2.5
        assert params.eps == 0.0
        assert params.p_conjugate == pytest.approx(2.5 / 1.5)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(p=1.0), "p must exceed 1"),
            (dict(p=2.0, q=2.5), "q must not exceed p"),
            (dict(p=3.0, q=1.5), "q must exceed p - 1"),
            (dict(p=2.0, eps=1.0), "eps"),
            (dict(p=2.0, delta=-1.0), "delta"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            EnergyParams(**kwargs)


class TestQv:
    def test_zero_function(self, mesh201, p2):
        assert q_v(DiscreteFunction.zeros(mesh201), Potential.zero(), p2) == 0.0

    def test_dirichlet_energy_of_sine(self, mesh201, p2):
        u = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        assert q_v(u, Potential.zero(), p2) == pytest.approx(np.pi**2 / 2, abs=0.05)

    def test_constant_potential_decomposition(self, mesh201, p2):
        u = DiscreteFunction.from_callable(mesh201, lambda x: x[:, 0] * (1 - x[:, 0]))
        lam = 3.0
        full = q_v(u, Potential.constant(lam), p2)
        dirichlet = q_v(u, Potential.zero(), p2)
        mass = integrate(np.abs(u.values) ** 2, mesh201)
        assert full == pytest.approx(dirichlet - lam * mass, rel=1e-13)

    @given(t=st.floats(-8.0, 8.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, t):
        mesh = build_mesh(interval(0.0, 1.0), [33])
        params = EnergyParams(p=2.5)
        u = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        left = q_v(u * t, Potential.zero(), params)
        right = abs(t) ** 2.5 * q_v(u, Potential.zero(), params)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


class TestPhi:
    def test_zero_function(self, mesh201):
        params = EnergyParams(p=2.0, eps=0.5)
        f = ForcingTerm.zero(mesh201)
        assert phi(DiscreteFunction.zeros(mesh201), Potential.zero(), f, params) == 0.0

    def test_nonnegative_without_forcing(self, mesh201):
        params = EnergyParams(p=2.0, eps=0.5)
        f = ForcingTerm.zero(mesh201)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = DiscreteFunction(mesh201, rng.standard_normal(mesh201.n_nodes))
            assert phi(u, Potential.zero(), f, params) > 0.0

    def test_minimizer_against_direct_solve(self):
        # oracle: hand-assembled (A + eps M) u = M f, then phi(u*) must beat
        # phi at random perturbations of u*
        n = 101
        x, h, w, A = wide_system_1d(n)
        eps = 0.5
        fvals = np.sin(np.pi * x)
        inner = slice(1, n - 1)
        M = np.diag(w)
        sys = (A + eps * M)[inner, inner]
        u_star = np.zeros(n)
        u_star[inner] = np.linalg.solve(sys, (w * fvals)[inner])

        mesh = build_mesh(interval(0.0, 1.0), [n])
        params = EnergyParams(p=2.0, eps=eps)
        f = ForcingTerm.density(mesh, fvals)
        u = DiscreteFunction(mesh, u_star)
        phi_star = phi(u, Potential.zero(), f, params)
        rng = np.random.default_rng(1)
        for _ in range(100):
            pert = rng.standard_normal(n) * 1e-3
            v = DiscreteFunction(mesh, u_star + pert)
            assert phi(v, Potential.zero(), f, params) > phi_star

    def test_coercivity_bound(self, mesh201):
        # phi(u) >= -F ||u||_{W^{1,p}} + eps/p ||u||^p with F the L^2 norm of
        # the density, an upper bound of the dual norm at p = 2 by Hoelder
        params = EnergyParams(p=2.0, eps=0.25)
        density = np.sin(3 * np.pi * mesh201.points[:, 0])
        f = ForcingTerm.density(mesh201, density)
        F = integrate(density**2, mesh201) ** 0.5
        for u in bump_family(mesh201, 10, 5):
            norm = sobolev_norm(u, 2.0)
            lower = -F * norm + params.eps / 2.0 * norm**2
            assert phi(u, Potential.zero(), f, params) >= lower - 1e-12


class TestPhiGradient:
    def test_zero_at_origin(self, mesh201):
        params = EnergyParams(p=2.0, eps=0.5)
        f = ForcingTerm.zero(mesh201)
        g = phi_gradient(DiscreteFunction.zeros(mesh201), Potential.zero(), f, params)
        assert np.all(g.values == 0.0)

    def test_linear_case_is_discrete_laplacian(self):
        n = 101
        x, h, w, A = wide_system_1d(n)
        fvals = np.sin(2 * np.pi * x)
        mesh = build_mesh(interval(0.0, 1.0), [n])
        params = EnergyParams(p=2.0, eps=0.0, delta=0.0)
        f = ForcingTerm.density(mesh, fvals)
        uvals = np.sin(np.pi * x)
        uvals[0] = uvals[-1] = 0.0
        u = DiscreteFunction(mesh, uvals)
        g = phi_gradient(u, Potential.zero(), f, params)
        expected = (A @ uvals) / w - fvals
        inner = mesh.free_mask
        assert np.allclose(g.values[inner], expected[inner], atol=1e-10)

    def test_quadratic_case_is_exact(self):
        # at p = 2 every term is quadratic, so central differences agree with
        # the first variation to rounding
        mesh = build_mesh(interval(0.0, 1.0), [51])
        params = EnergyParams(p=2.0, eps=0.3)
        f = ForcingTerm.manufactured(mesh, lambda x: np.cos(np.pi * x[:, 0]))
        rng = np.random.default_rng(2)
        V = Potential.constant(0.5)
        u = DiscreteFunction(mesh, rng.standard_normal(mesh.n_nodes))
        wdir = DiscreteFunction(mesh, rng.standard_normal(mesh.n_nodes))
        g = phi_gradient(u, V, f, params)
        pairing = integrate(g.values * wdir.values, mesh)
        t = 1e-4
        up = DiscreteFunction(mesh, u.values + t * wdir.values)
        dn = DiscreteFunction(mesh, u.values - t * wdir.values)
        fd = (phi(up, V, f, params) - phi(dn, V, f, params)) / (2 * t)
        assert fd == pytest.approx(pairing, rel=1e-7)

    @pytest.mark.parametrize("p, delta", [(3.0, 1e-3), (1.5, 1e-3)])
    def test_directional_derivative(self, p, delta):
        mesh = build_mesh(interval(0.0, 1.0), [51])
        params = EnergyParams(p=p, eps=0.3, delta=delta)
        f = ForcingTerm.manufactured(mesh, lambda x: np.cos(np.pi * x[:, 0]))
        rng = np.random.default_rng(2)
        V = Potential.constant(0.5)
        u = DiscreteFunction(mesh, rng.standard_normal(mesh.n_nodes))
        wdir = DiscreteFunction(mesh, rng.standard_normal(mesh.n_nodes))
        g = phi_gradient(u, V, f, params)
        pairing = integrate(g.values * wdir.values, mesh)
        errs = []
        steps = (1e-3, 1e-4)
        for t in steps:
            up = DiscreteFunction(mesh, u.values + t * wdir.values)
            dn = DiscreteFunction(mesh, u.values - t * wdir.values)
            fd = (phi(up, V, f, params) - phi(dn, V, f, params)) / (2 * t)
            errs.append(abs(fd - pairing))
        order = np.log(errs[0] / errs[1]) / np.log(steps[0] / steps[1])
        assert order >= 1.8


class TestTruncate:
    def test_pointwise_values(self):
        assert truncate(0.5) == 0.5
        assert truncate(-3.0) == -1.0
        assert truncate(3.0) == 1.0

    @given(s=st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_odd(self, s):
        assert truncate(truncate(s)) == truncate(s)
        assert truncate(-s) == -truncate(s)

    def test_field_clamp(self, mesh201):
        u = DiscreteFunction.from_callable(mesh201, lambda x: 3 * np.sin(np.pi * x[:, 0]))
        t = truncate(u.values)
        assert np.max(t) <= 1.0
        assert np.min(t) >= -1.0


class TestCauchyDiagnostic:
    def test_identical_fields(self, mesh201, p2):
        u = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        zeta = DiscreteFunction(mesh201, np.ones(mesh201.n_nodes))
        assert cauchy_diagnostic(u, u, zeta, p2) == 0.0

    def test_quadratic_identity_when_clamp_inactive(self, mesh201, p2):
        # p = 2 with small difference: the pairing is the weighted squared
        # gradient of the difference, hence nonnegative
        u_a = DiscreteFunction.from_callable(mesh201, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        u_b = DiscreteFunction.from_callable(mesh201, lambda x: 0.3 * np.sin(2 * np.pi * x[:, 0]))
        zeta = DiscreteFunction.from_callable(
            mesh201, lambda x: x[:, 0] * (1 - x[:, 0])
        )
        val = cauchy_diagnostic(u_a, u_b, zeta, p2)
        d = u_a.values - u_b.values
        g = mesh201.grad(DiscreteFunction(mesh201, d).values).T
        direct = integrate(zeta.values * np.einsum("ij,ij->i", g, g), mesh201)
        assert val == pytest.approx(direct, rel=1e-12)
        assert val >= 0.0


class TestNorms:
    def test_y_norm_zero(self, mesh201, p2):
        assert y_norm(DiscreteFunction.zeros(mesh201), Weight.constant(1.0), p2) == 0.0

    def test_y_norm_homogeneous(self, mesh201):
        params = EnergyParams(p=2.0, q=1.8)
        u = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        W = Weight.constant(0.7)
        assert y_norm(2.0 * u, W, params) == pytest.approx(2.0 * y_norm(u, W, params), rel=1e-12)

    def test_y_norm_definition_q2(self, mesh201, p2):
        u = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        W = Weight.constant(1.0)
        g = u.mesh.grad(u.values).T
        direct = integrate(np.einsum("ij,ij->i", g, g) + u.values**2, mesh201)
        assert y_norm(u, W, p2) ** 2 == pytest.approx(direct, rel=1e-12)

    def test_y_norm_triangle_inequality(self, mesh201):
        params = EnergyParams(p=2.0, q=1.7)
        W = Weight.constant(0.5)
        fams = list(bump_family(mesh201, 6, 11))
        for u, v in zip(fams[:3], fams[3:]):
            lhs = y_norm(u + v, W, params)
            rhs = y_norm(u, W, params) + y_norm(v, W, params)
            assert lhs <= rhs + 1e-12

    def test_norm_chain(self, mesh201):
        # y_norm^p <= q_v <= sobolev^p when the weight passed admissibility
        # and V >= 0; with V = 0, q = p = 2, W = 0.45 the first holds because
        # the discrete Rayleigh quotient stays above 0.45/0.55
        params = EnergyParams(p=2.0, q=2.0)
        W = Weight.constant(0.45)
        for u in bump_family(mesh201, 12, 13):
            yp = y_norm(u, W, params) ** 2
            qv = q_v(u, Potential.zero(), params)
            sp_ = sobolev_norm(u, 2.0) ** 2
            assert yp <= qv + 1e-12
            assert qv <= sp_ + 1e-12


class TestForcingTerm:
    def test_distributional_pairing_oracle(self):
        # f_n = -lap(u_n) - lam u_n with u_n = sin(pi x): the pairing by parts
        # must match the quadrature of the closed form (pi^2 - lam) sin(pi x) u
        mesh = build_mesh(interval(0.0, 1.0), [201])
        lam = 2.0
        u_n = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        f = ForcingTerm.distributional_sum([(u_n, lam)])
        probe = DiscreteFunction.from_callable(mesh, lambda x: x[:, 0] ** 2 * (1 - x[:, 0]))
        got = f.pairing(probe)
        closed = (np.pi**2 - lam) * np.sin(np.pi * mesh.points[:, 0]) * probe.values
        assert got == pytest.approx(integrate(closed, mesh), abs=2e-4)

    def test_pairing_linear(self, mesh201):
        f = ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        u = DiscreteFunction.from_callable(mesh201, lambda x: x[:, 0] * (1 - x[:, 0]))
        v = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(2 * np.pi * x[:, 0]))
        lhs = f.pairing(DiscreteFunction(mesh201, 2 * u.values + 3 * v.values))
        assert lhs == pytest.approx(2 * f.pairing(u) + 3 * f.pairing(v), rel=1e-12)

    def test_density_checks(self):
        # a pole at an excluded node is allowed and pairs to nothing there
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0)), [9, 9], singular_cap_radius=0.1)
        with np.errstate(divide="ignore"):
            dens = 1.0 / np.linalg.norm(mesh.points, axis=1) ** 2
        assert not np.all(np.isfinite(dens))
        f = ForcingTerm.density(mesh, dens)
        assert np.all(np.isfinite(f.nodal_density()))
        assert not np.any(f.plain_rep()[mesh.excluded_mask])
        with pytest.raises(ValueError, match="does not match mesh"):
            ForcingTerm.density(mesh, dens[:-1])
        with pytest.raises(ValueError, match="finite at non-excluded nodes"):
            ForcingTerm.density(mesh, np.where(mesh.points[:, 0] > 0.5, np.nan, 1.0))

    def test_scaling(self, mesh201):
        u_n = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        u = DiscreteFunction.from_callable(mesh201, lambda x: x[:, 0] * (1 - x[:, 0]))
        for f in (
            ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0])),
            ForcingTerm.distributional_sum([(u_n, 2.0)]),
        ):
            assert (2.0 * f).pairing(u) == pytest.approx(2.0 * f.pairing(u), rel=1e-14)


class TestDualNorm:
    def test_zero_forcing(self, mesh201, p2):
        assert dual_norm(ForcingTerm.zero(mesh201), Potential.zero(), p2) == 0.0

    def test_riesz_oracle(self):
        # f = A u0 (the discrete negative laplacian of u0): the supremum is
        # attained at u0 with value sqrt(u0^T A u0); verified by a direct solve
        n = 101
        x, h, w, A = wide_system_1d(n)
        u0 = np.sin(np.pi * x) * (1 + 0.3 * np.cos(2 * np.pi * x))
        u0[0] = u0[-1] = 0.0
        r = A @ u0  # plain-dot representation of f
        fvals = r / w
        fvals[0] = fvals[-1] = 0.0
        # account for the boundary rows dropped from the pairing
        inner = slice(1, n - 1)
        Ai = A[inner, inner]
        u_opt = np.zeros(n)
        u_opt[inner] = np.linalg.solve(Ai, (w * fvals)[inner])
        oracle = float(np.sqrt(u_opt @ A @ u_opt))

        mesh = build_mesh(interval(0.0, 1.0), [n])
        f = ForcingTerm.density(mesh, fvals)
        est = dual_norm(f, Potential.zero(), EnergyParams(p=2.0))
        assert est == pytest.approx(oracle, rel=1e-6)
        assert est <= oracle * (1 + 1e-12)  # lower estimate

    def test_scaling_exact(self, mesh201, p2):
        f = ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        d1 = dual_norm(f, Potential.zero(), p2)
        d2 = dual_norm(2.0 * f, Potential.zero(), p2)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_signals_indefiniteness(self, mesh201):
        # constant potential far above the first eigenvalue breaks positivity;
        # at p = 2 the conjugate-gradient solve of the first Newton step meets
        # the negative curvature
        f = ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(IndefiniteEnergyError, match="conjugate-gradient direction"):
            dual_norm(f, Potential.constant(50.0), EnergyParams(p=2.0))

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    @pytest.mark.parametrize("call", ["dual_norm", "minimize_phi", "continuation_solve"])
    def test_signals_indefiniteness_at_any_p(self, mesh201, p, call):
        # a nonzero iterate with q_v <= 0 raises at once: the descent never
        # runs on to overflow, so no RuntimeWarning escapes
        f = ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        V = Potential.constant(200.0)
        calls = {
            "dual_norm": lambda: dual_norm(f, V, EnergyParams(p=p)),
            "minimize_phi": lambda: minimize_phi(DiscreteFunction.zeros(mesh201), V, f, EnergyParams(p=p, eps=0.01)),
            "continuation_solve": lambda: continuation_solve(V, f, EnergyParams(p=p), EpsSchedule(0.5, 0.25, 3)),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IndefiniteEnergyError, match="nonzero iterate"):
                calls[call]()

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_closed_form_at_any_p(self, p):
        # f = 1, V = 0 on (0, 1): the minimizer of int |u'|^p / p - int u has
        # |u'| = |x - 1/2|^(1/(p-1)), so D = (1/2) (p' + 1)^(-1/p')
        pc = p / (p - 1.0)
        exact = 0.5 * (pc + 1.0) ** (-1.0 / pc)
        errors = []
        for n in (201, 401):
            mesh = build_mesh(interval(0.0, 1.0), [n])
            f = ForcingTerm.manufactured(mesh, lambda x: np.ones(len(x)))
            errors.append(abs(dual_norm(f, Potential.zero(), EnergyParams(p=p)) / exact - 1.0))
        assert errors[0] <= 5e-5
        assert np.log2(errors[0] / errors[1]) >= 1.9

    def test_forcing_only_on_the_boundary(self, mesh201):
        # admissible u vanish on the boundary, so such an f pairs to 0 with all of them
        dens = np.zeros(mesh201.n_nodes)
        dens[mesh201.boundary_mask] = 1.0
        f = ForcingTerm.density(mesh201, dens)
        for p in (2.0, 2.5):
            assert dual_norm(f, Potential.zero(), EnergyParams(p=p)) == 0.0

    def test_quadratic_oracle_with_potential(self):
        # at p = 2 the supremum is sqrt(r . (A - diag(w V))^-1 r) on the
        # interior nodes; a potential at 60 % of the first eigenvalue keeps
        # the form positive but far from the laplacian alone
        n = 61
        x, h, w, A = wide_system_1d(n)
        v = 0.6 * np.pi**2 * (1.0 + 0.5 * np.cos(3 * x)) / 1.5
        fvals = np.exp(x) * (1 - x) + 0.3 * np.sin(5 * np.pi * x)
        fvals[0] = fvals[-1] = 0.0
        inner = slice(1, n - 1)
        K = (A - np.diag(w * v))[inner, inner]
        r = (w * fvals)[inner]
        oracle = float(np.sqrt(r @ np.linalg.solve(K, r)))

        mesh = build_mesh(interval(0.0, 1.0), [n])
        f = ForcingTerm.density(mesh, fvals)
        est = dual_norm(f, Potential.tabulated(v), EnergyParams(p=2.0))
        assert est == pytest.approx(oracle, rel=1e-10)
        assert est <= oracle * (1 + 1e-12)  # attained by a point, so a lower bound

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_pairing_bound(self, mesh201, p):
        # <f, u> <= D q_v(u)^(1/p) for external samples once the minimization
        # converged (at p = 2 the supremum is exact up to the tolerance)
        params = EnergyParams(p=p)
        f = ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        D = dual_norm(f, Potential.zero(), params)
        for u in bump_family(mesh201, 20, 17):
            qv = q_v(u, Potential.zero(), params)
            assert f.pairing(u) <= D * qv ** (1.0 / p) + 1e-9


class TestZeroPotential:
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_same_bits_as_constant_zero(self, p):
        # a zero potential takes the path of any other potential, so it
        # agrees with a constant 0 to the last bit
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [13, 13])
        params = EnergyParams(p=p, eps=0.25, delta=1e-3)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]))
        u = next(bump_family(mesh, 1, 3))
        zero, const = Potential.zero(), Potential.constant(0.0)
        assert q_v(u, zero, params) == q_v(u, const, params)
        assert phi(u, zero, f, params) == phi(u, const, f, params)
        assert np.array_equal(phi_gradient(u, zero, f, params).values, phi_gradient(u, const, f, params).values)
        assert dual_norm(f, zero, params) == dual_norm(f, const, params)
