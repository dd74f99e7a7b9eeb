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
    continuation_solve,
    dual_norm,
    integrate,
    interval,
    minimize_phi,
    truncate,
)
from plapsolve.energy import (
    _cauchy_arrays, _dirichlet_gradient_rep, _grad_square, _phi_arrays, _phi_gradient_arrays, _q_v_arrays,
    _y_norm_arrays,
)
from plapsolve.potentials import evaluate_potential, evaluate_weight
from plapsolve.sampling import bump_family
from plapsolve.spectra import rayleigh_min
from oracles import STACKED_MESHES, embed, wide_system_1d


@pytest.fixture(scope="module")
def mesh201():
    return build_mesh(interval(0.0, 1.0), [201])


@pytest.fixture(scope="module")
def p2():
    return EnergyParams(p=2.0)


def _free(u):
    """The free values of ``u`` and their ``_grad_square``, the form in which
    the energy functions take a field."""
    values = u.values[u.mesh.free_mask]
    return values, _grad_square(u.mesh, values)


def _v(V, mesh):
    """The free values of the potential ``V``."""
    return evaluate_potential(V, mesh)[mesh.free_mask]


def _w(W, mesh):
    """The weight ``W`` as a nodal field and its free values."""
    w = evaluate_weight(W, mesh)
    return w, w[mesh.free_mask]


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
        u, gs = _free(DiscreteFunction.zeros(mesh201))
        assert _q_v_arrays(mesh201, u, _v(Potential.zero(), mesh201), p2.p, gs) == 0.0

    def test_dirichlet_energy_of_sine(self, mesh201, p2):
        u, gs = _free(DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0])))
        qv = _q_v_arrays(mesh201, u, _v(Potential.zero(), mesh201), p2.p, gs)
        assert qv == pytest.approx(np.pi**2 / 2, abs=0.05)

    def test_constant_potential_decomposition(self, mesh201, p2):
        fn = DiscreteFunction.from_callable(mesh201, lambda x: x[:, 0] * (1 - x[:, 0]))
        u, gs = _free(fn)
        lam = 3.0
        full = _q_v_arrays(mesh201, u, _v(Potential.constant(lam), mesh201), p2.p, gs)
        dirichlet = _q_v_arrays(mesh201, u, _v(Potential.zero(), mesh201), p2.p, gs)
        mass = integrate(np.abs(fn.values) ** 2, mesh201)
        assert full == pytest.approx(dirichlet - lam * mass, rel=1e-13)

    @given(t=st.floats(-8.0, 8.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, t):
        mesh = build_mesh(interval(0.0, 1.0), [33])
        params = EnergyParams(p=2.5)
        fn = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        v = _v(Potential.zero(), mesh)
        (u, gs), (ut, gs_t) = _free(fn), _free(fn * t)
        left = _q_v_arrays(mesh, ut, v, params.p, gs_t)
        right = abs(t) ** 2.5 * _q_v_arrays(mesh, u, v, params.p, gs)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


class TestPhi:
    def test_zero_function(self, mesh201):
        params = EnergyParams(p=2.0, eps=0.5)
        f = ForcingTerm.zero(mesh201)
        u, gs = _free(DiscreteFunction.zeros(mesh201))
        assert _phi_arrays(mesh201, u, _v(Potential.zero(), mesh201), f, params, gs) == 0.0

    def test_nonnegative_without_forcing(self, mesh201):
        params = EnergyParams(p=2.0, eps=0.5)
        f = ForcingTerm.zero(mesh201)
        rng = np.random.default_rng(0)
        for _ in range(5):
            u, gs = _free(DiscreteFunction(mesh201, rng.standard_normal(mesh201.n_nodes)))
            assert _phi_arrays(mesh201, u, _v(Potential.zero(), mesh201), f, params, gs) > 0.0

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
        v_vals = _v(Potential.zero(), mesh)
        u, gs = _free(DiscreteFunction(mesh, u_star))
        phi_star = _phi_arrays(mesh, u, v_vals, f, params, gs)
        rng = np.random.default_rng(1)
        for _ in range(100):
            pert = rng.standard_normal(n) * 1e-3
            v, gs = _free(DiscreteFunction(mesh, u_star + pert))
            assert _phi_arrays(mesh, v, v_vals, f, params, gs) > phi_star

    def test_coercivity_bound(self, mesh201):
        # phi(u) >= -F ||u||_{W^{1,p}} + eps/p ||u||^p with F the L^2 norm of
        # the density, an upper bound of the dual norm at p = 2 by Hoelder
        params = EnergyParams(p=2.0, eps=0.25)
        density = np.sin(3 * np.pi * mesh201.points[:, 0])
        f = ForcingTerm.density(mesh201, density)
        F = integrate(density**2, mesh201) ** 0.5
        for bump in bump_family(mesh201, 10, 5):
            u, gs = _free(embed(mesh201, bump))
            norm = _y_norm_arrays(mesh201, u, 1.0, 1.0, 2.0, gs)
            lower = -F * norm + params.eps / 2.0 * norm**2
            assert _phi_arrays(mesh201, u, _v(Potential.zero(), mesh201), f, params, gs) >= lower - 1e-12


class TestPhiGradient:
    def test_zero_at_origin(self, mesh201):
        params = EnergyParams(p=2.0, eps=0.5)
        f = ForcingTerm.zero(mesh201)
        u, gs = _free(DiscreteFunction.zeros(mesh201))
        assert np.all(_phi_gradient_arrays(mesh201, u, _v(Potential.zero(), mesh201), f, params, gs) == 0.0)

    def test_linear_case_is_discrete_laplacian(self):
        n = 101
        x, h, w, A = wide_system_1d(n)
        fvals = np.sin(2 * np.pi * x)
        mesh = build_mesh(interval(0.0, 1.0), [n])
        params = EnergyParams(p=2.0, eps=0.0, delta=0.0)
        f = ForcingTerm.density(mesh, fvals)
        uvals = np.sin(np.pi * x)
        uvals[0] = uvals[-1] = 0.0
        u, gs = _free(DiscreteFunction(mesh, uvals))
        # the plain-dot first variation over the weights is the nodal residual
        r = _phi_gradient_arrays(mesh, u, _v(Potential.zero(), mesh), f, params, gs)
        expected = (A @ uvals) / w - fvals
        inner = mesh.free_mask
        assert np.allclose(r / mesh.free_weights, expected[inner], atol=1e-10)

    @staticmethod
    def _pairing_and_differences(mesh, params, steps):
        """Pairing of the first variation of ``phi`` with a random direction,
        and the central differences of ``phi`` along it at each step."""
        f = ForcingTerm.manufactured(mesh, lambda x: np.cos(np.pi * x[:, 0]))
        rng = np.random.default_rng(2)
        v_vals = _v(Potential.constant(0.5), mesh)
        u = rng.standard_normal(mesh.n_nodes)[mesh.free_mask]
        wdir = rng.standard_normal(mesh.n_nodes)[mesh.free_mask]

        def phi(values):
            return _phi_arrays(mesh, values, v_vals, f, params, _grad_square(mesh, values))

        pairing = float(_phi_gradient_arrays(mesh, u, v_vals, f, params, _grad_square(mesh, u)) @ wdir)
        fds = [(phi(u + t * wdir) - phi(u - t * wdir)) / (2 * t) for t in steps]
        return pairing, fds

    def _check_quadratic_case(self, mesh):
        # at p = 2 every term is quadratic, so central differences agree with
        # the first variation to rounding
        pairing, (fd,) = self._pairing_and_differences(mesh, EnergyParams(p=2.0, eps=0.3), (1e-4,))
        assert fd == pytest.approx(pairing, rel=1e-7)

    def _check_directional_derivative(self, mesh, p, delta):
        steps = (1e-3, 1e-4)
        pairing, fds = self._pairing_and_differences(mesh, EnergyParams(p=p, eps=0.3, delta=delta), steps)
        errs = [abs(fd - pairing) for fd in fds]
        order = np.log(errs[0] / errs[1]) / np.log(steps[0] / steps[1])
        assert order >= 1.8

    def test_quadratic_case_is_exact(self):
        self._check_quadratic_case(build_mesh(interval(0.0, 1.0), [51]))

    @pytest.mark.parametrize("p, delta", [(3.0, 1e-3), (1.5, 1e-3)])
    def test_directional_derivative(self, p, delta):
        self._check_directional_derivative(build_mesh(interval(0.0, 1.0), [51]), p, delta)

    # excluded nodes: zero gradient rows, one-sided stencils beside them, and
    # quadrature that skips them must all stay consistent with each other
    @pytest.mark.parametrize("name", sorted(STACKED_MESHES))
    def test_quadratic_case_is_exact_with_excluded_nodes(self, name):
        self._check_quadratic_case(STACKED_MESHES[name]())

    @pytest.mark.parametrize("p, delta", [(3.0, 1e-3), (1.5, 1e-3)])
    @pytest.mark.parametrize("name", sorted(STACKED_MESHES))
    def test_directional_derivative_with_excluded_nodes(self, name, p, delta):
        self._check_directional_derivative(STACKED_MESHES[name](), p, delta)


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
        u, gs = _free(u)
        assert _cauchy_arrays(mesh201, u, u, gs, gs, zeta.values, p2.p) == 0.0

    def test_quadratic_identity_when_clamp_inactive(self, mesh201, p2):
        # p = 2 with small difference: the pairing is the weighted squared
        # gradient of the difference, hence nonnegative
        u_a = DiscreteFunction.from_callable(mesh201, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        u_b = DiscreteFunction.from_callable(mesh201, lambda x: 0.3 * np.sin(2 * np.pi * x[:, 0]))
        zeta = DiscreteFunction.from_callable(
            mesh201, lambda x: x[:, 0] * (1 - x[:, 0])
        )
        (a, gs_a), (b, gs_b) = _free(u_a), _free(u_b)
        val = _cauchy_arrays(mesh201, a, b, gs_a, gs_b, zeta.values, p2.p)
        d = u_a.values - u_b.values
        g = mesh201.grad(d[mesh201.free_mask]).T
        direct = integrate(zeta.values * np.einsum("ij,ij->i", g, g), mesh201)
        assert val == pytest.approx(direct, rel=1e-12)
        assert val >= 0.0


class TestNorms:
    def test_y_norm_zero(self, mesh201, p2):
        u, gs = _free(DiscreteFunction.zeros(mesh201))
        assert _y_norm_arrays(mesh201, u, *_w(Weight.constant(1.0), mesh201), p2.q, gs) == 0.0

    def test_y_norm_homogeneous(self, mesh201):
        q = 1.8
        fn = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        w = _w(Weight.constant(0.7), mesh201)
        (u, gs), (u2, gs2) = _free(fn), _free(2.0 * fn)
        assert _y_norm_arrays(mesh201, u2, *w, q, gs2) == pytest.approx(
            2.0 * _y_norm_arrays(mesh201, u, *w, q, gs), rel=1e-12
        )

    def test_y_norm_definition_q2(self, mesh201, p2):
        fn = DiscreteFunction.from_callable(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        u, gs = _free(fn)
        g = mesh201.grad(u).T
        direct = integrate(np.einsum("ij,ij->i", g, g) + fn.values**2, mesh201)
        assert _y_norm_arrays(mesh201, u, *_w(Weight.constant(1.0), mesh201), p2.q, gs) ** 2 == pytest.approx(
            direct, rel=1e-12
        )

    def test_y_norm_triangle_inequality(self, mesh201):
        q = 1.7
        w = _w(Weight.constant(0.5), mesh201)
        fams = [embed(mesh201, b) for b in bump_family(mesh201, 6, 11)]
        for u, v in zip(fams[:3], fams[3:]):
            (a, gs_a), (b, gs_b), (c, gs_c) = _free(u + v), _free(u), _free(v)
            lhs = _y_norm_arrays(mesh201, a, *w, q, gs_a)
            rhs = _y_norm_arrays(mesh201, b, *w, q, gs_b) + _y_norm_arrays(mesh201, c, *w, q, gs_c)
            assert lhs <= rhs + 1e-12

    def test_norm_chain(self, mesh201):
        # y_norm^p <= q_v <= sobolev^p when the weight passed admissibility
        # and V >= 0; with V = 0, q = p = 2, W = 0.45 the first holds because
        # the discrete Rayleigh quotient stays above 0.45/0.55
        params = EnergyParams(p=2.0, q=2.0)
        W = Weight.constant(0.45)
        for bump in bump_family(mesh201, 12, 13):
            u, gs = _free(embed(mesh201, bump))
            yp = _y_norm_arrays(mesh201, u, *_w(W, mesh201), params.q, gs) ** 2
            qv = _q_v_arrays(mesh201, u, _v(Potential.zero(), mesh201), params.p, gs)
            sp_ = _y_norm_arrays(mesh201, u, 1.0, 1.0, 2.0, gs) ** 2
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
        assert f.plain_rep().shape == mesh.free_weights.shape
        assert np.all(np.isfinite(f.plain_rep()))
        with pytest.raises(ValueError, match="does not match mesh"):
            ForcingTerm.density(mesh, dens[:-1])
        with pytest.raises(ValueError, match="finite at non-excluded nodes"):
            ForcingTerm.density(mesh, np.where(mesh.points[:, 0] > 0.5, np.nan, 1.0))

    def test_distributional_sum_needs_components_on_one_mesh(self, mesh201):
        with pytest.raises(ValueError, match="at least one component"):
            ForcingTerm.distributional_sum([])
        other = build_mesh(interval(0.0, 1.0), [201])
        u, v = DiscreteFunction.zeros(mesh201), DiscreteFunction.zeros(other)
        with pytest.raises(ValueError, match="share one mesh"):
            ForcingTerm.distributional_sum([(u, 1.0), (v, 1.0)])

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
        # at p = 2 it lies above the first eigenvalue of each 100-node block
        # too (about (2 pi)^2), so Cholesky refuses the Newton operator's
        # blocks when the first preconditioner is built
        f = ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(IndefiniteEnergyError, match="Cholesky refuses"):
            dual_norm(f, Potential.constant(50.0), EnergyParams(p=2.0))

    def test_signals_indefiniteness_through_cg(self, mesh201):
        # a potential between the first eigenvalue (about pi^2) and those of
        # the 100-node blocks leaves every block positive definite; the
        # block-preconditioned solve of the first Newton step meets the
        # negative curvature of the whole operator
        f = ForcingTerm.manufactured(mesh201, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(IndefiniteEnergyError, match="conjugate-gradient direction"):
            dual_norm(f, Potential.constant(20.0), EnergyParams(p=2.0))

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
        for bump in bump_family(mesh201, 20, 17):
            u = embed(mesh201, bump)
            u_free, gs = _free(u)
            qv = _q_v_arrays(mesh201, u_free, _v(Potential.zero(), mesh201), p, gs)
            assert f.pairing(u) <= D * qv ** (1.0 / p) + 1e-9


class TestZeroPotential:
    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_same_bits_as_constant_zero(self, p):
        # a zero potential takes the path of any other potential, so it
        # agrees with a constant 0 to the last bit
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [13, 13])
        params = EnergyParams(p=p, eps=0.25, delta=1e-3)
        f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]))
        u, gs = _free(embed(mesh, next(bump_family(mesh, 1, 3))))
        zero, const = Potential.zero(), Potential.constant(0.0)
        v_zero, v_const = _v(zero, mesh), _v(const, mesh)
        assert _q_v_arrays(mesh, u, v_zero, p, gs) == _q_v_arrays(mesh, u, v_const, p, gs)
        assert _phi_arrays(mesh, u, v_zero, f, params, gs) == _phi_arrays(mesh, u, v_const, f, params, gs)
        assert np.array_equal(
            _phi_gradient_arrays(mesh, u, v_zero, f, params, gs), _phi_gradient_arrays(mesh, u, v_const, f, params, gs)
        )
        assert dual_norm(f, zero, params) == dual_norm(f, const, params)


class TestGradientQuadratureSeam:
    """Every gradient integral goes through the mesh's gradient quadrature:
    doubling its sample weights doubles each gradient term, and leaves every
    mass term and density pairing where it was."""

    @staticmethod
    def _observe(mesh, p, q):
        rng = np.random.default_rng(8)
        u = DiscreteFunction(mesh, rng.standard_normal(mesh.n_nodes))
        v = DiscreteFunction(mesh, rng.standard_normal(mesh.n_nodes))
        params = EnergyParams(p=p, q=q, eps=0.3)
        f = ForcingTerm.manufactured(mesh, lambda x: np.cos(np.pi * x[:, 0]))
        u_free, (g, s) = _free(u)
        v_free = v.values[mesh.free_mask]
        return {
            "q_v": _q_v_arrays(mesh, u_free, _v(Potential.zero(), mesh), p, (g, s)),
            "phi": _phi_arrays(mesh, u_free, _v(Potential.constant(0.5), mesh), f, params, (g, s)),
            "y_norm": _y_norm_arrays(mesh, u_free, *_w(Weight.constant(0.4), mesh), q, (g, s)) ** q,
            "rep": _dirichlet_gradient_rep(mesh, g, s, p, 0.0),
            "form": float(v_free @ (mesh.energy_stiffness() @ v_free)),
            "eigenvalue": rayleigh_min(mesh, 2.0, tol=1e-10).value,
            "mass": integrate(np.abs(u.values) ** p, mesh),
            "weighted_mass": integrate(0.4 * np.abs(u.values) ** q, mesh),
            "pairing": f.pairing(u),
            "distributional": ForcingTerm.distributional_sum([(v, 1.0)]).pairing(u),
            "product": integrate(u.values * v.values, mesh),
        }

    @pytest.mark.parametrize("name", sorted(STACKED_MESHES))
    def test_doubled_sample_weights_double_only_gradient_terms(self, name, monkeypatch):
        p, q = 3.0, 2.5
        a = self._observe(STACKED_MESHES[name](), p, q)
        doubled = STACKED_MESHES[name]()
        monkeypatch.setattr(doubled, "sample_weights", 2.0 * doubled.sample_weights)
        b = self._observe(doubled, p, q)

        # int |grad u|^p as q_v (V = 0), the Dirichlet term of phi, and the
        # gradient part of y_norm^q see it
        assert b["q_v"] == pytest.approx(2.0 * a["q_v"], rel=1e-14)
        assert b["phi"] - a["phi"] == pytest.approx(a["q_v"] / p, rel=1e-12)
        assert b["y_norm"] - a["y_norm"] == pytest.approx(a["y_norm"] - a["weighted_mass"], rel=1e-12)
        # the flux adjoint, the stiffness form and the p = 2 eigenvalue
        np.testing.assert_allclose(b["rep"], 2.0 * a["rep"], rtol=1e-14, atol=0.0)
        assert b["form"] == pytest.approx(2.0 * a["form"], rel=1e-14)
        assert b["eigenvalue"] == pytest.approx(2.0 * a["eigenvalue"], rel=1e-8)
        # the integration-by-parts forcing doubles its gradient part only
        assert b["distributional"] - a["distributional"] == pytest.approx(
            a["distributional"] + a["product"], rel=1e-12
        )
        for key in ("mass", "weighted_mass", "pairing", "product"):
            assert b[key] == a[key], key


@pytest.mark.parametrize("name", sorted(STACKED_MESHES))
def test_first_variations_vanish_off_the_free_nodes(name):
    # every first variation and forcing vector lives on the free nodes: it
    # has one entry per free node, whatever the potential, density or source
    # carries on constrained nodes, so nothing off them needs re-zeroing
    mesh = STACKED_MESHES[name]()
    n_free = np.count_nonzero(mesh.free_mask)
    rng = np.random.default_rng(11)
    u, (g, s) = _free(DiscreteFunction(mesh, rng.standard_normal(mesh.n_nodes)))
    dens = rng.uniform(0.5, 2.0, mesh.n_nodes)
    forcings = [
        ForcingTerm.zero(mesh),
        ForcingTerm.density(mesh, dens),
        ForcingTerm.manufactured(mesh, lambda x: 1.0 + x[:, 0] ** 2),
        ForcingTerm.distributional_sum([(DiscreteFunction(mesh, dens), 2.0)]),
        3.0 * ForcingTerm.density(mesh, dens),
    ]
    for f in forcings:
        assert f.plain_rep().shape == (n_free,)
    potentials = [Potential.zero(), Potential.constant(2.0), Potential.tabulated(dens)]
    for p, delta in ((2.0, 0.0), (3.0, 1e-3), (1.5, 0.0)):
        assert _dirichlet_gradient_rep(mesh, g, s, p, delta).shape == (n_free,)
        params = EnergyParams(p=p, eps=0.3, delta=delta)
        for V in potentials:
            assert _phi_gradient_arrays(mesh, u, _v(V, mesh), forcings[1], params, (g, s)).shape == (n_free,)
