"""Eigenvalue estimation and the inequality certification suite.

Acceptance-scale runs live in test_acceptance; these exercise the machinery
at desk resolution with independent oracles where available.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

import plapsolve.energy
import plapsolve.grid
import plapsolve.sampling
import plapsolve.spectra
from plapsolve import (
    CertificationRecord,
    DiscreteFunction,
    blowup_demo,
    box,
    build_mesh,
    cylinder_eigen_check,
    hardy_check,
    integrate,
    interval,
    monotonicity_constant_check,
    poincare_remainder_check,
    power_mean_check,
    punctured_box,
    rayleigh_min,
    strip,
)
from plapsolve.energy import _dirichlet, _grad_square, _q_v_arrays, _y_norm_arrays
from plapsolve.potentials import Potential, Weight, evaluate_weight, singular_weight
from plapsolve.sampling import bump_family, bump_profile, tensor_bump
from plapsolve.spectra import EigenResult, _bump_margins, _quotient_descent, _seeded_start, admissibility_report
from oracles import STACKED_MESHES, embed


def compact_tridiagonal_lambda1(n):
    """Reference first eigenvalue of the standard compact 3-point operator."""
    h = 1.0 / (n - 1)
    main = np.full(n - 2, 2.0 / h**2)
    off = np.full(n - 3, -1.0 / h**2)
    vals = eigh_tridiagonal(main, off, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


class TestRayleighMin:
    def test_interval_oracle(self):
        mesh = build_mesh(interval(0.0, 1.0), [201])
        result = rayleigh_min(mesh, 2.0, tol=1e-9, seed=0)
        oracle = compact_tridiagonal_lambda1(201)
        # both discretizations approximate pi^2 to second order
        assert result.value == pytest.approx(np.pi**2, rel=1e-2)
        assert result.value == pytest.approx(oracle, rel=1e-3)

    def test_box_separable_oracle(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [33, 33])
        result = rayleigh_min(mesh, 2.0, tol=1e-8, seed=0)
        assert result.value == pytest.approx(2 * np.pi**2, rel=2e-2)

    def test_domain_rescaling(self):
        # lambda(0, 2) = lambda(0, 1) / 2^p at p = 2; the two discrete
        # problems are exact rescalings of each other
        m1 = build_mesh(interval(0.0, 1.0), [101])
        m2 = build_mesh(interval(0.0, 2.0), [101])
        v1 = rayleigh_min(m1, 2.0, tol=1e-10, seed=0).value
        v2 = rayleigh_min(m2, 2.0, tol=1e-10, seed=0).value
        assert v2 == pytest.approx(v1 / 4.0, rel=1e-6)

    def test_minimizer_normalized(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        result = rayleigh_min(mesh, 2.5, tol=1e-8, seed=1)
        mass = integrate(np.abs(result.minimizer.values) ** 2.5, mesh)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_value_matches_minimizer_energy(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        result = rayleigh_min(mesh, 2.0, tol=1e-9, seed=0)
        g = mesh.grad(result.minimizer.values[mesh.free_mask]).T
        energy = integrate(np.einsum("ij,ij->i", g, g), mesh)
        assert result.value == pytest.approx(energy, rel=1e-10)

    def test_descent_stops_on_a_failed_line_search(self, monkeypatch):
        # a failed search ends the p != 2 descent at once, on the normalized
        # start, its quotient and its residual
        monkeypatch.setattr(plapsolve.spectra, "armijo_backtrack", lambda *args, **kwargs: (None, None, None))
        mesh = build_mesh(interval(0.0, 1.0), [33])
        p, start = 3.0, _seeded_start(mesh, 0)[mesh.free_mask]
        u0 = start / float(mesh.free_weights @ np.abs(start) ** p) ** (1.0 / p)
        lam, u, iterations, res = _quotient_descent(mesh, p, start, tol=1e-8)
        assert iterations == 1
        assert np.array_equal(u, u0)
        assert lam == _dirichlet(mesh, _grad_square(mesh, u0)[1], p)
        assert res > 1e-8 * lam

    def test_needs_interior(self):
        with pytest.raises(ValueError, match="interior"):
            mesh = build_mesh(interval(0.0, 1.0), [3], singular_cap_radius=0.0)
            mesh.free_mask[:] = False
            rayleigh_min(mesh, 2.0)

    def test_descent_builds_one_preconditioner_per_refresh(self, monkeypatch):
        # away from p = 2 the lagged metric is rebuilt every 12 iterations,
        # starting at the first, after the stop tests; nothing is built before
        # the loop, and the iteration that stops builds nothing
        builds = []

        class Counting(plapsolve.spectra.Preconditioner):
            def __init__(self, *args, **kwargs):
                builds.append(kwargs.get("coeff"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(plapsolve.spectra, "Preconditioner", Counting)
        mesh = build_mesh(interval(0.0, 1.0), [41])
        start = _seeded_start(mesh, 0)[mesh.free_mask]
        lam, u, iterations, res = _quotient_descent(mesh, 2.5, start, tol=1e-10, max_iter=100)
        assert iterations > 12
        assert len(builds) == math.ceil((iterations - 1) / 12)
        assert all(coeff is not None for coeff in builds)
        # a start that already meets the tolerance stops on iteration 1, a
        # refresh iteration, before building its metric
        builds.clear()
        tol = 2.0 * res / max(1.0, abs(lam))
        _, _, iterations, _ = _quotient_descent(mesh, 2.5, u, tol=tol, max_iter=100)
        assert iterations == 1
        assert not builds


def dense_lambda1(mesh, mass_weight=None):
    """Smallest eigenvalue of the pencil (stiffness, diag(weights * mass_weight))
    on the free nodes, by a dense symmetric eigensolve."""
    free = mesh.free_mask
    K = mesh.energy_stiffness().toarray()
    m = mesh.weights[free] * (1.0 if mass_weight is None else mass_weight[free])
    scale = 1.0 / np.sqrt(m)
    return float(np.linalg.eigh(scale[:, None] * K * scale[None, :])[0][0])


def hardy_weight(mesh):
    active = ~mesh.excluded_mask
    w = np.zeros(mesh.n_nodes)
    w[active] = np.linalg.norm(mesh.points[active], axis=1) ** -2.0
    return w


class TestExactQuadratic:
    """At p = 2 the quotient is a generalized Rayleigh quotient, and the LOBPCG
    branch returns the smallest discrete eigenvalue."""

    @pytest.mark.parametrize(
        "mesh",
        [
            build_mesh(interval(0.0, 1.0), [41]),
            build_mesh(box((0.0, 1.0), (0.0, 1.0)), [13, 13]),
        ],
        ids=["interval_41", "box_13x13"],
    )
    def test_rayleigh_min_is_the_dense_eigenvalue(self, mesh):
        result = rayleigh_min(mesh, 2.0, tol=1e-9, seed=0)
        assert result.value == pytest.approx(dense_lambda1(mesh), rel=1e-10)
        assert result.residual <= 1e-9 * result.value
        assert result.method == "lobpcg"

    def test_hardy_weighted_pencil(self):
        mesh = build_mesh(punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [9, 9, 9])
        w, free = hardy_weight(mesh), mesh.free_mask
        lam, u, _, res = _quotient_descent(mesh, 2.0, _seeded_start(mesh, 0)[free], mass_weight=w[free], tol=1e-9)
        assert lam == pytest.approx(dense_lambda1(mesh, w), rel=1e-10)
        assert res <= 1e-9
        assert integrate(w * DiscreteFunction.from_free(mesh, u).values ** 2, mesh) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "hardy"])
    @pytest.mark.parametrize("name", sorted(STACKED_MESHES))
    def test_lobpcg_works_on_free_node_vectors(self, name, weighted, monkeypatch):
        # the p = 2 solve never takes a whole-grid gradient, adjoint or
        # quadrature, and returns the dense eigenvalue of the free-node
        # pencil, with or without the Hardy weight over the singular axes
        mesh = STACKED_MESHES[name]()
        free = mesh.free_mask
        weight = singular_weight(mesh, mesh.singular_axes, 2.0) if weighted else None
        w = 1.0 if weight is None else weight[free]

        def refuse(*args, **kwargs):
            raise AssertionError("the p = 2 solve used the whole-grid machinery")

        with monkeypatch.context() as patch:
            for module in (plapsolve.spectra, plapsolve.energy):
                patch.setattr(module, "_grad_square", refuse)
                patch.setattr(module, "integrate", refuse)
            for method in ("grad", "grad_adjoint"):
                patch.setattr(plapsolve.grid.Mesh, method, refuse)
            lam, u, _, res = _quotient_descent(mesh, 2.0, _seeded_start(mesh, 0)[free], mass_weight=w, tol=1e-9)
        assert lam == pytest.approx(dense_lambda1(mesh, weight), rel=1e-10)
        assert res <= 1e-9 * max(1.0, lam)
        assert u.shape == mesh.free_weights.shape
        assert float(mesh.free_weights @ (w * u**2)) == pytest.approx(1.0, rel=1e-12)

    def test_hardy_probe_records_the_exact_method(self):
        mesh = build_mesh(punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.15), [11, 11, 11])
        record = hardy_check(mesh, 2.0, samples=5, seed=0)
        assert record.details["method"] == "lobpcg"
        assert record.details["probe_infimum"] == pytest.approx(dense_lambda1(mesh, hardy_weight(mesh)), rel=1e-10)

    def test_weighted_rayleigh_min(self):
        mesh = build_mesh(punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [9, 9, 9])
        w = hardy_weight(mesh)
        result = rayleigh_min(mesh, 2.0, tol=1e-9, seed=0, mass_weight=w)
        assert result.value == pytest.approx(dense_lambda1(mesh, w), rel=1e-10)
        assert integrate(w * result.minimizer.values**2, mesh) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p, calls", [(2.0, 1), (2.5, 2)])
    def test_one_start_at_two(self, monkeypatch, p, calls):
        # the p = 2 solve is exact; away from two its minimizer is the one
        # start of the descent at p
        runs = []

        def counting(*args, **kwargs):
            out = _quotient_descent(*args, **kwargs)
            runs.append((args[1], args[2], out[1], out[2]))
            return out

        monkeypatch.setattr(plapsolve.spectra, "_quotient_descent", counting)
        mesh = build_mesh(interval(0.0, 1.0), [41])
        result = rayleigh_min(mesh, p, tol=1e-6, max_iter=50, seed=3)
        assert len(runs) == calls
        assert result.iterations == sum(run[3] for run in runs)
        assert runs[0][0] == 2.0
        np.testing.assert_array_equal(runs[0][1], _seeded_start(mesh, 3)[mesh.free_mask])
        if calls == 2:
            assert runs[1][0] == p
            assert runs[1][1] is runs[0][2]

    @pytest.mark.parametrize("seed", range(4))
    def test_p3_interval_reaches_closed_form(self, seed):
        # from the p = 2 ground state the descent reaches the closed form
        # whatever the seed
        p = 3.0
        closed = (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p
        mesh = build_mesh(interval(0.0, 1.0), [401])
        assert rayleigh_min(mesh, p, seed=seed).value == pytest.approx(closed, rel=1e-3)

    @pytest.mark.parametrize(
        "mesh, tol",
        [
            (build_mesh(interval(0.0, 1.0), [401]), 1e-8),
            (build_mesh(punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.05), [21, 21, 21]), 1e-7),
            (build_mesh(strip(((0.0, 1.0),), 1, 8.0), [33, 129]), 1e-8),
        ],
        ids=["interval_401", "punctured_21", "strip_33x129"],
    )
    def test_single_start_reaches_tolerance(self, mesh, tol):
        # the preset mesh families: one exact start ends on its residual test
        result = rayleigh_min(mesh, 2.0, tol=tol, seed=0)
        assert result.residual <= tol * max(1.0, result.value)

    def test_descent_method_away_from_two(self):
        mesh = build_mesh(interval(0.0, 1.0), [41])
        assert rayleigh_min(mesh, 2.5, tol=1e-6, max_iter=50).method == "descent"


class TestCylinderEigen:
    def test_record_structure(self):
        omega = build_mesh(interval(0.0, 1.0), [17])
        record = cylinder_eigen_check(omega, 1, [2.0, 4.0], 2.0, tol=1e-6, z_nodes_per_unit=6.0)
        assert record.verdict == "no_violation"
        lam_omega = record.details["lambda_omega"]
        strips = record.details["lambda_strip"]
        assert strips[2.0] >= lam_omega - 1e-6
        assert strips[4.0] >= lam_omega - 1e-6
        assert strips[4.0] <= strips[2.0] + 1e-6
        assert record.details["method"] == "lobpcg"

    @pytest.mark.parametrize("p, section_runs", [(2.0, 1), (2.5, 2)])
    def test_each_strip_descends_once_from_its_candidate(self, monkeypatch, p, section_runs):
        # the cross section runs rayleigh_min's seeded starts; each strip is
        # one descent, started at the product candidate whose quotient the
        # record reports
        runs = []

        def counting(*args, **kwargs):
            runs.append((args[0], args[2]))
            return _quotient_descent(*args, **kwargs)

        monkeypatch.setattr(plapsolve.spectra, "_quotient_descent", counting)
        omega = build_mesh(interval(0.0, 1.0), [17])
        lengths = [2.0, 4.0]
        record = cylinder_eigen_check(omega, 1, lengths, p, z_nodes_per_unit=6.0, max_iter=50)
        assert len(runs) == section_runs + len(lengths)
        assert all(mesh is omega for mesh, _ in runs[:section_runs])
        for L, (mesh, start) in zip(lengths, runs[section_runs:]):
            assert mesh.shape == (17, int(round(12 * L)) + 1)
            assert start.shape == mesh.free_weights.shape
            g = mesh.grad(start)
            dirichlet = integrate(np.sum(g * g, axis=0) ** (p / 2.0), mesh)
            quotient = dirichlet / integrate(np.abs(DiscreteFunction.from_free(mesh, start).values) ** p, mesh)
            assert quotient == pytest.approx(record.details["tensor_quotients"][L], rel=1e-12)
            assert record.details["lambda_strip"][L] <= quotient
            assert L in record.details["strip_residuals"]

    def test_lengths_must_increase(self):
        omega = build_mesh(interval(0.0, 1.0), [17])
        with pytest.raises(ValueError, match="increasing"):
            cylinder_eigen_check(omega, 1, [4.0, 2.0], 2.0)

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_margins_are_the_strip_comparisons(self, p):
        # each descent starts at its candidate and never rises above it, so
        # the candidate quotient is no margin; it stays in the details
        omega = build_mesh(interval(0.0, 1.0), [17])
        lengths = [2.0, 4.0, 8.0]
        record = cylinder_eigen_check(omega, 1, lengths, p, z_nodes_per_unit=4.0, max_iter=50)
        assert not record.worst_sample.startswith("tensor_candidate")
        assert record.worst_sample.startswith(("strip_above_section", "monotone_decrease"))
        assert record.sample_count == 2 * len(lengths) - 1
        assert sorted(record.details["tensor_quotients"]) == lengths


def _per_node_bump(mesh, center, width):
    """Nodal values of a tensor bump evaluated node by node, axis by axis."""
    vals = np.ones(mesh.n_nodes)
    for a in range(mesh.domain.dims):
        vals *= bump_profile((mesh.points[:, a] - center[a]) / width[a])
    return vals


def _padded_support(mesh, values):
    """Index box of the nonzero nodal ``values``, padded by one node per side
    within the mesh."""
    nonzero = np.unravel_index(np.flatnonzero(values != 0.0), mesh.shape)
    return tuple(
        slice(max(int(idx.min()) - 1, 0), min(int(idx.max()) + 2, n))
        for idx, n in zip(nonzero, mesh.shape)
    )


def _beside_cap(mesh):
    """Non-excluded nodes with an excluded neighbor on some axis, whose
    gradient rows are one-sided."""
    excluded = mesh.excluded_mask.reshape(mesh.shape)
    beside = np.zeros(mesh.shape, dtype=bool)
    for a in range(mesh.domain.dims):
        beside |= np.roll(excluded, 1, a) | np.roll(excluded, -1, a)
    return (beside & ~excluded).ravel()


def _whole_mesh_margins(mesh, functions, p, lam, constant, weight):
    margins = []
    for u in functions:
        mass = np.abs(u.values) ** p
        lhs = _dirichlet(mesh, _grad_square(mesh, u.values[mesh.free_mask])[1], p) - lam * integrate(mass, mesh)
        rhs = constant * integrate(weight * mass, mesh)
        margins.append((lhs - rhs) / max(abs(lhs), 1e-300))
    return np.array(margins)


# a punctured box and a capped 4D strip shaped like the Poincare check, each
# with a hand-placed bump whose support holds a one-sided row beside the cap
SUPPORT_BOX_CASES = {
    "punctured_17": (
        lambda: build_mesh(punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [17, 17, 17]),
        range(3), 2.0, 0.0, 0.25, ([0.45, 0.0, 0.0], [0.2, 0.2, 0.2]),
    ),
    "capped_strip_4d": (
        lambda: build_mesh(strip([(0.0, 1.0)], 3, 2.0), [9, 13, 13, 13],
                           singular_cap_radius=0.55 / 3.0, singular_axes=(1, 2, 3)),
        range(1, 4), 1.5, 9.0, 0.1, ([0.5, 0.5, 0.0, 0.0], [0.3, 0.3, 0.4, 0.4]),
    ),
}


def _case_bumps(mesh, center, width):
    """Forty sampled bumps and the hand-placed one beside the cap."""
    return list(bump_family(mesh, 40, 3)) + [tensor_bump(mesh, np.array(center), np.array(width))]


class TestSupportBoxMargins:
    @pytest.mark.parametrize("case", sorted(SUPPORT_BOX_CASES))
    def test_support_box_margins_equal_whole_mesh_margins(self, case, monkeypatch):
        build, axes, p, lam, constant, (center, width) = SUPPORT_BOX_CASES[case]
        mesh = build()
        weight = singular_weight(mesh, axes, p)
        bumps = _case_bumps(mesh, center, width)
        box, values = bumps[-1]
        assert np.any(_beside_cap(mesh).reshape(mesh.shape)[box] & (values != 0))
        monkeypatch.setattr(plapsolve.spectra, "bump_family", lambda mesh, samples, seed: iter(bumps))
        got = np.array(_bump_margins(mesh, p, lam, constant, weight, len(bumps), 3)[0])
        want = _whole_mesh_margins(mesh, [embed(mesh, b) for b in bumps], p, lam, constant, weight)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        assert np.argmin(got) == np.argmin(want)

    def test_support_box_is_padded_and_clipped(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [11, 11])
        # nonzero profiles at node 0 of axis 0 and nodes 3 to 5 of axis 1;
        # the box keeps them although the boundary zeroes the values
        bump_box, values = tensor_bump(mesh, np.array([0.0, 0.4]), np.array([0.05, 0.15]))
        assert bump_box == (slice(0, 2), slice(2, 7))
        assert values.shape == (2, 5) and not np.any(values)
        # a profile that misses every node gives an empty box
        bump_box, values = tensor_bump(mesh, np.array([0.5, 0.45]), np.array([0.3, 0.04]))
        assert bump_box == (slice(2, 9), slice(0, 0))
        assert values.shape == (7, 0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_bump_family_matches_per_node_evaluation(self, seed, monkeypatch):
        mesh = SUPPORT_BOX_CASES["capped_strip_4d"][0]()
        boxed = list(bump_family(mesh, 25, seed))
        whole = tuple(slice(0, n) for n in mesh.shape)

        def per_node(mesh, center, width):
            return whole, np.where(mesh.constrained_mask, 0.0, _per_node_bump(mesh, center, width)).reshape(mesh.shape)

        monkeypatch.setattr(plapsolve.sampling, "tensor_bump", per_node)
        for (bump_box, values), (_, want) in zip(boxed, bump_family(mesh, 25, seed), strict=True):
            assert bump_box == _padded_support(mesh, want.ravel())
            assert np.array_equal(values, want[bump_box])
            assert np.array_equal(embed(mesh, (bump_box, values)).values, want.ravel())
        monkeypatch.undo()
        center, width = np.array([0.4, 0.3, -0.2, 0.5]), np.array([0.3, 0.9, 0.7, 1.1])
        bump_box, values = tensor_bump(mesh, center, width)
        assert np.array_equal(embed(mesh, (bump_box, values)).values,
                              np.where(mesh.constrained_mask, 0.0, _per_node_bump(mesh, center, width)))

    def test_too_coarse_mesh_is_refused(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [3, 9])
        with pytest.raises(RuntimeError, match="mesh too coarse"):
            next(bump_family(mesh, 1, 0))

    def test_bump_missing_every_node_keeps_its_margin(self, monkeypatch):
        # on a 4-node axis the family's narrow profiles can fall between nodes;
        # the family skips such a draw, so every counted bump is nonzero
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [17, 4])
        bumps = list(bump_family(mesh, 20, 0))
        assert len(bumps) == 20 and all(values.any() for _, values in bumps)
        weight = np.ones(mesh.n_nodes)
        monkeypatch.setattr(plapsolve.spectra, "bump_family", lambda mesh, samples, seed: iter(bumps))
        got = np.array(_bump_margins(mesh, 2.0, 1.0, 0.5, weight, len(bumps), 0)[0])
        want = _whole_mesh_margins(mesh, [embed(mesh, b) for b in bumps], 2.0, 1.0, 0.5, weight)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("case", sorted(SUPPORT_BOX_CASES))
    def test_admissibility_margins_equal_whole_mesh_margins(self, case, monkeypatch):
        build, axes, p, _, constant, (center, width) = SUPPORT_BOX_CASES[case]
        mesh = build()
        q = p - 0.2
        V = Potential.tabulated(constant * singular_weight(mesh, axes, p))
        bumps = _case_bumps(mesh, center, width)
        eig = rayleigh_min(mesh, p, tol=1e-7, max_iter=400, seed=0)
        functions = [embed(mesh, b) for b in bumps] + [eig.minimizer]
        tags = [f"bump_{i}" for i in range(len(bumps))] + ["rayleigh_minimizer"]

        def report(W, candidates, minimizer):
            monkeypatch.setattr(plapsolve.spectra, "bump_family", lambda mesh, samples, seed: iter(candidates))
            monkeypatch.setattr(plapsolve.spectra, "rayleigh_min", lambda *args, **kwargs: minimizer)
            return admissibility_report(V, mesh, p, q, W, samples=len(candidates), seed=0)

        def close(got, want):
            return np.all(np.abs(np.asarray(got) - want) <= 1e-14 * np.abs(want))

        free = mesh.free_mask
        fields = [(u.values[free], _grad_square(mesh, u.values[free])) for u in functions]
        q_vs = np.array([_q_v_arrays(mesh, u, V.table[free], p, gs) for u, gs in fields])
        # y_norm^p scales as W^(p/q); constant weights that put the threshold
        # of the ratio q_v / y_norm^p in its widest gap (the Rayleigh
        # minimizer sits well below the bumps) and above every ratio, so that
        # no margin is near zero
        ratios = np.sort(q_vs / [_y_norm_arrays(mesh, u, 1.0, 1.0, q, gs) ** p for u, gs in fields])
        gap = int(np.argmax(np.diff(np.log(ratios))))
        for threshold in (np.sqrt(ratios[gap] * ratios[gap + 1]), 2.0 * ratios[-1]):
            W = Weight.constant(float(threshold ** (q / p)))
            w_vals = evaluate_weight(W, mesh)
            want = q_vs - [_y_norm_arrays(mesh, u, w_vals, w_vals[free], q, gs) ** p for u, gs in fields]
            whole = report(W, bumps, eig)
            assert close(whole.sampled_margin, want.min())
            assert [v.split(":")[0] for v in whole.violations] == [t for t, m in zip(tags, want) if m < 0]
            assert whole.violations and whole.sample_count == len(tags)
        # above every ratio each margin is negative, so the report on one bump
        # and a zero minimizer, whose margin is 0, returns that bump's margin
        zero = EigenResult(0.0, DiscreteFunction.zeros(mesh), 0, 0.0, "lobpcg")
        singles = [report(W, [b], zero).sampled_margin for b in bumps] + [report(W, [], eig).sampled_margin]
        assert close(singles, want)


class TestPoincareRemainder:
    def test_requires_m_above_p(self):
        omega = build_mesh(interval(0.0, 1.0), [9])
        with pytest.raises(ValueError, match="M > p"):
            poincare_remainder_check(omega, 2, 2.0, 2.0)

    def test_small_sample_run(self):
        omega = build_mesh(interval(0.0, 1.0), [9])
        record = poincare_remainder_check(omega, 3, 2.0, 2.0, samples=20, seed=0, z_nodes=13)
        assert record.verdict == "no_violation"
        assert record.details["constant"] == pytest.approx(0.25)
        assert record.sample_count == 20

    def test_damped_constant_below_two(self):
        omega = build_mesh(interval(0.0, 1.0), [9])
        record = poincare_remainder_check(omega, 2, 1.5, 1.5, samples=10, seed=0, z_nodes=17)
        assert record.details["constant"] == pytest.approx(2 ** (-0.25) * (1 / 3) ** 1.5)
        assert record.verdict == "no_violation"
        assert record.details["method"] == "descent"

    def test_far_support_margin_positive(self):
        # a bump far along the unbounded axis sees a vanishing weight, so the
        # margin is essentially the whole left side
        omega = build_mesh(interval(0.0, 1.0), [9])
        record = poincare_remainder_check(omega, 3, 3.0, 2.0, samples=40, seed=1, z_nodes=17)
        assert record.worst_margin > 0.5  # normalized margins near one


class TestMonotonicity:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_positive_constant(self, p):
        record = monotonicity_constant_check(p, samples=20000, seed=0)
        assert record.verdict == "no_violation"
        assert record.details["c_est"] > 0.0

    def test_quadratic_identity(self):
        record = monotonicity_constant_check(2.0, samples=20000, seed=0)
        assert record.details["c_est"] == pytest.approx(1.0, abs=1e-12)

    def test_axis_pair_bound_p4(self):
        # the opposite axis pair gives pairing 4 against |x-y|^4 = 16
        record = monotonicity_constant_check(4.0, samples=1000, seed=0)
        assert record.details["c_est"] <= 0.25 + 1e-12

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError, match="p > 1"):
            monotonicity_constant_check(1.0)


class TestPowerMean:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_no_violation(self, p):
        record = power_mean_check(p, samples=2000, seed=0)
        assert record.verdict == "no_violation"

    def test_equality_on_diagonal(self):
        # the damped constant is sharp at a = b, so the worst margin sits at 0
        record = power_mean_check(1.5, samples=2000, seed=0)
        assert record.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_scaled_constant_violates(self):
        record = power_mean_check(2.0, samples=500, seed=0, constant_scale=1.5)
        assert record.verdict == "violation"


class TestHardyCheck:
    @pytest.fixture(scope="class")
    def hardy_mesh(self):
        dom = punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.05)
        return build_mesh(dom, [21, 21, 21])

    def test_no_violation_small(self, hardy_mesh):
        record = hardy_check(hardy_mesh, 2.0, samples=30, seed=0)
        assert record.verdict == "no_violation"
        assert record.details["constant"] == pytest.approx(0.25)

    def test_needs_puncture(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9])
        with pytest.raises(ValueError, match="punctured"):
            hardy_check(mesh, 2.0, samples=5)

    def test_rejects_bad_exponent(self, hardy_mesh):
        with pytest.raises(ValueError):
            hardy_check(hardy_mesh, 3.5, samples=5)

    def test_no_samples_certify_nothing(self, hardy_mesh):
        with pytest.raises(ValueError, match="no samples"):
            CertificationRecord.from_margins("hardy", [], [], 1e-8)
        with pytest.raises(ValueError, match="no samples"):
            hardy_check(hardy_mesh, 2.0, samples=0)

    @pytest.mark.parametrize("rho", [0.05, 0.1, 0.2])
    def test_puncture_is_a_natural_boundary(self, rho):
        # the stencil beside the hole goes one-sided and never reads the
        # excluded nodes' zero, so the p = 2 probe is the weighted eigenvalue
        # with a natural (Neumann) condition on the puncture: with
        # H = ((N-2)/2)^2, L = ln(R/rho) and k the root in (pi/2L, pi/L) of
        # tan(kL) = -2k/(N-2), the annulus value H + k^2 lies between its
        # values at the outer radii R = sqrt(3) and R = 1 that enclose and fit
        # in the box, and well below the Dirichlet-hole lower end
        # H + (pi/ln(sqrt(3)/rho))^2.  Coarser meshes stay out: at 17 nodes
        # per axis and rho = 0.05 only the origin is excluded (h = 0.125 >
        # rho), the hole is not resolved, and the probe reads 0.8260, above
        # its bracket
        n_dims, h_const = 3, 0.25
        mesh = build_mesh(punctured_box(*[(-1.0, 1.0)] * n_dims, radius=rho), [33] * n_dims)
        weight = singular_weight(mesh, range(n_dims), 2.0)
        probe = rayleigh_min(mesh, 2.0, tol=1e-6, max_iter=600, seed=0, mass_weight=weight).value

        def natural(radius):
            L = math.log(radius / rho)
            k = brentq(lambda k: math.tan(k * L) + 2.0 * k / (n_dims - 2), math.pi / (2.0 * L) * (1 + 1e-12),
                       math.pi / L * (1 - 1e-12))
            return h_const + k**2

        assert natural(math.sqrt(3.0)) <= probe <= natural(1.0)
        assert probe < h_const + (math.pi / math.log(math.sqrt(3.0) / rho)) ** 2


class TestBlowup:
    @pytest.fixture(scope="class")
    def result(self):
        omega = build_mesh(interval(0.0, 1.0), [17])
        return blowup_demo(omega, 1, n_terms=8, length_per_bump=6.0)

    def test_first_term_equalities(self, result):
        row = result.rows[0]
        assert row.q_partial_sum == pytest.approx(1.0, rel=1e-10)
        assert row.dual_norm_partial == pytest.approx(1.0, rel=1e-10)
        assert row.gradient_energy == pytest.approx(row.energy_ratio, rel=1e-12)

    def test_energy_gaps_are_inverse_squares(self, result):
        sums = [row.q_partial_sum for row in result.rows]
        expected = np.cumsum([1.0 / k**2 for k in range(1, 9)])
        assert np.allclose(sums, expected, rtol=1e-10)

    def test_dual_norm_bounded_by_zeta(self, result):
        for row in result.rows:
            assert row.dual_norm_partial < np.sqrt(np.pi**2 / 6) + 1e-3

    def test_supports_disjoint(self, result):
        assert result.supports_disjoint
        for i, u in enumerate(result.components):
            for v in result.components[i + 1:]:
                assert np.all(u.values * v.values == 0.0)

    def test_gradient_energy_grows(self, result):
        energies = [row.gradient_energy for row in result.rows]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert result.fitted_constant > 0.0
        for row in result.rows:
            assert row.gradient_energy >= result.fitted_constant * row.harmonic_number - 1e-12

    def test_slot_too_small_raises(self):
        omega = build_mesh(interval(0.0, 1.0), [17])
        with pytest.raises(ValueError, match="length_per_bump"):
            blowup_demo(omega, 1, n_terms=8, length_per_bump=1.0)

    def test_needs_single_unbounded_axis(self):
        omega = build_mesh(interval(0.0, 1.0), [17])
        with pytest.raises(NotImplementedError):
            blowup_demo(omega, 2, n_terms=4)

    def test_needs_three_terms(self):
        omega = build_mesh(interval(0.0, 1.0), [17])
        with pytest.raises(ValueError, match="at least 3"):
            blowup_demo(omega, 1, n_terms=2)
