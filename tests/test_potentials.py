"""Potential catalog, exponent arithmetic, and the admissibility report."""

import ast
from pathlib import Path

import numpy as np
import pytest

import plapsolve.potentials
from plapsolve import (
    Potential,
    Weight,
    admissibility_report,
    alt_integrability_exponent,
    box,
    build_mesh,
    evaluate_potential,
    evaluate_weight,
    hardy_constant,
    integrability_exponent,
    interval,
    singular_weight,
    sobolev_conjugate,
    strip,
)


class TestHardyConstant:
    def test_quadratic_values(self):
        assert hardy_constant(3, 2.0) == pytest.approx(0.25)
        assert hardy_constant(4, 2.0) == pytest.approx(1.0)

    def test_unit_case(self):
        # (N - p)/p = 1 forces 1^p = 1
        assert hardy_constant(3, 1.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("n, p", [(3, 3.0), (3, 4.0), (2, 1.0), (2, 0.5)])
    def test_rejects_bad_exponents(self, n, p):
        with pytest.raises(ValueError):
            hardy_constant(n, p)


class TestExponents:
    def test_sobolev_conjugate(self):
        assert sobolev_conjugate(3, 2.0) == pytest.approx(6.0)

    def test_case_split_large_dimension(self):
        # q* = 6, and 1/r + 1/6 = 1 gives r = 1.2
        assert integrability_exponent(3, 2.0, 2.0) == pytest.approx(1.2)

    def test_case_split_small_dimension(self):
        assert integrability_exponent(1, 2.0, 1.8) == pytest.approx(1.0)

    def test_case_split_equal(self):
        r = integrability_exponent(2, 2.0, 2.0)
        assert 1.0 < r < np.inf

    def test_alternative_exponent(self):
        # r = q / (p (q - p + 1))
        assert alt_integrability_exponent(1.5, 1.3) == pytest.approx(1.3 / (1.5 * 0.8))
        assert alt_integrability_exponent(2.0, 2.0) == pytest.approx(1.0)


class TestEvaluatePotential:
    def test_constant(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        vals = evaluate_potential(Potential.constant(2.0), mesh)
        assert np.all(vals == 2.0)

    def test_quadratic_hardy_pointwise(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9], singular_cap_radius=0.05)
        vals = evaluate_potential(Potential.quadratic_hardy(3), mesh)
        # node at (0.5, 0, 0) has |x| = 0.5, so V = 0.25 / 0.25 = 1
        i = np.argmin(np.linalg.norm(mesh.points - np.array([0.5, 0.0, 0.0]), axis=1))
        assert vals[i] == pytest.approx(1.0)

    def test_hardy_matches_quadratic_at_p2(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9], singular_cap_radius=0.05)
        a = evaluate_potential(Potential.quadratic_hardy(3), mesh)
        b = evaluate_potential(Potential.hardy(3, 2.0), mesh)
        c = evaluate_potential(Potential.cylindrical_hardy(3, 2.0), mesh)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_ray_scaling(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9], singular_cap_radius=0.05)
        for p in (1.5, 2.0, 2.5):
            V = Potential.hardy(3, p) if p < 3 else Potential.quadratic_hardy(3)
            vals = evaluate_potential(V, mesh)
            i = np.argmin(np.linalg.norm(mesh.points - np.array([0.25, 0.0, 0.0]), axis=1))
            j = np.argmin(np.linalg.norm(mesh.points - np.array([0.5, 0.0, 0.0]), axis=1))
            assert vals[i] / vals[j] == pytest.approx(2.0**p, rel=1e-13)

    def test_signals_node_on_singular_set(self):
        # origin is a node and nothing excludes it
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9])
        with pytest.raises(ValueError, match="singular set"):
            evaluate_potential(Potential.quadratic_hardy(3), mesh)

    def test_excluded_nodes_carry_zero(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9], singular_cap_radius=0.3)
        vals = evaluate_potential(Potential.hardy(3, 2.0), mesh)
        assert np.all(vals[mesh.excluded_mask] == 0.0)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    def test_singular_weight_needs_a_cap_over_its_axes(self):
        # the uncapped box has nodes on the line y = 0 of a cylindrical potential
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9])
        with pytest.raises(ValueError, match="singular set"):
            singular_weight(mesh, range(2), 2.0)
        with pytest.raises(ValueError, match="singular set"):
            evaluate_potential(Potential.cylindrical_hardy(3, 2.0), mesh)

    def test_singular_weight_zero_on_excluded_nodes(self):
        dom = box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        mesh = build_mesh(dom, [9, 9, 9], singular_cap_radius=0.3, singular_axes=(0, 1))
        w = singular_weight(mesh, (0, 1), 1.5)
        assert mesh.excluded_mask.any()
        assert np.all(w[mesh.excluded_mask] == 0.0)
        active = ~mesh.excluded_mask
        y = np.linalg.norm(mesh.points[active][:, :2], axis=1)
        np.testing.assert_allclose(w[active], y**-1.5, rtol=1e-15)

    def test_refuses_a_potential_built_for_another_mesh(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9], singular_cap_radius=0.3)
        with pytest.raises(ValueError, match="tabulated potential has 4 entries, mesh has 729"):
            evaluate_potential(Potential.tabulated(np.ones(4)), mesh)
        with pytest.raises(ValueError, match="built for N=4, mesh has N=3"):
            evaluate_potential(Potential.quadratic_hardy(4), mesh)
        with pytest.raises(ValueError, match="acts on 4 axes, mesh has 3"):
            evaluate_potential(Potential.cylindrical_hardy(4, 2.0), mesh)

    def test_cylindrical_needs_k_above_p(self):
        with pytest.raises(ValueError, match="k > p"):
            Potential.cylindrical_hardy(2, 2.5)

    def test_tabulated_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Potential.tabulated(np.array([-1.0, 0.0]))


class TestWeight:
    def test_constant_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Weight.constant(0.0)

    def test_cylinder_decay_profile(self):
        mesh = build_mesh(strip([(0.0, 1.0)], 1, 4.0), [9, 33])
        W = Weight.cylinder_decay(2.0, 2.0)
        vals = evaluate_weight(W, mesh)
        z = mesh.points[:, 1]
        assert np.allclose(vals, 2.0 / (1.0 + z**2))
        assert np.all(vals > 0)

    def test_cylinder_decay_needs_strip(self):
        mesh = build_mesh(interval(0.0, 1.0), [9])
        with pytest.raises(ValueError, match="strip"):
            evaluate_weight(Weight.cylinder_decay(1.0, 2.0), mesh)


class TestAdmissibilityReport:
    def test_rejects_bad_exponents(self):
        mesh = build_mesh(interval(0.0, 1.0), [17])
        W = Weight.constant(0.5)
        with pytest.raises(ValueError, match="p must exceed 1"):
            admissibility_report(Potential.zero(), mesh, 0.5, 0.5, W)
        with pytest.raises(ValueError, match="q must exceed p - 1"):
            admissibility_report(Potential.zero(), mesh, 3.0, 1.5, W)
        with pytest.raises(ValueError, match="q must not exceed p"):
            admissibility_report(Potential.zero(), mesh, 2.0, 2.5, W)

    def test_small_weight_passes(self):
        # margin >= 0 for all samples when the constant stays below
        # lambda / (1 + lambda); the interval eigenvalue is about pi^2
        mesh = build_mesh(interval(0.0, 1.0), [33])
        rep = admissibility_report(
            Potential.zero(), mesh, 2.0, 2.0, Weight.constant(0.45), samples=24, seed=0
        )
        assert rep.passed
        assert rep.sampled_margin >= 0.0
        assert rep.r == pytest.approx(1.0)  # N=1 < q=2

    def test_large_weight_fails(self):
        mesh = build_mesh(interval(0.0, 1.0), [33])
        rep = admissibility_report(
            Potential.zero(), mesh, 2.0, 2.0, Weight.constant(5.0), samples=24, seed=0
        )
        assert not rep.passed
        assert rep.sampled_margin < 0.0
        assert rep.violations

    def test_deterministic_in_seed(self):
        mesh = build_mesh(interval(0.0, 1.0), [33])
        args = (Potential.zero(), mesh, 2.0, 2.0, Weight.constant(0.45))
        r1 = admissibility_report(*args, samples=16, seed=3)
        r2 = admissibility_report(*args, samples=16, seed=3)
        assert r1.sampled_margin == r2.sampled_margin
        assert r1.local_integrability_proxy == r2.local_integrability_proxy

    def test_integrability_proxy_finite_for_hardy(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [17, 17, 17], singular_cap_radius=0.2)
        rep = admissibility_report(
            Potential.quadratic_hardy(3), mesh, 2.0, 1.8, Weight.constant(0.29),
            samples=12, seed=0,
        )
        assert np.isfinite(rep.local_integrability_proxy)
        assert rep.r == pytest.approx(1.0 / (1.0 - 1.0 / sobolev_conjugate(3, 1.8)))


def test_potentials_imports_only_grid_from_the_package():
    # the catalog sits below energy, solver and spectra: an import of any of
    # them, or one deferred into a function, would bring back a cycle.  An
    # import of the module cannot show this, since the package imports all
    tree = ast.parse(Path(plapsolve.potentials.__file__).read_text())
    imported = [
        "." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
    ]
    assert sorted({m for m in imported if m.startswith((".", "plapsolve"))}) == [".grid"]
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    nested = [f.name for f in functions for node in ast.walk(f) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested
