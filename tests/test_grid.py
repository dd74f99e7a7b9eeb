"""Mesh construction, masks, quadrature, and the difference operator."""

import numpy as np
import pytest
import scipy.sparse as sp

from plapsolve import (
    DiscreteFunction,
    box,
    build_mesh,
    integrate,
    interval,
    punctured_box,
    strip,
)


class TestDomain:
    def test_interval_basic(self):
        dom = interval(0.0, 1.0)
        assert dom.dims == 1
        assert dom.volume == 1.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            interval(1.0, 1.0)
        with pytest.raises(ValueError, match="lo < hi"):
            box((0.0, 1.0), (2.0, 1.0))

    def test_strip_layout(self):
        dom = strip([(0.0, 1.0)], 2, 4.0)
        assert dom.dims == 3
        assert dom.bounds[1] == (-4.0, 4.0)
        assert dom.unbounded_axes == frozenset({1, 2})

    def test_strip_needs_positive_length(self):
        with pytest.raises(ValueError, match="positive"):
            strip([(0.0, 1.0)], 1, 0.0)

    def test_puncture_must_fit(self):
        with pytest.raises(ValueError, match="smaller than the distance"):
            punctured_box((-1.0, 1.0), (-0.2, 1.0), radius=0.3)
        with pytest.raises(ValueError, match="interior"):
            punctured_box((0.5, 1.0), (0.5, 1.0), radius=0.1)


class TestBuildMesh:
    def test_interval_11_nodes(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        assert mesh.spacing[0] == pytest.approx(0.1)
        assert int(mesh.boundary_mask.sum()) == 2
        assert mesh.weights.sum() == pytest.approx(1.0, abs=0.02)

    def test_box_5x5_masks(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [5, 5])
        assert int(mesh.boundary_mask.sum()) == 16
        assert int(mesh.free_mask.sum()) == 9

    def test_strip_weight_sum(self):
        mesh = build_mesh(strip([(0.0, 1.0)], 1, 4.0), [11, 81])
        assert mesh.weights.sum() == pytest.approx(8.0, abs=0.16)

    def test_weight_sum_minus_excluded_on_coarse_grid(self):
        dom = punctured_box((-1.0, 1.0), (-1.0, 1.0), radius=0.4)
        mesh = build_mesh(dom, [21, 21])
        active_sum = mesh.weights[~mesh.excluded_mask].sum()
        expected = dom.volume - np.pi * 0.4**2
        assert active_sum == pytest.approx(expected, rel=0.02)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            build_mesh(interval(0.0, 1.0), [2])

    def test_rejects_oversized_cap(self):
        with pytest.raises(ValueError, match="half the smallest extent"):
            build_mesh(box((-1.0, 1.0), (-1.0, 1.0)), [9, 9], singular_cap_radius=1.0)

    def test_cap_excludes_origin_nodes(self):
        mesh = build_mesh(box((-1.0, 1.0), (-1.0, 1.0)), [9, 9], singular_cap_radius=0.3)
        dist = np.linalg.norm(mesh.points, axis=1)
        assert np.all(dist[mesh.excluded_mask] < 0.3)
        assert np.all(dist[~mesh.excluded_mask] >= 0.3)

    def test_cylindrical_cap(self):
        mesh = build_mesh(
            box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
            [9, 9, 9],
            singular_cap_radius=0.3,
            singular_axes=(0, 1),
        )
        d = np.linalg.norm(mesh.points[:, :2], axis=1)
        assert np.all(d[mesh.excluded_mask] < 0.3)
        # nodes on the axis are excluded at every height
        axis_nodes = (mesh.points[:, 0] == 0) & (mesh.points[:, 1] == 0)
        assert np.all(mesh.excluded_mask[axis_nodes])


class TestDiscreteFunction:
    def test_boundary_projection(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        u = DiscreteFunction(mesh, np.ones(mesh.n_nodes))
        assert u.values[0] == 0.0
        assert u.values[-1] == 0.0
        assert np.all(u.values[mesh.free_mask] == 1.0)

    def test_rejects_nan(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        vals = np.ones(mesh.n_nodes)
        vals[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DiscreteFunction(mesh, vals)

    def test_mesh_mismatch(self):
        m1 = build_mesh(interval(0.0, 1.0), [11])
        m2 = build_mesh(interval(0.0, 1.0), [11])
        u = DiscreteFunction.zeros(m1)
        v = DiscreteFunction.zeros(m2)
        with pytest.raises(ValueError, match="different meshes"):
            u + v

    def test_arithmetic(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        u = DiscreteFunction.from_callable(mesh, lambda x: x[:, 0])
        w = 2.0 * u - u
        assert np.allclose(w.values, u.values)


class TestGradient:
    def test_constant_field(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 2.0)), [9, 9])
        u = DiscreteFunction(mesh, np.full(mesh.n_nodes, 3.0))
        g = u.mesh.grad(u.values).T
        # the projection zeroes the boundary, so only check deep interior
        deep = (
            (mesh.points[:, 0] > 0.2) & (mesh.points[:, 0] < 0.8)
            & (mesh.points[:, 1] > 0.4) & (mesh.points[:, 1] < 1.6)
        )
        assert np.allclose(g[deep], 0.0)

    def test_affine_exact_at_interior(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [9, 9])
        vals = mesh.points[:, 0].copy()
        g0, g1 = mesh.grad(vals)
        inner = mesh.free_mask
        assert np.allclose(g0[inner], 1.0, atol=1e-13)
        assert np.allclose(g1[inner], 0.0, atol=1e-13)

    def test_sine_derivative_oracle(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        u = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        g = u.mesh.grad(u.values).T
        exact = np.pi * np.cos(np.pi * mesh.points[:, 0])
        assert np.max(np.abs(g[:, 0] - exact)) <= 1e-3

    def test_refinement_improves_gradient(self):
        errs = []
        for n in (51, 101):
            mesh = build_mesh(interval(0.0, 1.0), [n])
            u = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x[:, 0]))
            g = u.mesh.grad(u.values).T
            exact = np.pi * np.cos(np.pi * mesh.points[:, 0])
            errs.append(np.max(np.abs(g[:, 0] - exact)))
        assert errs[1] < errs[0]

    def test_one_sided_away_from_hole(self):
        # rows of nodes adjacent to the excluded cap never read capped values
        mesh = build_mesh(
            box((-1.0, 1.0), (-1.0, 1.0)), [17, 17], singular_cap_radius=0.3
        )
        rows = _stacked_rows(mesh)
        kept = ~mesh.excluded_mask
        assert not np.any(rows[:, kept][:, :, mesh.excluded_mask])


def _reference_grad_ops(mesh):
    """Per-axis difference operators assembled axis by axis, the reference
    for the stacked operator behind ``Mesh.grad``."""
    nd, shape, n = mesh.domain.dims, mesh.shape, mesh.n_nodes
    exc = mesh.excluded_mask.reshape(shape)
    ops = []
    for axis in range(nd):
        h = mesh.spacing[axis]
        idx = np.arange(n).reshape(shape)

        def axsl(s):
            sl = [slice(None)] * nd
            sl[axis] = s
            return tuple(sl)

        left_nbr = np.full(shape, -1, dtype=np.int64)
        left_nbr[axsl(slice(1, None))] = idx[axsl(slice(0, -1))]
        right_nbr = np.full(shape, -1, dtype=np.int64)
        right_nbr[axsl(slice(0, -1))] = idx[axsl(slice(1, None))]
        left_ok = np.zeros(shape, dtype=bool)
        left_ok[axsl(slice(1, None))] = ~exc[axsl(slice(0, -1))]
        right_ok = np.zeros(shape, dtype=bool)
        right_ok[axsl(slice(0, -1))] = ~exc[axsl(slice(1, None))]

        active = ~exc
        centered = (active & left_ok & right_ok).ravel()
        fwd = (active & ~left_ok & right_ok).ravel()
        bwd = (active & left_ok & ~right_ok).ravel()
        idx, left_nbr, right_nbr = idx.ravel(), left_nbr.ravel(), right_nbr.ravel()
        rows = [idx[centered], idx[centered], idx[fwd], idx[fwd], idx[bwd], idx[bwd]]
        cols = [right_nbr[centered], left_nbr[centered], right_nbr[fwd], idx[fwd], idx[bwd], left_nbr[bwd]]
        vals = [
            np.full(centered.sum(), 0.5 / h),
            np.full(centered.sum(), -0.5 / h),
            np.full(fwd.sum(), 1.0 / h),
            np.full(fwd.sum(), -1.0 / h),
            np.full(bwd.sum(), 1.0 / h),
            np.full(bwd.sum(), -1.0 / h),
        ]
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        )
        ops.append(mat.tocsr())
    return ops


def _stacked_rows(mesh):
    """Dense rows of the stacked gradient operator, shape (dims, n_nodes, n_nodes)."""
    return mesh.grad(np.eye(mesh.n_nodes))


STACKED_MESHES = {
    "punctured_3d": lambda: build_mesh(
        punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [9, 9, 9]
    ),
    "capped_4d_strip": lambda: build_mesh(
        strip([(0.0, 1.0)], 3, 1.5), [5, 5, 7, 5], singular_cap_radius=0.45, singular_axes=(1, 2)
    ),
}


@pytest.fixture(params=sorted(STACKED_MESHES))
def stacked_mesh(request):
    mesh = STACKED_MESHES[request.param]()
    assert mesh.excluded_mask.any()
    return mesh


class TestStackedGradient:
    def test_matches_per_axis_reference_row_for_row(self, stacked_mesh):
        rows = _stacked_rows(stacked_mesh)
        for a, op in enumerate(_reference_grad_ops(stacked_mesh)):
            assert np.array_equal(rows[a], op.toarray()), f"axis {a}"

    def test_public_gradient_layout(self, stacked_mesh):
        vals = np.random.default_rng(3).standard_normal(stacked_mesh.n_nodes)
        g = stacked_mesh.grad(DiscreteFunction(stacked_mesh, vals).values).T
        ref = np.column_stack([op @ DiscreteFunction(stacked_mesh, vals).values
                               for op in _reference_grad_ops(stacked_mesh)])
        assert g.shape == (stacked_mesh.n_nodes, stacked_mesh.domain.dims)
        assert np.array_equal(g, ref)

    def test_adjoint_identity(self, stacked_mesh):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(stacked_mesh.n_nodes)
        flux = rng.standard_normal((stacked_mesh.domain.dims, stacked_mesh.n_nodes))
        lhs = float(np.sum(stacked_mesh.grad(u) * flux))
        rhs = float(u @ stacked_mesh.grad_adjoint(flux))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_adjoint_is_a_view_of_the_operator(self, stacked_mesh):
        flux = np.random.default_rng(6).standard_normal((stacked_mesh.domain.dims, stacked_mesh.n_nodes))
        G = stacked_mesh._grad_op()
        assert np.array_equal(stacked_mesh.grad_adjoint(flux), G.T @ np.ravel(flux))
        assert np.shares_memory(stacked_mesh._grad_t.data, G.data)
        assert np.shares_memory(stacked_mesh._grad_t.indices, G.indices)

    @pytest.mark.parametrize("with_coeff", [False, True])
    def test_stiffness_matches_per_axis_sum(self, stacked_mesh, with_coeff):
        mesh = stacked_mesh
        coeff = np.random.default_rng(9).uniform(0.5, 2.0, mesh.n_nodes) if with_coeff else None
        w = mesh.weights * ~mesh.excluded_mask * (1.0 if coeff is None else coeff)
        ref = sum(op.T @ sp.diags(w) @ op for op in _reference_grad_ops(mesh)).toarray()
        got = mesh.energy_stiffness(coeff).toarray()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_stiffness_cached_only_without_coeff(self, stacked_mesh):
        mesh = stacked_mesh
        assert mesh.energy_stiffness() is mesh.energy_stiffness()
        ones = np.ones(mesh.n_nodes)
        assert mesh.energy_stiffness(ones) is not mesh.energy_stiffness(ones)


class TestIntegrate:
    def test_unit_field(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        assert integrate(np.ones(mesh.n_nodes), mesh) == pytest.approx(1.0, abs=1e-12)

    def test_sine_squared_oracle(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        field = np.sin(np.pi * mesh.points[:, 0]) ** 2
        assert integrate(field, mesh) == pytest.approx(0.5, abs=1e-3)

    def test_linearity(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [9, 9])
        rng = np.random.default_rng(0)
        f1 = rng.random(mesh.n_nodes)
        f2 = rng.random(mesh.n_nodes)
        lhs = integrate(2.0 * f1 - 3.0 * f2, mesh)
        rhs = 2.0 * integrate(f1, mesh) - 3.0 * integrate(f2, mesh)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_punctured_volume(self):
        dom = punctured_box((-1.0, 1.0), (-1.0, 1.0), radius=0.25)
        mesh = build_mesh(dom, [17, 17])
        cell = float(np.prod(mesh.spacing))
        got = integrate(np.ones(mesh.n_nodes), mesh)
        expected = dom.volume - mesh.weights[mesh.excluded_mask].sum()
        assert abs(got - expected) <= cell

    def test_refinement_improves_integral(self):
        errs = []
        for n in (51, 101):
            mesh = build_mesh(interval(0.0, 1.0), [n])
            field = np.sin(np.pi * mesh.points[:, 0]) ** 2
            errs.append(abs(integrate(field, mesh) - 0.5))
        assert errs[1] < errs[0]


class TestIntegrationByParts:
    def test_first_order_consistency(self):
        # |int grad(u).grad(v) + int u * div(grad v)| <= C h on smooth fields
        rng = np.random.default_rng(7)
        errs = []
        for n in (33, 65):
            mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [n, n])
            x, y = mesh.points[:, 0], mesh.points[:, 1]
            u = DiscreteFunction(mesh, np.sin(np.pi * x) * np.sin(2 * np.pi * y))
            v = DiscreteFunction(mesh, np.sin(2 * np.pi * x) * np.sin(np.pi * y))
            gu, gv = mesh.grad(u.values).T, mesh.grad(v.values).T
            lhs = integrate(np.einsum("ij,ij->i", gu, gv), mesh)
            lap_v = np.einsum("aia->i", mesh.grad(gv))
            rhs = integrate(u.values * lap_v, mesh)
            errs.append(abs(lhs + rhs))
        h = 1.0 / 32
        assert errs[0] <= 6.0 * h
        assert errs[1] < errs[0]
