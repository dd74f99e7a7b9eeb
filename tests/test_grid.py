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
    strip,
)
from oracles import STACKED_MESHES, reference_grad_op


def _whole_box(mesh):
    return tuple(slice(0, n) for n in mesh.shape)


def _stencil_grad(mesh, values):
    """The mesh's difference stencil applied to any nodal values, constrained
    nodes included: ``box_grad`` on the whole mesh, shape ``(dims, n_nodes)``."""
    return mesh.box_grad(_whole_box(mesh), values)[0]


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
        dom = box((-1.0, 1.0), (-1.0, 1.0))
        mesh = build_mesh(dom, [21, 21], singular_cap_radius=0.4)
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
        g = u.mesh.grad(u.values[mesh.free_mask]).T
        # the projection zeroes the boundary, so only check deep interior
        deep = (
            (mesh.points[:, 0] > 0.2) & (mesh.points[:, 0] < 0.8)
            & (mesh.points[:, 1] > 0.4) & (mesh.points[:, 1] < 1.6)
        )
        assert np.allclose(g[deep], 0.0)

    def test_affine_exact_at_interior(self):
        mesh = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [9, 9])
        vals = mesh.points[:, 0].copy()
        g0, g1 = _stencil_grad(mesh, vals)
        inner = mesh.free_mask
        assert np.allclose(g0[inner], 1.0, atol=1e-13)
        assert np.allclose(g1[inner], 0.0, atol=1e-13)

    def test_sine_derivative_oracle(self):
        mesh = build_mesh(interval(0.0, 1.0), [101])
        u = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        g = u.mesh.grad(u.values[mesh.free_mask]).T
        exact = np.pi * np.cos(np.pi * mesh.points[:, 0])
        assert np.max(np.abs(g[:, 0] - exact)) <= 1e-3

    def test_refinement_improves_gradient(self):
        errs = []
        for n in (51, 101):
            mesh = build_mesh(interval(0.0, 1.0), [n])
            u = DiscreteFunction.from_callable(mesh, lambda x: np.sin(np.pi * x[:, 0]))
            g = u.mesh.grad(u.values[mesh.free_mask]).T
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


def _stacked_rows(mesh):
    """Dense rows of the mesh's whole-grid stencil, shape (dims, n_nodes, n_nodes)."""
    return np.stack([_stencil_grad(mesh, e) for e in np.eye(mesh.n_nodes)], axis=-1)


@pytest.fixture(params=sorted(STACKED_MESHES))
def stacked_mesh(request):
    mesh = STACKED_MESHES[request.param]()
    assert mesh.excluded_mask.any()
    return mesh


class TestStackedGradient:
    def test_matches_per_axis_reference_row_for_row(self, stacked_mesh):
        rows = _stacked_rows(stacked_mesh)
        ref = reference_grad_op(stacked_mesh).toarray()
        assert np.array_equal(rows.reshape(ref.shape), ref)

    def test_operator_is_the_reference_free_columns(self, stacked_mesh):
        # the one assembled operator is the whole-grid one's free columns,
        # array for array, so every product with it is unchanged
        mesh = stacked_mesh
        want = reference_grad_op(mesh)[:, mesh.free_mask]
        got = mesh._free_grad
        assert isinstance(got, sp.csr_matrix)
        assert got.shape == (mesh.domain.dims * mesh.n_nodes, np.count_nonzero(mesh.free_mask))
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr

    def test_mesh_holds_one_free_node_operator(self, stacked_mesh):
        # the gradient takes free-node values and its adjoint returns them; a
        # whole-mesh vector raises, and after every product no array the mesh
        # holds has a column per node
        mesh = stacked_mesh
        n_free = np.count_nonzero(mesh.free_mask)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            mesh.grad(rng.standard_normal(mesh.n_nodes))
        g = mesh.grad(rng.standard_normal(n_free))
        assert g.shape == (mesh.domain.dims, mesh.n_nodes)
        assert mesh.grad_adjoint(g).shape == (n_free,)
        mesh.energy_stiffness()
        mesh.energy_stiffness(rng.uniform(0.5, 2.0, mesh.n_nodes))
        mesh.free_stiffness_dense()
        mesh.box_grad(_whole_box(mesh), rng.standard_normal(mesh.shape))
        for name in ("_grad_op", "_grad", "_grad_t"):
            assert not hasattr(mesh, name), name
        for name, value in vars(mesh).items():
            for item in value if isinstance(value, tuple) else (value,):
                shape = getattr(item, "shape", ())
                assert len(shape) < 2 or shape[1] != mesh.n_nodes, name

    def test_public_gradient_layout(self, stacked_mesh):
        vals = DiscreteFunction(stacked_mesh, np.random.default_rng(3).standard_normal(stacked_mesh.n_nodes)).values
        g = stacked_mesh.grad(vals[stacked_mesh.free_mask]).T
        ref = (reference_grad_op(stacked_mesh) @ vals).reshape(stacked_mesh.domain.dims, -1).T
        assert g.shape == (stacked_mesh.n_nodes, stacked_mesh.domain.dims)
        assert np.array_equal(g, ref)

    def test_box_gradient_is_the_gradient_on_the_box(self, stacked_mesh):
        # the whole mesh, whose one-sided rows beside the hole all see the
        # field, and random boxes, some clipped at the mesh edge, hold a field
        # that vanishes on their outer layer: the box gradient equals the
        # whole-mesh one at the box's samples, which is zero off the box
        mesh = stacked_mesh
        G = reference_grad_op(mesh)
        rng = np.random.default_rng(8)
        boxes = [tuple(slice(0, n) for n in mesh.shape)]
        for _ in range(30):
            lo = [int(rng.integers(0, n)) for n in mesh.shape]
            boxes.append(tuple(slice(a, int(rng.integers(a, n + 1))) for a, n in zip(lo, mesh.shape)))
        for box in boxes:
            values = np.zeros([s.stop - s.start for s in box])
            values[tuple(slice(1, -1) for _ in box)] = rng.standard_normal([max(s.stop - s.start - 2, 0) for s in box])
            whole = np.zeros(mesh.shape)
            whole[box] = values
            g, weights = mesh.box_grad(box, values)
            ref = (G @ whole.ravel()).reshape((mesh.domain.dims,) + mesh.shape)
            assert np.array_equal(g, ref[(slice(None),) + box].reshape(mesh.domain.dims, -1))
            assert np.array_equal(weights, mesh.sample_weights.reshape(mesh.shape)[box].ravel())
            ref[(slice(None),) + box] = 0.0
            assert not np.any(ref)

    def test_adjoint_identity(self, stacked_mesh):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(np.count_nonzero(stacked_mesh.free_mask))
        flux = rng.standard_normal((stacked_mesh.domain.dims, stacked_mesh.n_nodes))
        lhs = float(np.sum(stacked_mesh.grad(u) * flux))
        rhs = float(u @ stacked_mesh.grad_adjoint(flux))
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    def test_adjoint_is_a_view_of_the_operator(self, stacked_mesh):
        flux = np.random.default_rng(6).standard_normal((stacked_mesh.domain.dims, stacked_mesh.n_nodes))
        G = stacked_mesh._free_grad
        assert np.array_equal(stacked_mesh.grad_adjoint(flux), G.T @ np.ravel(flux))
        assert np.shares_memory(stacked_mesh._free_grad_t.data, G.data)
        assert np.shares_memory(stacked_mesh._free_grad_t.indices, G.indices)

    @pytest.mark.parametrize("with_coeff", [False, True])
    def test_stiffness_matches_per_axis_sum(self, stacked_mesh, with_coeff):
        # the stiffness lives on the free nodes: the per-axis sum's free block
        mesh = stacked_mesh
        coeff = np.random.default_rng(9).uniform(0.5, 2.0, mesh.n_nodes) if with_coeff else None
        w = mesh.weights * ~mesh.excluded_mask * (1.0 if coeff is None else coeff)
        free = mesh.free_mask
        G = reference_grad_op(mesh)
        ref = (G.T @ sp.diags(np.tile(w, mesh.domain.dims)) @ G).toarray()[np.ix_(free, free)]
        got = mesh.energy_stiffness(coeff).toarray()
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("with_coeff", [False, True])
    def test_stiffness_is_the_gradient_quadrature(self, stacked_mesh, with_coeff):
        # u . K(coeff) u is the mesh's gradient quadrature of coeff |grad u|^2
        mesh = stacked_mesh
        rng = np.random.default_rng(10)
        coeff = rng.uniform(0.5, 2.0, mesh.n_nodes) if with_coeff else None
        u_free = rng.standard_normal(np.count_nonzero(mesh.free_mask))
        g = mesh.grad(u_free)
        density = np.einsum("ai,ai->i", g, g) * (1.0 if coeff is None else coeff)
        form = float(u_free @ (mesh.energy_stiffness(coeff) @ u_free))
        assert abs(form - mesh.integrate_samples(density)) <= 1e-14 * form

    def test_stiffness_cached_only_without_coeff(self, stacked_mesh):
        mesh = stacked_mesh
        n_free = np.count_nonzero(mesh.free_mask)
        assert mesh.energy_stiffness() is mesh.energy_stiffness()
        assert mesh.energy_stiffness().shape == (n_free, n_free)
        ones = np.ones(mesh.n_nodes)
        assert mesh.energy_stiffness(ones) is not mesh.energy_stiffness(ones)


# a 1D interval and a 2D strip (boundary only), a 3D box with a singular cap,
# and the punctured 3D box and capped 4D strip of STACKED_MESHES
FREE_NODE_MESHES = {
    "interval": lambda: build_mesh(interval(0.0, 1.0), [33]),
    "strip_2d": lambda: build_mesh(strip([(0.0, 1.0)], 1, 2.0), [9, 17]),
    "capped_3d": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [9, 9, 9], singular_cap_radius=0.3, singular_axes=(0, 1)
    ),
    **STACKED_MESHES,
}


@pytest.mark.parametrize("name", sorted(FREE_NODE_MESHES))
@pytest.mark.parametrize("with_coeff", [False, True])
def test_dense_stiffness_is_the_sparse_one(name, with_coeff):
    mesh = FREE_NODE_MESHES[name]()
    coeff = np.random.default_rng(12).uniform(0.5, 2.0, mesh.n_nodes) if with_coeff else None
    want = mesh.energy_stiffness(coeff).toarray()
    got = mesh.free_stiffness_dense(coeff)
    assert got.shape == want.shape == (np.count_nonzero(mesh.free_mask),) * 2
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
        dom = box((-1.0, 1.0), (-1.0, 1.0))
        mesh = build_mesh(dom, [17, 17], singular_cap_radius=0.25)
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
            free = mesh.free_mask
            gu, gv = mesh.grad(u.values[free]).T, mesh.grad(v.values[free]).T
            lhs = integrate(np.einsum("ij,ij->i", gu, gv), mesh)
            # grad v is nonzero on the boundary, so its divergence takes the stencil
            lap_v = sum(_stencil_grad(mesh, gv[:, a])[a] for a in range(2))
            rhs = integrate(u.values * lap_v, mesh)
            errs.append(abs(lhs + rhs))
        h = 1.0 / 32
        assert errs[0] <= 6.0 * h
        assert errs[1] < errs[0]
