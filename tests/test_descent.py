"""Preconditioner roles: the inner tolerance each role meets, descent
directions from truncated and exact solves for every role, determinism, the
gain of Jacobi scaling on lagged coefficients and of the two-colour reduction
on two-cyclic meshes, the error conjugate gradients raise on nonpositive
curvature, also through the reduction, exact band solves of every one-axis
operator, assembled with no sparse product, CG or ``np.linalg`` call, the
error a nonpositive pivot of the band raises at construction, tensor
fast-diagonalization solves of the constant-coefficient operators on
multi-axis meshes and the indefiniteness they certify, their capacitance
correction on capped meshes, which makes them exact there too, and no sparse
factorization on the metric paths."""

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, spsolve

import plapsolve
import plapsolve.energy
import plapsolve.grid
from plapsolve import IndefiniteEnergyError, Potential, rayleigh_min
from plapsolve._descent import (
    CG_ITERS, METRIC_RTOL, NEWTON_RTOL, BandSolve, Preconditioner, ReducedSolve, TensorSolve, armijo_backtrack,
    axis_pencil, cap_difference, conjugate_gradient, jacobi, lagged_coefficient, two_colouring,
)
from plapsolve.energy import _grad_square
from plapsolve.grid import box, build_mesh, interval, strip
from plapsolve.potentials import evaluate_potential
from oracles import reference_grad_op

# multi-axis meshes, whose lagged metrics take CG at every size: of 1 304,
# 465, 81 and 124 free nodes
MESHES = {
    "punctured_3d": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [13, 13, 13], singular_cap_radius=0.3
    ),
    "strip_2d": lambda: build_mesh(strip([(0.0, 1.0)], 1, 2.0), [17, 33]),
    "box_11": lambda: build_mesh(box((0.0, 1.0), (0.0, 1.0)), [11, 11]),
    "punctured_7": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [7, 7, 7], singular_cap_radius=0.3
    ),
}


# one-axis meshes, whose operators are banded: the centered stencil couples
# free nodes at offset 2, and the one-sided rows beside the cap of the last
# at offset 1
ONE_AXIS_MESHES = {
    "interval_33": lambda: build_mesh(interval(0.0, 1.0), [33]),
    "interval_401": lambda: build_mesh(interval(0.0, 1.0), [401]),
    "capped_interval": lambda: build_mesh(interval(-1.0, 1.0), [41], singular_cap_radius=0.1),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


@pytest.fixture(scope="module", params=sorted(ONE_AXIS_MESHES))
def one_axis_mesh(request):
    return ONE_AXIS_MESHES[request.param]()


LAGGED = pytest.mark.parametrize("p", [None, 1.5, 3.0], ids=["plain", "lagged", "lagged_p3"])
ROLES = pytest.mark.parametrize("rtol", [METRIC_RTOL, NEWTON_RTOL], ids=["metric", "newton"])


def _problem(mesh, p):
    """A right-hand side on the free nodes, a plain-dot first variation
    ``w g`` as the descents pass it to ``apply``, and, unless
    ``p`` is None, the lagged coefficient at ``p`` of a rough field, whose
    contrast (about 1e3 at p = 1.5, 1e6 at p = 3) makes the inner solve
    harder."""
    rng = np.random.default_rng(4)
    u = rng.standard_normal(mesh.n_nodes)[mesh.free_mask]
    g = rng.standard_normal(mesh.n_nodes)
    coeff = None if p is None else lagged_coefficient(_grad_square(mesh, u)[1], p)
    return _rhs(mesh, g), coeff


def _rhs(mesh, g):
    """The plain-dot vector ``w g`` on the free nodes of a nodal ``g``, what
    a descent passes to ``apply``."""
    return mesh.free_weights * g[mesh.free_mask]


class _CountingOperator:
    """Counts the products ``A @ x`` a solve takes."""

    def __init__(self, A):
        self.A = A
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.A @ x


def _plain_cg_products(A, b, maxiter, rel_tol):
    """Operator products of unpreconditioned CG from a zero start to the same
    stopping test ``||b - A x|| <= rel_tol ||b||``."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    b2 = float(b @ b)
    for k in range(1, maxiter + 1):
        Ap = A @ p
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if rs_new <= rel_tol**2 * b2:
            return k
        p = r + (rs_new / rs) * p
        rs = rs_new
    return maxiter


def test_cg_meshes_take_a_cg_path(mesh):
    # the CG tests below would pass vacuously on an exact solve of the lagged
    # metrics
    for p in (1.5, 3.0):
        pre = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=_problem(mesh, p)[1])
        assert not pre.exact and _path(pre) in ("reduced", "jacobi")


@LAGGED
@ROLES
def test_apply_meets_its_roles_residual(mesh, p, rtol):
    b, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    d = pre.apply(b)
    assert d.shape == b.shape
    assert np.linalg.norm(b - _sparse_free_operator(mesh, coeff=coeff) @ d) <= rtol * np.linalg.norm(b)


@LAGGED
def test_truncated_solve_is_a_descent_direction(mesh, p):
    b, coeff = _problem(mesh, p)
    d = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=coeff).apply(b)
    assert float(b @ d) > 0.0


@LAGGED
def test_applies_are_deterministic(mesh, p):
    b, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=coeff)
    first = pre.apply(b)
    assert np.array_equal(first, pre.apply(b))
    assert np.array_equal(first, Preconditioner(mesh, rtol=METRIC_RTOL, coeff=coeff).apply(b))


@pytest.mark.parametrize("p", [1.5, 3.0], ids=["lagged", "lagged_p3"])
@ROLES
def test_jacobi_scaling_takes_fewer_products_than_plain_cg(mesh, p, rtol):
    # the products counted are those apply makes: of op on the capped mesh,
    # of the red Schur complement on the two-cyclic one, where they are also
    # at most 0.6 of Jacobi CG's on op (0.48-0.52 measured)
    b, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    plain = _plain_cg_products(pre.op, b, CG_ITERS, rtol)
    reduced = _path(pre) == "reduced"
    assert reduced != mesh.excluded_mask.any()
    if reduced:
        jacobi_cg = _CountingOperator(pre.op)
        conjugate_gradient(jacobi_cg, b, rtol, jacobi(pre.op))
        pre.precondition.schur = counting = _CountingOperator(pre.precondition.schur)
    else:
        pre.op = counting = _CountingOperator(pre.op)
    pre.apply(b)
    assert 0 < counting.products < plain, (counting.products, plain)
    if reduced:
        assert counting.products <= 0.6 * jacobi_cg.products, (counting.products, jacobi_cg.products)


def _counting_cg(monkeypatch):
    calls = []
    solve = conjugate_gradient

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(plapsolve._descent, "conjugate_gradient", counting)
    return calls


@LAGGED
@ROLES
def test_small_blocks_are_solved_exactly(one_axis_mesh, p, rtol, monkeypatch):
    # every one-axis operator, of 31 free nodes or 399, capped or not, is
    # solved by its band factorization to rounding whatever the role's
    # tolerance, with no CG call and bit for bit on every apply
    calls = _counting_cg(monkeypatch)
    mesh = one_axis_mesh
    b, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    assert pre.exact and pre.op is None and _path(pre) == "band"
    d = pre.apply(b)
    assert np.linalg.norm(b - _sparse_free_operator(mesh, coeff=coeff) @ d) <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(d, pre.apply(b))
    assert np.array_equal(d, Preconditioner(mesh, rtol=rtol, coeff=coeff).apply(b))
    assert not calls


def _sparse_free_operator(mesh, shift=1.0, coeff=None, mass_coeff=None):
    """The free-node operator by scipy on the whole grid: ``G^T diag(w) G``
    over every node, ``G`` the reference whole-grid difference operator, plus
    the mass diagonal of the free-node ``mass_coeff``, then its free rows and
    columns."""
    G = reference_grad_op(mesh)
    w = mesh.sample_weights if coeff is None else mesh.sample_weights * coeff
    stiffness = (G.T @ (sp.diags(np.tile(w, mesh.domain.dims)) @ G)).tocsr()
    free = mesh.free_mask
    diag = np.full(mesh.n_nodes, shift)
    if mass_coeff is not None:
        diag[free] += mass_coeff
    return (stiffness + sp.diags(mesh.weights * diag)).tocsr()[free][:, free]


class _NoLinalg:
    """Stands in for ``np.linalg``: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"a band build or apply called np.linalg.{name}")


def _band_matrix(solve):
    """``L D L^T`` of a :class:`BandSolve`'s factors, as a dense array."""
    n = len(solve.inv_pivots)
    L = np.eye(n) + np.diag(solve.near[:-1], -1) + np.diag(solve.far[:-2], -2)
    return L @ np.diag(1.0 / np.array(solve.inv_pivots)) @ L.T


@pytest.mark.parametrize(
    "p, newton", [(None, False), (1.5, False), (3.0, False), (None, True)],
    ids=["plain", "lagged", "lagged_p3", "newton"],
)
def test_exact_block_is_assembled_dense(one_axis_mesh, p, newton, monkeypatch):
    # the band path sums its diagonals as dense arrays from the mesh's cached
    # pattern, never through the sparse stiffness, factors them and solves
    # with no CG or np.linalg call.  The reference operator's free block has
    # no entry beyond offset 2, and entries at offset 1 only beside the cap;
    # the factors multiply back to it to rounding
    mesh = one_axis_mesh
    b, coeff = _problem(mesh, p)
    kwargs = {"coeff": coeff}
    if newton:
        # the p = 2 Newton operator with a constant potential below lambda_1,
        # about 3.0 on the capped interval, whose hole is a natural boundary
        kwargs.update(shift=1e-10, mass_coeff=np.full_like(mesh.free_weights, -2.0))

    def no_stiffness(*args):
        raise AssertionError("a band build assembled the sparse stiffness")

    calls = _counting_cg(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(plapsolve.grid.Mesh, "energy_stiffness", no_stiffness)
        patch.setattr(np, "linalg", _NoLinalg())
        pre = Preconditioner(mesh, rtol=NEWTON_RTOL if newton else METRIC_RTOL, **kwargs)
        pre.apply(b)
    assert not calls
    assert pre.exact and _path(pre) == "band"
    want = _sparse_free_operator(mesh, **kwargs).toarray()
    assert not np.any(np.triu(want, 3))
    assert np.any(np.diagonal(want, 1)) == mesh.excluded_mask.any()
    assert np.max(np.abs(_band_matrix(pre.precondition) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "make", [MESHES["punctured_3d"], MESHES["strip_2d"]], ids=["punctured_3d", "strip_2d"]
)
@pytest.mark.parametrize("role", ["plain", "lagged", "newton"])
def test_sparse_op_is_the_whole_grid_operator_sliced(make, role):
    # assembled on the free nodes, the CSR operator is the whole-grid one's
    # free block array for array, so every CG product is unchanged (the band
    # of a one-axis mesh is checked against it by
    # test_exact_block_is_assembled_dense)
    mesh = make()
    kwargs = {
        "plain": {},
        "lagged": {"coeff": _problem(mesh, 3.0)[1]},
        "newton": {
            "shift": 1e-10, "mass_coeff": np.random.default_rng(13).uniform(-1.0, 1.0, mesh.n_nodes)[mesh.free_mask],
        },
    }[role]
    pre = Preconditioner(mesh, rtol=METRIC_RTOL, **kwargs)
    want = _sparse_free_operator(mesh, **kwargs)
    op = pre.op
    if pre.exact:
        # the exact tensor solve reads no assembled operator, so none is built;
        # every other path assembles it as the mesh's stiffness plus the mass
        assert op is None and _path(pre) == "tensor"
        op = mesh.energy_stiffness() + sp.diags(mesh.free_weights)
    assert isinstance(op, sp.csr_matrix)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op, attr), getattr(want, attr)), attr


def _refused_at_construction(mesh, mass_coeff, rtol, monkeypatch):
    """Checks that the free-node operator with ``mass_coeff`` is indefinite
    while its diagonal stays positive, and that the preconditioner raises at
    the band's nonpositive pivot with no CG call."""
    calls = _counting_cg(monkeypatch)
    op = _sparse_free_operator(mesh, mass_coeff=mass_coeff).toarray()
    assert np.linalg.eigvalsh(op)[0] < 0.0
    assert np.all(np.diagonal(op) > 0.0)
    with pytest.raises(IndefiniteEnergyError, match=r"LDL\^T pivot"):
        Preconditioner(mesh, rtol=rtol, mass_coeff=mass_coeff)
    assert not calls


@ROLES
def test_indefinite_small_block_raises_at_construction(rtol, monkeypatch):
    # lambda_1 of the interval pencil is about pi^2, so a mass shift of
    # 1 - 50 makes the operator indefinite while its diagonal stays
    # positive; a pivot of its band factorization is nonpositive, which
    # certifies the indefiniteness before any apply
    mesh = ONE_AXIS_MESHES["interval_33"]()
    _refused_at_construction(mesh, np.full_like(mesh.free_weights, -50.0), rtol, monkeypatch)


@ROLES
def test_indefinite_interval_block_raises_at_construction(rtol, monkeypatch):
    # the factorization is exact at every size, so on the 401-node interval
    # a mass shift of 1 - 12, just past lambda_1 (about pi^2), raises too
    mesh = ONE_AXIS_MESHES["interval_401"]()
    _refused_at_construction(mesh, np.full_like(mesh.free_weights, -12.0), rtol, monkeypatch)


def test_conjugate_gradient_returns_a_negative_curvature_witness():
    # an indefinite matrix raises (here on its negative diagonal entry); its
    # positive definite twin is solved
    A = sp.diags([2.0, 1.0, -4.0]).tocsr()
    b = np.ones(3)
    with pytest.raises(IndefiniteEnergyError, match="unit vector"):
        conjugate_gradient(A, b, 1e-12, jacobi(A))
    x = conjugate_gradient(abs(A), b, 1e-12, jacobi(abs(A)))
    assert np.allclose(abs(A) @ x, b, rtol=1e-12)


def test_conjugate_gradient_of_a_zero_right_hand_side_is_zero():
    A = sp.diags([2.0, 1.0, 4.0]).tocsr()
    x = conjugate_gradient(A, np.zeros(3), 1e-12, jacobi(A))
    assert np.array_equal(x, np.zeros(3))


def test_armijo_backtrack_refuses_an_uphill_direction():
    # along +x from x = 1 the quadratic x^2 rises for every step, so no step
    # meets the sufficient decrease the (wrongly) negative slope asks for
    def objective(x):
        return float(x @ x)

    x = np.ones(1)
    assert armijo_backtrack(objective, x, np.ones(1), objective(x), -2.0) == (None, None, None)


def test_zero_diagonal_entry_is_its_own_witness():
    # positive semidefinite but singular: e_2 . A e_2 = 0 raises before any
    # iteration, where Jacobi scaling would never meet the zero curvature
    A = sp.csr_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]]))
    with pytest.raises(IndefiniteEnergyError, match="unit vector"):
        conjugate_gradient(A, np.ones(3), 1e-12, jacobi(A))


def test_indefinite_energy_error_has_one_home():
    assert plapsolve.IndefiniteEnergyError is plapsolve.energy.IndefiniteEnergyError
    assert plapsolve.IndefiniteEnergyError is plapsolve._descent.IndefiniteEnergyError


def _roles(mesh):
    """The tolerance and operator of each role the library builds a
    preconditioner for: the lagged p = 3 metric of ``minimize_phi`` at
    ``METRIC_RTOL``, the p = 2 Newton operator with a constant potential at
    60 % of the first eigenvalue at ``NEWTON_RTOL`` (eps = 0, so the
    potential is unshielded), and the default ``K + M`` of the quotient
    descents and LOBPCG."""
    _, coeff = _problem(mesh, 3.0)
    lam1 = rayleigh_min(mesh, 2.0, tol=1e-10).value
    v_vals = evaluate_potential(Potential.constant(0.6 * lam1), mesh)[mesh.free_mask]
    return {
        "metric_p3": (METRIC_RTOL, {"shift": 1e-10, "coeff": coeff}),
        "newton_p2": (NEWTON_RTOL, {"shift": 1e-10, "mass_coeff": -v_vals}),
        "default": (METRIC_RTOL, {}),
    }


def _path(pre):
    kinds = {BandSolve: "band", TensorSolve: "tensor", ReducedSolve: "reduced"}
    return kinds.get(type(pre.precondition), "jacobi")


@pytest.mark.parametrize(
    "make, paths",
    [
        (ONE_AXIS_MESHES["interval_33"], {"metric_p3": "band", "newton_p2": "band", "default": "band"}),
        (ONE_AXIS_MESHES["interval_401"], {"metric_p3": "band", "newton_p2": "band", "default": "band"}),
        (
            lambda: build_mesh(box((0.0, 1.0), (0.0, 1.0)), [17, 17]),
            {"metric_p3": "reduced", "newton_p2": "tensor", "default": "tensor"},
        ),
        (MESHES["punctured_3d"], {"metric_p3": "jacobi", "newton_p2": "tensor", "default": "tensor"}),
    ],
    ids=["interval_33", "interval_401", "multi_axis", "capped"],
)
def test_every_role_maps_a_gradient_to_a_descent_direction(make, paths):
    # minimize_phi and the quotient descent step along -apply(b), b a
    # plain-dot first variation, without an uphill fallback, so b . apply(b) > 0 must hold
    # on every path and every role
    mesh = make()
    rng = np.random.default_rng(11)
    for role, (rtol, kwargs) in _roles(mesh).items():
        pre = Preconditioner(mesh, rtol=rtol, **kwargs)
        assert _path(pre) == paths[role], role
        for _ in range(5):
            b = _rhs(mesh, rng.standard_normal(mesh.n_nodes))
            assert float(b @ pre.apply(b)) > 0.0, role


def test_band_meets_every_roles_residual_to_rounding(one_axis_mesh):
    # the metric, the Newton operator and K + M alike, at 1e-12 whatever the
    # role's tolerance
    mesh = one_axis_mesh
    rng = np.random.default_rng(11)
    for role, (rtol, kwargs) in _roles(mesh).items():
        pre = Preconditioner(mesh, rtol=rtol, **kwargs)
        A = _sparse_free_operator(mesh, **kwargs)
        for _ in range(3):
            b = _rhs(mesh, rng.standard_normal(mesh.n_nodes))
            assert np.linalg.norm(b - A @ pre.apply(b)) <= 1e-12 * np.linalg.norm(b), role


# multi-axis meshes with no excluded node, on which the tensor solve of a
# constant-coefficient operator is exact: the 2D strip, a 3D box with three
# node counts, and the 4D mesh of the strip_critical preset
TENSOR_MESHES = {
    "strip_2d": MESHES["strip_2d"],
    "box_3d": lambda: build_mesh(box((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), [11, 13, 9]),
    "strip_4d": lambda: build_mesh(strip([(0.0, 1.0)], 3, 2.0), [9, 13, 13, 13]),
}


@pytest.fixture(scope="module", params=sorted(TENSOR_MESHES))
def tensor_mesh(request):
    return TENSOR_MESHES[request.param]()


def _pencils(mesh):
    return [axis_pencil(lo, hi, n) for (lo, hi), n in zip(mesh.domain.bounds, mesh.shape)]


def _lambda_1(mesh):
    """The smallest eigenvalue of the box pencil, ``sum_a min lam_a``."""
    return sum(lam[0] for lam, _ in _pencils(mesh))


def test_axis_factors_are_a_kronecker_sum_of_the_free_stiffness(tensor_mesh):
    # each axis's 1D free-node stiffness and interior trapezoid weights
    lines = [build_mesh(interval(lo, hi), [n]) for (lo, hi), n in zip(tensor_mesh.domain.bounds, tensor_mesh.shape)]
    stiffness = [line.energy_stiffness().toarray() for line in lines]
    masses = [line.weights[1:-1] for line in lines]
    terms = []
    for a, K in enumerate(stiffness):
        mats = [sp.diags(m) for m in masses]
        mats[a] = sp.csr_matrix(K)
        terms.append(reduce(sp.kron, mats))
    want = tensor_mesh.energy_stiffness()
    assert abs(sum(terms) - want).max() <= 1e-12 * abs(want).max()
    for (lam, V), K, m in zip(_pencils(tensor_mesh), stiffness, masses):
        assert np.allclose(V.T @ (m[:, None] * V), np.eye(V.shape[0]), rtol=0.0, atol=1e-12)
        assert np.allclose(V.T @ K @ V, np.diag(lam), rtol=0.0, atol=1e-12 * lam[-1])


@pytest.mark.parametrize("newton", [False, True], ids=["plain", "newton"])
@ROLES
def test_tensor_solve_is_exact_without_excluded_nodes(tensor_mesh, newton, rtol, monkeypatch):
    # K + M, or the p = 2 Newton operator with a constant potential at 60 %
    # of lambda_1 folded into sigma: the tensor solve inverts it, so it is
    # applied with no CG call at either tolerance
    calls = _counting_cg(monkeypatch)
    mesh = tensor_mesh
    kwargs = {}
    if newton:
        kwargs = {"shift": 1e-10, "mass_coeff": np.full_like(mesh.free_weights, -0.6 * _lambda_1(mesh))}
    b, _ = _problem(mesh, None)
    pre = Preconditioner(mesh, rtol=rtol, **kwargs)
    assert _path(pre) == "tensor" and pre.op is None
    exact = spsolve(_sparse_free_operator(mesh, **kwargs).tocsc(), b)
    assert np.linalg.norm(pre.precondition(b) - exact) <= 1e-12 * np.linalg.norm(exact)
    d = pre.apply(b)
    assert not calls
    assert np.linalg.norm(d - exact) <= 1e-12 * np.linalg.norm(exact)
    assert np.array_equal(d, pre.apply(b))
    assert np.array_equal(d, Preconditioner(mesh, rtol=rtol, **kwargs).apply(b))


@ROLES
def test_tensor_solve_preconditions_a_punctured_mesh(rtol, monkeypatch):
    # the capacitance correction makes the tensor solve of K + M exact on
    # the punctured box, so it is applied with no CG call
    calls = _counting_cg(monkeypatch)
    mesh = MESHES["punctured_3d"]()
    b, _ = _problem(mesh, None)
    pre = Preconditioner(mesh, rtol=rtol)
    assert _path(pre) == "tensor" and mesh.excluded_mask.any() and pre.exact
    exact = spsolve(_sparse_free_operator(mesh).tocsc(), b)
    d = pre.apply(b)
    assert not calls
    assert np.linalg.norm(d - exact) <= 1e-12 * np.linalg.norm(exact)


def test_axis_eigenpairs_are_computed_once_per_mesh(monkeypatch):
    # the box's three distinct axes are solved once each, whatever the
    # roles; a second mesh with one of those axes and a new one solves only
    # the new one, and a third whose axes are both cached solves none
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    axis_pencil.cache_clear()
    mesh = TENSOR_MESHES["box_3d"]()
    b, _ = _problem(mesh, None)
    for rtol in (METRIC_RTOL, NEWTON_RTOL):
        Preconditioner(mesh, rtol=rtol).apply(b)
        Preconditioner(mesh, rtol=rtol, shift=1e-10, mass_coeff=np.full_like(mesh.free_weights, -1.0)).apply(b)
    assert len(calls) == mesh.domain.dims
    second = build_mesh(box((0.0, 2.0), (0.0, 1.0)), [13, 17])
    Preconditioner(second, rtol=METRIC_RTOL).apply(_problem(second, None)[0])
    assert len(calls) == mesh.domain.dims + 1
    assert axis_pencil(0.0, 2.0, 13) is _pencils(mesh)[1]
    third = build_mesh(box((0.0, 1.0), (0.0, 1.0)), [11, 17])
    Preconditioner(third, rtol=METRIC_RTOL).apply(_problem(third, None)[0])
    assert len(calls) == mesh.domain.dims + 1


@ROLES
def test_indefinite_tensor_operator_raises_at_construction(rtol, monkeypatch):
    # a constant potential just above lambda_1 of the 2D strip: with no
    # excluded node the tensor solve is the operator itself, so its
    # nonpositive denominator certifies the indefiniteness before any CG
    # call, while the diagonal stays positive; just below, the operator is
    # solved with no CG call
    calls = _counting_cg(monkeypatch)
    mesh = MESHES["strip_2d"]()
    lam1 = _lambda_1(mesh)
    above = np.full_like(mesh.free_weights, -1.001 * lam1)
    assert np.all(_sparse_free_operator(mesh, shift=1e-10, mass_coeff=above).diagonal() > 0.0)
    with pytest.raises(IndefiniteEnergyError, match="tensor-product eigenvector"):
        Preconditioner(mesh, rtol=rtol, shift=1e-10, mass_coeff=above)
    assert not calls
    pre = Preconditioner(mesh, rtol=rtol, shift=1e-10, mass_coeff=np.full_like(mesh.free_weights, -0.999 * lam1))
    pre.apply(_problem(mesh, None)[0])
    assert not calls


@pytest.mark.parametrize("potential, indefinite", [(7.6, False), (20.0, True)], ids=["between", "above"])
def test_punctured_tensor_falls_back_to_the_shift(potential, indefinite):
    # on the punctured 13^3 box lambda_1 is 7.23 for the box pencil and 7.97
    # for the free nodes; a constant potential above the first makes the box
    # tensor indefinite, so the solve drops it from sigma.  Between the two
    # the operator is still positive definite and is solved; above both, CG
    # meets its negative curvature
    mesh = MESHES["punctured_3d"]()
    assert 7.2 < _lambda_1(mesh) < 7.3
    b, _ = _problem(mesh, None)
    pre = Preconditioner(mesh, rtol=NEWTON_RTOL, shift=1e-10, mass_coeff=np.full_like(mesh.free_weights, -potential))
    assert pre.precondition.sigma == 1e-10
    if indefinite:
        with pytest.raises(IndefiniteEnergyError, match="conjugate-gradient direction"):
            pre.apply(b)
    else:
        d = pre.apply(b)
        assert np.linalg.norm(b - pre.op @ d) <= NEWTON_RTOL * np.linalg.norm(b)


@pytest.mark.parametrize(
    "make, two_cyclic",
    [
        (MESHES["strip_2d"], True),
        (TENSOR_MESHES["strip_4d"], True),
        (lambda: build_mesh(box((0.0, 1.0), (0.0, 1.0)), [4, 129]), True),
        (MESHES["punctured_3d"], False),
    ],
    ids=["strip_2d", "strip_4d", "thin_box", "punctured_3d"],
)
def test_two_colouring_finds_the_two_cyclic_meshes(make, two_cyclic):
    # against the reference operator: with each node coloured by the parity of
    # sum_a floor(i_a / 2), no off-diagonal entry joins one colour on the
    # uncapped meshes, while the one-sided rows beside the cap do.  An axis of
    # 4 nodes has a diagonal operator, reach 0, so any colouring along it will
    # do; the one returned splits the free nodes with no coupling inside a colour
    mesh = make()
    index = np.indices(mesh.shape).reshape(mesh.domain.dims, -1)[:, mesh.free_mask]
    A = _sparse_free_operator(mesh).tocoo()
    off = A.row != A.col

    def joins_one_colour(black):
        return np.any((black[A.row] == black[A.col]) & off)

    assert joins_one_colour((index // 2).sum(axis=0) % 2 == 1) != two_cyclic
    colours = two_colouring(mesh)
    assert two_colouring(mesh) is colours
    if two_cyclic:
        assert np.array_equal(np.sort(np.concatenate(colours)), np.arange(mesh.free_weights.size))
        assert not joins_one_colour(np.isin(np.arange(mesh.free_weights.size), colours[1]))
    else:
        assert colours is None
        pre = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=_problem(mesh, 3.0)[1])
        assert _path(pre) == "jacobi"


@pytest.mark.parametrize("p", [1.5, 3.0], ids=["lagged", "lagged_p3"])
@ROLES
def test_reduced_solve_meets_its_roles_residual(tensor_mesh, p, rtol):
    # a lagged metric with a varying mass coefficient, as minimize_phi builds
    # it: the black unknowns are eliminated exactly, so the residual vanishes
    # there to rounding, and the whole residual meets the role's tolerance
    mesh = tensor_mesh
    b, coeff = _problem(mesh, p)
    mass_coeff = np.random.default_rng(5).uniform(0.0, 2.0, mesh.free_weights.size)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff, mass_coeff=mass_coeff)
    assert _path(pre) == "reduced"
    d = pre.apply(b)
    residual = b - _sparse_free_operator(mesh, coeff=coeff, mass_coeff=mass_coeff) @ d
    assert np.linalg.norm(residual) <= rtol * np.linalg.norm(b)
    assert np.linalg.norm(residual[two_colouring(mesh)[1]]) <= 1e-14 * np.linalg.norm(b)
    assert float(b @ d) > 0.0
    assert np.array_equal(d, Preconditioner(mesh, rtol=rtol, coeff=coeff, mass_coeff=mass_coeff).apply(b))


@pytest.mark.parametrize(
    "potential, match", [(200.0, "conjugate-gradient direction"), (1000.0, "unit vector")], ids=["curvature", "diagonal"]
)
def test_indefinite_reduced_operator_raises(potential, match):
    # the lagged p = 3 metric of the 2D strip has lambda_1 of about 147 and
    # its diagonal is at least 414 times the mass, so a mass coefficient of
    # -200 makes the operator indefinite with a positive diagonal, and CG on
    # the Schur complement meets the negative curvature; -1000 makes diagonal
    # entries nonpositive, which raises at construction
    mesh = MESHES["strip_2d"]()
    b, coeff = _problem(mesh, 3.0)
    mass_coeff = np.full_like(mesh.free_weights, -potential)
    op = _sparse_free_operator(mesh, coeff=coeff, mass_coeff=mass_coeff)
    assert np.linalg.eigvalsh(op.toarray())[0] < 0.0
    assert np.all(op.diagonal() > 0.0) == (match == "conjugate-gradient direction")
    with pytest.raises(IndefiniteEnergyError, match=match):
        pre = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=coeff, mass_coeff=mass_coeff)
        assert _path(pre) == "reduced"
        pre.apply(b)


# capped meshes: the punctured 13^3 box, the punctured 21^3 box of the
# hardy_quadratic preset, a 17^3 box capped about the z axis like the
# hardy_cylindrical preset, and a strip with two z axes capped over both
CAPPED_MESHES = {
    "punctured_3d": MESHES["punctured_3d"],
    "punctured_21": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [21, 21, 21], singular_cap_radius=0.05
    ),
    "cylinder_17": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [17, 17, 17], singular_cap_radius=0.1, singular_axes=(0, 1)
    ),
    "capped_strip_3d": lambda: build_mesh(
        strip([(0.0, 1.0)], 2, 1.5), [9, 13, 13], singular_cap_radius=0.3, singular_axes=(1, 2)
    ),
}


@pytest.fixture(scope="module", params=sorted(CAPPED_MESHES))
def capped_mesh(request):
    return CAPPED_MESHES[request.param]()


def test_cap_difference_is_where_the_operators_differ(capped_mesh):
    # against the box stiffness as a Kronecker sum of line meshes' stiffness,
    # and the free-node stiffness with the box diagonal on the excluded nodes
    mesh = capped_mesh
    lines = [build_mesh(interval(lo, hi), [n]) for (lo, hi), n in zip(mesh.domain.bounds, mesh.shape)]
    terms = []
    for a, line in enumerate(lines):
        mats = [sp.diags(other.weights[1:-1]) for other in lines]
        mats[a] = line.energy_stiffness()
        terms.append(reduce(sp.kron, mats))
    box_stiffness = sum(terms).tocsr()
    free = mesh.free_mask[~mesh.boundary_mask]
    lift = sp.eye(free.size, format="csr")[:, np.flatnonzero(free)]
    capped = lift @ mesh.energy_stiffness() @ lift.T + sp.diags(np.where(free, 0.0, box_stiffness.diagonal()))
    difference = (capped - box_stiffness).tocsr()
    scale = abs(box_stiffness).max()
    difference.data[np.abs(difference.data) <= 1e-12 * scale] = 0.0
    difference.eliminate_zeros()
    cap, delta = cap_difference(mesh)
    assert np.array_equal(cap, np.flatnonzero(np.diff(difference.indptr)))
    assert np.all(np.isin(np.flatnonzero(~free), cap))
    assert np.max(np.abs(delta - difference[cap][:, cap].toarray())) <= 1e-12 * scale
    assert abs(difference[cap][:, cap]).sum() == abs(difference).sum()


@pytest.mark.parametrize("folded", [False, True], ids=["plain", "folded"])
@ROLES
def test_capped_tensor_solve_is_exact(capped_mesh, folded, rtol, monkeypatch):
    # K + M, or K + 0.5 M with a constant mass coefficient folded into a
    # positive sigma: the capacitance-corrected tensor solve inverts it, so
    # apply makes no CG call, and its applies repeat bit for bit
    calls = _counting_cg(monkeypatch)
    mesh = capped_mesh
    kwargs = {"mass_coeff": np.full_like(mesh.free_weights, -0.5)} if folded else {}
    b, _ = _problem(mesh, None)
    pre = Preconditioner(mesh, rtol=rtol, **kwargs)
    assert _path(pre) == "tensor" and pre.exact and mesh.excluded_mask.any()
    assert pre.precondition.sigma == (0.5 if folded else 1.0) and pre.op is None
    exact = spsolve(_sparse_free_operator(mesh, **kwargs).tocsc(), b)
    d = pre.apply(b)
    assert not calls
    assert np.linalg.norm(d - exact) <= 1e-12 * np.linalg.norm(exact)
    assert np.array_equal(d, pre.apply(b))
    assert np.array_equal(d, Preconditioner(mesh, rtol=rtol, **kwargs).apply(b))


def test_capped_tensor_solve_holds_no_box_vector_per_cap_node(capped_mesh):
    # the correction is applied by a second box solve, not from a stored
    # (box nodes, |S|) array
    solve = TensorSolve(capped_mesh, 1.0, None)
    box_nodes, cap_nodes = solve.inv_denominators.size, solve.cap.size
    assert cap_nodes > 1
    held = [v for value in vars(solve).values() for v in (value if isinstance(value, (list, tuple)) else [value])]
    assert max(v.size for v in held if isinstance(v, np.ndarray)) < box_nodes * cap_nodes


@pytest.mark.parametrize("potential, indefinite", [(5.0, False), (20.0, True)], ids=["below", "above"])
def test_capped_tensor_solve_keeps_cg_for_a_negative_sigma(potential, indefinite, monkeypatch):
    # the Newton operator with a constant potential on the 17^3 cylinder cap,
    # whose lambda_1 is 7.31: folding it would make sigma negative, so sigma
    # falls back to the shift and CG solves the operator around the
    # corrected tensor solve, or meets its negative curvature above lambda_1
    calls = _counting_cg(monkeypatch)
    mesh = CAPPED_MESHES["cylinder_17"]()
    b, _ = _problem(mesh, None)
    pre = Preconditioner(mesh, rtol=NEWTON_RTOL, shift=1e-10, mass_coeff=np.full_like(mesh.free_weights, -potential))
    assert pre.precondition.sigma == 1e-10 and not pre.exact
    if indefinite:
        with pytest.raises(IndefiniteEnergyError, match="conjugate-gradient direction"):
            pre.apply(b)
    else:
        d = pre.apply(b)
        assert np.linalg.norm(b - pre.op @ d) <= NEWTON_RTOL * np.linalg.norm(b)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make, want, most_iterations",
    [
        (CAPPED_MESHES["punctured_21"], 7.341522556, 48),
        (CAPPED_MESHES["cylinder_17"], 7.307564879, 33),
    ],
    ids=["punctured_21", "cylinder_17"],
)
def test_lobpcg_on_a_capped_mesh_is_exact_and_cg_free(make, want, most_iterations, monkeypatch):
    # p = 2 LOBPCG preconditioned by the exact tensor solve of K + M meets
    # scipy's eigenvalue of the free-node pencil, with no CG call
    calls = _counting_cg(monkeypatch)
    mesh = make()
    result = rayleigh_min(mesh, 2.0, tol=1e-8)
    assert not calls
    stiffness = mesh.energy_stiffness().tocsc()
    (reference,), _ = eigsh(stiffness, k=1, M=sp.diags(mesh.free_weights).tocsc(), sigma=0.0, which="LM")
    assert abs(reference - want) <= 5e-10
    assert abs(result.value - reference) <= 1e-12 * reference
    assert result.iterations <= most_iterations


def test_metric_paths_import_no_factorization():
    # importing scipy.sparse.linalg alone raises peak RSS by about 8 MB
    code = """
import sys
import numpy as np
import plapsolve.cli
from plapsolve import (
    DiscreteFunction, EnergyParams, ForcingTerm, Potential, build_mesh, dual_norm, interval, minimize_phi,
    rayleigh_min,
)
mesh = build_mesh(interval(0.0, 1.0), [41])
rayleigh_min(mesh, 2.5, tol=1e-6, max_iter=50)
rayleigh_min(mesh, 2.0, tol=1e-6, max_iter=50)
f = ForcingTerm.manufactured(mesh, lambda x: np.sin(np.pi * x[:, 0]))
dual_norm(f, Potential.zero(), EnergyParams(p=2.5))
dual_norm(f, Potential.zero(), EnergyParams(p=2.0))
minimize_phi(DiscreteFunction.zeros(mesh), Potential.zero(), f, EnergyParams(p=2.5, eps=0.3, delta=1e-4), max_iter=50)
print(sorted(m for m in ("scipy.sparse.linalg", "scipy.linalg") if m in sys.modules))
"""
    src = str(Path(plapsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
