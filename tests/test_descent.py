"""Preconditioner roles: the inner tolerance each role meets, descent
directions from truncated and exact solves for every role, determinism, the
gain of Jacobi scaling on lagged coefficients, the error conjugate gradients
raise on nonpositive curvature, exact dense solves on small positive definite
blocks assembled as one dense product, block-Jacobi solves on one-axis
meshes, the error an indefinite dense block raises at construction, tensor
fast-diagonalization solves of the constant-coefficient operators on
multi-axis meshes and the indefiniteness they certify, and no sparse
factorization on the metric paths."""

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import plapsolve
import plapsolve.energy
import plapsolve.grid
from plapsolve import IndefiniteEnergyError, Potential, rayleigh_min
from plapsolve._descent import (
    CG_ITERS, DENSE_MAX, METRIC_RTOL, NEWTON_RTOL, Preconditioner, TensorSolve, armijo_backtrack, axis_pencil,
    conjugate_gradient, jacobi, lagged_coefficient,
)
from plapsolve.energy import _grad_square
from plapsolve.grid import box, build_mesh, interval, strip
from plapsolve.potentials import evaluate_potential
from oracles import reference_grad_op

MESHES = {
    "punctured_3d": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [13, 13, 13], singular_cap_radius=0.3
    ),
    "strip_2d": lambda: build_mesh(strip([(0.0, 1.0)], 1, 2.0), [17, 33]),
}


# blocks of at most DENSE_MAX free nodes, which are inverted densely
SMALL_MESHES = {
    "interval_33": lambda: build_mesh(interval(0.0, 1.0), [33]),
    "box_11": lambda: build_mesh(box((0.0, 1.0), (0.0, 1.0)), [11, 11]),
    "punctured_7": lambda: build_mesh(
        box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [7, 7, 7], singular_cap_radius=0.3
    ),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


@pytest.fixture(scope="module", params=sorted(SMALL_MESHES))
def small_mesh(request):
    return SMALL_MESHES[request.param]()


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


def test_cg_meshes_are_above_the_dense_cap(mesh):
    # the CG tests below would pass vacuously on a dense inverse
    pre = Preconditioner(mesh, rtol=METRIC_RTOL)
    assert pre.op.shape[0] > DENSE_MAX
    assert pre.inverses is None


@LAGGED
@ROLES
def test_apply_meets_its_roles_residual(mesh, p, rtol):
    b, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    d = pre.apply(b)
    assert d.shape == b.shape
    assert np.linalg.norm(b - pre.op @ d) <= rtol * np.linalg.norm(b)


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
    b, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    plain = _plain_cg_products(pre.op, b, CG_ITERS, rtol)
    pre.op = counting = _CountingOperator(pre.op)
    pre.apply(b)
    assert counting.products < plain, (counting.products, plain)


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
def test_small_blocks_are_solved_exactly(small_mesh, p, rtol, monkeypatch):
    calls = _counting_cg(monkeypatch)
    b, coeff = _problem(small_mesh, p)
    pre = Preconditioner(small_mesh, rtol=rtol, coeff=coeff)
    assert pre.op.shape[0] <= DENSE_MAX
    d = pre.apply(b)
    exact = np.linalg.solve(pre.op, b)
    assert np.linalg.norm(d - exact) <= 1e-12 * np.linalg.norm(exact)
    assert np.array_equal(d, pre.apply(b))
    assert np.array_equal(d, Preconditioner(small_mesh, rtol=rtol, coeff=coeff).apply(b))
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


@pytest.mark.parametrize(
    "p, newton", [(None, False), (1.5, False), (3.0, False), (None, True)],
    ids=["plain", "lagged", "lagged_p3", "newton"],
)
def test_exact_block_is_assembled_dense(small_mesh, p, newton, monkeypatch):
    # the exact path builds its block as one product of the cached dense
    # free-column gradient, never through the sparse stiffness; it agrees
    # with the sparse assembly to rounding
    _, coeff = _problem(small_mesh, p)
    kwargs = {"coeff": coeff}
    if newton:
        # the p = 2 Newton operator with a constant potential below lambda_1
        kwargs.update(shift=1e-10, mass_coeff=np.full_like(small_mesh.free_weights, -3.0))

    def no_stiffness(*args):
        raise AssertionError("an exact build assembled the sparse stiffness")

    with monkeypatch.context() as patch:
        patch.setattr(plapsolve.grid.Mesh, "energy_stiffness", no_stiffness)
        pre = Preconditioner(small_mesh, rtol=NEWTON_RTOL if newton else METRIC_RTOL, **kwargs)
    assert pre.exact and _path(pre) == "dense"
    assert isinstance(pre.op, np.ndarray)
    want = _sparse_free_operator(small_mesh, **kwargs).toarray()
    assert np.max(np.abs(pre.op - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "make", [MESHES["punctured_3d"], MESHES["strip_2d"], lambda: build_mesh(interval(0.0, 1.0), [401])],
    ids=["punctured_3d", "strip_2d", "interval_401"],
)
@pytest.mark.parametrize("role", ["plain", "lagged", "newton"])
def test_sparse_op_is_the_whole_grid_operator_sliced(make, role):
    # assembled on the free nodes, the CSR operator is the whole-grid one's
    # free block array for array, so every CG product is unchanged
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
    assert isinstance(pre.op, sp.csr_matrix) and pre.op.shape[0] > DENSE_MAX
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(pre.op, attr), getattr(want, attr)), attr


def _refused_at_construction(mesh, mass_coeff, rtol, monkeypatch, block):
    """The free-node operator with ``mass_coeff``, after checking that its
    leading ``block`` is indefinite while its diagonal stays positive, and
    that the preconditioner raises the Cholesky refusal with no CG call."""
    calls = _counting_cg(monkeypatch)
    op = _sparse_free_operator(mesh, mass_coeff=mass_coeff).toarray()
    assert np.linalg.eigvalsh(op[:block, :block])[0] < 0.0
    assert np.all(np.diagonal(op) > 0.0)
    with pytest.raises(IndefiniteEnergyError, match="Cholesky refuses"):
        Preconditioner(mesh, rtol=rtol, mass_coeff=mass_coeff)
    assert not calls
    return op


@ROLES
def test_indefinite_small_block_raises_at_construction(rtol, monkeypatch):
    # lambda_1 of the interval pencil is about pi^2, so a mass shift of
    # 1 - 50 makes the block indefinite while its diagonal stays positive;
    # Cholesky refuses it, which certifies the indefiniteness before any apply
    mesh = SMALL_MESHES["interval_33"]()
    op = _refused_at_construction(mesh, np.full_like(mesh.free_weights, -50.0), rtol, monkeypatch, DENSE_MAX)
    assert op.shape[0] <= DENSE_MAX


@ROLES
def test_indefinite_interval_block_raises_at_construction(rtol, monkeypatch):
    # each 100-node block of the 401-node interval has its first eigenvalue
    # near (4 pi)^2 = 158, so a mass shift of 1 - 1000 makes the blocks
    # indefinite; Cholesky refuses them before any apply
    mesh = build_mesh(interval(0.0, 1.0), [401])
    op = _refused_at_construction(mesh, np.full_like(mesh.free_weights, -1000.0), rtol, monkeypatch, 100)
    assert op.shape[0] > DENSE_MAX


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


def _role_preconditioners(mesh):
    """One preconditioner per role the library builds: the lagged p = 3
    metric of ``minimize_phi`` at ``METRIC_RTOL``, the p = 2 Newton operator
    with a constant potential at 60 % of the first eigenvalue at
    ``NEWTON_RTOL`` (eps = 0, so the potential is unshielded), and the
    default ``K + M`` of the quotient descents and LOBPCG."""
    _, coeff = _problem(mesh, 3.0)
    lam1 = rayleigh_min(mesh, 2.0, tol=1e-10).value
    v_vals = evaluate_potential(Potential.constant(0.6 * lam1), mesh)[mesh.free_mask]
    return {
        "metric_p3": Preconditioner(mesh, rtol=METRIC_RTOL, shift=1e-10, coeff=coeff),
        "newton_p2": Preconditioner(mesh, rtol=NEWTON_RTOL, shift=1e-10, mass_coeff=-v_vals),
        "default": Preconditioner(mesh, rtol=METRIC_RTOL),
    }


def _path(pre):
    if pre.inverses is None:
        return "tensor" if isinstance(pre.precondition, TensorSolve) else "jacobi"
    return "dense" if len(pre.inverses) == 1 else "block"


@pytest.mark.parametrize(
    "make, paths",
    [
        (SMALL_MESHES["interval_33"], {"metric_p3": "dense", "newton_p2": "dense", "default": "dense"}),
        (lambda: build_mesh(interval(0.0, 1.0), [401]), {"metric_p3": "block", "newton_p2": "block", "default": "block"}),
        (
            lambda: build_mesh(box((0.0, 1.0), (0.0, 1.0)), [17, 17]),
            {"metric_p3": "jacobi", "newton_p2": "tensor", "default": "tensor"},
        ),
    ],
    ids=["dense", "block", "multi_axis"],
)
def test_every_role_maps_a_gradient_to_a_descent_direction(make, paths):
    # minimize_phi and the quotient descent step along -apply(b), b a
    # plain-dot first variation, without an uphill fallback, so b . apply(b) > 0 must hold
    # on every path and every role
    mesh = make()
    rng = np.random.default_rng(11)
    for role, pre in _role_preconditioners(mesh).items():
        assert _path(pre) == paths[role], role
        for _ in range(5):
            b = _rhs(mesh, rng.standard_normal(mesh.n_nodes))
            assert float(b @ pre.apply(b)) > 0.0, role


def test_block_jacobi_meets_every_roles_residual_in_few_products():
    # 399 free nodes make 4 blocks.  Each of the 3 interfaces cuts two
    # couplings of each sublattice of the centered stencil, so the
    # block-preconditioned operator is the identity plus a rank-12 term: CG
    # ends after 13 products in exact arithmetic, 14 with rounding, where
    # Jacobi scaling takes 200-300
    mesh = build_mesh(interval(0.0, 1.0), [401])
    rng = np.random.default_rng(11)
    for role, pre in _role_preconditioners(mesh).items():
        assert _path(pre) == "block", role
        bound = 4 * (len(pre.inverses) - 1) + 2
        pre.op = counting = _CountingOperator(pre.op)
        for _ in range(3):
            b = _rhs(mesh, rng.standard_normal(mesh.n_nodes))
            counting.products = 0
            d = pre.apply(b)
            assert np.linalg.norm(b - counting.A @ d) <= pre.rtol * np.linalg.norm(b), role
            assert counting.products <= bound, (role, counting.products)


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
def test_tensor_solve_is_exact_without_excluded_nodes(tensor_mesh, newton, rtol):
    # K + M, or the p = 2 Newton operator with a constant potential at 60 %
    # of lambda_1 folded into sigma: the tensor solve inverts it, so CG ends
    # after one product at either tolerance
    mesh = tensor_mesh
    kwargs = {}
    if newton:
        kwargs = {"shift": 1e-10, "mass_coeff": np.full_like(mesh.free_weights, -0.6 * _lambda_1(mesh))}
    b, _ = _problem(mesh, None)
    pre = Preconditioner(mesh, rtol=rtol, **kwargs)
    assert _path(pre) == "tensor"
    exact = spsolve(pre.op.tocsc(), b)
    assert np.linalg.norm(pre.precondition(b) - exact) <= 1e-12 * np.linalg.norm(exact)
    pre.op = counting = _CountingOperator(pre.op)
    d = pre.apply(b)
    assert counting.products == 1
    assert np.linalg.norm(d - exact) <= 1e-12 * np.linalg.norm(exact)
    assert np.array_equal(d, pre.apply(b))
    assert np.array_equal(d, Preconditioner(mesh, rtol=rtol, **kwargs).apply(b))


@ROLES
def test_tensor_solve_preconditions_a_punctured_mesh(rtol):
    # excluded nodes make the box inverse an approximation: CG still meets
    # the role's residual, in fewer products than Jacobi scaling takes (10
    # against 16 at METRIC_RTOL, 21 against 37 at NEWTON_RTOL)
    mesh = MESHES["punctured_3d"]()
    b, _ = _problem(mesh, None)
    pre = Preconditioner(mesh, rtol=rtol)
    assert _path(pre) == "tensor" and mesh.excluded_mask.any()
    jacobi_products = _CountingOperator(pre.op)
    conjugate_gradient(jacobi_products, b, rtol, jacobi(pre.op))
    pre.op = counting = _CountingOperator(pre.op)
    d = pre.apply(b)
    assert np.linalg.norm(b - counting.A @ d) <= rtol * np.linalg.norm(b)
    assert counting.products <= (10 if rtol == METRIC_RTOL else 21)
    assert counting.products < jacobi_products.products


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
    # solved in one product
    calls = _counting_cg(monkeypatch)
    mesh = MESHES["strip_2d"]()
    lam1 = _lambda_1(mesh)
    above = np.full_like(mesh.free_weights, -1.001 * lam1)
    assert np.all(_sparse_free_operator(mesh, shift=1e-10, mass_coeff=above).diagonal() > 0.0)
    with pytest.raises(IndefiniteEnergyError, match="tensor-product eigenvector"):
        Preconditioner(mesh, rtol=rtol, shift=1e-10, mass_coeff=above)
    assert not calls
    pre = Preconditioner(mesh, rtol=rtol, shift=1e-10, mass_coeff=np.full_like(mesh.free_weights, -0.999 * lam1))
    pre.op = counting = _CountingOperator(pre.op)
    pre.apply(_problem(mesh, None)[0])
    assert counting.products == 1


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
