"""Preconditioner roles: the inner tolerance each role meets, descent
directions from truncated and exact solves for every role, determinism, the
gain of Jacobi scaling on lagged coefficients, the error conjugate gradients
raise on nonpositive curvature, exact dense solves on small positive definite
blocks and the error an indefinite small block raises at construction, and no
sparse factorization on the metric paths."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import plapsolve
import plapsolve.energy
from plapsolve import IndefiniteEnergyError, Potential, rayleigh_min
from plapsolve._descent import (
    CG_ITERS, DENSE_MAX, METRIC_RTOL, NEWTON_RTOL, Preconditioner, conjugate_gradient, inverse_diagonal,
    lagged_coefficient,
)
from plapsolve.energy import _grad_square
from plapsolve.grid import box, build_mesh, interval, punctured_box, strip
from plapsolve.potentials import evaluate_potential

MESHES = {
    "punctured_3d": lambda: build_mesh(
        punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [13, 13, 13]
    ),
    "strip_2d": lambda: build_mesh(strip([(0.0, 1.0)], 1, 2.0), [17, 33]),
}


# blocks of at most DENSE_MAX free nodes, which are inverted densely
SMALL_MESHES = {
    "interval_33": lambda: build_mesh(interval(0.0, 1.0), [33]),
    "box_11": lambda: build_mesh(box((0.0, 1.0), (0.0, 1.0)), [11, 11]),
    "punctured_7": lambda: build_mesh(
        punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [7, 7, 7]
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
    """A nodal gradient and, unless ``p`` is None, the lagged coefficient at
    ``p`` of a rough field, whose contrast (about 1e3 at p = 1.5, 1e6 at
    p = 3) makes the inner solve harder."""
    rng = np.random.default_rng(4)
    u = np.where(mesh.free_mask, rng.standard_normal(mesh.n_nodes), 0.0)
    g = np.where(mesh.free_mask, rng.standard_normal(mesh.n_nodes), 0.0)
    coeff = None if p is None else lagged_coefficient(_grad_square(mesh, u)[1], p)
    return g, coeff


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
    assert pre.inverse is None


@LAGGED
@ROLES
def test_apply_meets_its_roles_residual(mesh, p, rtol):
    g, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    d = pre.apply(g)
    b = (mesh.weights * g)[pre.free]
    assert np.linalg.norm(b - pre.op @ d[pre.free]) <= rtol * np.linalg.norm(b)
    assert not np.any(d[~pre.free])


@LAGGED
def test_truncated_solve_is_a_descent_direction(mesh, p):
    g, coeff = _problem(mesh, p)
    d = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=coeff).apply(g)
    assert float((mesh.weights * g) @ d) > 0.0


@LAGGED
def test_applies_are_deterministic(mesh, p):
    g, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=coeff)
    first = pre.apply(g)
    assert np.array_equal(first, pre.apply(g))
    assert np.array_equal(first, Preconditioner(mesh, rtol=METRIC_RTOL, coeff=coeff).apply(g))


@pytest.mark.parametrize("p", [1.5, 3.0], ids=["lagged", "lagged_p3"])
@ROLES
def test_jacobi_scaling_takes_fewer_products_than_plain_cg(mesh, p, rtol):
    g, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    b = (mesh.weights * g)[pre.free]
    plain = _plain_cg_products(pre.op, b, CG_ITERS, rtol)
    pre.op = counting = _CountingOperator(pre.op)
    pre.apply(g)
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
    g, coeff = _problem(small_mesh, p)
    pre = Preconditioner(small_mesh, rtol=rtol, coeff=coeff)
    assert pre.op.shape[0] <= DENSE_MAX
    d = pre.apply(g)
    exact = np.linalg.solve(pre.op.toarray(), (small_mesh.weights * g)[pre.free])
    assert np.linalg.norm(d[pre.free] - exact) <= 1e-12 * np.linalg.norm(exact)
    assert not np.any(d[~pre.free])
    assert np.array_equal(d, pre.apply(g))
    assert np.array_equal(d, Preconditioner(small_mesh, rtol=rtol, coeff=coeff).apply(g))
    assert not calls


@ROLES
def test_indefinite_small_block_raises_at_construction(rtol, monkeypatch):
    # lambda_1 of the interval pencil is about pi^2, so a mass shift of
    # 1 - 50 makes the block indefinite while its diagonal stays positive;
    # Cholesky refuses it, which certifies the indefiniteness before any apply
    calls = _counting_cg(monkeypatch)
    mesh = SMALL_MESHES["interval_33"]()
    mass_coeff = np.full(mesh.n_nodes, -50.0)
    free = mesh.free_mask
    op = (mesh.energy_stiffness() + sp.diags(mesh.weights * (1.0 + mass_coeff))).toarray()[free][:, free]
    assert op.shape[0] <= DENSE_MAX
    assert np.linalg.eigvalsh(op)[0] < 0.0
    assert np.all(np.diagonal(op) > 0.0)
    with pytest.raises(IndefiniteEnergyError, match="Cholesky refuses"):
        Preconditioner(mesh, rtol=rtol, mass_coeff=mass_coeff)
    assert not calls


def test_conjugate_gradient_returns_a_negative_curvature_witness():
    # an indefinite matrix raises (here on its negative diagonal entry); its
    # positive definite twin is solved
    A = sp.diags([2.0, 1.0, -4.0]).tocsr()
    b = np.ones(3)
    with pytest.raises(IndefiniteEnergyError, match="unit vector"):
        conjugate_gradient(A, b, 1e-12, inverse_diagonal(A))
    x = conjugate_gradient(abs(A), b, 1e-12, inverse_diagonal(abs(A)))
    assert np.allclose(abs(A) @ x, b, rtol=1e-12)


def test_zero_diagonal_entry_is_its_own_witness():
    # positive semidefinite but singular: e_2 . A e_2 = 0 raises before any
    # iteration, where Jacobi scaling would never meet the zero curvature
    A = sp.csr_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]]))
    with pytest.raises(IndefiniteEnergyError, match="unit vector"):
        conjugate_gradient(A, np.ones(3), 1e-12, inverse_diagonal(A))


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
    v_vals = evaluate_potential(Potential.constant(0.6 * lam1), mesh)
    return {
        "metric_p3": Preconditioner(mesh, rtol=METRIC_RTOL, shift=1e-10, coeff=coeff),
        "newton_p2": Preconditioner(mesh, rtol=NEWTON_RTOL, shift=1e-10, mass_coeff=-v_vals),
        "default": Preconditioner(mesh, rtol=METRIC_RTOL),
    }


@pytest.mark.parametrize(
    "make, dense",
    [(SMALL_MESHES["interval_33"], True), (lambda: build_mesh(interval(0.0, 1.0), [401]), False)],
    ids=["dense", "cg"],
)
def test_every_role_maps_a_gradient_to_a_descent_direction(make, dense):
    # minimize_phi and the quotient descent take -apply(g) without an uphill
    # fallback, so (w g) . apply(g) > 0 must hold on both paths and every role
    mesh = make()
    rng = np.random.default_rng(11)
    for role, pre in _role_preconditioners(mesh).items():
        assert (pre.inverse is not None) == dense, role
        for _ in range(5):
            g = np.where(mesh.free_mask, rng.standard_normal(mesh.n_nodes), 0.0)
            assert float((mesh.weights * g) @ pre.apply(g)) > 0.0, role


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
