"""Preconditioner roles: the inner tolerance each role meets, descent
directions from truncated solves, determinism, the gain of Jacobi scaling on
lagged coefficients, nonpositive-curvature witnesses, and no sparse
factorization on the metric paths."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import plapsolve
from plapsolve._descent import (
    CG_ITERS, METRIC_RTOL, NEWTON_RTOL, Preconditioner, conjugate_gradient, inverse_diagonal, lagged_coefficient,
)
from plapsolve.energy import _grad_square
from plapsolve.grid import build_mesh, punctured_box, strip

MESHES = {
    "punctured_3d": lambda: build_mesh(
        punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.3), [13, 13, 13]
    ),
    "strip_2d": lambda: build_mesh(strip([(0.0, 1.0)], 1, 2.0), [17, 33]),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


LAGGED = pytest.mark.parametrize("p", [None, 1.5, 3.0], ids=["plain", "lagged", "lagged_p3"])


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


@LAGGED
@pytest.mark.parametrize("rtol", [METRIC_RTOL, NEWTON_RTOL], ids=["metric", "newton"])
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
@pytest.mark.parametrize("rtol", [METRIC_RTOL, NEWTON_RTOL], ids=["metric", "newton"])
def test_jacobi_scaling_takes_fewer_products_than_plain_cg(mesh, p, rtol):
    g, coeff = _problem(mesh, p)
    pre = Preconditioner(mesh, rtol=rtol, coeff=coeff)
    b = (mesh.weights * g)[pre.free]
    plain = _plain_cg_products(pre.op, b, CG_ITERS, rtol)
    pre.op = counting = _CountingOperator(pre.op)
    pre.apply(g)
    assert counting.products < plain, (counting.products, plain)


def test_conjugate_gradient_returns_a_negative_curvature_witness():
    A = sp.diags([2.0, 1.0, -4.0]).tocsr()
    b = np.ones(3)
    _, witness = conjugate_gradient(A, b, 10, 1e-12, inverse_diagonal(A))
    assert witness is not None and float(witness @ (A @ witness)) <= 0.0
    x, witness = conjugate_gradient(abs(A), b, 10, 1e-12, inverse_diagonal(abs(A)))
    assert witness is None
    assert np.allclose(abs(A) @ x, b, rtol=1e-12)


def test_zero_diagonal_entry_is_its_own_witness():
    # positive semidefinite but singular: e_2 . A e_2 = 0
    A = sp.csr_matrix(np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]]))
    x, witness = conjugate_gradient(A, np.ones(3), 10, 1e-12, inverse_diagonal(A))
    assert np.array_equal(witness, [0.0, 1.0, 0.0])
    assert not np.any(x)


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
