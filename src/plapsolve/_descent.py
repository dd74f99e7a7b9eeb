"""Shared descent machinery: deterministic Jacobi-preconditioned conjugate
gradients, a compact second-order preconditioner that inverts small blocks
exactly, and Armijo backtracking."""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import Mesh


# Inner relative residual of a preconditioner solve, by the role its
# direction plays.  A descent metric only has to contract the error, so
# preconditioned inverse iteration and the lagged p != 2 metric tolerate a
# loose solve (Knyazev & Neymeyr, Linear Algebra Appl. 358, 2003).  The p = 2
# solve in ``minimize_phi`` is an exact Newton step and fails at the loose value.
METRIC_RTOL = 1e-4
NEWTON_RTOL = 1e-10
CG_ITERS = 300
# Free-node count up to which a positive definite preconditioner block is
# inverted densely once per build.  Memory sets it: at 128 nodes the dense
# path raises peak RSS by about 1 MB, but past that LAPACK's blocked
# factorizations make OpenBLAS allocate level-3 buffers (+7 MB at 399 nodes).
DENSE_MAX = 128


def inverse_diagonal(A: sp.spmatrix) -> np.ndarray:
    """Jacobi scaling for :func:`conjugate_gradient`: ``1 / A_ii`` where the
    diagonal is positive and 0 where it is not, which marks that entry's unit
    vector as a witness."""
    diag = A.diagonal()
    inv = np.zeros_like(diag)
    np.divide(1.0, diag, out=inv, where=diag > 0.0)
    return inv


def conjugate_gradient(
    A: sp.spmatrix,
    b: np.ndarray,
    maxiter: int,
    rel_tol: float,
    inv_diag: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Jacobi-preconditioned CG from a zero start; deterministic for fixed
    inputs.

    ``inv_diag`` is :func:`inverse_diagonal` of ``A``.  Stops once
    ``||b - A x|| <= rel_tol ||b||`` (the unscaled residual) or after
    ``maxiter`` iterations.  Returns the iterate and ``None``, or a witness
    ``p`` with ``p . A p <= 0`` that ``A`` is not positive definite: the unit
    vector of the first nonpositive diagonal entry, at once with a zero
    iterate, or else a search direction with ``p . A p <= 0`` and the iterate
    before it.
    """
    x = np.zeros_like(b)
    bad = np.flatnonzero(inv_diag <= 0.0)
    if bad.size:
        witness = np.zeros_like(b)
        witness[bad[0]] = 1.0
        return x, witness
    b2 = float(b @ b)
    if b2 == 0.0:
        return x, None
    r = b.copy()
    z = inv_diag * r
    p = z
    rz = float(r @ z)
    for _ in range(maxiter):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            return x, p
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if float(r @ r) <= rel_tol**2 * b2:
            break
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, None


class Preconditioner:
    """Approximate inverse of (weighted stiffness + shift * mass) on free nodes.

    Uses the same difference operators as the energy, so at p = 2 the
    preconditioned direction is a Newton step up to the inner tolerance; a
    per-node ``coeff`` turns it into the lagged-coefficient metric of the
    degenerate problem.  A block of at most ``DENSE_MAX`` free nodes that
    ``np.linalg.cholesky`` accepts is inverted densely once here and applied
    as one product, an exact solve for every role.  Any other block is applied
    through at most ``CG_ITERS`` Jacobi-preconditioned conjugate-gradient
    iterations, stopped at unscaled relative residual ``rtol``
    (``METRIC_RTOL`` or ``NEWTON_RTOL`` by role), with the inverse diagonal
    computed once here.  Either action is deterministic.  Maps a nodal
    gradient (the quadrature-dual representation of a first variation) to a
    descent direction.
    """

    def __init__(
        self,
        mesh: Mesh,
        *,
        rtol: float,
        shift: float = 1.0,
        coeff: np.ndarray | None = None,
        mass_coeff: np.ndarray | None = None,
    ):
        self.mesh = mesh
        free = mesh.free_mask
        A = mesh.energy_stiffness(coeff)
        diag = np.full(mesh.n_nodes, shift) if mass_coeff is None else shift + mass_coeff
        op = (A + sp.diags(mesh.weights * diag)).tocsr()
        self.op = op[free][:, free]
        self.inverse = None
        if self.op.shape[0] <= DENSE_MAX:
            dense = self.op.toarray()
            try:
                np.linalg.cholesky(dense)
            except np.linalg.LinAlgError:
                pass
            else:
                self.inverse = np.linalg.inv(dense)
        self.inv_diag = inverse_diagonal(self.op)
        self.free = free
        self.rtol = rtol

    def apply(self, nodal_gradient: np.ndarray) -> np.ndarray:
        rhs = (self.mesh.weights * nodal_gradient)[self.free]
        d = np.zeros(self.mesh.n_nodes)
        if self.inverse is not None:
            d[self.free] = self.inverse @ rhs
        else:
            d[self.free], _ = conjugate_gradient(self.op, rhs, CG_ITERS, self.rtol, self.inv_diag)
        return d


def lagged_coefficient(s: np.ndarray, p: float) -> np.ndarray:
    """Clamped upper bound ``max(1, p-1) |grad u|^(p-2)`` of the local flux
    curvature, so a unit preconditioned step never overshoots the stiffest
    direction."""
    pos = s[s > 0]
    if pos.size == 0 or p == 2.0:
        return np.ones_like(s)
    m = float(np.median(pos))
    return max(1.0, p - 1.0) * np.clip(s, 1e-6 * m, 1e6 * m) ** ((p - 2.0) / 2.0)


def mass_curvature(values: np.ndarray, p: float, factor) -> np.ndarray:
    """Clamped curvature magnitude ``factor * (p-1) |u|^(p-2)`` of the p-th
    power mass terms, used to stiffen the preconditioner diagonal.  ``factor``
    may be per node; indefinite mass terms should contribute their magnitude,
    which overdamps rather than destabilizes."""
    if p == 2.0 or not np.any(factor):
        return np.zeros_like(values)
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return np.zeros_like(values)
    u_floor = 1e-6 * scale
    return factor * (p - 1.0) * np.clip(np.abs(values), u_floor, None) ** (p - 2.0)


def armijo_backtrack(
    objective: Callable[[np.ndarray], float],
    x: np.ndarray,
    direction: np.ndarray,
    f0: float,
    slope: float,
    init_step: float = 1.0,
    noise: float = 0.0,
):
    """Backtracking line search for sufficient decrease.

    Halves the step until ``f_new <= f0 + 1e-4 * step * slope + noise``.
    Returns (step, x_new, f_new) on success or (None, None, None) when no
    acceptable step of at least 1e-14 exists.  ``slope`` must be the
    directional derivative at ``x`` and should be negative.  ``noise`` relaxes
    the acceptance by an absolute amount, which keeps well-scaled steps
    acceptable once objective differences fall below the floating-point
    resolution of the objective itself.
    """
    step = init_step
    while step >= 1e-14:
        x_new = x + step * direction
        f_new = objective(x_new)
        if np.isfinite(f_new) and f_new <= f0 + 1e-4 * step * slope + noise:
            return step, x_new, f_new
        step *= 0.5
    return None, None, None
