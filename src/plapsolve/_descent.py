"""Shared descent machinery: deterministic Jacobi-preconditioned conjugate
gradients that raise :class:`IndefiniteEnergyError` on nonpositive curvature,
a compact second-order preconditioner that inverts small blocks exactly (and
raises when Cholesky refuses one), and Armijo backtracking."""

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


class IndefiniteEnergyError(RuntimeError):
    """The energy form failed to be positive on a nonzero discrete function."""


_NONPOSITIVE = "energy form nonpositive on %s; the positivity assumption fails on this mesh"


def inverse_diagonal(A: sp.spmatrix) -> np.ndarray:
    """Jacobi scaling for :func:`conjugate_gradient`: ``1 / A_ii`` where the
    diagonal is positive and 0 where it is not, which the solve refuses."""
    diag = A.diagonal()
    inv = np.zeros_like(diag)
    np.divide(1.0, diag, out=inv, where=diag > 0.0)
    return inv


def conjugate_gradient(
    A: sp.spmatrix,
    b: np.ndarray,
    rel_tol: float,
    inv_diag: np.ndarray,
) -> np.ndarray:
    """Jacobi-preconditioned CG from a zero start; deterministic for fixed
    inputs.

    ``inv_diag`` is :func:`inverse_diagonal` of ``A``.  Returns the iterate
    once ``||b - A x|| <= rel_tol ||b||`` (the unscaled residual) or after
    ``CG_ITERS`` iterations; every step has positive curvature, so
    ``b . x = x . A x > 0`` for ``b != 0``.  Raises
    :class:`IndefiniteEnergyError` on a nonpositive diagonal entry, before
    any iteration, or on a search direction with ``p . A p <= 0`` (the
    truncated-CG test of Steihaug, SIAM J. Numer. Anal. 20, 1983): either
    shows that ``A`` is not positive definite.
    """
    if np.any(inv_diag <= 0.0):
        raise IndefiniteEnergyError(_NONPOSITIVE % "a unit vector")
    x = np.zeros_like(b)
    b2 = float(b @ b)
    if b2 == 0.0:
        return x
    r = b.copy()
    z = inv_diag * r
    p = z
    rz = float(r @ z)
    for _ in range(CG_ITERS):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise IndefiniteEnergyError(_NONPOSITIVE % "a conjugate-gradient direction")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if float(r @ r) <= rel_tol**2 * b2:
            break
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


class Preconditioner:
    """Approximate inverse of (weighted stiffness + shift * mass) on free nodes.

    Uses the same difference operators as the energy, so at p = 2 the
    preconditioned direction is a Newton step up to the inner tolerance; a
    per-node ``coeff`` turns it into the lagged-coefficient metric of the
    degenerate problem.  A block of at most ``DENSE_MAX`` free nodes is
    inverted densely once here and applied as one product, an exact solve
    for every role.  A larger block is applied by :func:`conjugate_gradient`
    at unscaled relative residual ``rtol`` (``METRIC_RTOL`` or ``NEWTON_RTOL``
    by role), with the inverse diagonal computed once here.  Either action is
    deterministic.  Maps a nodal gradient (the quadrature-dual representation
    of a first variation) to a descent direction.  The operator is positive
    definite unless a negative ``mass_coeff`` (the potential in the p = 2
    Newton operator) makes the energy form nonpositive.  Then
    :class:`IndefiniteEnergyError` is raised: here when ``np.linalg.cholesky``
    refuses a small block, which shows exactly that, and by CG in ``apply``
    when a large block shows it a direction of nonpositive curvature.
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
                raise IndefiniteEnergyError(_NONPOSITIVE % "a free-node block that Cholesky refuses") from None
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
            d[self.free] = conjugate_gradient(self.op, rhs, self.rtol, self.inv_diag)
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
):
    """Backtracking line search for sufficient decrease.

    Halves the step until ``f_new <= f0 + 1e-4 * step * slope + noise``.
    Returns (step, x_new, f_new) on success or (None, None, None) when no
    acceptable step of at least 1e-14 exists.  ``slope`` must be the
    directional derivative at ``x`` and should be negative.  ``noise``, the
    floating-point resolution ``32 eps (1 + |f0|)`` of the objective, keeps
    well-scaled steps acceptable once objective differences fall below it.
    """
    noise = 32.0 * np.finfo(float).eps * (1.0 + abs(f0))
    step = init_step
    while step >= 1e-14:
        x_new = x + step * direction
        f_new = objective(x_new)
        if np.isfinite(f_new) and f_new <= f0 + 1e-4 * step * slope + noise:
            return step, x_new, f_new
        step *= 0.5
    return None, None, None
