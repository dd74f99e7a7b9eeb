"""Shared descent machinery: deterministic conjugate gradients, a compact
second-order preconditioner, and Armijo backtracking."""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import Mesh


def conjugate_gradient(
    A: sp.spmatrix,
    b: np.ndarray,
    maxiter: int = 200,
    rel_tol: float = 1e-8,
) -> np.ndarray:
    """Plain CG from a zero start; deterministic for fixed inputs."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    b2 = float(b @ b)
    if b2 == 0.0:
        return x
    for _ in range(maxiter):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if rs_new <= rel_tol**2 * b2:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


class Preconditioner:
    """Approximate inverse of (weighted stiffness + shift * mass) on free nodes.

    Uses the same difference operators as the energy, so at p = 2 the
    preconditioned direction is a Newton step up to the inner tolerance; a
    per-node ``coeff`` turns it into the lagged-coefficient metric of the
    degenerate problem.  Applied through a fixed budget of conjugate-gradient
    iterations, so the action is deterministic.  Maps a nodal gradient (the
    quadrature-dual representation of a first variation) to a descent
    direction.
    """

    def __init__(
        self,
        mesh: Mesh,
        shift: float = 1.0,
        cg_iters: int = 300,
        cg_tol: float = 1e-10,
        coeff: np.ndarray | None = None,
        mass_coeff: np.ndarray | None = None,
    ):
        self.mesh = mesh
        free = mesh.free_mask
        A = mesh.energy_stiffness(coeff)
        diag = np.full(mesh.n_nodes, shift) if mass_coeff is None else shift + mass_coeff
        op = (A + sp.diags(mesh.weights * diag)).tocsr()
        self.op = op[free][:, free]
        self.free = free
        self.cg_iters = cg_iters
        self.cg_tol = cg_tol

    def apply(self, nodal_gradient: np.ndarray) -> np.ndarray:
        rhs = (self.mesh.weights * nodal_gradient)[self.free]
        d = np.zeros(self.mesh.n_nodes)
        d[self.free] = conjugate_gradient(self.op, rhs, self.cg_iters, self.cg_tol)
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
    shrink: float = 0.5,
    c1: float = 1e-4,
    min_step: float = 1e-14,
    noise: float = 0.0,
):
    """Backtracking line search for sufficient decrease.

    Returns (step, x_new, f_new) on success or (None, None, None) when no
    acceptable step at least ``min_step`` exists.  ``slope`` must be the
    directional derivative at ``x`` and should be negative.  ``noise`` relaxes
    the acceptance by an absolute amount, which keeps well-scaled steps
    acceptable once objective differences fall below the floating-point
    resolution of the objective itself.
    """
    step = init_step
    while step >= min_step:
        x_new = x + step * direction
        f_new = objective(x_new)
        if np.isfinite(f_new) and f_new <= f0 + c1 * step * slope + noise:
            return step, x_new, f_new
        step *= shrink
    return None, None, None
