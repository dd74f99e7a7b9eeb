"""Shared descent machinery: deterministic preconditioned conjugate gradients
that raise :class:`IndefiniteEnergyError` on nonpositive curvature, a compact
second-order preconditioner that inverts small blocks exactly, one-axis
meshes block by block (and raises when Cholesky refuses a block) and the
constant-coefficient operators of multi-axis meshes by tensor fast
diagonalization (and raises when an exact tensor solve has a nonpositive
denominator), and Armijo backtracking."""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import Mesh, interval


# Inner relative residual of a preconditioner solve, by the role its
# direction plays.  A descent metric only has to contract the error, so
# preconditioned inverse iteration and the lagged p != 2 metric tolerate a
# loose solve (Knyazev & Neymeyr, Linear Algebra Appl. 358, 2003).  The p = 2
# solve in ``minimize_phi`` is an exact Newton step and fails at the loose value.
METRIC_RTOL = 1e-4
NEWTON_RTOL = 1e-10
CG_ITERS = 300
# Largest free-node block that is inverted densely once per build: the whole
# operator up to this size, and each diagonal block of a one-axis operator
# above it (at most DENSE_MAX * 8 bytes per free node, 0.32 MB on 399 nodes).
# Memory sets it: at 128 nodes the dense path raises peak RSS by about 1 MB,
# but past that LAPACK's blocked factorizations make OpenBLAS allocate level-3
# buffers (+7 MB for one block of 399 nodes).
DENSE_MAX = 128


class IndefiniteEnergyError(RuntimeError):
    """The energy form failed to be positive on a nonzero discrete function."""


_NONPOSITIVE = "energy form nonpositive on %s; the positivity assumption fails on this mesh"


def jacobi(A: sp.spmatrix | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Jacobi scaling ``r -> r / diag(A)`` for :func:`conjugate_gradient`.

    Raises :class:`IndefiniteEnergyError` on a nonpositive diagonal entry,
    before any iteration: Jacobi scaling would otherwise solve a diagonal
    matrix in one step and never meet its negative curvature.
    """
    diag = A.diagonal()
    if np.any(diag <= 0.0):
        raise IndefiniteEnergyError(_NONPOSITIVE % "a unit vector")
    inv_diag = 1.0 / diag
    return lambda r: inv_diag * r


def block_inverses(A: sp.spmatrix | np.ndarray) -> np.ndarray:
    """Inverses of the diagonal blocks of ``A``, shape ``(count, size, size)``:
    contiguous blocks of at most ``DENSE_MAX`` rows and near-equal size, the
    last padded with an identity.  Checked and inverted by
    :func:`checked_inverses`.
    """
    n = A.shape[0]
    count = -(-n // DENSE_MAX)
    size = -(-n // count)
    coo = sp.coo_matrix(A)
    block = coo.row // size
    inside = block == coo.col // size
    blocks = np.zeros((count, size, size))
    blocks[block[inside], coo.row[inside] % size, coo.col[inside] % size] = coo.data[inside]
    pad = np.arange(n - (count - 1) * size, size)
    blocks[-1, pad, pad] = 1.0
    return checked_inverses(blocks)


def checked_inverses(blocks: np.ndarray) -> np.ndarray:
    """Inverses of a stack of symmetric blocks, checked first with one batched
    ``np.linalg.cholesky``, which raises :class:`IndefiniteEnergyError` when
    it refuses any of them (a principal block that is not positive definite
    shows that the operator it came from is not), and inverted with one
    batched ``np.linalg.inv``."""
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        raise IndefiniteEnergyError(_NONPOSITIVE % "a free-node block that Cholesky refuses") from None
    return np.linalg.inv(blocks)


def apply_blocks(inverses: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Block-Jacobi action of :func:`block_inverses` on ``r`` (Concus, Golub &
    Meurant, SIAM J. Sci. Stat. Comput. 6, 1985)."""
    count, size, _ = inverses.shape
    padded = np.zeros(count * size)
    padded[: r.size] = r
    return (inverses @ padded.reshape(count, size, 1)).ravel()[: r.size]


def conjugate_gradient(
    A: sp.spmatrix | np.ndarray,
    b: np.ndarray,
    rel_tol: float,
    precondition: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Preconditioned CG from a zero start; deterministic for fixed inputs.

    ``precondition`` is a symmetric positive definite approximate inverse of
    ``A``, such as :func:`jacobi` or :func:`block_inverses` of ``A``.  Returns
    the iterate once ``||b - A x|| <= rel_tol ||b||`` (the unscaled residual)
    or after ``CG_ITERS`` iterations; every step has positive curvature, so
    ``b . x = x . A x > 0`` for ``b != 0``.  Raises
    :class:`IndefiniteEnergyError` on a search direction with ``p . A p <= 0``
    (the truncated-CG test of Steihaug, SIAM J. Numer. Anal. 20, 1983), which
    shows that ``A`` is not positive definite.
    """
    x = np.zeros_like(b)
    b2 = float(b @ b)
    if b2 == 0.0:
        return x
    r = b.copy()
    z = precondition(r)
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
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


@lru_cache(maxsize=32)
def axis_pencil(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the pencil ``K v = lam M v`` of one
    axis: ``K`` the free-node :meth:`Mesh.energy_stiffness` of the interval
    ``(lo, hi)`` on ``n`` nodes, so the same stencil, and ``M`` its interior
    trapezoid weights, with ``V^T M V = I`` and ``V^T K V = diag(lam)``.
    With no excluded node a mesh's free-node stiffness is the Kronecker sum
    ``sum_a (M_0 x .. K_a .. x M_(N-1))`` of its axes' pencils.  Solved with
    ``np.linalg.eigh`` on ``M^-1/2 K M^-1/2`` once per axis for every mesh
    that has it, so the arrays are shared and read-only.
    """
    line = Mesh(interval(lo, hi), [n])
    s = 1.0 / np.sqrt(line.weights[1:-1])
    lam, Q = np.linalg.eigh(s[:, None] * line.free_stiffness_dense() * s)
    V = s[:, None] * Q
    lam.flags.writeable = V.flags.writeable = False
    return lam, V


class TensorSolve:
    """Fast-diagonalization inverse of ``K + sigma M`` on the box of interior
    nodes (Lynch, Rice & Thomas, Numer. Math. 6, 1964), from the
    :func:`axis_pencil` of each mesh axis: ``V diag(1 / (sum_a lam_a + sigma))
    V^T`` with ``V`` the Kronecker product of the axis eigenvectors, applied
    as one contiguous ``matmul`` per axis each way.  A residual on the free
    nodes is padded with zeros at the excluded ones and read back there, so
    the action is a principal block of a positive definite inverse.

    ``sigma`` is ``shift``, plus ``mass_coeff`` when that is constant on the
    free nodes.  With no excluded node the box operator is then the free-node
    operator itself, so a nonpositive denominator is an exact certificate and
    raises :class:`IndefiniteEnergyError`; with excluded nodes such a
    ``sigma`` falls back to ``shift``, and CG's curvature test stays the
    witness.
    """

    def __init__(self, mesh: Mesh, shift: float, mass_coeff: np.ndarray | None):
        lams, self.eigvecs = zip(*(axis_pencil(lo, hi, n) for (lo, hi), n in zip(mesh.domain.bounds, mesh.shape)))
        lam = reduce(np.add.outer, lams).ravel()
        lowest = float(lam.min())
        self.sigma = shift
        if mass_coeff is not None and np.all(mass_coeff == mass_coeff[0]):
            if lowest + shift + mass_coeff[0] > 0.0:
                self.sigma = shift + float(mass_coeff[0])
            elif not mesh.excluded_mask.any():
                raise IndefiniteEnergyError(_NONPOSITIVE % "a tensor-product eigenvector")
        self.inv_denominators = 1.0 / (lam + self.sigma)
        self.eigvecs_t = [np.ascontiguousarray(V.T) for V in self.eigvecs]
        box_free = mesh.free_mask[~mesh.boundary_mask]
        self.box_free = None if box_free.all() else box_free

    @staticmethod
    def _along_axes(x: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
        """``x`` (the box in C order) with ``mats[a]^T`` applied along each
        axis ``a``: each product contracts the leading axis and moves it
        last, so after one pass the axes are back in order."""
        for B in mats:
            x = x.reshape(B.shape[0], -1).T @ B
        return x.ravel()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self.box_free is None:
            x = r
        else:
            x = np.zeros(self.box_free.size)
            x[self.box_free] = r
        x = self._along_axes(x, self.eigvecs) * self.inv_denominators
        x = self._along_axes(x, self.eigvecs_t)
        return x if self.box_free is None else x[self.box_free]


class Preconditioner:
    """Approximate inverse of (weighted stiffness + shift * mass) on free nodes.

    Uses the same difference operators as the energy, so at p = 2 the
    preconditioned direction is a Newton step up to the inner tolerance; a
    per-sample ``coeff`` turns it into the lagged-coefficient metric of the
    degenerate problem.  ``op`` is that free-node operator,
    :meth:`Mesh.energy_stiffness` plus the mass diagonal: a dense array (from
    :meth:`Mesh.free_stiffness_dense`) for a block of at most ``DENSE_MAX``
    free nodes, which is inverted once here and applied as one product, an
    exact solve for every role, and CSR above it.  A larger block is applied
    by :func:`conjugate_gradient` at unscaled relative residual ``rtol``
    (``METRIC_RTOL`` or ``NEWTON_RTOL`` by role), preconditioned by one of
    three operators built once here:
    :func:`block_inverses` on a one-axis mesh; :class:`TensorSolve` on a
    multi-axis mesh at ``coeff = None``, which inverts the operator exactly
    when no node is excluded and ``mass_coeff`` is constant on the free
    nodes, so that CG ends after one product; and :func:`jacobi` for the
    lagged metrics otherwise.  Every action is deterministic.  ``mass_coeff``
    is a free-node vector, and :meth:`apply` maps a free-node vector, such as
    a descent's plain-dot first variation, to a free-node vector, its
    direction.  The operator is positive definite unless a negative
    ``mass_coeff`` (the potential in the p = 2 Newton operator) makes the
    energy form nonpositive.  Then :class:`IndefiniteEnergyError` is raised:
    here when ``np.linalg.cholesky`` refuses a dense block, Jacobi scaling
    meets a nonpositive diagonal entry or an exact tensor solve a
    nonpositive denominator, and by CG in ``apply`` when it meets a
    direction of nonpositive curvature.
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
        mass = mesh.free_weights * (shift if mass_coeff is None else shift + mass_coeff)
        self.exact = mass.size <= DENSE_MAX
        if self.exact:
            self.op = mesh.free_stiffness_dense(coeff)
            np.fill_diagonal(self.op, self.op.diagonal() + mass)
            self.inverses = checked_inverses(self.op[None])
        else:
            self.op = mesh.energy_stiffness(coeff) + sp.diags(mass)
            self.inverses = block_inverses(self.op) if mesh.domain.dims == 1 else None
        if self.inverses is not None:
            self.precondition = partial(apply_blocks, self.inverses)
        elif coeff is None:
            self.precondition = TensorSolve(mesh, shift, mass_coeff)
        else:
            self.precondition = jacobi(self.op)
        self.rtol = rtol

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """The solve ``op^-1 rhs`` of a free-node vector, a free-node vector."""
        if self.exact:
            return self.precondition(rhs)
        return conjugate_gradient(self.op, rhs, self.rtol, self.precondition)


def lagged_coefficient(s: np.ndarray, p: float) -> np.ndarray:
    """Clamped upper bound ``max(1, p-1) |grad u|^(p-2)`` of the local flux
    curvature at p != 2, so a unit preconditioned step never overshoots the
    stiffest direction."""
    pos = s[s > 0]
    if pos.size == 0:
        return np.ones_like(s)
    m = float(np.median(pos))
    return max(1.0, p - 1.0) * np.clip(s, 1e-6 * m, 1e6 * m) ** ((p - 2.0) / 2.0)


def mass_curvature(values: np.ndarray, p: float, factor) -> np.ndarray:
    """Clamped curvature magnitude ``factor * (p-1) |u|^(p-2)`` of the p-th
    power mass terms at p != 2 from the free ``values`` of u, a free-node
    ``mass_coeff`` that stiffens the preconditioner diagonal.
    ``factor`` may be per node; indefinite mass terms should contribute their
    magnitude, which overdamps rather than destabilizes."""
    if not np.any(factor):
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
