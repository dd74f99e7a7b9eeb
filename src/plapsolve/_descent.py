"""Shared descent machinery: deterministic preconditioned conjugate gradients
that raise :class:`IndefiniteEnergyError` on nonpositive curvature, a compact
second-order preconditioner that solves every one-axis operator exactly by an
LDL^T factorization of its band (and raises on a nonpositive pivot) and the
constant-coefficient operators of multi-axis meshes by tensor fast
diagonalization, made exact on capped meshes by a capacitance correction on
the few nodes where the cap changes the operator (and raises when the tensor
solve of an uncapped mesh has a nonpositive denominator), the lagged metrics
of two-cyclic multi-axis meshes by conjugate gradients on the Schur complement
of a two-colour reduction, and Armijo backtracking."""

from __future__ import annotations

import weakref
from functools import lru_cache, reduce
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
# Values per block of box vectors that a tensor solve's build holds at once
# (0.5 MB), so that its |S| box solves never hold |S| box vectors.
BLOCK_VALUES = 2**16
# Relative size below which an entry of a capped mesh's stiffness counts as
# equal to its box's: the two are assembled in different orders, while a cap
# changes the entries it touches by a fraction of order one.
ROUNDING = 1e-12


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


def conjugate_gradient(
    A: sp.spmatrix | np.ndarray,
    b: np.ndarray,
    rel_tol: float,
    precondition: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Preconditioned CG from a zero start; deterministic for fixed inputs.

    ``precondition`` is a symmetric positive definite approximate inverse of
    ``A``, such as :func:`jacobi` or a :class:`TensorSolve`.  Returns
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


_BANDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def band_pattern(mesh: Mesh) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The band of a one-axis mesh's :meth:`Mesh.energy_stiffness`: for its
    diagonal and its off-diagonals at offsets 1 and 2, ``(samples, columns,
    products)`` such that entry ``j`` sums ``w c products`` where
    ``columns == j``, ``w c`` the weighted coefficient at ``samples``.  Each
    row of ``G_f`` reads one or two free nodes, 2 apart where it is centered
    and 1 apart where it goes one-sided beside a cap; the diagonal takes each
    entry squared, an off-diagonal the product of a row's two.  Cached per
    mesh, as no coefficient changes it; the arrays are shared.
    """
    if mesh not in _BANDS:
        G = mesh._free_grad
        counts = np.diff(G.indptr)
        samples = np.repeat(np.arange(counts.size), counts)
        pairs = G.indptr[:-1][counts == 2]
        band = [(samples, G.indices, G.data**2)]
        for offset in (1, 2):
            at = pairs[G.indices[pairs + 1] - G.indices[pairs] == offset]
            band.append((samples[at], G.indices[at], G.data[at] * G.data[at + 1]))
        _BANDS[mesh] = band
    return _BANDS[mesh]


class BandSolve:
    """Exact solve of ``K(coeff) + diag(mass)`` on the free nodes of a
    one-axis mesh: the build sums its :func:`band_pattern`, one
    ``np.bincount`` per diagonal, and factors it as LDL^T in natural order
    without pivoting (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    2013, section 4.3); a solve is two substitutions.  Both loop in scalar
    Python, which beats vectorized cyclic reduction on the 7-31 free nodes
    of most one-axis solves.  A symmetric matrix is positive definite exactly
    when every pivot is positive (Sylvester), so the build raises
    :class:`IndefiniteEnergyError` on the first nonpositive pivot.
    """

    def __init__(self, mesh: Mesh, coeff: np.ndarray | None, mass: np.ndarray):
        w = mesh.sample_weights if coeff is None else mesh.sample_weights * coeff
        diagonal, near, far = (np.bincount(c, w[s] * g, mass.size) for s, c, g in band_pattern(mesh))
        self.inv_pivots, self.near, self.far = [], [], []
        # d1, d2: the last two pivots; l1 = L[i, i-1]; f1 = L[i+1, i-1]; f2 = L[i, i-2]
        d1 = d2 = l1 = f1 = f2 = 0.0
        for a, b, c in zip((diagonal + mass).tolist(), near.tolist(), far.tolist()):
            d = a - d1 * l1 * l1 - d2 * f2 * f2
            if not d > 0.0:
                raise IndefiniteEnergyError(_NONPOSITIVE % "a leading free-node block (a nonpositive LDL^T pivot)")
            l1, f1, f2, d1, d2 = (b - f1 * d1 * l1) / d, c / d, f1, d, d1
            self.inv_pivots.append(1.0 / d)
            self.near.append(l1)
            self.far.append(f1)
        # L[i, i-1] and L[i, i-2] by row, for the forward substitution
        self.near_before = [0.0] + self.near[:-1]
        self.far_before = [0.0, 0.0] + self.far[:-2]

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        y1 = y2 = 0.0
        forward = []
        for r, l, f in zip(rhs.tolist(), self.near_before, self.far_before):
            y1, y2 = r - l * y1 - f * y2, y1
            forward.append(y1)
        x1 = x2 = 0.0
        back = []
        for y, s, l, f in zip(reversed(forward), reversed(self.inv_pivots), reversed(self.near), reversed(self.far)):
            x1, x2 = y * s - l * x1 - f * x2, x1
            back.append(x1)
        return np.array(back[::-1])


@lru_cache(maxsize=32)
def axis_operator(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One axis of a mesh's box operator: the free-node
    :meth:`Mesh.energy_stiffness` of the interval ``(lo, hi)`` on ``n`` nodes,
    so the same stencil, as a dense array, and its interior trapezoid
    weights.  Built once per axis for every mesh that has it, so the arrays
    are shared and read-only.
    """
    line = Mesh(interval(lo, hi), [n])
    K, m = line.energy_stiffness().toarray(), line.weights[1:-1].copy()
    K.flags.writeable = m.flags.writeable = False
    return K, m


@lru_cache(maxsize=32)
def axis_pencil(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the pencil ``K v = lam M v`` of one
    axis, ``K`` and the diagonal ``M`` its :func:`axis_operator`, with
    ``V^T M V = I`` and ``V^T K V = diag(lam)``.  With no excluded node a
    mesh's free-node stiffness is the Kronecker sum
    ``sum_a (M_0 x .. K_a .. x M_(N-1))`` of its axes' pencils.  Solved with
    ``np.linalg.eigh`` on ``M^-1/2 K M^-1/2`` once per axis for every mesh
    that has it, so the arrays are shared and read-only.
    """
    K, m = axis_operator(lo, hi, n)
    s = 1.0 / np.sqrt(m)
    lam, Q = np.linalg.eigh(s[:, None] * K * s)
    V = s[:, None] * Q
    lam.flags.writeable = V.flags.writeable = False
    return lam, V


def reach(K: np.ndarray) -> int:
    """The bandwidth of an :func:`axis_operator`: how many nodes along its
    axis one row reaches (2 for the centered stencil)."""
    rows, cols = np.nonzero(K)
    return int(np.abs(rows - cols).max())


_CAP_DIFFERENCES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cap_difference(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Where a capped mesh's stiffness differs from its box's, and by how much.

    On the box of interior nodes, ``K_box`` is the Kronecker sum of the
    :func:`axis_operator` of each axis (the stiffness with no node excluded)
    and ``K~`` is the free-node :meth:`Mesh.energy_stiffness` on the free
    nodes with ``K_box``'s own diagonal on the excluded ones.  Returns the
    box indices ``S`` of the rows where the two differ, in increasing
    order, and the dense ``(K~ - K_box)_SS``; the difference vanishes off
    ``S x S``, since both are symmetric.  The rows compared are those within
    each axis operator's reach (its bandwidth) of an excluded node, the only
    rows a cap can change; the reach is read off the operator, not off the
    stencil.  Entries that agree to rounding count as equal.  A mesh with
    no excluded node has an empty ``S``.  Computed once per mesh, as neither
    depends on ``sigma``; the arrays are shared and read-only.
    """
    if mesh not in _CAP_DIFFERENCES:
        cap, delta = _compare_with_box(mesh)
        cap.flags.writeable = delta.flags.writeable = False
        _CAP_DIFFERENCES[mesh] = cap, delta
    return _CAP_DIFFERENCES[mesh]


def _compare_with_box(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """:func:`cap_difference`, computed."""
    nd, shape = mesh.domain.dims, tuple(n - 2 for n in mesh.shape)
    operators = [axis_operator(lo, hi, n) for (lo, hi), n in zip(mesh.domain.bounds, mesh.shape)]
    near = mesh.excluded_mask.reshape(mesh.shape)
    for a, (K, _) in enumerate(operators):
        up, down = (slice(None),) * a + (slice(1, None),), (slice(None),) * a + (slice(None, -1),)
        for _ in range(reach(K)):
            grown = near.copy()
            grown[up] |= near[down]
            grown[down] |= near[up]
            near = grown
    rows = np.flatnonzero(near[(slice(1, -1),) * nd])
    coords = np.unravel_index(rows, shape)
    stride = np.cumprod((1,) + shape[:0:-1])[::-1]
    masses = [m[c] for (_, m), c in zip(operators, coords)]
    box_free = mesh.free_mask[~mesh.boundary_mask]
    # -K_box on these rows: axis a's stiffness row times the other axes' weights
    entries, scale = [], np.zeros(rows.size)
    for a, (K, _) in enumerate(operators):
        values = -K[coords[a]] * np.prod(masses[:a] + masses[a + 1:], axis=0)[:, None]
        columns = rows[:, None] + (np.arange(K.shape[0]) - coords[a][:, None]) * stride[a]
        entries.append((np.repeat(np.arange(rows.size), K.shape[0]), columns.ravel(), values.ravel()))
        scale = np.maximum(scale, np.abs(values).max(axis=1))
    # + K~: the free rows of the mesh's stiffness (excluded rows cancel below)
    free_rows = np.flatnonzero(box_free[rows])
    Kf = mesh.energy_stiffness()[(np.cumsum(box_free) - 1)[rows[free_rows]]].tocoo()
    entries.append((free_rows[Kf.row], np.flatnonzero(box_free)[Kf.col], Kf.data))
    r, c, v = (np.concatenate(parts) for parts in zip(*entries))
    D = sp.csr_matrix((v, (r, c)), shape=(rows.size, box_free.size))
    at = np.repeat(np.arange(rows.size), np.diff(D.indptr))
    excluded_diagonal = ~box_free[rows[at]] & (D.indices == rows[at])
    D.data[excluded_diagonal | (np.abs(D.data) <= ROUNDING * scale[at])] = 0.0
    D.eliminate_zeros()
    in_s = np.diff(D.indptr) > 0
    return rows[in_s], D[in_s][:, rows[in_s]].toarray()


class TensorSolve:
    """Fast-diagonalization inverse of ``K + sigma M`` on the free nodes
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964), corrected for excluded
    nodes by a capacitance matrix (Buzbee, Dorr, George & Golub, SIAM J.
    Numer. Anal. 8, 1971; Proskurowski & Widlund, Math. Comp. 30, 1976).

    The box operator ``B = K_box + sigma M`` on the box of interior nodes is
    inverted from the :func:`axis_pencil` of each mesh axis as
    ``V diag(1 / (sum_a lam_a + sigma)) V^T``, ``V`` the Kronecker product of
    the axis eigenvectors, applied as one ``matmul`` per axis each way.  On a
    capped mesh the free-node operator is a principal block of
    ``A~ = B + U_S Delta U_S^T``, with ``K_box``'s diagonal on the excluded
    nodes and ``S``, ``Delta`` the :func:`cap_difference` of the mesh.  Built
    here from ``|S|`` box solves: ``T = (B^-1)_SS`` and
    ``C = (I + Delta T)^-1 Delta``; applied as ``y = B^-1 r``, then
    ``y -= B^-1 U_S C y_S`` (Woodbury), two box solves.  No array of
    ``|S|`` box vectors is held, and a mesh with no excluded node has an
    empty ``S``.

    ``sigma`` is ``shift``, plus ``mass_coeff`` when that is constant on the
    free nodes and folding it keeps the operator positive definite: on a
    capped mesh while ``sigma`` stays positive, and with no excluded node
    while the box pencil's denominators do; there ``B`` is the free-node
    operator, so a nonpositive denominator is an exact certificate and raises
    :class:`IndefiniteEnergyError`.  Otherwise ``sigma`` falls back to
    ``shift``.  ``exact`` says whether the solve inverts the operator
    ``K + shift M + diag(mass_coeff M)`` itself: when ``mass_coeff`` is None
    or was folded in.
    """

    def __init__(self, mesh: Mesh, shift: float, mass_coeff: np.ndarray | None):
        lams, self.eigvecs = zip(*(axis_pencil(lo, hi, n) for (lo, hi), n in zip(mesh.domain.bounds, mesh.shape)))
        lam = reduce(np.add.outer, lams).ravel()
        capped = bool(mesh.excluded_mask.any())
        self.sigma, self.exact = shift, mass_coeff is None
        if mass_coeff is not None and np.all(mass_coeff == mass_coeff[0]):
            sigma = shift + float(mass_coeff[0])
            if sigma > 0.0 or (not capped and float(lam.min()) + sigma > 0.0):
                self.sigma, self.exact = sigma, True
            elif not capped:
                raise IndefiniteEnergyError(_NONPOSITIVE % "a tensor-product eigenvector")
        self.inv_denominators = 1.0 / (lam + self.sigma)
        self.eigvecs_t = [np.ascontiguousarray(V.T) for V in self.eigvecs]
        box_free = mesh.free_mask[~mesh.boundary_mask]
        self.box_free = None if box_free.all() else box_free
        self.cap, delta = cap_difference(mesh)
        # the box solves of vectors on S only need the rows of V on the
        # smallest sub-box holding S
        coords = np.unravel_index(self.cap, tuple(n - 2 for n in mesh.shape))
        first = [int(c.min()) if c.size else 0 for c in coords]
        sub_shape = tuple(int(c.max()) + 1 - f if c.size else 0 for c, f in zip(coords, first))
        self.sub_rows = [V[f:f + n] for V, f, n in zip(self.eigvecs, first, sub_shape)]
        self.sub_cols = [np.ascontiguousarray(R.T) for R in self.sub_rows]
        self.sub_cap = np.ravel_multi_index([c - f for c, f in zip(coords, first)], sub_shape)
        self.sub_size = int(np.prod(sub_shape))
        T = np.empty((self.cap.size, self.cap.size))
        block = max(1, BLOCK_VALUES // self.inv_denominators.size)
        for start in range(0, self.cap.size, block):
            units = np.zeros((min(block, self.cap.size - start), self.sub_size))
            units[np.arange(len(units)), self.sub_cap[start:start + block]] = 1.0
            T[start:start + block] = self._on_cap(self._from_sub_box(units))
        self.capacitance = np.linalg.solve(np.eye(self.cap.size) + delta @ T, delta)

    @staticmethod
    def _along_axes(x: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
        """Each row of ``x`` (a box in C order) with ``mats[a]^T`` applied
        along each axis ``a``: each product contracts the leading box axis
        and moves it last, so after one pass the axes are back in order."""
        rows = len(x)
        for B in mats:
            x = x.reshape(rows, B.shape[0], -1).swapaxes(1, 2).reshape(-1, B.shape[0]) @ B
        return x.reshape(rows, -1)

    def _from_sub_box(self, x: np.ndarray) -> np.ndarray:
        """``diag(1 / (lam + sigma)) V^T x`` for rows ``x`` of box vectors
        that vanish off the sub-box, given there."""
        return self._along_axes(x, self.sub_rows) * self.inv_denominators

    def _on_cap(self, spectral: np.ndarray) -> np.ndarray:
        """``(V spectral)_S`` for rows of spectral coefficients."""
        return self._along_axes(spectral, self.sub_cols)[:, self.sub_cap]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if self.box_free is None:
            x = r
        else:
            x = np.zeros(self.box_free.size)
            x[self.box_free] = r
        spectral = self._along_axes(x[None], self.eigvecs) * self.inv_denominators
        if self.cap.size:
            z = np.zeros((1, self.sub_size))
            z[:, self.sub_cap] = self._on_cap(spectral) @ self.capacitance.T
            spectral -= self._from_sub_box(z)
        y = self._along_axes(spectral, self.eigvecs_t)[0]
        return y if self.box_free is None else y[self.box_free]


_COLOURINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def two_colouring(mesh: Mesh) -> tuple[np.ndarray, np.ndarray] | None:
    """The red and the black free nodes of a two-cyclic free-node operator,
    or None when the mesh's operator is not two-cyclic.

    A node is red when ``sum_a floor(i_a / reach_a)`` is even, ``i_a`` its
    index along axis ``a`` and ``reach_a`` the :func:`reach` of that axis's
    :func:`axis_operator` (at least 1), so a coupling at the offset
    ``+-reach_a e_a`` joins the two colours.  The operator is two-cyclic
    (Young's Property A) when no off-diagonal entry of the free-node
    :meth:`Mesh.energy_stiffness` joins two nodes of one colour: on every
    uncapped mesh, and on no capped one, whose one-sided rows beside the cap
    join neighbors.  Every off-diagonal entry sums negative products over the
    gradient samples its two nodes share, so the pattern is the same for every
    positive per-sample coefficient and is checked once per mesh, at
    ``coeff = None``.  Returns the increasing free-node indices of each
    colour, cached per mesh; the arrays are shared and read-only.
    """
    if mesh not in _COLOURINGS:
        reaches = [max(1, reach(axis_operator(lo, hi, n)[0])) for (lo, hi), n in zip(mesh.domain.bounds, mesh.shape)]
        stripes = reduce(np.add.outer, [np.arange(n) // r for n, r in zip(mesh.shape, reaches)])
        red = (stripes % 2 == 0).ravel()[mesh.free_mask]
        A = mesh.energy_stiffness().tocoo()
        colours = None
        if not np.any((red[A.row] == red[A.col]) & (A.row != A.col)):
            colours = np.flatnonzero(red), np.flatnonzero(~red)
            for nodes in colours:
                nodes.flags.writeable = False
        _COLOURINGS[mesh] = colours
    return _COLOURINGS[mesh]


class ReducedSolve:
    """Conjugate gradients on the red Schur complement of a two-cyclic
    operator (Reid, SIAM J. Numer. Anal. 9, 1972).

    With the free nodes split by :func:`two_colouring`, ``A_RR = D_R`` and
    ``A_BB = D_B`` are diagonal, so eliminating the black unknowns leaves
    ``S = D_R - A_RB D_B^-1 A_BR`` on the red ones.  Built here: ``D_B``,
    ``A_RB`` and ``S`` as CSR, and :func:`jacobi` of ``S``.  A solve runs
    :func:`conjugate_gradient` on ``S x_R = b_R - A_RB D_B^-1 b_B``, then sets
    ``x_B = D_B^-1 (b_B - A_BR x_R)``, which makes the residual of ``A`` zero on
    the black nodes and the reduced residual on the red ones; CG therefore
    stops once that residual is at most ``rtol ||b||``, which keeps the
    contract ``||b - A x|| <= rtol ||b||``.  It takes about half the products
    of Jacobi CG on ``A``, each on a matrix of half the rows but more entries
    per row (9 against 5 inside a 2D grid, 19 against 7 in 3D).  The build
    raises :class:`IndefiniteEnergyError` on a nonpositive entry of ``D_B``.
    Given ``D_B > 0``, ``S`` is positive definite exactly when ``A`` is
    (its inertia is ``A``'s less ``D_B``'s), so the checks of Jacobi scaling
    and of CG on ``S`` certify the indefiniteness of ``A``.
    """

    def __init__(self, A: sp.csr_matrix, red: np.ndarray, black: np.ndarray, rtol: float):
        diag = A.diagonal()
        if np.any(diag[black] <= 0.0):
            raise IndefiniteEnergyError(_NONPOSITIVE % "a unit vector")
        self.red, self.black, self.rtol = red, black, rtol
        self.inv_black = 1.0 / diag[black]
        self.coupling = A[red][:, black]
        self.coupling_t = self.coupling.T.tocsr()
        eliminated = self.coupling @ (sp.diags(self.inv_black) @ self.coupling_t)
        self.schur = (sp.diags(diag[red]) - eliminated).tocsr()
        self.precondition = jacobi(self.schur)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        y = self.inv_black * b[self.black]
        rhs = b[self.red] - self.coupling @ y
        # CG returns a zero right-hand side's zero solve before it reads rel_tol
        scale = float(np.linalg.norm(rhs))
        rel_tol = self.rtol * float(np.linalg.norm(b)) / scale if scale else 0.0
        x = np.empty_like(b)
        x[self.red] = conjugate_gradient(self.schur, rhs, rel_tol, self.precondition)
        x[self.black] = y - self.inv_black * (self.coupling_t @ x[self.red])
        return x


class Preconditioner:
    """Approximate inverse of (weighted stiffness + shift * mass) on free nodes.

    Uses the same difference operators as the energy, so at p = 2 the
    preconditioned direction is a Newton step up to the inner tolerance; a
    per-sample ``coeff`` turns it into the lagged-coefficient metric of the
    degenerate problem.  That free-node operator is
    :meth:`Mesh.energy_stiffness` plus the mass diagonal.  Built here: on a
    one-axis mesh a :class:`BandSolve`, exact for every role; on a multi-axis
    mesh at ``coeff = None`` a :class:`TensorSolve`, exact when ``mass_coeff``
    is None or constant on the free nodes and folded into its ``sigma``, on
    capped and uncapped meshes alike.  ``exact`` says that ``apply`` applies
    such a solve directly, with no CG; ``op``, the operator as CSR, is then
    None, as nothing reads it.  A lagged metric on a multi-axis mesh whose
    operator is two-cyclic (:func:`two_colouring`: every uncapped mesh) is
    applied by a :class:`ReducedSolve`, CG on its red Schur complement, to the
    same residual contract.  Every other operator is applied by
    :func:`conjugate_gradient` on ``op`` at unscaled relative residual
    ``rtol`` (``METRIC_RTOL`` or ``NEWTON_RTOL`` by role), preconditioned by
    the :class:`TensorSolve` of ``K + shift M`` at ``coeff = None`` and by
    :func:`jacobi` for the lagged metrics of capped meshes.  Every action is
    deterministic.  ``mass_coeff`` is a free-node vector, and :meth:`apply`
    maps a free-node vector, such as a descent's plain-dot first variation,
    to a free-node vector, its direction.  The operator is positive definite
    unless a negative ``mass_coeff`` (the potential in the p = 2 Newton
    operator) makes the energy form nonpositive.  Then
    :class:`IndefiniteEnergyError` is raised: here when the band
    factorization meets a nonpositive pivot, Jacobi scaling a nonpositive
    diagonal entry (of ``op``, of its black block or of its Schur complement)
    or the tensor solve of a mesh with no excluded node a nonpositive
    denominator, and by CG in ``apply`` when it meets a direction of
    nonpositive curvature.
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
        self.rtol, self.op, self.exact = rtol, None, False
        if mesh.domain.dims == 1:
            self.precondition, self.exact = BandSolve(mesh, coeff, mass), True
        elif coeff is None:
            self.precondition = TensorSolve(mesh, shift, mass_coeff)
            self.exact = self.precondition.exact
        if not self.exact:
            self.op = mesh.energy_stiffness(coeff) + sp.diags(mass)
            if coeff is not None:
                colours = two_colouring(mesh)
                self.precondition = jacobi(self.op) if colours is None else ReducedSolve(self.op, *colours, rtol)

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        """The solve ``op^-1 rhs`` of a free-node vector, a free-node vector."""
        if self.exact or isinstance(self.precondition, ReducedSolve):
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
