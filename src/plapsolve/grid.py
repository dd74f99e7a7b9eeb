"""Structured tensor-product grids with boundary masks, trapezoidal quadrature,
and the stacked first-order difference operator of the discrete energy.

Domains are boxes, intervals, strips (a bounded cross-section times truncated
unbounded axes), and boxes punctured at the origin.  All fields live as flat
per-node arrays in C order; functions that vanish on the boundary mask model
compactly supported test functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Domain",
    "Mesh",
    "DiscreteFunction",
    "interval",
    "box",
    "strip",
    "punctured_box",
    "build_mesh",
    "integrate",
]

_DOMAIN_KINDS = ("interval", "box", "strip", "punctured_box")


@dataclass(frozen=True)
class Domain:
    """Tensor-product computational domain.

    Attributes
    ----------
    kind : str
        One of ``interval``, ``box``, ``strip``, ``punctured_box``.
    bounds : tuple of (lo, hi)
        Extent per axis.  For a strip the truncated axes carry ``(-L, L)``.
    unbounded_axes : frozenset of int
        Axes that stand in for unbounded directions, truncated at ``+-L``.
    puncture_radius : float
        Radius of the ball removed around the origin (``punctured_box`` only).
    """

    kind: str
    bounds: tuple[tuple[float, float], ...]
    unbounded_axes: frozenset[int] = field(default_factory=frozenset)
    puncture_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in _DOMAIN_KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not self.bounds:
            raise ValueError("domain needs at least one axis")
        for a, (lo, hi) in enumerate(self.bounds):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"axis {a}: bounds must satisfy lo < hi, got ({lo}, {hi})")
        for a in self.unbounded_axes:
            if a < 0 or a >= len(self.bounds):
                raise ValueError(f"unbounded axis index {a} out of range")
            lo, hi = self.bounds[a]
            if not (lo == -hi and hi > 0):
                raise ValueError(f"truncated axis {a} must have bounds (-L, L) with L > 0")
        if self.puncture_radius < 0:
            raise ValueError("puncture_radius must be nonnegative")
        if self.puncture_radius > 0:
            if self.kind != "punctured_box":
                raise ValueError("puncture_radius is only valid for punctured_box domains")
            gap = min(min(-lo, hi) for lo, hi in self.bounds)
            if gap <= 0:
                raise ValueError("punctured_box must contain the origin in its interior")
            if self.puncture_radius >= gap:
                raise ValueError(
                    f"puncture_radius {self.puncture_radius} must be smaller than the "
                    f"distance {gap} from the origin to the boundary"
                )

    @property
    def dims(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.bounds]))


def interval(lo: float, hi: float) -> Domain:
    """One-dimensional domain ``(lo, hi)``."""
    return Domain("interval", ((float(lo), float(hi)),))


def box(*bounds: tuple[float, float]) -> Domain:
    """Axis-aligned box with the given per-axis bounds."""
    bs = tuple((float(lo), float(hi)) for lo, hi in bounds)
    return Domain("box" if len(bs) > 1 else "interval", bs)


def strip(omega_bounds: Sequence[tuple[float, float]], m_axes: int, length: float) -> Domain:
    """Cross-section times ``m_axes`` unbounded directions truncated at ``+-length``.

    The first axes carry the bounded cross-section, the trailing ``m_axes``
    axes the truncated directions; points split as x = (y, z).
    """
    if m_axes < 1:
        raise ValueError("strip needs at least one unbounded axis")
    if length <= 0:
        raise ValueError("truncation length must be positive")
    ob = tuple((float(lo), float(hi)) for lo, hi in omega_bounds)
    n_omega = len(ob)
    zb = tuple((-float(length), float(length)) for _ in range(m_axes))
    unb = frozenset(range(n_omega, n_omega + m_axes))
    return Domain("strip", ob + zb, unbounded_axes=unb)


def punctured_box(*bounds: tuple[float, float], radius: float) -> Domain:
    """Box containing the origin, with the ball of ``radius`` removed."""
    bs = tuple((float(lo), float(hi)) for lo, hi in bounds)
    return Domain("punctured_box", bs, puncture_radius=float(radius))


class Mesh:
    """Structured grid over a :class:`Domain` with masks and quadrature weights.

    Nodes are stored flat in C order.  ``boundary_mask`` flags nodes on the
    outer box faces; ``excluded_mask`` flags nodes inside the puncture or the
    singular cap, which never participate in integrals.  ``weights`` are
    tensor trapezoidal; the weight sum over non-excluded nodes approximates
    the domain volume minus the excluded volume.

    Meshes are immutable after construction and safe to share.
    """

    def __init__(
        self,
        domain: Domain,
        nodes_per_axis: Sequence[int],
        singular_cap_radius: float = 0.0,
        singular_axes: Sequence[int] | None = None,
    ):
        shape = tuple(int(n) for n in nodes_per_axis)
        if len(shape) != domain.dims:
            raise ValueError(f"expected {domain.dims} node counts, got {len(shape)}")
        for a, n in enumerate(shape):
            if n < 3:
                raise ValueError(f"axis {a}: need at least 3 nodes per axis, got {n}")
        if singular_cap_radius < 0:
            raise ValueError("singular_cap_radius must be nonnegative")
        smallest_extent = min(hi - lo for lo, hi in domain.bounds)
        if singular_cap_radius >= 0.5 * smallest_extent:
            raise ValueError(
                f"singular_cap_radius {singular_cap_radius} must be below half the "
                f"smallest extent {smallest_extent}"
            )

        self.domain = domain
        self.shape = shape
        self.axes = tuple(
            np.linspace(lo, hi, n) for (lo, hi), n in zip(domain.bounds, shape)
        )
        self.spacing = np.array([ax[1] - ax[0] for ax in self.axes])
        grids = np.meshgrid(*self.axes, indexing="ij")
        self.points = np.column_stack([g.ravel() for g in grids])
        self.n_nodes = self.points.shape[0]

        bmask = np.zeros(shape, dtype=bool)
        for a in range(domain.dims):
            sl = [slice(None)] * domain.dims
            sl[a] = 0
            bmask[tuple(sl)] = True
            sl[a] = -1
            bmask[tuple(sl)] = True
        self.boundary_mask = bmask.ravel()

        w = None
        for a in range(domain.dims):
            wa = np.full(shape[a], self.spacing[a])
            wa[0] *= 0.5
            wa[-1] *= 0.5
            w = wa if w is None else np.multiply.outer(w, wa)
        self.weights = w.ravel()

        self.singular_cap_radius = float(singular_cap_radius)
        self.singular_axes = (
            tuple(range(domain.dims)) if singular_axes is None else tuple(sorted(singular_axes))
        )
        for a in self.singular_axes:
            if a < 0 or a >= domain.dims:
                raise ValueError(f"singular axis index {a} out of range")

        excluded = np.zeros(self.n_nodes, dtype=bool)
        if domain.puncture_radius > 0:
            excluded |= np.linalg.norm(self.points, axis=1) < domain.puncture_radius
        if singular_cap_radius > 0:
            d = np.linalg.norm(self.points[:, self.singular_axes], axis=1)
            excluded |= d < singular_cap_radius
        self.excluded_mask = excluded
        self.constrained_mask = self.boundary_mask | self.excluded_mask
        self.free_mask = ~self.constrained_mask

        self._grad: sp.csr_matrix | None = None
        self._grad_t: sp.csc_matrix | None = None
        self._stiffness: sp.csr_matrix | None = None

    def _grad_op(self) -> sp.csr_matrix:
        if self._grad is None:
            self._grad = self._build_grad_op()
            # a CSC view on the same arrays; transposing costs a matrix
            # construction per call otherwise
            self._grad_t = self._grad.T
        return self._grad

    def _build_grad_op(self) -> sp.csr_matrix:
        """Stacked ``(dims * n_nodes, n_nodes)`` difference operator; row
        ``a * n_nodes + i`` is the axis-``a`` derivative at node ``i``.

        Centered where both neighbor values are usable, one-sided where the
        stencil would leave the grid or cross an excluded node, zero rows at
        excluded nodes.  Exact for affine fields away from masks.
        """
        nd, shape, n = self.domain.dims, self.shape, self.n_nodes
        index = np.int32 if 2 * nd * n < 2**31 else np.int64
        idx = np.arange(n, dtype=index).reshape(shape)
        active = ~self.excluded_mask.reshape(shape)
        # row (axis, i) runs from cols[axis, i, 0] to cols[axis, i, 1], a
        # neighbor where it is usable and the node itself otherwise, over
        # steps[axis, i] grid steps; a row with no step stays empty
        cols = np.empty((nd, n, 2), dtype=index)
        steps = np.empty((nd, n), dtype=np.int8)
        for axis in range(nd):
            pos = np.arange(shape[axis]).reshape([-1 if b == axis else 1 for b in range(nd)])
            left_ok = np.roll(active, 1, axis) & (pos > 0)
            right_ok = np.roll(active, -1, axis) & (pos < shape[axis] - 1)
            cols[axis, :, 0] = np.where(left_ok, np.roll(idx, 1, axis), idx).ravel()
            cols[axis, :, 1] = np.where(right_ok, np.roll(idx, -1, axis), idx).ravel()
            steps[axis] = (left_ok.astype(np.int8) + right_ok).ravel()
        use = (steps > 0) & ~self.excluded_mask
        inv = 1.0 / (steps * self.spacing[:, None])[use]
        indptr = np.zeros(nd * n + 1, dtype=index)
        np.cumsum(2 * use.ravel(), out=indptr[1:])
        data = np.column_stack([-inv, inv]).ravel()
        return sp.csr_matrix((data, cols[use].ravel(), indptr), shape=(nd * n, n))

    def grad(self, values: np.ndarray) -> np.ndarray:
        """Per-axis derivatives of nodal ``values``, shape ``(dims,) + values.shape``."""
        return (self._grad_op() @ values).reshape(self.domain.dims, *np.shape(values))

    def grad_adjoint(self, flux: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`grad` applied to a ``(dims, n_nodes)`` flux."""
        self._grad_op()
        return self._grad_t @ np.ravel(flux)

    def energy_stiffness(self, coeff: np.ndarray | None = None) -> sp.csr_matrix:
        """Quadratic form ``G^T diag(active weights * coeff) G`` of the discrete
        weighted Dirichlet energy; at ``coeff = None`` the exact Hessian of
        ``(1/2) int |grad u|^2`` in this discretization, cached.
        """
        if coeff is None and self._stiffness is not None:
            return self._stiffness
        w = self.weights * ~self.excluded_mask
        if coeff is not None:
            w = w * coeff
        G = self._grad_op()
        A = (self._grad_t @ (sp.diags(np.tile(w, self.domain.dims)) @ G)).tocsr()
        if coeff is None:
            self._stiffness = A
        return A


def build_mesh(
    domain: Domain,
    nodes_per_axis: Sequence[int],
    singular_cap_radius: float = 0.0,
    singular_axes: Sequence[int] | None = None,
) -> Mesh:
    """Build a structured mesh over ``domain``.

    Parameters
    ----------
    domain : Domain
    nodes_per_axis : sequence of int
        At least 3 nodes on each axis.
    singular_cap_radius : float
        Nodes within this distance of the origin (measured over
        ``singular_axes``) are excluded from all integrals.
    singular_axes : sequence of int, optional
        Axes defining the singular distance; all axes by default.
    """
    return Mesh(domain, nodes_per_axis, singular_cap_radius, singular_axes)


class DiscreteFunction:
    """Nodal scalar field on a mesh, zero on boundary and excluded nodes.

    Values are copied at construction, projected to zero on constrained
    nodes, and checked finite.  Instances are treated as immutable.
    """

    __slots__ = ("mesh", "values")

    def __init__(self, mesh: Mesh, values: np.ndarray):
        vals = np.array(values, dtype=float).ravel()
        if vals.size != mesh.n_nodes:
            raise ValueError(f"expected {mesh.n_nodes} nodal values, got {vals.size}")
        vals[mesh.constrained_mask] = 0.0
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        self.mesh = mesh
        self.values = vals

    @classmethod
    def zeros(cls, mesh: Mesh) -> "DiscreteFunction":
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def from_callable(cls, mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> "DiscreteFunction":
        """Sample ``fn`` at the mesh nodes; ``fn`` maps (n, dims) points to values."""
        return cls(mesh, np.asarray(fn(mesh.points), dtype=float))

    def __add__(self, other: "DiscreteFunction") -> "DiscreteFunction":
        self._check_mesh(other)
        return DiscreteFunction(self.mesh, self.values + other.values)

    def __sub__(self, other: "DiscreteFunction") -> "DiscreteFunction":
        self._check_mesh(other)
        return DiscreteFunction(self.mesh, self.values - other.values)

    def __mul__(self, scalar: float) -> "DiscreteFunction":
        return DiscreteFunction(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__

    def _check_mesh(self, other: "DiscreteFunction"):
        if other.mesh is not self.mesh:
            raise ValueError("functions live on different meshes")


def integrate(field: np.ndarray, mesh: Mesh) -> float:
    """Trapezoidal quadrature of a per-node field over the non-excluded nodes."""
    field = np.asarray(field, dtype=float).ravel()
    if field.size != mesh.n_nodes:
        raise ValueError(f"expected {mesh.n_nodes} nodal values, got {field.size}")
    active = ~mesh.excluded_mask
    return float(np.dot(field[active], mesh.weights[active]))
