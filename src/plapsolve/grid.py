"""Structured tensor-product grids with boundary masks, trapezoidal quadrature,
and the stacked first-order difference operator of the discrete energy.

Domains are boxes, intervals and strips (a bounded cross-section times
truncated unbounded axes).  A singular set is removed by the mesh's one
exclusion rule, its singular cap: the nodes within a radius of the origin,
measured over some or all axes, so a punctured box is a box capped over every
axis.  Nodal fields live as flat per-node arrays in C order; functions that
vanish on the boundary mask model compactly supported test functions, and the
difference operator and the solvers act on their values on the free nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    "build_mesh",
    "integrate",
]


@dataclass(frozen=True)
class Domain:
    """Tensor-product computational domain: its bounds, and which axes stand
    in for unbounded directions.  Points it excludes are the mesh's business
    (:class:`Mesh`'s singular cap).

    Attributes
    ----------
    bounds : tuple of (lo, hi)
        Extent per axis.  For a strip the truncated axes carry ``(-L, L)``.
    unbounded_axes : frozenset of int
        Axes that stand in for unbounded directions, truncated at ``+-L``.
    """

    bounds: tuple[tuple[float, float], ...]
    unbounded_axes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
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

    @property
    def dims(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.bounds]))


def interval(lo: float, hi: float) -> Domain:
    """One-dimensional domain ``(lo, hi)``."""
    return box((lo, hi))


def box(*bounds: tuple[float, float]) -> Domain:
    """Axis-aligned box with the given per-axis bounds, on any number of axes."""
    return Domain(tuple((float(lo), float(hi)) for lo, hi in bounds))


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
    return Domain(ob + zb, unbounded_axes=unb)


class Mesh:
    """Structured grid over a :class:`Domain` with masks and quadrature weights.

    Nodes are stored flat in C order.  ``boundary_mask`` flags nodes on the
    outer box faces; ``excluded_mask`` flags the nodes of the singular cap, the
    mesh's one exclusion rule: those closer than ``singular_cap_radius`` to
    the origin, measured over ``singular_axes`` (a punctured box caps all
    axes, a cylinder some).  They never participate in integrals.  Excluded
    nodes are natural boundaries: the stencil beside them goes one-sided and
    never reads their zero, so the energy sees no jump into the hole.  ``weights``
    are tensor trapezoidal; the weight sum over non-excluded nodes
    approximates the domain volume minus the excluded volume.  The other
    nodes, ``free_mask``, carry the energy space: unknowns, first variations
    and descent directions are vectors on them, with the quadrature weights
    ``free_weights``.

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
        if singular_cap_radius > 0:
            excluded = np.linalg.norm(self.points[:, self.singular_axes], axis=1) < singular_cap_radius
        self.excluded_mask = excluded
        self.constrained_mask = self.boundary_mask | self.excluded_mask
        # quadrature over the non-excluded nodes, for ``integrate``
        self._active = np.flatnonzero(~excluded) if excluded.any() else slice(None)
        self._active_weights = self.weights[self._active]
        self.free_mask = ~self.constrained_mask
        # the quadrature weights of the energy space's vectors
        self.free_weights = self.weights[self.free_mask]
        # gradient quadrature (see ``grad``)
        self.sample_weights = self.weights * ~excluded

        self._stiffness: sp.csr_matrix | None = None

    @cached_property
    def _free_grad(self) -> sp.csr_matrix:
        """:meth:`_build_grad_op`'s ``G_f``, which every operator on the energy
        space is assembled from; built on first request, as many meshes need none."""
        return self._build_grad_op()

    @cached_property
    def _free_grad_t(self) -> sp.csc_matrix:
        # a CSC view on the same arrays; transposing costs a matrix
        # construction per call otherwise
        return self._free_grad.T

    @cached_property
    def _stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The axis-``a`` derivative at each node, as arrays of shape
        ``(dims,) + shape``: whether it reads the left and the right neighbor
        along the axis (the node itself otherwise), and the inverse of its
        span, 0 on a zero row.  Centered where both neighbor values are usable,
        one-sided where the stencil would leave the grid or cross an excluded
        node, zero rows at excluded nodes.  Exact for affine fields away from
        masks.
        """
        nd = self.domain.dims
        active = np.pad(~self.excluded_mask.reshape(self.shape), 1)
        inner = (slice(1, -1),) * nd
        left = np.stack([active[inner[:a] + (slice(None, -2),) + inner[a + 1:]] for a in range(nd)])
        right = np.stack([active[inner[:a] + (slice(2, None),) + inner[a + 1:]] for a in range(nd)])
        steps = left.astype(np.int8) + right
        span = steps * self.spacing.reshape((nd,) + (1,) * nd)
        inv = np.divide(1.0, span, out=np.zeros(span.shape), where=(steps > 0) & active[inner])
        return left, right, inv

    def _build_grad_op(self) -> sp.csr_matrix:
        """Stacked ``(dims * n_nodes, n_free)`` difference operator ``G_f`` on
        the free nodes, whose row ``a * n_nodes + i`` is the :attr:`_stencil`
        derivative at node ``i``: ``-inv`` at its left node and ``inv`` at its
        right one, each where that node is free (constrained values are 0)."""
        nd, n = self.domain.dims, self.n_nodes
        index = np.int32 if 2 * nd * n < 2**31 else np.int64
        left, right, inv = (field.reshape(nd, n) for field in self._stencil)
        stride = np.cumprod((1,) + self.shape[:0:-1])[::-1].astype(index)[:, None]
        idx = np.arange(n, dtype=index)
        cols = np.stack([idx - stride * left, idx + stride * right], axis=-1)
        keep = (inv > 0)[..., None] & self.free_mask[cols]
        indptr = np.zeros(nd * n + 1, dtype=index)
        np.cumsum(keep.sum(axis=-1).ravel(), out=indptr[1:])
        free_index = np.cumsum(self.free_mask, dtype=index) - 1
        data = np.stack([-inv, inv], axis=-1)[keep]
        return sp.csr_matrix((data, free_index[cols[keep]], indptr), shape=(nd * n, free_index[-1] + 1))

    def grad(self, values: np.ndarray) -> np.ndarray:
        """Per-axis derivatives at the gradient samples of free-node ``values``,
        shape ``(dims, n_samples) + values.shape[1:]``; a whole-mesh vector
        raises.  A per-sample density integrates by
        :meth:`integrate_samples` against ``sample_weights``, nodal fields in it
        (weights, cutoffs) first pass :meth:`to_samples`, and mass terms keep
        the nodal rule of :func:`integrate`.  The samples are the nodes, their
        weights the nodal weights zeroed at excluded nodes, the map the identity.
        """
        return (self._free_grad @ values).reshape(self.domain.dims, self.n_nodes, *np.shape(values)[1:])

    def box_grad(self, box: tuple[slice, ...], values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The :attr:`_stencil` applied to nodal values held on a node box, one
        unit-step ``slice`` with bounds per axis, as box-shaped ``values`` that
        are zero off the box and any on constrained nodes (:meth:`grad` where
        they vanish there), at the box's samples: shape ``(dims, box nodes)``
        in C order, with those samples' weights.  Values that also vanish on the
        box's outer layer have a zero gradient at every other sample, so a
        density of it summed against the weights is its whole integral.
        """
        left, right, inv = (field[(slice(None),) + box] for field in self._stencil)
        padded = np.pad(np.reshape(values, inv.shape[1:]), 1)
        inner = (slice(1, -1),) * self.domain.dims
        g = np.empty(inv.shape)
        for a in range(self.domain.dims):
            lo = np.where(left[a], padded[inner[:a] + (slice(None, -2),) + inner[a + 1:]], padded[inner])
            hi = np.where(right[a], padded[inner[:a] + (slice(2, None),) + inner[a + 1:]], padded[inner])
            g[a] = inv[a] * hi - inv[a] * lo
        return g.reshape(self.domain.dims, -1), self.sample_weights.reshape(self.shape)[box].ravel()

    def integrate_samples(self, density: np.ndarray) -> float:
        """Quadrature of a per-sample density against ``sample_weights``, summed
        over the non-excluded nodes in the order of :func:`integrate`."""
        return float(np.dot(density[self._active], self.sample_weights[self._active]))

    def to_samples(self, field: np.ndarray) -> np.ndarray:
        """A nodal field's values at the gradient samples."""
        return field

    def grad_adjoint(self, flux: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`grad` applied to a ``(dims, n_samples)`` flux:
        its free-node values, shape ``(n_free,)``."""
        return self._free_grad_t @ np.ravel(flux)

    def energy_stiffness(self, coeff: np.ndarray | None = None) -> sp.csr_matrix:
        """Quadratic form ``G_f^T diag(sample_weights * coeff) G_f`` of the
        discrete weighted Dirichlet energy on the free nodes, shape
        ``(n_free, n_free)``, ``coeff`` per sample; at ``coeff = None`` the
        exact Hessian of ``(1/2) int |grad u|^2`` in this discretization, cached.
        """
        if coeff is None and self._stiffness is not None:
            return self._stiffness
        w = self.sample_weights if coeff is None else self.sample_weights * coeff
        G = self._free_grad
        A = (G.T @ (sp.diags(np.tile(w, self.domain.dims)) @ G)).tocsr()
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
    def from_free(cls, mesh: Mesh, values: np.ndarray) -> "DiscreteFunction":
        """The function with free-node ``values``, zero on constrained nodes."""
        vals = np.zeros(mesh.n_nodes)
        vals[mesh.free_mask] = values
        return cls(mesh, vals)

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
    return float(np.dot(field[mesh._active], mesh._active_weights))
