"""Energy functionals and norms for the forced problem
``-div(|grad u|^(p-2) grad u) - V |u|^(p-2) u = f``.

Every quantity takes a field by its values on the free nodes
(``Mesh.free_mask``), the energy space, with ``gs = _grad_square(mesh,
values)``, which the caller computes once and shares: the energy gap
``_q_v_arrays``, the regularized objective ``_phi_arrays`` with its exact
discrete first variation ``_phi_gradient_arrays``, the weighted Sobolev norm
``_y_norm_arrays`` and a Cauchy-type gradient diagnostic ``_cauchy_arrays``.
A potential comes as its free values, a weight or cutoff as its nodal field
(and the weight also as its free values).  Besides them: the forcing term as
its pairing vector on the free nodes, the truncation clamp, and ``BoxField``,
which evaluates a field held on a node box of the mesh.

Gradient terms integrate with the mesh's gradient quadrature
(``Mesh.integrate_samples`` over ``Mesh.sample_weights``, nodal weights and
cutoffs mapped by ``Mesh.to_samples``), mass terms as dots against
``Mesh.free_weights``.  A first variation is the plain-dot vector r on the
free nodes, ``r . w = d/dt phi(u + t w)|_{t=0}`` for every free-node w, so
its quadrature norm is ``sqrt(r . (r / free_weights))``; fluxes come back
through ``_dirichlet_gradient_rep``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# armijo_backtrack, integrate and evaluate_potential are unused here; the
# benchmark's tracer wraps those names in ``energy`` (bench/spans.py), which
# must resolve
from ._descent import IndefiniteEnergyError, armijo_backtrack  # noqa: F401
from .grid import DiscreteFunction, Mesh, integrate  # noqa: F401
from .potentials import evaluate_potential, validate_exponents  # noqa: F401

__all__ = [
    "EnergyParams",
    "ForcingTerm",
    "IndefiniteEnergyError",
    "truncate",
]


@dataclass(frozen=True)
class EnergyParams:
    """Exponents and regularization knobs: growth ``p``, companion exponent
    ``q`` in ``(max(1, p-1), p]``, coercivity parameter ``eps`` in ``[0, 1)``,
    and the degeneracy-smoothing radius ``delta``."""

    p: float
    q: float | None = None
    eps: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        q = self.p if self.q is None else self.q
        object.__setattr__(self, "q", float(q))
        validate_exponents(self.p, self.q)
        if not 0.0 <= self.eps < 1.0:
            raise ValueError(f"eps must lie in [0, 1), got {self.eps}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")

    def with_eps(self, eps: float) -> "EnergyParams":
        return dataclasses.replace(self, eps=eps)

    def with_delta(self, delta: float) -> "EnergyParams":
        return dataclasses.replace(self, delta=delta)

    @property
    def p_conjugate(self) -> float:
        return self.p / (self.p - 1.0)


class ForcingTerm:
    """Right-hand side of the forced problem, held as its pairing vector r on
    the free nodes: ``<f, u> = r . u`` for every boundary-vanishing u given by
    its free values, the plain-dot form of a first variation.

    ``density`` pairs a nodal density by quadrature, ``manufactured`` samples
    a callable into one, and ``distributional_sum`` pairs a list of (source
    function, multiplier) components by integration by parts: each component
    contributes ``int grad(u_n) . grad(u) - lam int u_n u``.
    """

    def __init__(self, mesh: Mesh, rep: np.ndarray):
        self.mesh = mesh
        self._rep = rep

    @classmethod
    def zero(cls, mesh: Mesh) -> "ForcingTerm":
        return cls(mesh, np.zeros_like(mesh.free_weights))

    @classmethod
    def density(cls, mesh: Mesh, values: np.ndarray) -> "ForcingTerm":
        """Quadrature against the nodal field ``values``; excluded nodes may carry anything."""
        dens = np.asarray(values, dtype=float).ravel()
        if dens.size != mesh.n_nodes:
            raise ValueError("density size does not match mesh")
        if not np.all(np.isfinite(dens[~mesh.excluded_mask])):
            raise ValueError("density must be finite at non-excluded nodes")
        return cls(mesh, mesh.free_weights * dens[mesh.free_mask])

    @classmethod
    def manufactured(cls, mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> "ForcingTerm":
        return cls.density(mesh, fn(mesh.points))

    @classmethod
    def distributional_sum(cls, components: Sequence[tuple[DiscreteFunction, float]]) -> "ForcingTerm":
        if not components:
            raise ValueError("distributional_sum needs at least one component")
        mesh = components[0][0].mesh
        rep = np.zeros_like(mesh.free_weights)
        for u_n, lam in components:
            if u_n.mesh is not mesh:
                raise ValueError("all components must share one mesh")
            values = u_n.values[mesh.free_mask]
            g, s = _grad_square(mesh, values)
            rep += _dirichlet_gradient_rep(mesh, g, s, 2.0, 0.0) - lam * mesh.free_weights * values
        return cls(mesh, rep)

    def plain_rep(self) -> np.ndarray:
        """Vector r with ``<f, u> = r . u`` for the free values u of a boundary-vanishing function."""
        return self._rep

    def pairing(self, u: DiscreteFunction) -> float:
        """Duality pairing ``<f, u>``; linear in u."""
        return float(self._rep @ u.values[self.mesh.free_mask])

    def __mul__(self, scalar: float) -> "ForcingTerm":
        return ForcingTerm(self.mesh, self._rep * float(scalar))

    __rmul__ = __mul__


def _grad_square(mesh: Mesh, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient ``g`` of shape (dims, n_samples) of free-node ``values``, and ``|g|^2``."""
    g = mesh.grad(values)
    return g, np.einsum("ai,ai->i", g, g)


def _dirichlet(mesh: Mesh, s: np.ndarray, p: float) -> float:
    """``int |grad u|^p`` from the squared gradient ``s`` of u."""
    return mesh.integrate_samples(s ** (p / 2.0))


def _flux_coeff(s: np.ndarray, p: float, delta: float) -> np.ndarray:
    """Coefficient ``(s + delta^2)^((p-2)/2)`` with the removable zero guarded."""
    if p == 2.0:
        return np.ones_like(s)
    base = s + delta * delta
    with np.errstate(divide="ignore"):
        return np.where(base > 0.0, base ** ((p - 2.0) / 2.0), 0.0)


def _power_mass(values: np.ndarray, p: float) -> np.ndarray:
    """Pointwise derivative density ``|u|^(p-2) u``, zero at u = 0 for p > 1."""
    return np.sign(values) * np.abs(values) ** (p - 1.0)


def _dirichlet_gradient_rep(mesh: Mesh, g: np.ndarray, s: np.ndarray, p: float, delta: float) -> np.ndarray:
    """Plain-dot first variation on the free nodes of
    ``(1/p) int (|grad u|^2 + delta^2)^(p/2)``, from ``(g, s) = _grad_square(mesh, u)``."""
    return mesh.grad_adjoint(mesh.sample_weights * _flux_coeff(s, p, delta) * g)


def _q_v_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray, p: float,
                gs: tuple[np.ndarray, np.ndarray]) -> float:
    """Energy gap ``int |grad u|^p - int V |u|^p`` of free ``values`` with
    ``gs = _grad_square(mesh, values)``, ``v_vals`` the free values of V; the
    p-Dirichlet energy when V = 0, and p-homogeneous in u."""
    return _dirichlet(mesh, gs[1], p) - float(mesh.free_weights @ (v_vals * np.abs(values) ** p))


def _phi_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray,
                f: ForcingTerm, params: EnergyParams, gs: tuple[np.ndarray, np.ndarray]) -> float:
    """Regularized objective

    ``(1/p) int |grad u|^p - ((1-eps)/p) int V |u|^p + (eps/p) int |u|^p - <f, u>``

    of free ``values`` (``gs`` and ``v_vals`` as in :func:`_q_v_arrays`),
    with the gradient term smoothed to ``((|grad u|^2 + delta^2)^(p/2) -
    delta^p)`` so that it stays the exact antiderivative of
    :func:`_phi_gradient_arrays` and vanishes at u = 0.
    """
    p, eps, delta = params.p, params.eps, params.delta
    total = mesh.integrate_samples((gs[1] + delta * delta) ** (p / 2.0) - delta**p) / p
    mass = np.abs(values) ** p
    total -= (1.0 - eps) / p * float(mesh.free_weights @ (v_vals * mass))
    if eps != 0.0:
        total += eps / p * float(mesh.free_weights @ mass)
    return total - float(f.plain_rep() @ values)


def _phi_gradient_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray,
                         f: ForcingTerm, params: EnergyParams, gs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Plain-dot first variation r of :func:`_phi_arrays` on the free nodes:
    ``r . w = d/dt phi(u + t w)|_{t=0}`` exactly for every free-node w, so
    central differences of the objective reproduce it to second order.  At
    ``delta = 0`` and p = 2 it is the exact discrete residual of the linear
    equation; its quadrature norm is ``sqrt(r . (r / mesh.free_weights))``.
    """
    p, eps, delta = params.p, params.eps, params.delta
    mass_grad = _power_mass(values, p)
    density = -(1.0 - eps) * v_vals * mass_grad
    if eps != 0.0:
        density += eps * mass_grad
    return _dirichlet_gradient_rep(mesh, *gs, p, delta) + mesh.free_weights * density - f.plain_rep()


def truncate(s):
    """Clamp to [-1, 1]; odd and idempotent."""
    if np.isscalar(s):
        return float(min(1.0, max(-1.0, s)))
    return np.clip(np.asarray(s, dtype=float), -1.0, 1.0)


def _cauchy_arrays(mesh: Mesh, values_a: np.ndarray, values_b: np.ndarray,
                   gs_a: tuple[np.ndarray, np.ndarray], gs_b: tuple[np.ndarray, np.ndarray],
                   cutoff_vals: np.ndarray, p: float) -> float:
    """Localized monotonicity pairing of the p-gradient fluxes of free
    ``values_a`` and ``values_b``, with ``gs_a`` and ``gs_b`` their
    ``_grad_square`` and ``cutoff_vals`` a nodal cutoff.

    Integrates ``cutoff * (F(u_a) - F(u_b)) . grad T(u_a - u_b)`` with
    ``F(v) = |grad v|^(p-2) grad v``; nonnegative up to quadrature noise
    wherever the clamp is inactive, and vanishing along a converging solve.
    """
    (g_a, s_a), (g_b, s_b) = gs_a, gs_b
    flux = _flux_coeff(s_a, p, 0.0) * g_a - _flux_coeff(s_b, p, 0.0) * g_b
    g_t, _ = _grad_square(mesh, truncate(values_a - values_b))
    return mesh.integrate_samples(mesh.to_samples(cutoff_vals) * np.einsum("ai,ai->i", flux, g_t))


def _y_norm_arrays(mesh: Mesh, values: np.ndarray, w_vals: np.ndarray, w_free: np.ndarray, q: float,
                   gs: tuple[np.ndarray, np.ndarray]) -> float:
    """Weighted Sobolev norm ``(int (|grad u|^q + |u|^q) W)^(1/q)`` of free
    ``values`` with ``gs = _grad_square(mesh, values)``: W is the nodal field
    ``w_vals`` and ``w_free`` its free values (both 1.0 for the unweighted
    norm)."""
    total = mesh.integrate_samples(gs[1] ** (q / 2.0) * mesh.to_samples(w_vals))
    return (total + float(mesh.free_weights @ (np.abs(values) ** q * w_free))) ** (1.0 / q)


class BoxField:
    """A nodal field held as box-shaped ``values`` on a node box of its mesh,
    zero off the box and on its outer layer but at the mesh's edge; with its
    gradient on the box (:meth:`Mesh.box_grad`) its integrals over the box
    are those over the mesh.  A weight is a whole-mesh nodal field or None."""

    def __init__(self, mesh: Mesh, box: tuple[slice, ...], values: np.ndarray):
        g, self._sample_weights = mesh.box_grad(box, values)
        self._values = np.ravel(values)
        self._s = np.einsum("ai,ai->i", g, g)
        self._on_box = lambda field: 1.0 if field is None else field.reshape(mesh.shape)[box].ravel()
        self._node_weights = self._on_box(mesh.weights)

    def dirichlet(self, r: float, weight: np.ndarray | None = None) -> float:
        """``int |grad u|^r weight``."""
        return float(np.dot(self._s ** (r / 2.0) * self._on_box(weight), self._sample_weights))

    def mass(self, r: float, weight: np.ndarray | None = None) -> float:
        """``int |u|^r weight``."""
        return float(np.dot(np.abs(self._values) ** r * self._on_box(weight), self._node_weights))

