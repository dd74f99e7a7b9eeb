"""Energy functionals and norms for the forced problem
``-div(|grad u|^(p-2) grad u) - V |u|^(p-2) u = f``.

Provides the forcing term as its pairing vector, the energy gap form
``q_v``, the regularized objective ``phi`` with its exact discrete first
variation, the truncation clamp, a Cauchy-type gradient diagnostic, and the
weighted Sobolev norm ``y_norm``.

Gradient terms integrate with the mesh's gradient quadrature
(``Mesh.integrate_samples`` over ``Mesh.sample_weights``, nodal weights and
cutoffs mapped by ``Mesh.to_samples``), mass terms with the nodal rule of
``integrate``.  ``phi_gradient`` is the quadrature-exact adjoint of the
discrete energy, so central finite differences of ``phi`` reproduce it to
second order.  Whole-mesh gradients come from ``_grad_square``, box ones
from ``BoxField``, and fluxes go back through ``_dirichlet_gradient_rep``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# armijo_backtrack is unused here; the benchmark's tracer wraps the name
# ``energy.armijo_backtrack`` (bench/spans.py), which must resolve
from ._descent import IndefiniteEnergyError, armijo_backtrack  # noqa: F401
from .grid import DiscreteFunction, Mesh, integrate
from .potentials import Potential, Weight, evaluate_potential, evaluate_weight, validate_exponents

__all__ = [
    "EnergyParams",
    "ForcingTerm",
    "IndefiniteEnergyError",
    "q_v",
    "phi",
    "phi_gradient",
    "truncate",
    "cauchy_diagnostic",
    "y_norm",
    "sobolev_norm",
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
    """Right-hand side of the forced problem, held as its pairing vector r:
    ``<f, u> = r . values(u)`` for every boundary-vanishing u.  Like a
    ``DiscreteFunction``, r is projected onto the free nodes when constructed.

    ``density`` pairs a nodal density by quadrature, ``manufactured`` samples
    a callable into one, and ``distributional_sum`` pairs a list of (source
    function, multiplier) components by integration by parts: each component
    contributes ``int grad(u_n) . grad(u) - lam int u_n u``.
    """

    def __init__(self, mesh: Mesh, rep: np.ndarray):
        self.mesh = mesh
        self._rep = np.where(mesh.free_mask, rep, 0.0)

    @classmethod
    def zero(cls, mesh: Mesh) -> "ForcingTerm":
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def density(cls, mesh: Mesh, values: np.ndarray) -> "ForcingTerm":
        """Quadrature against ``values``; excluded nodes may carry anything."""
        dens = np.asarray(values, dtype=float).ravel()
        if dens.size != mesh.n_nodes:
            raise ValueError("density size does not match mesh")
        if not np.all(np.isfinite(dens[~mesh.excluded_mask])):
            raise ValueError("density must be finite at non-excluded nodes")
        return cls(mesh, mesh.weights * np.where(mesh.excluded_mask, 0.0, dens))

    @classmethod
    def manufactured(cls, mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> "ForcingTerm":
        return cls.density(mesh, fn(mesh.points))

    @classmethod
    def distributional_sum(cls, components: Sequence[tuple[DiscreteFunction, float]]) -> "ForcingTerm":
        if not components:
            raise ValueError("distributional_sum needs at least one component")
        mesh = components[0][0].mesh
        rep = np.zeros(mesh.n_nodes)
        for u_n, lam in components:
            if u_n.mesh is not mesh:
                raise ValueError("all components must share one mesh")
            g, s = _grad_square(mesh, u_n.values)
            rep += _dirichlet_gradient_rep(mesh, g, s, 2.0, 0.0) - lam * mesh.weights * u_n.values
        return cls(mesh, rep)

    def plain_rep(self) -> np.ndarray:
        """Vector r with ``<f, u> = r . values(u)`` for boundary-vanishing u."""
        return self._rep

    def pairing(self, u: DiscreteFunction) -> float:
        """Duality pairing ``<f, u>``; linear in u."""
        return float(self._rep @ u.values)

    def nodal_density(self) -> np.ndarray:
        """Nodal representation: pairing equals quadrature against it."""
        return self._rep / self.mesh.weights

    def __mul__(self, scalar: float) -> "ForcingTerm":
        return ForcingTerm(self.mesh, self._rep * float(scalar))

    __rmul__ = __mul__


def _grad_square(mesh: Mesh, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient ``g`` of shape (dims, n_samples) of nodal ``values`` read on the free nodes, and ``|g|^2``."""
    g = mesh.grad(values[mesh.free_mask])
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
    """Plain-dot representation of the first variation of
    ``(1/p) int (|grad u|^2 + delta^2)^(p/2)``, zero off the free nodes."""
    rep = np.zeros(mesh.n_nodes)
    rep[mesh.free_mask] = mesh.grad_adjoint(mesh.sample_weights * _flux_coeff(s, p, delta) * g)
    return rep


def q_v(u: DiscreteFunction, V: Potential, params: EnergyParams) -> float:
    """Energy gap ``int |grad u|^p - int V |u|^p``; the p-Dirichlet energy
    when V = 0, and p-homogeneous in u."""
    return _q_v_arrays(u.mesh, u.values, evaluate_potential(V, u.mesh), params.p)


def _q_v_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray, p: float,
                gs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """:func:`q_v` on raw arrays; ``gs`` as in :func:`_phi_arrays`."""
    _, s = _grad_square(mesh, values) if gs is None else gs
    return _dirichlet(mesh, s, p) - integrate(v_vals * np.abs(values) ** p, mesh)


def phi(u: DiscreteFunction, V: Potential, f: ForcingTerm, params: EnergyParams) -> float:
    """Regularized objective

    ``(1/p) int |grad u|^p - ((1-eps)/p) int V |u|^p + (eps/p) int |u|^p - <f, u>``

    with the gradient term smoothed to ``((|grad u|^2 + delta^2)^(p/2) -
    delta^p)`` so that it stays the exact antiderivative of
    :func:`phi_gradient` and vanishes at u = 0.
    """
    return _phi_arrays(u.mesh, u.values, evaluate_potential(V, u.mesh), f, params)


def _phi_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray,
                f: ForcingTerm, params: EnergyParams,
                gs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """:func:`phi` on raw arrays; ``gs`` is ``_grad_square(mesh, values)`` when
    the caller already has it."""
    p, eps, delta = params.p, params.eps, params.delta
    _, s = _grad_square(mesh, values) if gs is None else gs
    total = mesh.integrate_samples((s + delta * delta) ** (p / 2.0) - delta**p) / p
    mass = np.abs(values) ** p
    total -= (1.0 - eps) / p * integrate(v_vals * mass, mesh)
    if eps != 0.0:
        total += eps / p * integrate(mass, mesh)
    return total - float(f.plain_rep() @ values)


def phi_gradient(u: DiscreteFunction, V: Potential, f: ForcingTerm, params: EnergyParams) -> DiscreteFunction:
    """Nodal first variation of :func:`phi`.

    At ``delta = 0`` and p = 2 this is the exact discrete residual of the
    linear equation; in general it satisfies
    ``<phi_gradient(u), w> = d/dt phi(u + t w)|_{t=0}`` exactly in the mesh
    quadrature pairing, for every w vanishing on constrained nodes.
    """
    nodal = _phi_gradient_arrays(u.mesh, u.values, evaluate_potential(V, u.mesh), f, params)
    return DiscreteFunction(u.mesh, nodal)


def _phi_gradient_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray,
                         f: ForcingTerm, params: EnergyParams,
                         gs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """:func:`phi_gradient` on raw arrays; ``gs`` as in :func:`_phi_arrays`."""
    p, eps, delta = params.p, params.eps, params.delta
    g, s = _grad_square(mesh, values) if gs is None else gs
    nodal = _dirichlet_gradient_rep(mesh, g, s, p, delta) / mesh.weights
    mass_grad = _power_mass(values, p)
    nodal -= (1.0 - eps) * v_vals * mass_grad
    if eps != 0.0:
        nodal += eps * mass_grad
    nodal -= f.nodal_density()
    return nodal


def truncate(s):
    """Clamp to [-1, 1]; odd and idempotent."""
    if np.isscalar(s):
        return float(min(1.0, max(-1.0, s)))
    return np.clip(np.asarray(s, dtype=float), -1.0, 1.0)


def cauchy_diagnostic(u_a: DiscreteFunction, u_b: DiscreteFunction,
                      cutoff: DiscreteFunction, params: EnergyParams) -> float:
    """Localized monotonicity pairing of the p-gradient fluxes.

    Integrates ``cutoff * (F(u_a) - F(u_b)) . grad T(u_a - u_b)`` with
    ``F(v) = |grad v|^(p-2) grad v``; nonnegative up to quadrature noise
    wherever the clamp is inactive, and vanishing along a converging solve.
    """
    mesh = u_a.mesh
    if u_b.mesh is not mesh or cutoff.mesh is not mesh:
        raise ValueError("all fields must share one mesh")
    return _cauchy_arrays(mesh, u_a.values, u_b.values, _grad_square(mesh, u_a.values),
                          _grad_square(mesh, u_b.values), cutoff.values, params.p)


def _cauchy_arrays(mesh: Mesh, values_a: np.ndarray, values_b: np.ndarray,
                   gs_a: tuple[np.ndarray, np.ndarray], gs_b: tuple[np.ndarray, np.ndarray],
                   cutoff_vals: np.ndarray, p: float) -> float:
    """:func:`cauchy_diagnostic` on raw arrays, with ``gs_a`` and ``gs_b`` the
    ``_grad_square`` of ``values_a`` and ``values_b``."""
    (g_a, s_a), (g_b, s_b) = gs_a, gs_b
    flux = _flux_coeff(s_a, p, 0.0) * g_a - _flux_coeff(s_b, p, 0.0) * g_b
    g_t, _ = _grad_square(mesh, truncate(values_a - values_b))
    return mesh.integrate_samples(mesh.to_samples(cutoff_vals) * np.einsum("ai,ai->i", flux, g_t))


def y_norm(u: DiscreteFunction, W: Weight, params: EnergyParams) -> float:
    """Weighted Sobolev norm ``(int (|grad u|^q + |u|^q) W)^(1/q)``."""
    return _y_norm_arrays(u.mesh, u.values, evaluate_weight(W, u.mesh), params.q)


def _y_norm_arrays(mesh: Mesh, values: np.ndarray, w_vals: np.ndarray, q: float,
                   gs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """:func:`y_norm` on raw arrays (``w_vals`` may be 1.0); ``gs`` as in :func:`_phi_arrays`."""
    _, s = _grad_square(mesh, values) if gs is None else gs
    total = mesh.integrate_samples(s ** (q / 2.0) * mesh.to_samples(w_vals))
    return (total + integrate(np.abs(values) ** q * w_vals, mesh)) ** (1.0 / q)


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


def sobolev_norm(u: DiscreteFunction, p: float) -> float:
    """Unweighted norm ``(int |grad u|^p + int |u|^p)^(1/p)``."""
    return _y_norm_arrays(u.mesh, u.values, 1.0, p)
