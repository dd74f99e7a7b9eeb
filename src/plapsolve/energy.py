"""Energy functionals and norms for the forced problem
``-div(|grad u|^(p-2) grad u) - V |u|^(p-2) u = f``.

Provides the forcing term as its pairing vector, the energy gap form
``q_v``, the regularized objective ``phi`` with its exact discrete first
variation, the truncation clamp, a Cauchy-type gradient diagnostic, and the
weighted Sobolev norm ``y_norm``.

All functionals integrate with the mesh quadrature; ``phi_gradient`` is the
quadrature-exact adjoint of the discrete energy, so central finite
differences of ``phi`` reproduce it to second order.  Every gradient in the
library comes from ``_grad_square`` and every flux goes back through
``_dirichlet_gradient_rep``; nothing else applies the mesh's difference
operator.
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
    ``<f, u> = r . values(u)`` for every boundary-vanishing u.

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
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def density(cls, mesh: Mesh, values: np.ndarray) -> "ForcingTerm":
        """Quadrature against ``values``; excluded nodes may carry anything."""
        dens = np.asarray(values, dtype=float).ravel()
        if dens.size != mesh.n_nodes:
            raise ValueError("density size does not match mesh")
        if not np.all(np.isfinite(dens[~mesh.excluded_mask])):
            raise ValueError("density must be finite at non-excluded nodes")
        w_act = mesh.weights * ~mesh.excluded_mask
        return cls(mesh, w_act * np.where(mesh.excluded_mask, 0.0, dens))

    @classmethod
    def manufactured(cls, mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> "ForcingTerm":
        return cls.density(mesh, fn(mesh.points))

    @classmethod
    def distributional_sum(cls, components: Sequence[tuple[DiscreteFunction, float]]) -> "ForcingTerm":
        if not components:
            raise ValueError("distributional_sum needs at least one component")
        mesh = components[0][0].mesh
        w_act = mesh.weights * ~mesh.excluded_mask
        rep = np.zeros(mesh.n_nodes)
        for u_n, lam in components:
            if u_n.mesh is not mesh:
                raise ValueError("all components must share one mesh")
            g, s = _grad_square(mesh, u_n.values)
            rep += _dirichlet_gradient_rep(mesh, g, s, 2.0, 0.0) - lam * w_act * u_n.values
        return cls(mesh, rep)

    def plain_rep(self) -> np.ndarray:
        """Vector r with ``<f, u> = r . values(u)`` for boundary-vanishing u."""
        return self._rep

    def pairing(self, u: DiscreteFunction) -> float:
        """Duality pairing ``<f, u>``; linear in u."""
        return float(self._rep @ u.values)

    def nodal_density(self) -> np.ndarray:
        """Nodal representation: pairing equals quadrature against it."""
        mesh = self.mesh
        out = self._rep / mesh.weights
        out[mesh.constrained_mask] = 0.0
        return out

    def __mul__(self, scalar: float) -> "ForcingTerm":
        return ForcingTerm(self.mesh, self._rep * float(scalar))

    __rmul__ = __mul__


def _grad_square(mesh: Mesh, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient ``g`` of shape (dims, n_nodes) and its pointwise square ``|g|^2``."""
    g = mesh.grad(values)
    return g, np.einsum("ai,ai->i", g, g)


def _flux_coeff(s: np.ndarray, p: float, delta: float) -> np.ndarray:
    """Coefficient ``(s + delta^2)^((p-2)/2)`` with the removable zero guarded."""
    base = s + delta * delta
    if p == 2.0:
        return np.ones_like(s)
    with np.errstate(divide="ignore"):
        coeff = np.where(base > 0.0, base ** ((p - 2.0) / 2.0), 0.0)
    return coeff


def _power_mass(values: np.ndarray, p: float) -> np.ndarray:
    """Pointwise derivative density ``|u|^(p-2) u``, zero at u = 0 for p > 1."""
    return np.sign(values) * np.abs(values) ** (p - 1.0)


def _dirichlet_gradient_rep(mesh: Mesh, g: np.ndarray, s: np.ndarray, p: float, delta: float) -> np.ndarray:
    """Plain-dot representation of the first variation of
    ``(1/p) int (|grad u|^2 + delta^2)^(p/2)``."""
    w_act = mesh.weights * ~mesh.excluded_mask
    return mesh.grad_adjoint(w_act * _flux_coeff(s, p, delta) * g)


def q_v(u: DiscreteFunction, V: Potential, params: EnergyParams) -> float:
    """Energy gap ``int |grad u|^p - int V |u|^p``; the p-Dirichlet energy
    when V = 0, and p-homogeneous in u."""
    v_vals = evaluate_potential(V, u.mesh)
    return _q_v_arrays(u.mesh, u.values, v_vals, params.p)


def _q_v_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray, p: float,
                gs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """:func:`q_v` on raw arrays; ``gs`` as in :func:`_phi_arrays`."""
    _, s = _grad_square(mesh, values) if gs is None else gs
    return integrate(s ** (p / 2.0), mesh) - integrate(v_vals * np.abs(values) ** p, mesh)


def phi(u: DiscreteFunction, V: Potential, f: ForcingTerm, params: EnergyParams) -> float:
    """Regularized objective

    ``(1/p) int |grad u|^p - ((1-eps)/p) int V |u|^p + (eps/p) int |u|^p - <f, u>``

    with the gradient term smoothed to ``((|grad u|^2 + delta^2)^(p/2) -
    delta^p)`` so that it stays the exact antiderivative of
    :func:`phi_gradient` and vanishes at u = 0.
    """
    mesh = u.mesh
    v_vals = evaluate_potential(V, mesh)
    return _phi_arrays(mesh, u.values, v_vals, f, params)


def _phi_arrays(mesh: Mesh, values: np.ndarray, v_vals: np.ndarray,
                f: ForcingTerm, params: EnergyParams,
                gs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """:func:`phi` on raw arrays; ``gs`` is ``_grad_square(mesh, values)`` when
    the caller already has it."""
    p, eps, delta = params.p, params.eps, params.delta
    _, s = _grad_square(mesh, values) if gs is None else gs
    smoothed = (s + delta * delta) ** (p / 2.0) - delta**p
    total = integrate(smoothed, mesh) / p
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
    mesh = u.mesh
    v_vals = evaluate_potential(V, mesh)
    nodal = _phi_gradient_arrays(mesh, u.values, v_vals, f, params)
    return DiscreteFunction(mesh, nodal)


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
    nodal[mesh.constrained_mask] = 0.0
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
    p = params.p
    g_a, s_a = _grad_square(mesh, u_a.values)
    g_b, s_b = _grad_square(mesh, u_b.values)
    flux = _flux_coeff(s_a, p, 0.0) * g_a - _flux_coeff(s_b, p, 0.0) * g_b
    g_t, _ = _grad_square(mesh, truncate(u_a.values - u_b.values))
    integrand = cutoff.values * np.einsum("ai,ai->i", flux, g_t)
    return integrate(integrand, mesh)


def y_norm(u: DiscreteFunction, W: Weight, params: EnergyParams) -> float:
    """Weighted Sobolev norm ``(int (|grad u|^q + |u|^q) W)^(1/q)``."""
    w_vals = evaluate_weight(W, u.mesh)
    return _y_norm_arrays(u.mesh, u.values, w_vals, params.q)


def _y_norm_arrays(mesh: Mesh, values: np.ndarray, w_vals: np.ndarray, q: float,
                   gs: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """:func:`y_norm` on raw arrays; ``gs`` as in :func:`_phi_arrays`."""
    _, s = _grad_square(mesh, values) if gs is None else gs
    total = integrate((s ** (q / 2.0) + np.abs(values) ** q) * w_vals, mesh)
    return total ** (1.0 / q)


def sobolev_norm(u: DiscreteFunction, p: float) -> float:
    """Unweighted norm ``(int |grad u|^p + int |u|^p)^(1/p)``."""
    mesh = u.mesh
    _, s = _grad_square(mesh, u.values)
    total = integrate(s ** (p / 2.0) + np.abs(u.values) ** p, mesh)
    return total ** (1.0 / p)
