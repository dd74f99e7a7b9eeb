"""Catalog of singular potentials and positive weights, with mesh evaluation
and the integrability side of condition (A).

Every Hardy-type potential is one family, ``((k-p)/p)**p |y|**-p`` with y the
first k coordinates, built on :func:`singular_weight`; evaluation requires a
mesh whose exclusion policy caps the singular set y = 0.  The exponent
constraints, the integrability-exponent case split and the grid integral of
``V**r`` live here; the sampled check of the weighted lower bound, which
calls them, is :func:`plapsolve.spectra.admissibility_report`.  This module
imports nothing from the package but :mod:`plapsolve.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Mesh, integrate

__all__ = [
    "Potential",
    "Weight",
    "hardy_constant",
    "sobolev_conjugate",
    "integrability_exponent",
    "alt_integrability_exponent",
    "singular_weight",
    "evaluate_potential",
    "evaluate_weight",
    "local_integrability",
]

_POTENTIAL_KINDS = ("zero", "hardy", "constant", "tabulated")
_WEIGHT_KINDS = ("constant", "cylinder_decay")


def hardy_constant(n_dims: int, p: float) -> float:
    """Critical Hardy constant ``((N-p)/p)**p`` for ``1 < p < N``."""
    if not p > 1:
        raise ValueError(f"hardy constant requires p > 1, got p={p}")
    if not p < n_dims:
        raise ValueError(f"hardy constant requires p < N, got p={p}, N={n_dims}")
    return float(((n_dims - p) / p) ** p)


def sobolev_conjugate(n_dims: int, q: float) -> float:
    """Sobolev conjugate exponent ``N q / (N - q)`` for ``q < N``."""
    if not q < n_dims:
        raise ValueError(f"sobolev conjugate needs q < N, got q={q}, N={n_dims}")
    return n_dims * q / (n_dims - q)


def integrability_exponent(n_dims: int, p: float, q: float) -> float:
    """Local integrability exponent for the potential, split on N vs q.

    ``r = 1`` when ``N < q``; any finite ``r > 1`` works when ``N = q`` (the
    midpoint convention ``r = 2`` is returned); when ``N > q`` the exponent
    solves ``1/r + (p-1)/q_star = 1``.
    """
    if n_dims < q:
        return 1.0
    if n_dims == q:
        return 2.0
    qs = sobolev_conjugate(n_dims, q)
    denom = 1.0 - (p - 1.0) / qs
    if denom <= 0:
        raise ValueError(f"no valid integrability exponent for p={p}, q={q}, N={n_dims}")
    return 1.0 / denom


def alt_integrability_exponent(p: float, q: float) -> float:
    """Alternative exponent ``q / (p (q - p + 1))`` from the variant condition
    ``1/r + (p-1)(p-q)/q = 1``."""
    denom = p * (q - p + 1.0)
    if denom <= 0:
        raise ValueError(f"alternative exponent undefined for p={p}, q={q}")
    return q / denom


@dataclass(frozen=True)
class Potential:
    """Symbolic description of a nonnegative potential.

    Use the factory classmethods.  The one singular kind, ``hardy``, is
    ``((k-p)/p)**p |y|**-p`` with y the first ``k_axes`` coordinates; it
    needs a mesh that excludes y = 0.  ``n_dims`` is the dimension it was
    built for, or 0 when it acts on any mesh with at least ``k_axes`` axes.
    """

    kind: str
    value: float = 0.0
    n_dims: int = 0
    p: float = 0.0
    k_axes: int = 0
    table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "Potential":
        return cls("zero")

    @classmethod
    def quadratic_hardy(cls, n_dims: int) -> "Potential":
        """``((N-2)/2)**2 |x|**-2``; needs N >= 3."""
        if n_dims < 3:
            raise ValueError(f"quadratic hardy potential requires N >= 3, got N={n_dims}")
        return cls.hardy(n_dims, 2.0)

    @classmethod
    def hardy(cls, n_dims: int, p: float) -> "Potential":
        """``((N-p)/p)**p |x|**-p`` over all N axes; needs 1 < p < N."""
        hardy_constant(n_dims, p)
        return cls("hardy", n_dims=n_dims, p=float(p), k_axes=n_dims)

    @classmethod
    def cylindrical_hardy(cls, k_axes: int, p: float) -> "Potential":
        """``((k-p)/p)**p |y|**-p`` acting on the first ``k_axes`` coordinates;
        needs k > p > 1."""
        if not p > 1:
            raise ValueError(f"cylindrical hardy requires p > 1, got p={p}")
        if not k_axes > p:
            raise ValueError(f"cylindrical hardy requires k > p, got k={k_axes}, p={p}")
        return cls("hardy", k_axes=int(k_axes), p=float(p))

    @classmethod
    def constant(cls, value: float) -> "Potential":
        if value < 0:
            raise ValueError(f"constant potential must be nonnegative, got {value}")
        return cls("constant", value=float(value))

    @classmethod
    def tabulated(cls, values: np.ndarray) -> "Potential":
        arr = np.asarray(values, dtype=float).ravel()
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("tabulated potential must be finite and nonnegative")
        return cls("tabulated", table=arr)


@dataclass(frozen=True)
class Weight:
    """Strictly positive weight for the weighted Sobolev norm.

    ``constant`` is a plain positive number; ``cylinder_decay`` realizes
    ``C / (1 + |z|**p)`` over the truncated axes of a strip.
    """

    kind: str
    value: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in _WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.value <= 0:
            raise ValueError(f"weight must be strictly positive, got {self.value}")

    @classmethod
    def constant(cls, value: float) -> "Weight":
        return cls("constant", value=float(value))

    @classmethod
    def cylinder_decay(cls, coefficient: float, p: float) -> "Weight":
        return cls("cylinder_decay", value=float(coefficient), p=float(p))


def singular_weight(mesh: Mesh, axes, p: float) -> np.ndarray:
    """``|y|**-p`` with y the coordinates on ``axes``, at the non-excluded
    nodes; excluded nodes carry 0.  Raises if a non-excluded node sits on
    the singular set y = 0."""
    dist = np.linalg.norm(mesh.points[:, list(axes)], axis=1)
    active = ~mesh.excluded_mask
    if np.any(dist[active] == 0.0):
        raise ValueError(
            "a non-excluded node lies on the singular set; "
            "rebuild the mesh with a singular cap over the potential's axes"
        )
    weight = np.zeros(mesh.n_nodes)
    weight[active] = dist[active] ** (-p)
    return weight


def evaluate_potential(V: Potential, mesh: Mesh) -> np.ndarray:
    """Evaluate a potential at the mesh nodes.

    Excluded nodes carry 0 and never enter integrals.  Raises if a
    non-excluded node sits on the singular set.
    """
    n = mesh.n_nodes
    if V.kind == "zero":
        return np.zeros(n)
    if V.kind == "constant":
        vals = np.full(n, V.value)
        vals[mesh.excluded_mask] = 0.0
        return vals
    if V.kind == "tabulated":
        if V.table is None or V.table.size != n:
            raise ValueError(f"tabulated potential has {0 if V.table is None else V.table.size} entries, mesh has {n}")
        vals = V.table.copy()
        vals[mesh.excluded_mask] = 0.0
        return vals
    dims = mesh.domain.dims
    if V.n_dims and V.n_dims != dims:
        raise ValueError(f"hardy potential built for N={V.n_dims}, mesh has N={dims}")
    if V.k_axes > dims:
        raise ValueError(f"hardy potential acts on {V.k_axes} axes, mesh has {dims}")
    return hardy_constant(V.k_axes, V.p) * singular_weight(mesh, range(V.k_axes), V.p)


def evaluate_weight(W: Weight, mesh: Mesh) -> np.ndarray:
    """Evaluate a weight at the mesh nodes; strictly positive everywhere."""
    if W.kind == "constant":
        return np.full(mesh.n_nodes, W.value)
    z_axes = sorted(mesh.domain.unbounded_axes)
    if not z_axes:
        raise ValueError("cylinder_decay weight needs a strip domain with truncated axes")
    z = np.linalg.norm(mesh.points[:, z_axes], axis=1)
    return W.value / (1.0 + z ** W.p)


def validate_exponents(p: float, q: float) -> None:
    """Check the standing exponent constraints 1 < p, p - 1 < q <= p, 1 < q."""
    if not p > 1:
        raise ValueError(f"p must exceed 1, got p={p}")
    if not q > 1:
        raise ValueError(f"q must exceed 1, got q={q}")
    if not q <= p:
        raise ValueError(f"q must not exceed p, got q={q}, p={p}")
    if not p - 1 < q:
        raise ValueError(f"q must exceed p - 1, got q={q}, p={p}")


def local_integrability(v_vals: np.ndarray, mesh: Mesh, p: float, q: float) -> tuple[float, float, float]:
    """The integrability side of condition (A) for the potential with nodal
    values ``v_vals``: after :func:`validate_exponents`, the exponents ``r``
    of the (p, q, N) case split and ``r_alt`` of the variant condition, and
    the grid integral of ``V**r`` over the capped mesh, a finite-grid proxy
    for local integrability."""
    validate_exponents(p, q)
    r = integrability_exponent(mesh.domain.dims, p, q)
    return r, alt_integrability_exponent(p, q), integrate(v_vals ** r, mesh)
