"""Catalog of singular potentials and positive weights, with mesh evaluation
and a sampling-based admissibility report for the energy lower bound.

Every Hardy-type potential is one family, ``((k-p)/p)**p |y|**-p`` with y the
first k coordinates, built on :func:`singular_weight`; evaluation requires a
mesh whose exclusion policy caps the singular set y = 0.  The admissibility
report combines the exact integrability-exponent case split with a
falsification check of the weighted Sobolev lower bound on sampled bump
functions; it can refute a configuration but never prove one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Mesh, integrate

__all__ = [
    "Potential",
    "Weight",
    "AdmissibilityReport",
    "hardy_constant",
    "sobolev_conjugate",
    "integrability_exponent",
    "alt_integrability_exponent",
    "singular_weight",
    "evaluate_potential",
    "evaluate_weight",
    "admissibility_report",
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


@dataclass
class AdmissibilityReport:
    """Outcome of the admissibility falsification check.

    ``r`` and ``r_alt`` are the exact integrability exponents for the two
    admissible-potential routes; ``sampled_margin`` is the minimum over the
    sampled test functions of ``q_v(u) - y_norm(u)**p``; a negative value
    lists the offending samples in ``violations``.  Sampling can refute the
    configuration, not certify it.
    """

    p: float
    q: float
    n_dims: int
    r: float
    r_alt: float | None
    local_integrability_proxy: float
    sampled_margin: float
    violations: list[str]
    sample_count: int

    @property
    def passed(self) -> bool:
        return not self.violations


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


def admissibility_report(
    V: Potential,
    mesh: Mesh,
    p: float,
    q: float,
    W: Weight,
    samples: int = 64,
    seed: int = 0,
) -> AdmissibilityReport:
    """Falsification check of the weighted lower bound for the energy form.

    Computes the integrability exponents from the (p, q, N) case split,
    integrates ``V**r`` over the capped mesh as a finite-grid proxy for local
    integrability, and evaluates the margin ``q_v(u) - y_norm(u)**p`` on
    ``samples`` pseudo-random interior bumps plus the current Rayleigh
    minimizer.  Deterministic in ``seed``.
    """
    from . import energy as _energy
    from . import spectra as _spectra
    from .sampling import bump_family

    validate_exponents(p, q)
    n_dims = mesh.domain.dims
    r = integrability_exponent(n_dims, p, q)
    try:
        r_alt = alt_integrability_exponent(p, q)
    except ValueError:
        r_alt = None

    v_vals = evaluate_potential(V, mesh)
    w_vals = evaluate_weight(W, mesh)
    proxy = integrate(v_vals ** r, mesh)

    params = _energy.EnergyParams(p=p, q=q)
    # the eigensolve runs before the bumps exist, so their memory and its
    # working set are not held at once
    eig = _spectra.rayleigh_min(mesh, p, tol=1e-7, max_iter=400, seed=seed)
    candidates = list(bump_family(mesh, samples, seed))
    candidates.append(eig.minimizer)

    worst = np.inf
    violations: list[str] = []
    for i, u in enumerate(candidates):
        gs = _energy._grad_square(mesh, u.values)
        qv = _energy._q_v_arrays(mesh, u.values, v_vals, params.p, gs)
        yp = _energy._y_norm_arrays(mesh, u.values, w_vals, params.q, gs) ** p
        margin = qv - yp
        if margin < worst:
            worst = margin
        if margin < 0:
            tag = "rayleigh_minimizer" if i == len(candidates) - 1 else f"bump_{i}"
            violations.append(f"{tag}: q_v={qv:.6g} < y_norm^p={yp:.6g}")
    return AdmissibilityReport(
        p=p,
        q=q,
        n_dims=n_dims,
        r=r,
        r_alt=r_alt,
        local_integrability_proxy=proxy,
        sampled_margin=float(worst),
        violations=violations,
        sample_count=len(candidates),
    )
