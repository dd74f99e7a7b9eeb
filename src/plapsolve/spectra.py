"""First-eigenvalue estimation and numerical certification of the inequality
suite: vector monotonicity of the p-gradient flux, scalar power-mean bounds,
the Hardy inequality with its critical constant, the product-domain
eigenvalue identity, the Poincare inequality with a singular remainder term,
the divergent-gradient forcing construction on a strip, and the admissibility
gate for condition (A), the weighted lower bound of the energy form.

Certification is falsification-based: sampling plus adversarial quotient
minimization can refute an inequality on the grid but cannot prove it on the
continuum, and the record verdicts carry exactly that meaning.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._descent import METRIC_RTOL, Preconditioner, armijo_backtrack, lagged_coefficient
from .energy import BoxField, _dirichlet, _dirichlet_gradient_rep, _grad_square, _power_mass
from .grid import DiscreteFunction, Mesh, build_mesh, integrate, strip
from .potentials import (Potential, Weight, evaluate_potential, evaluate_weight, hardy_constant,
                         local_integrability, singular_weight)
from .sampling import bump_family, plateau_profile

__all__ = [
    "EigenResult",
    "CertificationRecord",
    "AdmissibilityReport",
    "BlowupRow",
    "BlowupResult",
    "rayleigh_min",
    "section_eigenvalue",
    "cylinder_eigen_check",
    "poincare_remainder_check",
    "monotonicity_constant_check",
    "power_mean_check",
    "hardy_check",
    "blowup_demo",
    "admissibility_report",
]


@dataclass
class EigenResult:
    """Rayleigh-quotient upper bound of the first Dirichlet eigenvalue.

    ``value`` equals the p-Dirichlet energy of ``minimizer``, which is
    normalized to unit (weighted) p-mass.  ``method`` is ``"lobpcg"`` when
    the value is the exact discrete eigenvalue (p = 2) and ``"descent"``
    when it is an estimate.  ``iterations`` counts every step behind the
    value: at p != 2 the p = 2 solve that gives the descent its start as well.
    """

    value: float
    minimizer: DiscreteFunction
    iterations: int
    residual: float
    method: str


@dataclass
class CertificationRecord:
    """Result of one falsification check.

    ``worst_margin`` is the minimum over samples of (left side - right side),
    normalized by the left-side scale when ``details['normalized']`` is set.
    The verdict is ``violation`` exactly when ``worst_margin < -tolerance``.
    :meth:`from_margins` refuses an empty sample set, which certifies nothing.
    """

    inequality_id: str
    sample_count: int
    worst_margin: float
    worst_sample: str
    verdict: str
    tolerance: float
    details: dict = field(default_factory=dict)

    @classmethod
    def from_margins(cls, inequality_id, margins, describe, tolerance, details=None):
        """The record of ``margins``; ``describe(i)`` names sample ``i`` and
        is called for the worst sample only."""
        margins = np.asarray(margins, dtype=float)
        if not margins.size:
            raise ValueError(f"{inequality_id}: no samples, so nothing is certified")
        i = int(np.argmin(margins))
        worst = float(margins[i])
        return cls(
            inequality_id=inequality_id,
            sample_count=int(margins.size),
            worst_margin=worst,
            worst_sample=describe(i),
            verdict="violation" if worst < -tolerance else "no_violation",
            tolerance=tolerance,
            details=details or {},
        )


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
    r_alt: float
    local_integrability_proxy: float
    sampled_margin: float
    violations: list[str]
    sample_count: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _method(p: float) -> str:
    """How the eigenvalues at exponent p are computed: ``"lobpcg"`` is the
    exact discrete value, ``"descent"`` an upper estimate."""
    return "lobpcg" if p == 2.0 else "descent"


def _lobpcg(mesh: Mesh, start: np.ndarray, mass_weight: np.ndarray | float, tol: float,
            max_iter: int) -> tuple[float, np.ndarray, int, float]:
    """:func:`_quotient_descent` at p = 2: the smallest eigenpair of the
    free-node pencil ``K x = lam M x`` (``K`` the :meth:`Mesh.energy_stiffness`,
    ``M`` the diagonal ``free_weights * mass_weight``) by block-size-1 LOBPCG
    (Knyazev, SIAM J. Sci. Comput. 23, 2001).  Each step preconditions the
    residual ``r = K x - lam M x``, orthonormalizes it and the last direction
    against the basis in the ``M`` inner product, twice, dropping nearly
    dependent vectors (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006), and
    takes the smallest Ritz pair; ``K x`` follows from the same combination.
    The residual ``2 sqrt(sum r^2 / free_weights)`` is the quadrature norm of
    the quotient's first variation, so ``tol`` means what it means at p != 2.
    """
    pre = Preconditioner(mesh, rtol=METRIC_RTOL)
    K = mesh.energy_stiffness()
    weights = mesh.free_weights
    mass = weights * mass_weight
    x = start / np.sqrt(start @ (mass * start))
    Kx = K @ x
    lam = float(x @ Kx)
    direction = None
    iterations, res = 0, np.inf
    for iterations in range(1, max_iter + 1):
        r = Kx - lam * mass * x
        res = 2.0 * np.sqrt(float(r @ (r / weights)))
        if res <= tol * max(1.0, abs(lam)):
            break
        basis, K_basis = [x], [Kx]
        for v in (pre.apply(r), direction):
            if v is None:
                continue
            size = np.sqrt(v @ (mass * v))
            for _ in range(2):
                for b in basis:
                    v = v - (b @ (mass * v)) * b
            norm = np.sqrt(v @ (mass * v))
            if norm > 1e-10 * size:
                basis.append(v / norm)
                # one vector at a time: an (n, 3) block raises the peak RSS on large meshes
                K_basis.append(K @ basis[-1])
        A = np.array([[b @ kb for kb in K_basis] for b in basis])
        _, vecs = np.linalg.eigh(0.5 * (A + A.T))
        c = vecs[:, 0] if vecs[0, 0] >= 0.0 else -vecs[:, 0]
        direction = sum((ci * b for ci, b in zip(c[1:], basis[1:])), np.zeros_like(x))
        x = c[0] * x + direction
        Kx = c[0] * Kx + sum((ci * kb for ci, kb in zip(c[1:], K_basis[1:])), np.zeros_like(x))
        m = float(x @ (mass * x))
        x, Kx = x / np.sqrt(m), Kx / np.sqrt(m)
        lam = float(x @ Kx)
    return lam, x, iterations, res


def _seeded_start(mesh: Mesh, seed: int) -> np.ndarray:
    """First-mode tensor profile with a seeded low-order modulation, so
    different seeds explore different basins without needing a fine mesh."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in mesh.domain.bounds])
    hi = np.array([b[1] for b in mesh.domain.bounds])
    t = (mesh.points - lo) / (hi - lo)
    u = np.prod(np.sin(np.pi * t), axis=1)
    lin = rng.uniform(-0.5, 0.5, mesh.domain.dims)
    quad = rng.uniform(-0.5, 0.5, mesh.domain.dims)
    return u * (1.0 + (2.0 * t - 1.0) @ lin + ((2.0 * t - 1.0) ** 2) @ quad)


def _quotient_descent(
    mesh: Mesh,
    p: float,
    start: np.ndarray,
    mass_weight: np.ndarray | float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 800,
    stall_window: int = 25,
    stall_factor: float = 0.5,
) -> tuple[float, np.ndarray, int, float]:
    """Minimize ``int |grad u|^p / int w |u|^p`` from the free values
    ``start``, with ``w`` the free values ``mass_weight``.

    At p = 2 the quotient is a generalized Rayleigh quotient, and
    :func:`_lobpcg` returns the exact smallest discrete eigenvalue up to
    ``tol``.  Otherwise it runs a projected descent that renormalizes the
    weighted p-mass to one after every accepted step; the quotient never
    increases.  It stops on the same residual of the quotient's first
    variation, on the stall rule (the residual above ``stall_factor`` times
    its value ``stall_window`` steps earlier) or on a failed line search.
    Returns (value, free values of unit mass, iterations, residual).
    """
    if p == 2.0:
        return _lobpcg(mesh, start, mass_weight, tol, max_iter)
    # the loop builds the lagged preconditioner at k = 0
    pre_refresh = 12
    weights = mesh.free_weights

    def masses(values):
        return float(weights @ (mass_weight * np.abs(values) ** p))

    def quotient_of(values, s):
        m = masses(values)
        return _dirichlet(mesh, s, p) / m if m > 1e-300 else np.inf

    accepted = None  # (g, s) of the last point the line search evaluated

    def quotient(values):
        nonlocal accepted
        accepted = _grad_square(mesh, values)
        return quotient_of(values, accepted[1])

    u = start / masses(start) ** (1.0 / p)
    g, s = _grad_square(mesh, u)
    lam = _dirichlet(mesh, s, p)  # the p-mass is one here
    step = 1.0
    iterations = 0
    res = np.inf
    res_window: list[float] = []
    for k in range(max_iter):
        iterations = k + 1
        # the plain-dot first variation of the quotient at unit mass
        r = p * (_dirichlet_gradient_rep(mesh, g, s, p, 0.0) - lam * weights * mass_weight * _power_mass(u, p))
        res = np.sqrt(r @ (r / weights))
        if res <= tol * max(1.0, abs(lam)):
            break
        res_window.append(res)
        if len(res_window) > stall_window and res > stall_factor * res_window[-stall_window - 1]:
            break
        if k % pre_refresh == 0:
            pre = Preconditioner(mesh, rtol=METRIC_RTOL, coeff=lagged_coefficient(s, p))
        # the energy gradient carries a factor p; removing it makes a unit
        # step the natural preconditioned-inverse-iteration step
        d = -pre.apply(r) / p
        slope = float(r @ d)
        taken, u_new, lam_new = armijo_backtrack(quotient, u, d, lam, slope, init_step=step)
        if taken is None:
            break
        step = min(max(taken * 2.0, 1e-10), 1.0)
        # the search returns on the point it accepts; rescaling only scales its gradient
        c = masses(u_new) ** (1.0 / p)
        u = u_new / c
        g, s = accepted[0] / c, accepted[1] / c**2
        lam = quotient_of(u, s)
    return lam, u, iterations, res


def rayleigh_min(
    mesh: Mesh,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 800,
    seed: int = 0,
    stall_window: int = 25,
    stall_factor: float = 0.5,
    mass_weight: np.ndarray | None = None,
) -> EigenResult:
    """Upper bound of the first Dirichlet p-Laplacian eigenvalue
    ``inf { int |grad u|^p : int w |u|^p = 1 }`` (``w`` the ``mass_weight``,
    one when None): the exact discrete value at p = 2 (LOBPCG), a
    projected-descent estimate otherwise.

    At p = 2 one solve from the :func:`_seeded_start` of ``seed`` is exact to
    ``tol``.  Otherwise that exact p = 2 minimizer, the positive ground state,
    is the one start of the descent at p: it lies in the cone of the simple,
    positive first p-eigenfunction (Lindqvist, Proc. AMS 109, 1990).
    """
    free = mesh.free_mask
    if not np.any(free):
        raise ValueError("mesh has no interior nodes")
    u = _seeded_start(mesh, seed)[free]
    w = 1.0 if mass_weight is None else mass_weight[free]
    start_iterations = 0
    if p != 2.0:
        _, u, start_iterations, _ = _quotient_descent(mesh, 2.0, u, w, tol, max_iter)
    lam, u, iterations, res = _quotient_descent(
        mesh, p, u, w, tol, max_iter, stall_window=stall_window, stall_factor=stall_factor,
    )
    return EigenResult(
        value=float(lam),
        minimizer=DiscreteFunction.from_free(mesh, u),
        iterations=start_iterations + iterations,
        residual=float(res),
        method=_method(p),
    )


def section_eigenvalue(omega_mesh: Mesh, p: float, seed: int) -> EigenResult:
    """``rayleigh_min`` on a strip's cross section, pushed further than the
    strip runs (tolerance 1e-10, 3000 steps, a 120-step stall window at
    factor 0.95): the cross-section value anchors every strip margin, so its
    accuracy is not the caller's to choose and its upward bias must not flip
    a comparison."""
    return rayleigh_min(
        omega_mesh, p, tol=1e-10, max_iter=3000, seed=seed,
        stall_window=120, stall_factor=0.95,
    )


def _strip_mesh(omega_mesh: Mesh, m_axes: int, length: float, z_nodes_per_unit: float,
                cap_cells: float = 0.0) -> Mesh:
    """The cross section times ``m_axes`` axes truncated at ``+-length``, each
    with ``max(round(2 length z_nodes_per_unit) + 1, 9)`` nodes.  A positive
    ``cap_cells`` excludes the nodes within that many z spacings of the
    z origin, measured over the z axes."""
    n_z = max(int(round(2 * length * z_nodes_per_unit)) + 1, 9)
    n_omega = omega_mesh.domain.dims
    cap = {}
    if cap_cells > 0:
        h_z = 2.0 * length / (n_z - 1)
        cap = {"singular_cap_radius": cap_cells * h_z, "singular_axes": range(n_omega, n_omega + m_axes)}
    dom = strip(omega_mesh.domain.bounds, m_axes, length)
    return build_mesh(dom, omega_mesh.shape + (n_z,) * m_axes, **cap)


def _tensor_field(omega_mesh: Mesh, v_vals: np.ndarray, z_profiles) -> np.ndarray:
    """v(y) * w_0(z_0) * w_1(z_1) * ... on the strip over ``omega_mesh``, in
    the product order of :func:`~plapsolve.sampling.tensor_bump`."""
    return functools.reduce(np.multiply.outer, z_profiles, v_vals.reshape(omega_mesh.shape)).ravel()


def cylinder_eigen_check(
    omega_mesh: Mesh,
    m_axes: int,
    lengths,
    p: float,
    tol: float = 1e-6,
    z_nodes_per_unit: float = 8.0,
    eigen_tol: float = 1e-7,
    seed: int = 0,
    max_iter: int = 800,
) -> CertificationRecord:
    """Check that the first eigenvalue of cross-section times truncated
    unbounded axes stays above the cross-section eigenvalue and decreases
    toward it as the truncation grows.

    The cross-section value is :func:`section_eigenvalue` from ``seed``, with
    its own tolerance and 3000-step rule, so ``eigen_tol`` reaches only the
    strips.  Each strip value is
    one :func:`_quotient_descent`, capped at ``max_iter``, from the product
    candidate: the cross-section minimizer times a plateau of half-width L/2,
    whose quotient is an explicit upper bound that approaches the
    cross-section value at rate ``L**-p``.  So ``seed`` reaches only the
    cross section.  The descent never rises above its start, so the candidate
    quotients are no margin; they are in ``details['tensor_quotients']`` and
    the strip residuals in ``details['strip_residuals']``.
    """
    if m_axes < 1:
        raise ValueError("need at least one unbounded axis")
    lengths = list(lengths)
    if any(b >= a for a, b in zip(lengths[1:], lengths)):
        raise ValueError("truncation lengths must be increasing")

    omega_eig = section_eigenvalue(omega_mesh, p, seed)
    lam_omega = omega_eig.value

    margins = []
    descriptors = []
    strip_values = {}
    tensor_quotients = {}
    strip_residuals = {}
    prev = None
    for L in lengths:
        mesh_L = _strip_mesh(omega_mesh, m_axes, L, z_nodes_per_unit)
        profs = [plateau_profile(z, 0.5 * L, 0.5 * L) for z in mesh_L.axes[omega_mesh.domain.dims:]]
        cand = _tensor_field(omega_mesh, omega_eig.minimizer.values, profs)
        start = cand[mesh_L.free_mask]
        dirich = _dirichlet(mesh_L, _grad_square(mesh_L, start)[1], p)
        tensor_quotients[L] = dirich / integrate(np.abs(cand) ** p, mesh_L)

        lam_L, _, _, res = _quotient_descent(mesh_L, p, start, tol=eigen_tol, max_iter=max_iter)
        lam_L = strip_values[L] = float(lam_L)
        strip_residuals[L] = float(res)
        margins.append(lam_L - lam_omega)
        descriptors.append(f"strip_above_section L={L}")
        if prev is not None:
            margins.append(prev - lam_L)
            descriptors.append(f"monotone_decrease L={L}")
        prev = lam_L

    excess = {L: tensor_quotients[L] / lam_omega - 1.0 for L in lengths}
    return CertificationRecord.from_margins(
        "cylinder_first_eigenvalue",
        margins,
        descriptors.__getitem__,
        tol,
        details={
            "p": p,
            "method": _method(p),
            "lambda_omega": lam_omega,
            "lambda_strip": strip_values,
            "tensor_quotients": tensor_quotients,
            "strip_residuals": strip_residuals,
            "tensor_excess_times_Lp": {L: e * L**p for L, e in excess.items()},
        },
    )


def _bump_margins(mesh: Mesh, p: float, lam: float, constant: float, weight: np.ndarray,
                  samples: int, seed: int) -> tuple[list[float], Callable[[int], str]]:
    """Margins of ``int |grad u|^p - lam int |u|^p >= constant int weight |u|^p``
    on ``samples`` interior bumps, each integrated over its support box
    (:class:`~plapsolve.energy.BoxField`) and normalized by its left side,
    and the name of bump ``i`` as a function of ``i``."""
    margins = []
    for box, values in bump_family(mesh, samples, seed):
        u = BoxField(mesh, box, values)
        lhs = u.dirichlet(p) - lam * u.mass(p)
        rhs = constant * u.mass(p, weight)
        margins.append((lhs - rhs) / max(abs(lhs), 1e-300))
    return margins, "bump_{}".format


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

    Takes the integrability exponents and the grid integral of ``V**r`` from
    :func:`~plapsolve.potentials.local_integrability`, and evaluates the
    margin ``q_v(u) - y_norm(u)**p`` on ``samples`` pseudo-random interior
    bumps, each on its support box, plus the current Rayleigh minimizer on
    the whole mesh, all through :class:`~plapsolve.energy.BoxField`.
    Deterministic in ``seed``.
    """
    v_vals = evaluate_potential(V, mesh)
    r, r_alt, proxy = local_integrability(v_vals, mesh, p, q)
    w_vals = evaluate_weight(W, mesh)

    eig = rayleigh_min(mesh, p, tol=1e-7, max_iter=400, seed=seed)
    whole = tuple(slice(0, n) for n in mesh.shape)
    candidates = itertools.chain(bump_family(mesh, samples, seed), [(whole, eig.minimizer.values)])
    worst = np.inf
    violations: list[str] = []
    for i, (box, values) in enumerate(candidates):
        u = BoxField(mesh, box, values)
        qv = u.dirichlet(p) - u.mass(p, v_vals)
        yp = ((u.dirichlet(q, w_vals) + u.mass(q, w_vals)) ** (1.0 / q)) ** p
        margin = qv - yp
        worst = min(worst, margin)
        if margin < 0:
            tag = f"bump_{i}" if i < samples else "rayleigh_minimizer"
            violations.append(f"{tag}: q_v={qv:.6g} < y_norm^p={yp:.6g}")
    return AdmissibilityReport(
        p=p,
        q=q,
        n_dims=mesh.domain.dims,
        r=r,
        r_alt=r_alt,
        local_integrability_proxy=proxy,
        sampled_margin=float(worst),
        violations=violations,
        sample_count=samples + 1,
    )


def poincare_remainder_check(
    omega_mesh: Mesh,
    m_axes: int,
    length: float,
    p: float,
    samples: int = 200,
    seed: int = 0,
    z_nodes_per_unit: float = 4.0,
    constant_scale: float = 1.0,
    tolerance: float = 1e-8,
) -> CertificationRecord:
    """Certify the remainder-term lower bound for the Poincare inequality on a
    product domain: the Dirichlet excess over the first-eigenvalue mass term
    dominates a critically weighted singular integral over the unbounded
    coordinates.

    The constant is ``((M-p)/p)**p`` for p >= 2, damped by ``2**((p-2)/2)``
    for 1 < p < 2; margins are normalized by the left-hand scale.  The strip
    is :func:`_strip_mesh` with the nodes within 0.55 z spacings of the
    z origin excluded; sampled functions avoid that cap by construction.
    """
    if not m_axes > p:
        raise ValueError(f"remainder check requires M > p, got M={m_axes}, p={p}")
    lam_omega = section_eigenvalue(omega_mesh, p, seed).value
    mesh = _strip_mesh(omega_mesh, m_axes, length, z_nodes_per_unit, cap_cells=0.55)
    weight = singular_weight(mesh, mesh.singular_axes, p)

    base = ((m_axes - p) / p) ** p
    if p < 2.0:
        base *= 2.0 ** ((p - 2.0) / 2.0)
    constant = constant_scale * base

    return CertificationRecord.from_margins(
        "poincare_singular_remainder",
        *_bump_margins(mesh, p, lam_omega, constant, weight, samples, seed),
        tolerance,
        details={
            "p": p,
            "m_axes": m_axes,
            "constant": constant,
            "lambda_omega": lam_omega,
            "method": _method(p),
            "normalized": True,
        },
    )


def monotonicity_constant_check(
    p: float,
    samples: int = 100_000,
    seed: int = 0,
) -> CertificationRecord:
    """Estimate the monotonicity constant of the p-gradient flux pairing
    from ``samples`` random vector pairs in three dimensions.

    For p >= 2 the pairing ``(|x|^(p-2) x - |y|^(p-2) y) . (x - y)`` dominates
    ``c |x-y|^p``; for 1 < p < 2 it dominates ``c |x-y|^2 / (|x|+|y|)^(2-p)``.
    The record reports the smallest sampled ratio as ``c_est``; degenerate
    pairs x = y are skipped.
    """
    if not p > 1:
        raise ValueError(f"requires p > 1, got p={p}")
    dim = 3
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, dim))
    y = rng.standard_normal((samples, dim))
    mag_x = 10.0 ** rng.uniform(-3, 3, samples)
    mag_y = 10.0 ** rng.uniform(-3, 3, samples)
    x *= mag_x[:, None]
    y *= mag_y[:, None]

    e1 = np.zeros(dim)
    e1[0] = 1.0
    e2 = np.zeros(dim)
    e2[min(1, dim - 1)] = 1.0
    extra_x = np.vstack([e1, e1, e1, 2 * e1, e1, e1])
    extra_y = np.vstack([-e1, 2 * e1, e2, -e1, (1 + 1e-8) * e1, 0 * e1])
    x = np.vstack([x, extra_x])
    y = np.vstack([y, extra_y])

    d = x - y
    d2 = np.einsum("ij,ij->i", d, d)
    keep = d2 > 0.0
    x, y, d, d2 = x[keep], y[keep], d[keep], d2[keep]
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(y, axis=1)
    with np.errstate(divide="ignore"):
        cx = np.where(nx > 0, nx ** (p - 2.0), 0.0)[:, None]
        cy = np.where(ny > 0, ny ** (p - 2.0), 0.0)[:, None]
    pairing = np.einsum("ij,ij->i", cx * x - cy * y, d)
    if p >= 2.0:
        ratio = pairing / d2 ** (p / 2.0)
    else:
        ratio = pairing * (nx + ny) ** (2.0 - p) / d2
    return CertificationRecord.from_margins(
        "flux_monotonicity_constant",
        ratio,
        lambda i: f"x={x[i].tolist()}, y={y[i].tolist()}",
        0.0,
        details={"p": p, "c_est": float(ratio.min()), "dim": dim},
    )


def power_mean_check(
    p: float,
    samples: int = 4000,
    seed: int = 0,
    constant_scale: float = 1.0,
) -> CertificationRecord:
    """Check ``(a+b)^(p/2) >= kappa (a^(p/2) + b^(p/2))`` for a, b >= 0, with
    ``kappa = 1`` for p >= 2 and ``kappa = 2^((p-2)/2)`` for 1 < p < 2.

    Samples log-uniform pairs plus the diagonal and one-sided edges, where the
    bound is tight, so any ``constant_scale`` above one is refuted; margins
    are normalized by the left-hand side and a margin below -1e-12 is a
    violation.
    """
    if not p > 1:
        raise ValueError(f"requires p > 1, got p={p}")
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-6, 6, samples)
    b = 10.0 ** rng.uniform(-6, 6, samples)
    diag = 10.0 ** np.linspace(-6, 6, 41)
    a = np.concatenate([a, diag, diag, np.zeros_like(diag), [0.0]])
    b = np.concatenate([b, diag, np.zeros_like(diag), diag, [0.0]])

    kappa = constant_scale * (1.0 if p >= 2.0 else 2.0 ** ((p - 2.0) / 2.0))
    lhs = (a + b) ** (p / 2.0)
    rhs = kappa * (a ** (p / 2.0) + b ** (p / 2.0))
    scale = np.maximum(lhs, 1e-300)
    margins = (lhs - rhs) / scale
    return CertificationRecord.from_margins(
        "scalar_power_mean",
        margins,
        lambda i: f"a={a[i]:.6g}, b={b[i]:.6g}",
        1e-12,
        details={"p": p, "kappa": kappa, "normalized": True},
    )


def hardy_check(
    mesh: Mesh,
    p: float,
    samples: int = 200,
    seed: int = 0,
    constant_scale: float = 1.0,
    tolerance: float = 1e-8,
) -> CertificationRecord:
    """Certify the Hardy inequality with its critical constant on a mesh
    capped at the origin (a punctured box): the p-Dirichlet energy of sampled
    interior bumps dominates ``((N-p)/p)**p`` times the critically weighted
    p-mass, N the mesh's dimension.

    A probe, :func:`rayleigh_min` of the weighted quotient (600 iterations,
    residual tolerance 1e-6), searches for the discrete infimum; it is
    reported as ``probe_infimum``, not asserted, since the critical constant
    is approached only in the refinement limit.  At p = 2 it is one exact
    LOBPCG solve (``method`` ``"lobpcg"``), otherwise a ``"descent"``
    estimate.
    """
    n_dims = mesh.domain.dims
    constant = constant_scale * hardy_constant(n_dims, p)
    if mesh.singular_cap_radius <= 0:
        raise ValueError("hardy check needs a mesh punctured or capped at the origin")

    weight = singular_weight(mesh, range(n_dims), p)
    eig = rayleigh_min(mesh, p, tol=1e-6, max_iter=600, seed=seed, mass_weight=weight)
    return CertificationRecord.from_margins(
        "hardy_critical_constant",
        *_bump_margins(mesh, p, 0.0, constant, weight, samples, seed),
        tolerance,
        details={
            "p": p, "n_dims": n_dims, "constant": constant, "normalized": True,
            "probe_infimum": eig.value, "method": eig.method,
        },
    )


@dataclass
class BlowupRow:
    """Partial-sum diagnostics after the first K bumps."""

    k: int
    q_partial_sum: float
    dual_norm_partial: float
    gradient_energy: float
    harmonic_number: float
    energy_ratio: float


@dataclass
class BlowupResult:
    """Table of partial sums for the divergent-gradient forcing construction."""

    rows: list[BlowupRow]
    fitted_constant: float
    lambda_omega: float
    supports_disjoint: bool
    mesh: Mesh
    components: list[DiscreteFunction]


def blowup_demo(
    omega_mesh: Mesh,
    n_terms: int = 8,
    length_per_bump: float = 6.0,
    z_nodes_per_unit: float = 8.0,
    seed: int = 0,
) -> BlowupResult:
    """Construct disjointly supported near-eigenfunction bumps on a strip whose
    summed forcing has finite dual norm while the gradient energy of the
    partial sums diverges like the harmonic series (quadratic case).

    The strip is :func:`_strip_mesh` with one truncated axis.  Bump K is the
    cross-section eigenfunction (:func:`section_eigenvalue` at p = 2) times
    a plateau of growing width, scaled so its energy gap is exactly
    ``1/K**2``; supports are translated into disjoint slots of width
    ``length_per_bump``.  Raises when a bump's plateau cannot fit its slot,
    which means ``length_per_bump`` is too small.
    """
    if n_terms < 3:
        raise ValueError(f"need at least 3 bumps, got {n_terms}")

    eig = section_eigenvalue(omega_mesh, 2.0, seed)
    v = eig.minimizer.values
    lam1 = eig.value
    if not lam1 > 0:
        raise ValueError("cross-section eigenvalue must be positive")

    slot = float(length_per_bump)
    half_total = 0.5 * n_terms * slot
    mesh = _strip_mesh(omega_mesh, 1, half_total, z_nodes_per_unit)
    z_axis = mesh.axes[omega_mesh.domain.dims]
    h_z = z_axis[1] - z_axis[0]
    guard = 2.0 * h_z

    components = []
    gaps = []
    for n in range(1, n_terms + 1):
        center = -half_total + (n - 0.5) * slot
        budget = slot - 2.0 * guard
        r_min, a_min = 2.0 * h_z, 2.0 * h_z
        chosen = None
        for r in np.linspace(budget / 2.0 - a_min / 2.0, r_min, 60):
            if r < r_min:
                break
            a = 2.0 * n / (lam1 * r) - 2.0 * r / 3.0
            if a_min <= a and a + 2.0 * r <= budget:
                chosen = (a, r)
                break
        if chosen is None:
            raise ValueError(
                f"bump {n} cannot reach its gradient-energy target inside a slot of "
                f"width {slot}; increase length_per_bump"
            )
        a, r = chosen
        w_prof = plateau_profile(z_axis - center, 0.5 * a, r)
        vals = _tensor_field(omega_mesh, v, [w_prof])
        u = DiscreteFunction(mesh, vals)
        dirich = mesh.integrate_samples(_grad_square(mesh, u.values[mesh.free_mask])[1])
        mass = integrate(u.values**2, mesh)
        gap = dirich - lam1 * mass
        if not gap > 0:
            raise ValueError(f"bump {n} has nonpositive energy gap {gap:.3e}")
        scale = np.sqrt((1.0 / n**2) / gap)
        u = u * scale
        components.append(u)
        gaps.append(scale**2 * gap)

    # disjoint: no node lies in two supports
    disjoint = bool(sum(u.values != 0.0 for u in components).max() <= 1)

    rows = []
    partial = np.zeros(mesh.n_nodes)
    q_sum = 0.0
    h_k = 0.0
    for k in range(1, n_terms + 1):
        partial = partial + components[k - 1].values
        q_sum += gaps[k - 1]
        h_k += 1.0 / k
        grad_energy = mesh.integrate_samples(_grad_square(mesh, partial[mesh.free_mask])[1])
        rows.append(
            BlowupRow(
                k=k,
                q_partial_sum=q_sum,
                dual_norm_partial=float(np.sqrt(q_sum)),
                gradient_energy=float(grad_energy),
                harmonic_number=h_k,
                energy_ratio=float(grad_energy / h_k),
            )
        )
    fitted = min(row.gradient_energy / row.harmonic_number for row in rows)
    return BlowupResult(
        rows=rows,
        fitted_constant=float(fitted),
        lambda_omega=float(lam1),
        supports_disjoint=disjoint,
        mesh=mesh,
        components=components,
    )
