"""Regularized minimization and the vanishing-regularization continuation.

``minimize_phi`` drives a preconditioned descent with Armijo backtracking on
the smoothed objective at fixed ``eps``; ``continuation_solve`` walks a
geometric ``eps`` schedule down toward zero, warm-starting each stage and
enforcing the a-priori energy bound ``q_v(u_n) <= D**(p/(p-1))`` implied by
the dual-norm estimate D as a runtime check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._descent import (
    METRIC_RTOL,
    NEWTON_RTOL,
    Preconditioner,
    armijo_backtrack,
    lagged_coefficient,
    mass_curvature,
)
from .energy import (
    EnergyParams,
    ForcingTerm,
    IndefiniteEnergyError,
    _cauchy_arrays,
    _grad_square,
    _phi_arrays,
    _phi_gradient_arrays,
    _q_v_arrays,
    _y_norm_arrays,
)
# integrate is unused here; the benchmark's tracer wraps ``solver.integrate``
# (bench/spans.py), which must resolve
from .grid import DiscreteFunction, Mesh, integrate  # noqa: F401
from .potentials import Potential, Weight, evaluate_potential, evaluate_weight
from .sampling import plateau_profile

__all__ = [
    "EpsSchedule",
    "MinimizeResult",
    "StageRecord",
    "SolveReport",
    "ContinuationBoundError",
    "minimize_phi",
    "dual_norm",
    "continuation_solve",
]


class ContinuationBoundError(RuntimeError):
    """A continuation stage violated the dual-norm energy bound, indicating a
    discretization inconsistency or a failed positivity assumption."""


@dataclass(frozen=True)
class EpsSchedule:
    """Strictly decreasing geometric schedule ``eps0 * ratio**k`` in (0, 1)."""

    eps0: float
    ratio: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.eps0 < 1.0:
            raise ValueError(f"eps0 must lie in (0, 1), got {self.eps0}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")

    @property
    def values(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.steps)

    @property
    def terminal(self) -> float:
        return float(self.values[-1])


@dataclass
class MinimizeResult:
    """Outcome of one fixed-eps minimization; ``u`` is the final iterate."""

    u: DiscreteFunction
    phi_value: float
    phi_start: float
    residual: float
    iterations: int
    linesearch_failures: int
    converged: bool
    phi_increase_max: float


@dataclass
class StageRecord:
    """Per-stage diagnostics of the continuation."""

    eps: float
    phi_value: float
    phi_start: float
    q_v_value: float
    y_norm_value: float
    sobolev_norm_value: float
    residual: float
    iterations: int
    linesearch_failures: int
    cauchy_vs_prev: float
    dual_quotient: float
    phi_increase_max: float


@dataclass
class SolveReport:
    """Continuation record: stage diagnostics, terminal solution, and the pure
    equation residual with the regularization term removed."""

    stages: list[StageRecord]
    solution: DiscreteFunction
    terminal_residual: float
    dual_norm_estimate: float
    converged: bool = True


def _check_definite(qv: float, values: np.ndarray) -> None:
    if qv <= 0.0 and np.any(values):
        raise IndefiniteEnergyError(
            f"energy form nonpositive ({qv:.3e}) on a nonzero iterate; "
            "the positivity assumption fails on this mesh"
        )


def minimize_phi(
    start: DiscreteFunction,
    V: Potential,
    f: ForcingTerm,
    params: EnergyParams,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> MinimizeResult:
    """Descend the regularized objective to a near-stationary point.

    Each direction is the gradient mapped through a :class:`Preconditioner`.
    At p = 2 it is the exact Hessian with the potential folded in, solved to
    ``NEWTON_RTOL``, so a unit step is a Newton step.  Otherwise it is the
    lagged metric ``max(1, p-1) |grad u|^(p-2)`` plus the mass curvature,
    rebuilt every 5 steps and solved to ``METRIC_RTOL``; it majorizes the
    curvature of the flux, so a unit step is its natural step too.  The
    Armijo search starts from twice the last accepted step, capped at 1.

    Works on the free values of ``start``.  Stops when the quadrature norm
    ``sqrt(r . (r / free_weights))`` of the plain-dot first variation r drops
    below ``tol`` (with the smoothing radius already at its floor), or at
    ``max_iter``, or, with the smoothing radius at its floor, once the
    residual stays above 0.85 times its value 60 iterations earlier.  The
    objective never increases across accepted steps.
    The smoothing radius follows ``max(delta_min, delta0 * 2**-k)`` with
    ``delta_min = 1e-8 * field scale``; a zero ``params.delta`` disables
    smoothing entirely.

    A failed search counts one failure, emits a warning and returns the last
    iterate, as the quotient descent stops.  Raises :class:`IndefiniteEnergyError`
    once an iterate is nonzero with ``q_v <= 0``, or when the p = 2 Newton
    operator ``(1-eps)(K - diag(w V)) + eps(K + M)``, which is positive
    definite whenever ``q_v`` is, shows nonpositive curvature to CG.
    """
    mesh = start.mesh
    if f.mesh is not mesh:
        raise ValueError("forcing term lives on a different mesh")
    v_vals = evaluate_potential(V, mesh)[mesh.free_mask]
    shift = max(params.eps, 1e-10)
    if params.p == 2.0:
        # the Hessian is u-independent at p = 2; with the potential folded in
        # the preconditioned step is an exact Newton step
        pre = Preconditioner(mesh, rtol=NEWTON_RTOL, shift=shift, mass_coeff=-(1.0 - params.eps) * v_vals)
    # at p != 2 the loop builds the lagged preconditioner at k = 0
    pre_refresh = 5
    stall_window, stall_factor = 60, 0.85
    w = mesh.free_weights

    u = start.values[mesh.free_mask]
    scale = max(1.0, float(np.max(np.abs(u))) if u.size else 1.0)
    delta0 = params.delta
    delta_floor = 0.0 if delta0 == 0.0 else 1e-8 * scale

    gs = _grad_square(mesh, u)
    phi_start = _phi_arrays(mesh, u, v_vals, f, params.with_delta(delta_floor), gs)
    failures = 0
    increase_max = -np.inf
    step = 1.0
    iterations = 0
    converged = False
    at_floor = False  # the loop stopped at u with delta at its floor
    delta = delta0
    res_window: list[float] = []
    accepted = None  # (g, s) of the last point the line search evaluated

    for k in range(max_iter):
        iterations = k + 1
        delta = delta_floor if delta0 == 0.0 else max(delta_floor, delta0 * 0.5**k)
        params_k = params.with_delta(delta)
        _check_definite(_q_v_arrays(mesh, u, v_vals, params.p, gs), u)
        phi_u = _phi_arrays(mesh, u, v_vals, f, params_k, gs)
        r = _phi_gradient_arrays(mesh, u, v_vals, f, params_k, gs)
        res = np.sqrt(r @ (r / w))
        if res <= tol and delta <= delta_floor:
            converged = at_floor = True
            break
        # demand geometric progress; the flux is degenerate at grad u = 0 and
        # late-stage descent can only crawl there
        res_window.append(res)
        if (
            delta <= delta_floor
            and len(res_window) > stall_window
            and res > stall_factor * res_window[-stall_window - 1]
        ):
            at_floor = True
            break
        if params.p != 2.0 and k % pre_refresh == 0:
            pre = Preconditioner(
                mesh,
                rtol=METRIC_RTOL,
                shift=shift,
                coeff=lagged_coefficient(gs[1], params.p),
                mass_coeff=mass_curvature(u, params.p, params.eps),
            )

        d = -pre.apply(r)
        slope = float(r @ d)

        def objective(vals):
            nonlocal accepted
            accepted = _grad_square(mesh, vals)
            return _phi_arrays(mesh, vals, v_vals, f, params_k, accepted)

        taken, u_new, phi_new = armijo_backtrack(objective, u, d, phi_u, slope, init_step=step)
        if taken is None:
            failures += 1
            warnings.warn(
                "line search stalled before reaching the residual tolerance; "
                "returning the last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        increase_max = max(increase_max, phi_new - phi_u)
        step = min(max(taken * 2.0, 1e-10), 1.0)
        u = u_new
        gs = accepted

    if not at_floor:
        # after max_iter u has moved, and a line-search break may leave delta
        # above its floor; otherwise the loop's res and phi_u are final
        params_final = params.with_delta(delta_floor)
        r = _phi_gradient_arrays(mesh, u, v_vals, f, params_final, gs)
        res = np.sqrt(r @ (r / w))
        phi_u = _phi_arrays(mesh, u, v_vals, f, params_final, gs)
        converged = bool(res <= tol)
    return MinimizeResult(
        u=DiscreteFunction.from_free(mesh, u),
        phi_value=float(phi_u),
        phi_start=float(phi_start),
        residual=float(res),
        iterations=iterations,
        linesearch_failures=failures,
        converged=converged,
        phi_increase_max=(increase_max if np.isfinite(increase_max) else 0.0),
    )


def dual_norm(
    f: ForcingTerm,
    V: Potential,
    params: EnergyParams,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> float:
    """Lower estimate of ``sup { <f, u> : q_v(u) = 1 }``.

    By p-homogeneity the supremum is the quotient ``<f, u> / q_v(u)^(1/p)``
    at the minimizer u of ``q_v(u)/p - <f, u>``, the ``eps = 0`` objective,
    which :func:`minimize_phi` from zero, with ``tol`` and ``max_iter``,
    finds; at p = 2 its first step is the exact Newton step onto it.  The
    quotient is taken at an actual point, so it stays a lower bound of the
    discrete supremum even if the minimization stops early.

    Raises :class:`IndefiniteEnergyError` if an iterate has nonpositive
    energy, or if at p = 2 the Newton solve meets a direction of nonpositive
    curvature; either contradicts the standing positivity assumption.
    """
    mesh = f.mesh
    r = f.plain_rep()
    if not np.any(r):  # f pairs to 0 with every admissible u
        return 0.0
    free = mesh.free_mask
    u = minimize_phi(DiscreteFunction.zeros(mesh), V, f, params.with_eps(0.0), tol, max_iter).u.values[free]
    qv = _q_v_arrays(mesh, u, evaluate_potential(V, mesh)[free], params.p, _grad_square(mesh, u))
    _check_definite(qv, u)
    return float(r @ u) / qv ** (1.0 / params.p)


def _interior_cutoff(mesh: Mesh) -> DiscreteFunction:
    """Plateau cutoff: 1 on the central part of the domain, ramps to 0 at the
    boundary faces."""
    vals = np.ones(mesh.n_nodes)
    for a, (lo, hi) in enumerate(mesh.domain.bounds):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        t = (mesh.points[:, a] - mid) / half
        vals *= plateau_profile(t, 0.55, 0.35)
    return DiscreteFunction(mesh, vals)


def continuation_solve(
    V: Potential,
    f: ForcingTerm,
    params: EnergyParams,
    schedule: EpsSchedule,
    tol: float = 1e-8,
    W: Weight | None = None,
    max_iter: int = 800,
) -> SolveReport:
    """Drive the regularization parameter down a geometric schedule.

    Each stage warm-starts from the previous solution, so the objective at
    the new ``eps`` starts no lower than it ends.  Per stage the report
    records energy, norms, residual, iteration counts, and the localized
    Cauchy diagnostic against the previous stage.  The dual-norm estimate is
    computed up front (continuation refuses to start when it is not finite)
    and is raised by any stage whose quotient ``<f,u>/q_v(u)**(1/p)`` exceeds
    it; a stage energy above ``D**(p/(p-1)) * (1 + 1e-3)`` aborts.
    """
    mesh = f.mesh
    estimate = dual_norm(f, V, params, tol, max_iter)
    if not np.isfinite(estimate) or estimate > 1e12:
        raise ValueError(
            f"dual norm estimate {estimate!r} is not usably finite; "
            "the forcing term is out of reach of the continuation"
        )
    free = mesh.free_mask
    v_vals = evaluate_potential(V, mesh)[free]
    w_vals = evaluate_weight(W or Weight.constant(1.0), mesh)
    cutoff = _interior_cutoff(mesh)
    p = params.p
    pc = params.p_conjugate

    u = DiscreteFunction.zeros(mesh)
    u_free = np.zeros_like(mesh.free_weights)
    # the start u = 0 has a zero gradient; each stage's then carries over
    gs_prev = (np.zeros((mesh.domain.dims, mesh.n_nodes)), np.zeros(mesh.n_nodes))
    stages: list[StageRecord] = []
    all_converged = True
    for eps_n in schedule.values:
        params_n = params.with_eps(float(eps_n))
        result = minimize_phi(u, V, f, params_n, tol=tol, max_iter=max_iter)
        all_converged &= result.converged
        u_new = result.u.values[free]
        # one gradient serves q_v, both norms, the Cauchy diagnostic and the
        # last stage's pure residual
        gs = _grad_square(mesh, u_new)
        qv = _q_v_arrays(mesh, u_new, v_vals, p, gs)
        pairing = float(f.plain_rep() @ u_new)
        _check_definite(qv, u_new)
        quotient = pairing / qv ** (1.0 / p) if qv > 0.0 else 0.0
        estimate = max(estimate, quotient)
        if qv > estimate**pc * (1.0 + 1e-3) + tol:
            raise ContinuationBoundError(
                f"stage eps={eps_n:.3e}: q_v={qv:.6e} exceeds the dual-norm bound "
                f"{estimate**pc:.6e}; discretization inconsistency or failed positivity"
            )
        stages.append(
            StageRecord(
                eps=float(eps_n),
                phi_value=result.phi_value,
                phi_start=result.phi_start,
                q_v_value=qv,
                y_norm_value=_y_norm_arrays(mesh, u_new, w_vals, w_vals[free], params.q, gs),
                sobolev_norm_value=_y_norm_arrays(mesh, u_new, 1.0, 1.0, p, gs),
                residual=result.residual,
                iterations=result.iterations,
                linesearch_failures=result.linesearch_failures,
                cauchy_vs_prev=_cauchy_arrays(mesh, u_free, u_new, gs_prev, gs, cutoff.values, p),
                dual_quotient=quotient,
                phi_increase_max=result.phi_increase_max,
            )
        )
        u, u_free, gs_prev = result.u, u_new, gs

    params_pure = params.with_eps(0.0).with_delta(0.0)
    r = _phi_gradient_arrays(mesh, u_free, v_vals, f, params_pure, gs_prev)
    terminal = float(np.sqrt(r @ (r / mesh.free_weights)))
    return SolveReport(
        stages=stages,
        solution=u,
        terminal_residual=terminal,
        dual_norm_estimate=estimate,
        converged=all_converged,
    )
