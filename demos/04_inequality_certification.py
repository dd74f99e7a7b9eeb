"""Run the inequality certification suite at desk scale.

Each check samples test functions (or scalar pairs) and records the worst
margin of its inequality; a negative margin beyond tolerance would refute the
implementation or the configuration.  Sampling can falsify but never prove,
and the verdicts mean exactly that.
"""

import numpy as np

import plapsolve as pl
from plapsolve.spectra import (
    hardy_check,
    monotonicity_constant_check,
    poincare_remainder_check,
    power_mean_check,
)

print("flux monotonicity constants (100k vector pairs each):")
for p in (1.5, 2.0, 3.0, 4.0):
    rec = monotonicity_constant_check(p, samples=100_000, seed=0)
    print(f"  p={p:<4} c_est = {rec.details['c_est']:.6f}   verdict: {rec.verdict}")

print("\nscalar power-mean bounds (sharp on the diagonal):")
for p in (1.5, 2.0, 3.0):
    rec = power_mean_check(p, samples=4000, seed=0)
    print(f"  p={p:<4} kappa = {rec.details['kappa']:.4f}   worst margin = {rec.worst_margin:.1e}")

print("\nhardy inequality with the critical constant (punctured box, N=3, p=2):")
mesh = pl.build_mesh(pl.box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), [33, 33, 33], singular_cap_radius=0.05)
rec = hardy_check(mesh, 2.0, samples=100, seed=0)
print(f"  worst normalized margin over bumps : {rec.worst_margin:.4f}")
print(f"  adversarial quotient probe infimum : {rec.details['probe_infimum']:.4f}  "
      f"(critical constant 0.25 is reached only in the refinement limit)")
print(f"  verdict: {rec.verdict}")

print("\npoincare remainder on strips (weighted |z|^-p lower bound):")
omega = pl.build_mesh(pl.interval(0.0, 1.0), [9])
for p, m_axes, per_unit in ((2.0, 3, 4.0), (1.5, 2, 8.0)):
    rec = poincare_remainder_check(omega, m_axes, 2.0, p, samples=100, seed=0, z_nodes_per_unit=per_unit)
    print(
        f"  p={p}, M={m_axes}: constant {rec.details['constant']:.5f}, "
        f"worst margin {rec.worst_margin:.4f}, verdict {rec.verdict}"
    )
