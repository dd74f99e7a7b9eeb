"""Forcing with finite dual norm whose solution leaves the energy space.

On a strip, near-eigenfunction bumps u_n with disjoint supports are scaled so
that each energy gap is exactly 1/n^2.  The summed forcing then has dual norm
bounded by zeta(2)^(1/2) = 1.2825, while the gradient energy of the partial
sums grows like the harmonic series: the limit solves the equation but has
infinite Dirichlet energy.
"""

import numpy as np

import plapsolve as pl
from plapsolve.spectra import blowup_demo

omega = pl.build_mesh(pl.interval(0.0, 1.0), [17])
result = blowup_demo(omega, n_terms=16, length_per_bump=6.0, seed=0)

print(f"cross-section eigenvalue : {result.lambda_omega:.6f}")
print(f"supports pairwise disjoint: {result.supports_disjoint}")
print(f"fitted divergence constant c (grad energy >= c H_K): {result.fitted_constant:.3f}\n")

print("K    sum of gaps   dual norm    grad energy   H_K       ratio")
for row in result.rows:
    print(
        f"{row.k:<4} {row.q_partial_sum:<13.6f} {row.dual_norm_partial:<12.6f} "
        f"{row.gradient_energy:<13.4f} {row.harmonic_number:<9.4f} {row.energy_ratio:.3f}"
    )

print(f"\ndual norm partial sums stay below zeta(2)^(1/2) = {np.sqrt(np.pi**2 / 6):.6f}")
print("while the gradient energy keeps growing with the harmonic number.")
