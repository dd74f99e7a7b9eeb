"""Forced p-Laplacian problems with singular potentials on structured grids.

The library builds discrete energies for
``-div(|grad u|^(p-2) grad u) - V |u|^(p-2) u = f``
with nonnegative, possibly critically singular potentials V, solves the
forced problem through regularized minimization and a vanishing-eps
continuation, and numerically certifies the Hardy and Poincare type
inequalities that make the energy form positive.
"""

from .energy import (
    EnergyParams,
    ForcingTerm,
    IndefiniteEnergyError,
    truncate,
)
from .grid import (
    DiscreteFunction,
    Domain,
    Mesh,
    box,
    build_mesh,
    integrate,
    interval,
    strip,
)
from .potentials import (
    Potential,
    Weight,
    alt_integrability_exponent,
    evaluate_potential,
    evaluate_weight,
    hardy_constant,
    integrability_exponent,
    singular_weight,
    sobolev_conjugate,
)
from .solver import (
    ContinuationBoundError,
    EpsSchedule,
    MinimizeResult,
    SolveReport,
    StageRecord,
    continuation_solve,
    dual_norm,
    minimize_phi,
)
from .spectra import (
    AdmissibilityReport,
    BlowupResult,
    BlowupRow,
    CertificationRecord,
    EigenResult,
    admissibility_report,
    blowup_demo,
    cylinder_eigen_check,
    hardy_check,
    monotonicity_constant_check,
    poincare_remainder_check,
    power_mean_check,
    rayleigh_min,
)

__version__ = "0.1.0"
