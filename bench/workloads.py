"""Benchmark workloads: the configs each one runs and the checks on their outputs.

The configs are frozen copies of the shipped presets as they stood when the
benchmark was defined, so a later edit to ``plapsolve.presets`` cannot change
what the benchmark measures.  The workload seed goes to the solver, certify,
eigen and blowup seeds, as the CLI's ``--seed`` does; the program receives
only the generated configs.
"""

from __future__ import annotations

import copy
import math

import numpy as np

_CUBE = [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]
_UNIT = [[0.0, 1.0]]

PRESETS: dict[str, dict] = {
    "manufactured_interval": {
        "subcommand": "solve",
        "domain": {"kind": "interval", "bounds": _UNIT},
        "mesh": {"nodes_per_axis": [401]},
        "physics": {
            "p": 2.0,
            "q": 2.0,
            "potential": {"kind": "zero"},
            "weight": {"kind": "constant", "value": 0.45},
            "forcing": {"kind": "expression", "expr": "pi**2 * sin(pi*x)"},
        },
        "solver": {"eps0": 0.5, "ratio": 0.25, "steps": 7, "tol": 1e-9},
    },
    "hardy_quadratic": {
        "subcommand": "solve",
        "domain": {"kind": "punctured_box", "bounds": _CUBE, "puncture_radius": 0.05},
        "mesh": {"nodes_per_axis": [21, 21, 21]},
        "physics": {
            "p": 2.0,
            "q": 1.8,
            "potential": {"kind": "quadratic_hardy"},
            "weight": {"kind": "constant", "value": 0.29},
            "forcing": {"kind": "expression", "expr": "exp(-4*((x-0.3)**2 + y**2 + (z+0.2)**2))"},
        },
        "solver": {"eps0": 0.5, "ratio": 0.25, "steps": 6, "tol": 1e-8},
    },
    "hardy_cylindrical": {
        "subcommand": "solve",
        "domain": {"kind": "box", "bounds": _CUBE},
        "mesh": {"nodes_per_axis": [17, 17, 17], "singular_cap_radius": 0.1, "singular_axes": [0, 1]},
        "physics": {
            "p": 1.5,
            "q": 1.3,
            "potential": {"kind": "cylindrical_hardy", "k_axes": 2},
            "weight": {"kind": "constant", "value": 0.27},
            "forcing": {"kind": "expression", "expr": "sin(pi*x)*cos(0.5*pi*y)*sin(pi*z)"},
        },
        "solver": {"eps0": 0.5, "ratio": 0.25, "steps": 6, "tol": 2e-4, "max_iter": 2500, "delta0": 1e-4},
    },
    "bounded_potential": {
        "subcommand": "solve",
        "domain": {"kind": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "mesh": {"nodes_per_axis": [33, 33]},
        "physics": {
            "p": 2.5,
            "q": 2.5,
            "potential": {"kind": "tabulated", "expr": "14.3*sin(pi*x)*sin(pi*y)"},
            "weight": {"kind": "constant", "value": 0.33},
            "forcing": {"kind": "expression", "expr": "sin(pi*x)*sin(2*pi*y)"},
        },
        "solver": {"eps0": 0.5, "ratio": 0.25, "steps": 6, "tol": 2e-5, "max_iter": 2500, "delta0": 1e-4},
    },
    "strip_critical": {
        "subcommand": "solve",
        "domain": {"kind": "strip", "bounds": _UNIT, "m_axes": 3, "truncation_length": 2.0},
        "mesh": {"nodes_per_axis": [9, 13, 13, 13]},
        "physics": {
            "p": 2.0,
            "q": 2.0,
            "potential": {"kind": "constant", "value": "lambda1_omega"},
            "weight": {"kind": "cylinder_decay", "value": 0.125, "p": 2.0},
            "forcing": {"kind": "expression", "expr": "sin(pi*x)*exp(-2*(y**2 + z**2 + w**2))"},
        },
        "solver": {"eps0": 0.5, "ratio": 0.25, "steps": 6, "tol": 1e-8},
    },
    "blowup_strip": {
        "subcommand": "blowup",
        "domain": {"kind": "strip", "bounds": _UNIT, "m_axes": 1, "truncation_length": 48.0},
        "mesh": {"nodes_per_axis": [17, 769]},
        "blowup": {"n_terms": 16, "length_per_bump": 6.0, "z_nodes_per_unit": 8.0},
    },
    "certify_suite": {
        "subcommand": "certify",
        "certify": {
            "checks": ["monotonicity", "power_mean", "hardy", "poincare", "cylinder"],
            "samples": 200,
            "pair_samples": 100000,
            "p_values": [1.5, 2.0, 3.0, 4.0],
        },
    },
    "eigen_interval": {
        "subcommand": "eigen",
        "domain": {"kind": "interval", "bounds": _UNIT},
        "mesh": {"nodes_per_axis": [401]},
        "physics": {"p": 2.0},
    },
    "eigen_strip_sweep": {
        "subcommand": "eigen",
        "domain": {"kind": "strip", "bounds": _UNIT, "m_axes": 1, "truncation_length": 8.0},
        "mesh": {"nodes_per_axis": [33, 129]},
        "physics": {"p": 2.0},
        "eigen": {"l_values": [2.0, 4.0, 8.0]},
    },
    "admissibility_hardy": {
        "subcommand": "admissibility",
        "domain": {"kind": "punctured_box", "bounds": _CUBE, "puncture_radius": 0.05},
        "mesh": {"nodes_per_axis": [21, 21, 21]},
        "physics": {
            "p": 2.0,
            "q": 1.8,
            "potential": {"kind": "quadratic_hardy"},
            "weight": {"kind": "constant", "value": 0.29},
        },
    },
}

# Each run: (run name, preset, physics.p override, closed-form references).
# Reference kinds: "sine" compares the solution with sin(pi x); "interval"
# compares the first interval eigenvalue with its closed form; "strip_p2"
# compares every p = 2 cylinder record with pi^2 and pi^2 (1 + 1/(4 L^2)).
WORKLOADS: dict[str, dict] = {
    "linear": {
        "why": "every shipped p = 2 run: preconditioners built once and applied hundreds of times, "
        "the only 4D mesh, and the most runs per pass",
        "runs": [
            ("manufactured_interval", "manufactured_interval", None, ("sine",)),
            ("hardy_quadratic", "hardy_quadratic", None, ()),
            ("strip_critical", "strip_critical", None, ()),
            ("eigen_interval", "eigen_interval", None, ("interval",)),
            ("eigen_strip_sweep", "eigen_strip_sweep", None, ("strip_p2",)),
            ("admissibility_hardy", "admissibility_hardy", None, ()),
            ("blowup_strip", "blowup_strip", None, ()),
        ],
    },
    "nonlinear": {
        "why": "the shipped p != 2 runs but the p = 3 eigenvalue: preconditioner rebuilt every 5 steps, "
        "delta-smoothing restarts and the phi line search, with every p = 2 shortcut bypassed",
        "runs": [
            ("hardy_cylindrical", "hardy_cylindrical", None, ()),
            ("bounded_potential", "bounded_potential", None, ()),
            ("eigen_interval_p1.5", "eigen_interval", 1.5, ("interval",)),
            # eigen_interval at p = 3 is left out: for about 40 % of seeds the
            # stall rule of spectra._quotient_descent ends both descents after
            # 26 iterations, and the eigenvalue misses its closed form by up to
            # 3e-2.  Put it back once that defect is fixed.
        ],
    },
    "certify": {
        "why": "the certify_suite preset: no solver work, preconditioner applies under quotient "
        "descents, the 33^3 Hardy probe and the sampling layer",
        "runs": [("certify_suite", "certify_suite", None, ("strip_p2",))],
    },
}

SEEDED_SECTIONS = ("solver", "certify", "eigen", "blowup")

# Pinned relative tolerances against the closed forms.  They hold for the
# centered-difference discretization with room to spare; a finer or
# compact-stencil discretization only lowers the errors.
TOLERANCES = {
    "sine": 1e-3,
    "interval": 1e-3,
    "cross_section": 2e-2,
    "strip": 2e-2,
}


def run_names(workload: str) -> list[str]:
    return [run[0] for run in WORKLOADS[workload]["runs"]]


def configs(workload: str, seed: int) -> list[tuple[str, dict, tuple[str, ...]]]:
    """(run name, config, reference kinds) of each run in one pass of
    ``workload`` at ``seed``."""
    out = []
    for name, preset, p, refs in WORKLOADS[workload]["runs"]:
        cfg = copy.deepcopy(PRESETS[preset])
        if p is not None:
            cfg["physics"]["p"] = p
        for section in SEEDED_SECTIONS:
            cfg.setdefault(section, {})["seed"] = seed
        out.append((name, cfg, refs))
    return out


def interval_eigenvalue(p: float) -> float:
    """First Dirichlet p-Laplacian eigenvalue of the unit interval."""
    return (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p


def strip_eigenvalue(length: float) -> float:
    """First Dirichlet eigenvalue at p = 2 of (0, 1) x (-L, L)."""
    return math.pi**2 * (1.0 + 1.0 / (4.0 * length**2))


def _rel(value: float, reference: float) -> float:
    return abs(float(value) - reference) / abs(reference)


def observe(artifact, refs: tuple[str, ...]) -> dict:
    """Plain-data outcome of one run: exit code, solve convergence, every
    certification verdict, and the relative error of each quantity named by
    ``refs`` against its closed form.  A reference quantity the artifact
    does not carry is listed under ``absent``."""
    report = artifact.solve_report
    outcome = {
        "exit_code": int(artifact.exit_code),
        "failure": artifact.failure,
        "converged": None if report is None else bool(report.converged),
        "verdicts": [[r.inequality_id, r.verdict] for r in artifact.certifications],
        "errors": {},
        "absent": [],
    }
    errors = outcome["errors"]
    for kind in refs:
        if kind == "sine":
            u = artifact.solution
            if u is None:
                outcome["absent"].append("sine: no solution field")
                continue
            exact = np.sin(np.pi * u.mesh.points[:, 0])
            errors["sine:solution"] = float(np.max(np.abs(u.values - exact)) / np.max(np.abs(exact)))
        elif kind == "interval":
            rows = [row for row in artifact.eigen_rows if "truncation_length" not in row]
            if not rows:
                outcome["absent"].append("interval: no eigenvalue row")
                continue
            p = rows[0]["p"]
            errors[f"interval:p={p:g}"] = _rel(rows[0]["lambda"], interval_eigenvalue(p))
        elif kind == "strip_p2":
            records = [
                r for r in artifact.certifications
                if r.inequality_id == "cylinder_first_eigenvalue" and r.details.get("p") == 2.0
            ]
            if not records:
                outcome["absent"].append("strip_p2: no p = 2 cylinder record")
                continue
            for i, rec in enumerate(records):
                errors[f"cross_section:{i}"] = _rel(rec.details["lambda_omega"], math.pi**2)
                for L, lam in rec.details["lambda_strip"].items():
                    errors[f"strip:{i}:L={float(L):g}"] = _rel(lam, strip_eigenvalue(float(L)))
        else:
            raise ValueError(f"unknown reference kind {kind!r}")
    return outcome


def judge(outcome: dict) -> list[str]:
    """Every reason the run fails its output checks; empty when it passes."""
    problems = []
    if "exception" in outcome:
        return [f"raised {outcome['exception']}"]
    if outcome["exit_code"] != 0:
        problems.append(f"exit code {outcome['exit_code']}: {outcome['failure']}")
    if outcome["converged"] is False:
        problems.append("solve did not converge")
    for inequality, verdict in outcome["verdicts"]:
        if verdict != "no_violation":
            problems.append(f"{inequality}: verdict {verdict}")
    for label, err in outcome["errors"].items():
        tol = TOLERANCES[label.split(":", 1)[0]]
        if not err <= tol:
            problems.append(f"{label}: relative error {err:.3e} above {tol:g}")
    problems.extend(f"missing reference quantity ({what})" for what in outcome["absent"])
    return problems
