"""Config-driven command line runner.

Subcommands: ``solve`` (admissibility gate then continuation), ``eigen``
(Rayleigh minimization, with a truncation-length sweep on strips),
``certify`` (the inequality suite), ``blowup`` (the divergent-forcing
construction), and ``admissibility`` (the report alone).

Configs are JSON documents; unknown keys are errors and every validation
error names the offending key.  Reports land in a directory named from the
config hash: delimited tables (one row per record), a JSON summary, the
config echo, and the solution field.  Identical configs byte-reproduce all
numeric outputs.

Exit codes: 0 success, 1 config error, 2 certification or admissibility
violation, 3 solver failure.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, presets
from .energy import EnergyParams, ForcingTerm, IndefiniteEnergyError
from .grid import Domain, DiscreteFunction, Mesh, build_mesh
from .potentials import (
    AdmissibilityReport,
    Potential,
    Weight,
    admissibility_report,
    evaluate_potential,
    evaluate_weight,
)
from .solver import ContinuationBoundError, EpsSchedule, SolveReport, continuation_solve
from .spectra import (
    CertificationRecord,
    blowup_demo,
    cylinder_eigen_check,
    hardy_check,
    monotonicity_constant_check,
    poincare_remainder_check,
    power_mean_check,
    rayleigh_min,
)

__all__ = ["ConfigError", "RunConfig", "RunArtifact", "parse_config", "run", "emit_reports", "main"]

_SUBCOMMANDS = ("solve", "eigen", "certify", "blowup", "admissibility")

_EXPR_ENV = {
    "pi": np.pi,
    "e": np.e,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "arctan": np.arctan,
    "sign": np.sign,
    "where": np.where,
    "maximum": np.maximum,
    "minimum": np.minimum,
}


class ConfigError(ValueError):
    """Config validation failure; ``errors`` lists one message per field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


_EXPR_NODES = (
    ast.Expression, ast.Name, ast.Load, ast.Constant, ast.Call,
    ast.UnaryOp, ast.UAdd, ast.USub,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
)


def _check_expression(expr: str, names) -> ast.Expression:
    """Parse ``expr`` and admit only arithmetic on numbers and ``names``,
    comparisons, and calls of the functions in ``_EXPR_ENV``; raises
    ``ValueError`` (``SyntaxError`` when it does not parse) otherwise."""
    tree = ast.parse(expr, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            raise ValueError(f"{type(node).__name__} is not allowed")
        if isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ValueError(f"constant {node.value!r} is not a number")
            # float arithmetic overflows where integer powers would grow without bound
            node.value = float(node.value)
        elif isinstance(node, ast.Name) and node.id not in names:
            raise ValueError(f"unknown name {node.id!r}")
        elif isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and callable(_EXPR_ENV.get(node.func.id)) and not node.keywords
        ):
            raise ValueError(f"call of {ast.unparse(node.func)!r} is not allowed")
    return tree


def evaluate_expression(expr: str, mesh: Mesh) -> np.ndarray:
    """Evaluate a coordinate expression at the mesh nodes.

    Coordinates are available as ``x, y, z, w`` (first four axes) and
    ``x0 .. x9``; ``r`` is the distance to the origin.  The expression may
    use numbers, these names and the constants and functions of
    ``_EXPR_ENV``, arithmetic, and comparisons; anything else is a
    :class:`ConfigError`.
    """
    env = dict(_EXPR_ENV)
    pts = mesh.points
    for a, name in enumerate("xyzw"):
        if a < pts.shape[1]:
            env[name] = pts[:, a]
    for a in range(pts.shape[1]):
        env[f"x{a}"] = pts[:, a]
    env["r"] = np.linalg.norm(pts, axis=1)
    try:
        code = compile(_check_expression(expr, env), "<expression>", "eval")
        vals = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - checked syntax tree
    except Exception as exc:
        raise ConfigError([f"expression {expr!r}: {exc}"]) from exc
    return np.broadcast_to(np.asarray(vals, dtype=float), (mesh.n_nodes,)).copy()


# ---------------------------------------------------------------------------
# configuration schema


def _check_keys(section: str, data: dict, allowed: set[str], errors: list[str]) -> None:
    for key in data:
        if key not in allowed:
            errors.append(f"{section}.{key}: unknown key")


_DEFAULT_SOLVER = {
    "eps0": 0.5,
    "ratio": 0.25,
    "steps": 6,
    "tol": 1e-8,
    "max_iter": 800,
    "delta0": 0.0,
    "seed": 0,
    "dual_budget": 200,
}
_DEFAULT_EIGEN = {
    "l_values": [],
    "tol": 1e-8,
    "max_iter": 800,
    "z_nodes_per_unit": 8.0,
    "seed": 0,
}
_DEFAULT_CERTIFY = {
    "checks": ["monotonicity", "power_mean", "hardy", "poincare", "cylinder"],
    "samples": 200,
    "pair_samples": 100000,
    "p_values": [1.5, 2.0, 3.0, 4.0],
    "seed": 0,
    "tolerance": 1e-8,
    "constant_scale": 1.0,
}
_DEFAULT_BLOWUP = {
    "n_terms": 8,
    "length_per_bump": 6.0,
    "z_nodes_per_unit": 8.0,
    "seed": 0,
}
_DEFAULT_OUTPUT = {"directory": "runs", "formats": ["csv", "json"], "field_format": "bin"}
_DEFAULT_PHYSICS = {
    "p": 2.0,
    "q": None,
    "potential": {"kind": "zero"},
    "weight": {"kind": "constant", "value": 1.0},
    "forcing": {"kind": "zero"},
}


@dataclass
class RunConfig:
    """Fully validated configuration; sections are normalized dicts with all
    defaults filled, so ``parse_config(emit) == parse_config(original)``."""

    subcommand: str
    domain: dict | None
    mesh: dict | None
    physics: dict
    solver: dict
    eigen: dict
    certify: dict
    blowup: dict
    output: dict

    def to_dict(self) -> dict:
        out = {
            "subcommand": self.subcommand,
            "physics": self.physics,
            "solver": self.solver,
            "eigen": self.eigen,
            "certify": self.certify,
            "blowup": self.blowup,
            "output": self.output,
        }
        if self.domain is not None:
            out["domain"] = self.domain
        if self.mesh is not None:
            out["mesh"] = self.mesh
        return out

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _validate_domain(data: dict, errors: list[str]) -> dict | None:
    allowed = {"kind", "bounds", "m_axes", "truncation_length", "puncture_radius"}
    _check_keys("domain", data, allowed, errors)
    kind = data.get("kind")
    if kind not in ("interval", "box", "strip", "punctured_box"):
        errors.append(f"domain.kind: must be one of interval, box, strip, punctured_box, got {kind!r}")
        return None
    bounds = data.get("bounds")
    if not isinstance(bounds, list) or not bounds or not all(
        isinstance(b, list) and len(b) == 2 for b in bounds
    ):
        errors.append("domain.bounds: must be a nonempty list of [lo, hi] pairs")
        return None
    out = {"kind": kind, "bounds": [[float(lo), float(hi)] for lo, hi in bounds]}
    for a, (lo, hi) in enumerate(out["bounds"]):
        if not lo < hi:
            errors.append(f"domain.bounds[{a}]: lo must be below hi")
    if kind == "strip":
        m_axes = data.get("m_axes", 1)
        length = data.get("truncation_length")
        if not isinstance(m_axes, int) or m_axes < 1:
            errors.append("domain.m_axes: must be a positive integer")
        if not isinstance(length, (int, float)) or length <= 0:
            errors.append("domain.truncation_length: must be a positive number")
        else:
            out["m_axes"] = int(m_axes)
            out["truncation_length"] = float(length)
    elif "m_axes" in data or "truncation_length" in data:
        errors.append("domain.m_axes: only valid for strip domains")
    if kind == "punctured_box":
        radius = data.get("puncture_radius", 0.0)
        if not isinstance(radius, (int, float)) or radius < 0:
            errors.append("domain.puncture_radius: must be a nonnegative number")
        else:
            out["puncture_radius"] = float(radius)
    elif "puncture_radius" in data:
        errors.append("domain.puncture_radius: only valid for punctured_box domains")
    return out


def _validate_mesh(data: dict, domain: dict | None, errors: list[str]) -> dict | None:
    allowed = {"nodes_per_axis", "singular_cap_radius", "singular_axes"}
    _check_keys("mesh", data, allowed, errors)
    nodes = data.get("nodes_per_axis")
    if not isinstance(nodes, list) or not all(isinstance(n, int) and n >= 3 for n in nodes):
        errors.append("mesh.nodes_per_axis: must be a list of integers, each at least 3")
        return None
    out = {"nodes_per_axis": list(nodes)}
    if domain is not None:
        dims = len(domain["bounds"]) + (domain.get("m_axes", 0) if domain["kind"] == "strip" else 0)
        if len(nodes) != dims:
            errors.append(
                f"mesh.nodes_per_axis: expected {dims} entries for this domain, got {len(nodes)}"
            )
    cap = data.get("singular_cap_radius", 0.0)
    if not isinstance(cap, (int, float)) or cap < 0:
        errors.append("mesh.singular_cap_radius: must be a nonnegative number")
    else:
        out["singular_cap_radius"] = float(cap)
    axes = data.get("singular_axes")
    if axes is not None and (
        not isinstance(axes, list) or not all(isinstance(a, int) and a >= 0 for a in axes)
    ):
        errors.append("mesh.singular_axes: must be a list of nonnegative axis indices")
    else:
        out["singular_axes"] = axes if axes is None else list(axes)
    return out


def _validate_physics(data: dict, errors: list[str]) -> dict:
    allowed = {"p", "q", "potential", "weight", "forcing"}
    _check_keys("physics", data, allowed, errors)
    out = json.loads(json.dumps(_DEFAULT_PHYSICS))
    p = data.get("p", out["p"])
    if not isinstance(p, (int, float)) or not p > 1:
        errors.append(f"physics.p: must exceed 1, got {p!r}")
        p = 2.0
    q = data.get("q", None)
    if q is None:
        q = float(p)
    elif not isinstance(q, (int, float)):
        errors.append("physics.q: must be a number")
        q = float(p)
    else:
        q = float(q)
        if not q > 1:
            errors.append(f"physics.q: must exceed 1, got {q}")
        if not q <= p:
            errors.append(f"physics.q: must not exceed p={p}, got {q}")
        if not p - 1 < q:
            errors.append(f"physics.q: must exceed p - 1 = {p - 1}, got {q}")
    out["p"], out["q"] = float(p), q

    pot = data.get("potential", {"kind": "zero"})
    pot_allowed = {"kind", "value", "k_axes", "expr"}
    _check_keys("physics.potential", pot, pot_allowed, errors)
    kind = pot.get("kind", "zero")
    if kind not in ("zero", "quadratic_hardy", "hardy_p", "cylindrical_hardy", "constant", "tabulated"):
        errors.append(f"physics.potential.kind: unknown kind {kind!r}")
        kind = "zero"
    norm_pot = {"kind": kind}
    if kind == "constant":
        value = pot.get("value", 0.0)
        if value == "lambda1_omega":
            norm_pot["value"] = "lambda1_omega"
        elif isinstance(value, (int, float)) and value >= 0:
            norm_pot["value"] = float(value)
        else:
            errors.append("physics.potential.value: must be a nonnegative number or 'lambda1_omega'")
    elif kind == "cylindrical_hardy":
        k_axes = pot.get("k_axes")
        if not isinstance(k_axes, int) or not k_axes > p:
            errors.append(
                f"physics.potential.k_axes: cylindrical hardy requires an integer k > p={p}"
            )
        else:
            norm_pot["k_axes"] = k_axes
    elif kind == "tabulated":
        expr = pot.get("expr")
        if not isinstance(expr, str):
            errors.append("physics.potential.expr: tabulated potential needs an expression string")
        else:
            norm_pot["expr"] = expr
    out["potential"] = norm_pot

    wt = data.get("weight", _DEFAULT_PHYSICS["weight"])
    _check_keys("physics.weight", wt, {"kind", "value", "p"}, errors)
    wkind = wt.get("kind", "constant")
    if wkind not in ("constant", "cylinder_decay"):
        errors.append(f"physics.weight.kind: unknown kind {wkind!r}")
        wkind = "constant"
    wval = wt.get("value", 1.0)
    if not isinstance(wval, (int, float)) or wval <= 0:
        errors.append("physics.weight.value: must be a positive number")
        wval = 1.0
    norm_wt = {"kind": wkind, "value": float(wval)}
    if wkind == "cylinder_decay":
        norm_wt["p"] = float(wt.get("p", p))
    out["weight"] = norm_wt

    forcing = data.get("forcing", {"kind": "zero"})
    _check_keys("physics.forcing", forcing, {"kind", "expr"}, errors)
    fkind = forcing.get("kind", "zero")
    if fkind not in ("zero", "expression"):
        errors.append(f"physics.forcing.kind: must be 'zero' or 'expression', got {fkind!r}")
        fkind = "zero"
    norm_f = {"kind": fkind}
    if fkind == "expression":
        expr = forcing.get("expr")
        if not isinstance(expr, str):
            errors.append("physics.forcing.expr: expression forcing needs an expression string")
        else:
            norm_f["expr"] = expr
    out["forcing"] = norm_f
    return out


def _validate_section(name: str, data: dict, defaults: dict, errors: list[str]) -> dict:
    _check_keys(name, data, set(defaults), errors)
    out = json.loads(json.dumps(defaults))
    for key, value in data.items():
        if key not in defaults:
            continue
        default = defaults[key]
        if isinstance(default, bool) and not isinstance(value, bool):
            errors.append(f"{name}.{key}: must be a boolean")
        elif isinstance(default, int) and not isinstance(default, bool):
            if not isinstance(value, int):
                errors.append(f"{name}.{key}: must be an integer")
                continue
            out[key] = value
        elif isinstance(default, float):
            if not isinstance(value, (int, float)):
                errors.append(f"{name}.{key}: must be a number")
                continue
            out[key] = float(value)
        elif isinstance(default, list):
            if not isinstance(value, list):
                errors.append(f"{name}.{key}: must be a list")
                continue
            out[key] = value
        else:
            out[key] = value
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    Validation is total: every problem is reported as ``section.key:
    constraint``, and unknown keys are errors.
    """
    errors: list[str] = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config: top level must be an object"])

    top_allowed = {"subcommand", "domain", "mesh", "physics", "solver", "eigen", "certify", "blowup", "output"}
    _check_keys("config", data, top_allowed, errors)

    sub = data.get("subcommand")
    if sub not in _SUBCOMMANDS:
        errors.append(f"config.subcommand: must be one of {', '.join(_SUBCOMMANDS)}, got {sub!r}")
        raise ConfigError(errors)

    needs_domain = sub in ("solve", "eigen", "blowup", "admissibility")
    domain = None
    mesh = None
    if "domain" in data:
        domain = _validate_domain(data["domain"], errors)
    elif needs_domain:
        errors.append(f"config.domain: required for subcommand {sub!r}")
    if "mesh" in data:
        mesh = _validate_mesh(data["mesh"], domain, errors)
    elif needs_domain:
        errors.append(f"config.mesh: required for subcommand {sub!r}")

    physics = _validate_physics(data.get("physics", {}), errors)
    solver = _validate_section("solver", data.get("solver", {}), _DEFAULT_SOLVER, errors)
    eigen = _validate_section("eigen", data.get("eigen", {}), _DEFAULT_EIGEN, errors)
    certify = _validate_section("certify", data.get("certify", {}), _DEFAULT_CERTIFY, errors)
    blowup = _validate_section("blowup", data.get("blowup", {}), _DEFAULT_BLOWUP, errors)
    output = _validate_section("output", data.get("output", {}), _DEFAULT_OUTPUT, errors)

    if not (0.0 < solver["eps0"] < 1.0):
        errors.append(f"solver.eps0: must lie in (0, 1), got {solver['eps0']}")
    if not (0.0 < solver["ratio"] < 1.0):
        errors.append(f"solver.ratio: must lie in (0, 1), got {solver['ratio']}")
    if solver["steps"] < 1:
        errors.append("solver.steps: must be a positive integer")
    for check in certify["checks"]:
        if check not in ("monotonicity", "power_mean", "hardy", "poincare", "cylinder"):
            errors.append(f"certify.checks: unknown check {check!r}")
    if blowup["n_terms"] < 3:
        errors.append("blowup.n_terms: need at least 3 bumps")
    if output["field_format"] not in ("bin", "csv"):
        errors.append(f"output.field_format: must be 'bin' or 'csv', got {output['field_format']!r}")

    # cross-field checks that mirror the constructor constraints
    if domain is not None and physics["potential"]["kind"] == "hardy_p":
        dims = len(domain["bounds"]) + (domain.get("m_axes", 0) if domain["kind"] == "strip" else 0)
        if not physics["p"] < dims:
            errors.append(
                f"physics.potential: hardy potential requires 1 < p < N, got p={physics['p']}, N={dims}"
            )
    if physics["potential"]["kind"] == "constant" and physics["potential"].get("value") == "lambda1_omega":
        if domain is not None and domain["kind"] != "strip":
            errors.append("physics.potential.value: 'lambda1_omega' needs a strip domain")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        subcommand=sub,
        domain=domain,
        mesh=mesh,
        physics=physics,
        solver=solver,
        eigen=eigen,
        certify=certify,
        blowup=blowup,
        output=output,
    )


# ---------------------------------------------------------------------------
# builders


@contextmanager
def _config_errors():
    """Report a ``ValueError`` raised while building the problem from a parsed
    config as a :class:`ConfigError`: the config asked for something the
    constructors refuse."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc


def _build_domain(cfg: RunConfig) -> Domain:
    d = cfg.domain
    bounds = [tuple(b) for b in d["bounds"]]
    if d["kind"] == "strip":
        from .grid import strip as make_strip

        return make_strip(bounds, d["m_axes"], d["truncation_length"])
    if d["kind"] == "punctured_box":
        return Domain("punctured_box", tuple(bounds), puncture_radius=d.get("puncture_radius", 0.0))
    kind = "interval" if len(bounds) == 1 else "box"
    return Domain(kind, tuple(bounds))


@_config_errors()
def _build_mesh(cfg: RunConfig) -> Mesh:
    dom = _build_domain(cfg)
    m = cfg.mesh
    return build_mesh(
        dom,
        m["nodes_per_axis"],
        singular_cap_radius=m.get("singular_cap_radius", 0.0),
        singular_axes=m.get("singular_axes"),
    )


@_config_errors()
def _omega_mesh(cfg: RunConfig) -> Mesh:
    """Cross-section mesh of a strip config (the bounded axes only)."""
    d = cfg.domain
    bounds = [tuple(b) for b in d["bounds"]]
    kind = "interval" if len(bounds) == 1 else "box"
    n_omega = len(bounds)
    return build_mesh(Domain(kind, tuple(bounds)), cfg.mesh["nodes_per_axis"][:n_omega])


def _build_potential(cfg: RunConfig, mesh: Mesh) -> Potential:
    """The configured potential, evaluated once on ``mesh`` so that a
    potential the mesh cannot carry is a config error."""
    pot = cfg.physics["potential"]
    p = cfg.physics["p"]
    kind = pot["kind"]
    value = pot.get("value")
    if value == "lambda1_omega":
        value = rayleigh_min(
            _omega_mesh(cfg), p, tol=1e-10, max_iter=3000, seed=cfg.solver["seed"],
            stall_window=120, stall_factor=0.95,
        ).value
    with _config_errors():
        if kind == "zero":
            V = Potential.zero()
        elif kind == "quadratic_hardy":
            V = Potential.quadratic_hardy(mesh.domain.dims)
        elif kind == "hardy_p":
            V = Potential.hardy(mesh.domain.dims, p)
        elif kind == "cylindrical_hardy":
            V = Potential.cylindrical_hardy(pot["k_axes"], p)
        elif kind == "constant":
            V = Potential.constant(value)
        else:
            V = Potential.tabulated(evaluate_expression(pot["expr"], mesh))
        evaluate_potential(V, mesh)
    return V


@_config_errors()
def _build_weight(cfg: RunConfig, mesh: Mesh) -> Weight:
    wt = cfg.physics["weight"]
    if wt["kind"] == "constant":
        W = Weight.constant(wt["value"])
    else:
        W = Weight.cylinder_decay(wt["value"], wt.get("p", cfg.physics["p"]))
    evaluate_weight(W, mesh)
    return W


@_config_errors()
def _build_forcing(cfg: RunConfig, mesh: Mesh) -> ForcingTerm:
    forcing = cfg.physics["forcing"]
    if forcing["kind"] == "zero":
        return ForcingTerm.zero(mesh)
    vals = evaluate_expression(forcing["expr"], mesh)
    return ForcingTerm("manufactured", mesh, density=vals)


# ---------------------------------------------------------------------------
# run pipeline


@dataclass
class RunArtifact:
    """Everything one run produced: config echo, records, solution field, and
    provenance.  Numeric records are deterministic in (config, seed)."""

    config: RunConfig
    admissibility: AdmissibilityReport | None = None
    solve_report: SolveReport | None = None
    eigen_rows: list[dict] = field(default_factory=list)
    certifications: list[CertificationRecord] = field(default_factory=list)
    blowup_rows: list[dict] = field(default_factory=list)
    solution: DiscreteFunction | None = None
    failure: str | None = None
    exit_code: int = 0
    wall_time: float = 0.0

    @property
    def provenance(self) -> dict:
        return {
            "version": __version__,
            "config_hash": self.config.config_hash,
            "seed": self.config.solver["seed"],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }


def _run_admissibility(cfg: RunConfig, mesh: Mesh) -> AdmissibilityReport:
    V = _build_potential(cfg, mesh)
    W = _build_weight(cfg, mesh)
    return admissibility_report(
        V,
        mesh,
        cfg.physics["p"],
        cfg.physics["q"],
        W,
        samples=min(cfg.certify["samples"], 64),
        seed=cfg.certify["seed"],
    )


def _run_solve(cfg: RunConfig, artifact: RunArtifact, override: bool) -> None:
    mesh = _build_mesh(cfg)
    artifact.admissibility = _run_admissibility(cfg, mesh)
    if artifact.admissibility.violations and not override:
        artifact.failure = "admissibility violations; rerun with --override-admissibility to proceed"
        artifact.exit_code = 2
        return
    V = _build_potential(cfg, mesh)
    W = _build_weight(cfg, mesh)
    f = _build_forcing(cfg, mesh)
    s = cfg.solver
    params = EnergyParams(p=cfg.physics["p"], q=cfg.physics["q"], delta=s["delta0"])
    schedule = EpsSchedule(s["eps0"], s["ratio"], s["steps"])
    report = continuation_solve(
        V, f, params, schedule,
        tol=s["tol"], W=W, max_iter=s["max_iter"],
        seed=s["seed"], dual_budget=s["dual_budget"],
    )
    artifact.solve_report = report
    artifact.solution = report.solution
    if not report.converged:
        artifact.failure = "continuation stages stopped above the residual tolerance"
        artifact.exit_code = 3


def _run_eigen(cfg: RunConfig, artifact: RunArtifact) -> None:
    e = cfg.eigen
    p = cfg.physics["p"]
    if e["l_values"] and cfg.domain["kind"] == "strip":
        omega = _omega_mesh(cfg)
        record = cylinder_eigen_check(
            omega,
            cfg.domain["m_axes"],
            [float(L) for L in e["l_values"]],
            p,
            z_nodes_per_unit=e["z_nodes_per_unit"],
            eigen_tol=e["tol"],
            seed=e["seed"],
        )
        artifact.certifications.append(record)
        lam_omega = record.details["lambda_omega"]
        for L, lam in record.details["lambda_strip"].items():
            artifact.eigen_rows.append(
                {
                    "truncation_length": L,
                    "p": p,
                    "lambda": lam,
                    "lambda_omega": lam_omega,
                    "tensor_quotient": record.details["tensor_quotients"][L],
                }
            )
        if record.verdict == "violation":
            artifact.failure = "eigenvalue comparison violated its tolerance"
            artifact.exit_code = 2
        return
    mesh = _build_mesh(cfg)
    result = rayleigh_min(mesh, p, tol=e["tol"], max_iter=e["max_iter"], seed=e["seed"])
    artifact.solution = result.minimizer
    artifact.eigen_rows.append(
        {
            "p": p,
            "lambda": result.value,
            "iterations": result.iterations,
            "residual": result.residual,
        }
    )


def _run_certify(cfg: RunConfig, artifact: RunArtifact) -> None:
    c = cfg.certify
    seed = c["seed"]
    scale = c["constant_scale"]
    records = artifact.certifications
    for check in c["checks"]:
        if check == "monotonicity":
            for p in c["p_values"]:
                records.append(monotonicity_constant_check(p, samples=c["pair_samples"], seed=seed))
        elif check == "power_mean":
            for p in c["p_values"]:
                records.append(
                    power_mean_check(p, samples=4000, seed=seed, constant_scale=scale)
                )
        elif check == "hardy":
            dom = Domain(
                "punctured_box",
                ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
                puncture_radius=0.05,
            )
            mesh = build_mesh(dom, [33, 33, 33])
            records.append(
                hardy_check(
                    mesh, 3, 2.0,
                    samples=c["samples"], seed=seed,
                    constant_scale=scale, tolerance=c["tolerance"],
                )
            )
        elif check == "poincare":
            omega = build_mesh(Domain("interval", ((0.0, 1.0),)), [9])
            records.append(
                poincare_remainder_check(
                    omega, 3, 2.0, 2.0,
                    samples=c["samples"], seed=seed, z_nodes=17,
                    constant_scale=scale, tolerance=c["tolerance"],
                )
            )
            records.append(
                poincare_remainder_check(
                    omega, 2, 2.0, 1.5,
                    samples=c["samples"], seed=seed, z_nodes=33,
                    constant_scale=scale, tolerance=c["tolerance"],
                )
            )
        elif check == "cylinder":
            omega = build_mesh(Domain("interval", ((0.0, 1.0),)), [33])
            for p in c["p_values"]:
                if p > 3.0:
                    continue
                records.append(
                    cylinder_eigen_check(omega, 1, [2.0, 4.0, 8.0], p, tol=1e-6, seed=seed)
                )
    if any(r.verdict == "violation" for r in records):
        artifact.failure = "certification violations present"
        artifact.exit_code = 2


def _run_blowup(cfg: RunConfig, artifact: RunArtifact) -> None:
    b = cfg.blowup
    omega = _omega_mesh(cfg)
    result = blowup_demo(
        omega,
        cfg.domain["m_axes"],
        n_terms=b["n_terms"],
        length_per_bump=b["length_per_bump"],
        z_nodes_per_unit=b["z_nodes_per_unit"],
        seed=b["seed"],
    )
    for row in result.rows:
        artifact.blowup_rows.append(
            {
                "k": row.k,
                "q_partial_sum": row.q_partial_sum,
                "dual_norm_partial": row.dual_norm_partial,
                "gradient_energy": row.gradient_energy,
                "harmonic_number": row.harmonic_number,
                "energy_ratio": row.energy_ratio,
            }
        )
    artifact.blowup_rows.append(
        {
            "k": -1,
            "q_partial_sum": 0.0,
            "dual_norm_partial": 0.0,
            "gradient_energy": result.fitted_constant,
            "harmonic_number": 1.0,
            "energy_ratio": result.fitted_constant,
        }
    )


def run(config: RunConfig, override_admissibility: bool = False) -> RunArtifact:
    """Execute the configured pipeline and return the artifact.

    Never raises for run failures; they are recorded on the artifact with
    the corresponding exit code (1 a config the problem cannot be built
    from, 2 violations, 3 solver failure).
    """
    artifact = RunArtifact(config=config)
    t0 = time.perf_counter()
    try:
        if config.subcommand == "solve":
            _run_solve(config, artifact, override_admissibility)
        elif config.subcommand == "eigen":
            _run_eigen(config, artifact)
        elif config.subcommand == "certify":
            _run_certify(config, artifact)
        elif config.subcommand == "blowup":
            _run_blowup(config, artifact)
        else:
            mesh = _build_mesh(config)
            artifact.admissibility = _run_admissibility(config, mesh)
            if artifact.admissibility.violations:
                artifact.failure = "admissibility violations"
                artifact.exit_code = 2
    except ConfigError as exc:
        artifact.failure = f"{type(exc).__name__}: {exc}"
        artifact.exit_code = 1
    except (IndefiniteEnergyError, ContinuationBoundError, ValueError, RuntimeError) as exc:
        artifact.failure = f"{type(exc).__name__}: {exc}"
        artifact.exit_code = 3
    artifact.wall_time = time.perf_counter() - t0
    return artifact


# ---------------------------------------------------------------------------
# report emission


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_reports(artifact: RunArtifact, out_dir: str | Path | None = None) -> list[Path]:
    """Write the artifact to ``<out>/run_<hash>/``: CSV tables (one row per
    record), a JSON summary, the config echo, and the solution field."""
    cfg = artifact.config
    base = Path(out_dir if out_dir is not None else cfg.output["directory"])
    run_dir = base / f"run_{cfg.config_hash}"
    run_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    echo = run_dir / "config.json"
    echo.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    written.append(echo)

    summary: dict = {
        "provenance": artifact.provenance,
        "status": "failed" if artifact.failure else "ok",
        "exit_code": artifact.exit_code,
        "wall_time": artifact.wall_time,
    }
    if artifact.failure:
        summary["failure"] = artifact.failure

    if artifact.admissibility is not None:
        rep = artifact.admissibility
        path = run_dir / "admissibility.csv"
        _write_csv(
            path,
            ["p", "q", "n_dims", "r", "r_alt", "local_integrability_proxy", "sampled_margin", "violations"],
            [[rep.p, rep.q, rep.n_dims, rep.r, rep.r_alt if rep.r_alt is not None else "", rep.local_integrability_proxy, rep.sampled_margin, len(rep.violations)]],
        )
        written.append(path)
        summary["admissibility"] = {
            "r": rep.r,
            "r_alt": rep.r_alt,
            "sampled_margin": rep.sampled_margin,
            "violations": rep.violations,
        }

    if artifact.solve_report is not None:
        rep = artifact.solve_report
        path = run_dir / "solve_stages.csv"
        _write_csv(
            path,
            [
                "eps", "phi_value", "phi_start", "q_v_value", "y_norm_value",
                "sobolev_norm_value", "residual", "iterations",
                "linesearch_failures", "cauchy_vs_prev", "dual_quotient",
                "phi_increase_max",
            ],
            [
                [
                    s.eps, s.phi_value, s.phi_start, s.q_v_value, s.y_norm_value,
                    s.sobolev_norm_value, s.residual, s.iterations,
                    s.linesearch_failures, s.cauchy_vs_prev, s.dual_quotient,
                    s.phi_increase_max,
                ]
                for s in rep.stages
            ],
        )
        written.append(path)
        summary["solve"] = {
            "terminal_residual": rep.terminal_residual,
            "dual_norm_estimate": rep.dual_norm_estimate,
            "converged": rep.converged,
            "stages": len(rep.stages),
        }

    if artifact.eigen_rows:
        path = run_dir / "eigen.csv"
        header = sorted({k for row in artifact.eigen_rows for k in row})
        _write_csv(path, header, [[row.get(k, "") for k in header] for row in artifact.eigen_rows])
        written.append(path)
        summary["eigen"] = artifact.eigen_rows

    if artifact.certifications:
        path = run_dir / "certifications.csv"
        _write_csv(
            path,
            ["inequality_id", "sample_count", "worst_margin", "worst_sample", "verdict", "tolerance"],
            [
                [r.inequality_id, r.sample_count, r.worst_margin, r.worst_sample, r.verdict, r.tolerance]
                for r in artifact.certifications
            ],
        )
        written.append(path)
        summary["certifications"] = [
            {
                "inequality_id": r.inequality_id,
                "verdict": r.verdict,
                "worst_margin": r.worst_margin,
                "details": _jsonable(r.details),
            }
            for r in artifact.certifications
        ]

    if artifact.blowup_rows:
        path = run_dir / "blowup.csv"
        header = ["k", "q_partial_sum", "dual_norm_partial", "gradient_energy", "harmonic_number", "energy_ratio"]
        _write_csv(path, header, [[row[k] for k in header] for row in artifact.blowup_rows])
        written.append(path)

    if artifact.solution is not None:
        if cfg.output["field_format"] == "bin":
            path = run_dir / "solution.bin"
            artifact.solution.values.astype("<f8").tofile(path)
        else:
            path = run_dir / "solution.csv"
            _write_csv(path, ["value"], [[v] for v in artifact.solution.values])
        written.append(path)
        summary["solution"] = {
            "file": path.name,
            "nodes_per_axis": list(artifact.solution.mesh.shape),
            "dtype": "<f8",
            "order": "C",
        }

    spath = run_dir / "summary.json"
    spath.write_text(json.dumps(summary, indent=2, sort_keys=True, default=_fmt) + "\n")
    written.append(spath)
    return written


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# entry point


def _load_config_text(source: str) -> str:
    if source.startswith("preset:"):
        return json.dumps(presets.get(source.split(":", 1)[1]))
    return Path(source).read_text()


def _apply_sweep(base: dict, key: str, value) -> dict:
    out = json.loads(json.dumps(base))
    node = out
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plapsolve",
        description="Forced p-Laplacian solves, eigenvalue estimates, and inequality certification.",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS, help="pipeline to run")
    parser.add_argument("--config", required=True, help="path to a JSON config, or preset:NAME")
    parser.add_argument("--out", default=None, help="output directory (overrides output.directory)")
    parser.add_argument("--seed", type=int, default=None, help="override solver and certify seeds")
    parser.add_argument(
        "--override-admissibility",
        action="store_true",
        help="proceed with solves even if the admissibility check records violations",
    )
    parser.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...", help="fan out runs over a config key")
    args = parser.parse_args(argv)

    try:
        raw = json.loads(_load_config_text(args.config))
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    raw["subcommand"] = args.subcommand
    if args.seed is not None:
        raw.setdefault("solver", {})["seed"] = args.seed
        raw.setdefault("certify", {})["seed"] = args.seed
        raw.setdefault("eigen", {})["seed"] = args.seed
        raw.setdefault("blowup", {})["seed"] = args.seed

    variants: list[dict] = [raw]
    if args.sweep:
        try:
            key, _, values = args.sweep.partition("=")
            if not values:
                raise ValueError("expected KEY=V1,V2,...")
            parsed = [json.loads(v) for v in values.split(",")]
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"config error: --sweep {exc}", file=sys.stderr)
            return 1
        variants = [_apply_sweep(raw, key.strip(), v) for v in parsed]

    configs: list[RunConfig] = []
    for variant in variants:
        try:
            configs.append(parse_config(json.dumps(variant)))
        except ConfigError as exc:
            for err in exc.errors:
                print(f"config error: {err}", file=sys.stderr)
            return 1

    def execute(cfg: RunConfig) -> int:
        artifact = run(cfg, override_admissibility=args.override_admissibility)
        files = emit_reports(artifact, args.out)
        run_dir = files[0].parent
        status = "failed: " + artifact.failure if artifact.failure else "ok"
        print(f"[{cfg.subcommand}] {run_dir} {status}")
        return artifact.exit_code

    if len(configs) == 1:
        return execute(configs[0])
    with ThreadPoolExecutor(max_workers=min(4, len(configs))) as pool:
        codes = list(pool.map(execute, configs))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
