"""Config-driven command line runner.

Subcommands: ``solve`` (admissibility gate then continuation), ``eigen``
(Rayleigh minimization, with a truncation-length sweep on strips),
``certify`` (the inequality suite), ``blowup`` (the divergent-forcing
construction), and ``admissibility`` (the report alone).

Configs are JSON documents checked against one schema table; unknown keys
are errors, a key that another kind adds is refused as ``only valid for
<kind> <section>s`` (``physics.potential.value`` on a zero potential), and
every validation error names its config section.  The parse also evaluates,
for ``solve`` and ``admissibility``, the potential, weight and (``solve``)
forcing on the mesh with the builders the run calls, so every config error is
refused before any run.  Reports land in a directory named from the config
hash: delimited tables (one row per record), a JSON summary, the config echo,
and the solution field.  Identical configs byte-reproduce all numeric outputs.

Exit codes: 0 success, 1 config error (before any run), 2 certification or
admissibility violation, 3 solver failure.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, presets
from .energy import EnergyParams, ForcingTerm, IndefiniteEnergyError
from .grid import Domain, DiscreteFunction, Mesh, build_mesh, strip
from .potentials import Potential, Weight, evaluate_potential, evaluate_weight, validate_exponents
from .solver import ContinuationBoundError, EpsSchedule, SolveReport, continuation_solve
from .spectra import (
    AdmissibilityReport,
    BlowupRow,
    CertificationRecord,
    admissibility_report,
    blowup_demo,
    cylinder_eigen_check,
    hardy_check,
    monotonicity_constant_check,
    poincare_remainder_check,
    power_mean_check,
    rayleigh_min,
    section_eigenvalue,
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
        # a pole or an overflow is left for the consumer's finiteness check,
        # which ignores excluded nodes
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = eval(code, {"__builtins__": {}}, env)  # noqa: S307 - checked syntax tree
    except Exception as exc:
        raise ConfigError([f"expression {expr!r}: {exc}"]) from exc
    return np.broadcast_to(np.asarray(vals, dtype=float), (mesh.n_nodes,)).copy()


# ---------------------------------------------------------------------------
# configuration schema


def _is_number(value) -> bool:
    """An int or a float; JSON's ``true`` and ``false`` are neither."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(is_item):
    return lambda value: isinstance(value, list) and all(map(is_item, value))


def _float(value):
    """A number as a float; a string or null stays as it is."""
    return value if value is None or isinstance(value, str) else float(value)


# what a value must be, worded as its error says it: (check, normalization);
# "an object" is a nested section, checked against its own schema
_TYPES = {
    "a number": (_is_number, float),
    "a number or null": (lambda v: v is None or _is_number(v), _float),
    "a number or 'lambda1_omega'": (lambda v: v == "lambda1_omega" or _is_number(v), _float),
    "an integer": (_is_integer, int),
    "a string": (lambda v: isinstance(v, str), str),
    "a list of numbers": (_list_of(_is_number), list),
    "a list of integers": (_list_of(_is_integer), list),
    "a list of integers or null": (
        lambda v: v is None or _list_of(_is_integer)(v),
        lambda v: v if v is None else list(v),
    ),
    "a list of strings": (_list_of(lambda v: isinstance(v, str)), list),
    "a nonempty list of [lo, hi] number pairs": (
        lambda v: bool(v) and _list_of(lambda b: _list_of(_is_number)(b) and len(b) == 2)(v),
        lambda v: [[float(lo), float(hi)] for lo, hi in v],
    ),
}

_CHECKS = ["monotonicity", "power_mean", "hardy", "poincare", "cylinder"]

# section -> key -> (type, default).  A None default that the type refuses
# makes the key required; a null q or weight p is physics.p.  The weight value
# has no default: runs that read it require it, and no value passes the
# admissibility gate everywhere.
_SCHEMA = {
    "domain": {"kind": ("a string", None), "bounds": ("a nonempty list of [lo, hi] number pairs", None)},
    "mesh": {
        "nodes_per_axis": ("a list of integers", None),
        "singular_cap_radius": ("a number", 0.0),
        "singular_axes": ("a list of integers or null", None),
    },
    "physics": {
        "p": ("a number", 2.0),
        "q": ("a number or null", None),
        "potential": ("an object", {}),
        "weight": ("an object", {}),
        "forcing": ("an object", {}),
    },
    "physics.potential": {"kind": ("a string", "zero")},
    "physics.weight": {"kind": ("a string", "constant"), "value": ("a number or null", None)},
    "physics.forcing": {"kind": ("a string", "zero")},
    "solver": {
        "eps0": ("a number", 0.5),
        "ratio": ("a number", 0.25),
        "steps": ("an integer", 6),
        "tol": ("a number", 1e-8),
        "max_iter": ("an integer", 800),
        "delta0": ("a number", 0.0),
        "seed": ("an integer", 0),
    },
    "eigen": {
        "l_values": ("a list of numbers", []),
        "tol": ("a number", 1e-8),
        "max_iter": ("an integer", 800),
        "z_nodes_per_unit": ("a number", 8.0),
        "seed": ("an integer", 0),
    },
    "certify": {
        "checks": ("a list of strings", _CHECKS),
        "samples": ("an integer", 200),
        "pair_samples": ("an integer", 100000),
        "p_values": ("a list of numbers", [1.5, 2.0, 3.0, 4.0]),
        "seed": ("an integer", 0),
        "tolerance": ("a number", 1e-8),
        "constant_scale": ("a number", 1.0),
    },
    "blowup": {
        "n_terms": ("an integer", 8),
        "length_per_bump": ("a number", 6.0),
        "z_nodes_per_unit": ("a number", 8.0),
        "seed": ("an integer", 0),
    },
    "output": {"directory": ("a string", "runs"), "field_format": ("a string", "bin")},
}

# section -> kind -> the keys that kind adds, as in _SCHEMA; no default kind adds any
_KIND_KEYS = {
    "domain": {
        "strip": {"m_axes": ("an integer", 1), "truncation_length": ("a number", None)},
        "punctured_box": {"puncture_radius": ("a number", 0.0)},
    },
    "physics.potential": {
        "constant": {"value": ("a number or 'lambda1_omega'", 0.0)},
        "cylindrical_hardy": {"k_axes": ("an integer", None)},
        "tabulated": {"expr": ("a string", None)},
    },
    "physics.weight": {"cylinder_decay": {"p": ("a number or null", None)}},
    "physics.forcing": {"expression": {"expr": ("a string", None)}},
}

_SECTIONS = ("domain", "mesh", "physics", "solver", "eigen", "certify", "blowup", "output")


def _section(name: str, data, errors: list[str]) -> dict:
    """``data`` checked against ``_SCHEMA[name]`` and the keys its kind adds,
    with defaults filled in; each refusal is recorded as ``section.key: ...``."""
    if not isinstance(data, dict):
        errors.append(f"{name}: must be an object")
        data = {}
    kinds = _KIND_KEYS.get(name, {})
    keys = {**_SCHEMA[name], **next((extra for kind, extra in kinds.items() if kind == data.get("kind")), {})}
    for key in data:
        if key not in keys:
            owners = " or ".join(kind for kind, extra in kinds.items() if key in extra)
            noun = name.rsplit(".", 1)[-1]
            errors.append(f"{name}.{key}: " + (f"only valid for {owners} {noun}s" if owners else "unknown key"))
    out = {}
    for key, (expected, default) in keys.items():
        value = data.get(key, default)
        if expected == "an object":
            out[key] = _section(f"{name}.{key}", value, errors)
            continue
        is_valid, normalize = _TYPES[expected]
        if is_valid(value):
            out[key] = normalize(value)
        else:
            errors.append(f"{name}.{key}: must be {expected}")
    return out


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
        return {name: value for name, value in vars(self).items() if value is not None}

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _built(section: str, errors: list[str], build, *args, **kwargs):
    """``build(*args, **kwargs)``, or None with the constructor's refusal
    recorded as ``section: message``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{section}: {exc}")
        return None


def _domain(d: dict, cross_section: bool = False) -> Domain:
    """The configured domain; with ``cross_section``, a box over its bounded axes."""
    bounds = tuple(tuple(b) for b in d["bounds"])
    if cross_section or d["kind"] in ("interval", "box"):
        return Domain("interval" if len(bounds) == 1 else "box", bounds)
    if d["kind"] == "strip":
        return strip(bounds, d["m_axes"], d["truncation_length"])
    return Domain(d["kind"], bounds, puncture_radius=d.get("puncture_radius", 0.0))


def _build_mesh(cfg: RunConfig) -> Mesh:
    return build_mesh(_domain(cfg.domain), **cfg.mesh)


def _omega_mesh(cfg: RunConfig) -> Mesh:
    """Cross-section mesh of a strip config (the bounded axes only)."""
    n_omega = len(cfg.domain["bounds"])
    return build_mesh(_domain(cfg.domain, cross_section=True), cfg.mesh["nodes_per_axis"][:n_omega])


def _build_potential(cfg: RunConfig, mesh: Mesh | None, dims: int | None = None) -> Potential:
    """The configured potential, evaluated once on ``mesh`` so that a
    potential the mesh cannot carry is refused.  Without a mesh it is only
    constructed, on a ``dims``-dimensional domain, and a tabulated potential
    has no table."""
    pot = cfg.physics["potential"]
    p = cfg.physics["p"]
    if pot.get("value") == "lambda1_omega":
        pot = {**pot, "value": section_eigenvalue(_omega_mesh(cfg), p, 1e-10, cfg.solver["seed"]).value}
    if mesh is not None:
        dims = mesh.domain.dims
    kind = pot["kind"]
    if kind == "quadratic_hardy":
        V = Potential.quadratic_hardy(dims)
    elif kind == "hardy_p":
        V = Potential.hardy(dims, p)
    elif kind == "cylindrical_hardy":
        V = Potential.cylindrical_hardy(pot["k_axes"], p)
    elif kind == "constant":
        V = Potential.constant(pot["value"])
    elif kind == "tabulated" and mesh is not None:
        # excluded nodes never enter an integral, so a pole there is allowed
        table = evaluate_expression(pot["expr"], mesh)
        table[mesh.excluded_mask] = 0.0
        V = Potential.tabulated(table)
    elif kind in ("zero", "tabulated"):
        V = Potential(kind)
    else:
        raise ValueError(f"unknown potential kind {kind!r}")
    if mesh is not None:
        evaluate_potential(V, mesh)
    return V


def _build_weight(cfg: RunConfig, mesh: Mesh | None) -> Weight:
    """The configured weight, evaluated once on ``mesh`` when there is one."""
    wt = cfg.physics["weight"]
    if wt["kind"] == "cylinder_decay":
        W = Weight.cylinder_decay(wt["value"], wt["p"])
    else:
        W = Weight(wt["kind"], wt["value"])
    if mesh is not None:
        evaluate_weight(W, mesh)
    return W


def _build_forcing(cfg: RunConfig, mesh: Mesh) -> ForcingTerm:
    forcing = cfg.physics["forcing"]
    if forcing["kind"] == "zero":
        return ForcingTerm.zero(mesh)
    return ForcingTerm.density(mesh, evaluate_expression(forcing["expr"], mesh))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document.

    The schema checks keys, types and shapes, reported as ``section.key:
    constraint``; unknown keys and keys of another kind are errors.  The
    domain, mesh, exponents, potential, weight and eps schedule are then
    built once, and each constructor's refusal is reported as ``section:
    message``; for ``solve`` and ``admissibility`` that includes evaluating
    the potential, weight and (``solve``) forcing on the mesh.
    """
    errors: list[str] = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: invalid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config: top level must be an object"])

    errors += [f"config.{key}: unknown key" for key in data if key not in ("subcommand", *_SECTIONS)]
    sub = data.get("subcommand")
    if sub not in _SUBCOMMANDS:
        errors.append(f"config.subcommand: must be one of {', '.join(_SUBCOMMANDS)}, got {sub!r}")
        raise ConfigError(errors)

    needs_domain = sub in ("solve", "eigen", "blowup", "admissibility")
    cfg = {}
    for name in _SECTIONS:
        if name in data or name not in ("domain", "mesh"):
            cfg[name] = _section(name, data.get(name, {}), errors)
        else:
            cfg[name] = None
            if needs_domain:
                errors.append(f"config.{name}: required for subcommand {sub!r}")
    gated = sub in ("solve", "admissibility")
    if gated and cfg["physics"]["weight"]["value"] is None:
        errors.append(f"physics.weight.value: required for subcommand {sub!r}")
    fkind = cfg["physics"]["forcing"].get("kind", "zero")
    if fkind not in ("zero", "expression"):
        errors.append(f"physics.forcing.kind: must be 'zero' or 'expression', got {fkind!r}")
    if errors:  # the constructors take only well-typed values
        raise ConfigError(errors)

    domain, physics, certify = cfg["domain"], cfg["physics"], cfg["certify"]
    p, pot, weight = physics["p"], physics["potential"], physics["weight"]
    if physics["q"] is None:
        physics["q"] = p
    if "p" in weight and weight["p"] is None:
        weight["p"] = p

    config = RunConfig(subcommand=sub, **cfg)
    dom = _built("domain", errors, _domain, domain) if domain is not None else None
    mesh = _built("mesh", errors, build_mesh, dom, **cfg["mesh"]) if dom and cfg["mesh"] else None
    _built("physics", errors, EnergyParams, p, physics["q"])
    # only solve and admissibility runs evaluate the potential and the weight;
    # a 'lambda1_omega' value is computed at run time, and the Hardy kinds
    # need the domain's dimension
    fields_mesh = mesh if gated else None
    dims = dom.dims if dom else None
    if pot.get("value") != "lambda1_omega" and (dims or pot["kind"] not in ("quadratic_hardy", "hardy_p")):
        _built("physics.potential", errors, _build_potential, config, fields_mesh, dims)
    if weight["value"] is not None:
        _built("physics.weight", errors, _build_weight, config, fields_mesh)
    if sub == "solve" and mesh is not None:
        _built("physics.forcing", errors, _build_forcing, config, mesh)
    solver = cfg["solver"]
    _built("solver", errors, EpsSchedule, solver["eps0"], solver["ratio"], solver["steps"])
    for p_cert in certify["p_values"]:
        _built("certify.p_values", errors, validate_exponents, p_cert, p_cert)
    if certify["samples"] < 1:
        errors.append("certify.samples: must be at least 1")
    if certify["pair_samples"] < 0:
        errors.append("certify.pair_samples: must be at least 0")
    errors += [f"certify.checks: unknown check {check!r}" for check in certify["checks"] if check not in _CHECKS]
    if cfg["blowup"]["n_terms"] < 3:
        errors.append("blowup.n_terms: need at least 3 bumps")
    positive = [("eigen", "z_nodes_per_unit"), ("blowup", "z_nodes_per_unit"), ("blowup", "length_per_bump")]
    errors += [f"{name}.{key}: must be positive" for name, key in positive if not cfg[name][key] > 0]
    l_values = cfg["eigen"]["l_values"]
    if not (all(L > 0 for L in l_values) and all(b > a for a, b in zip(l_values, l_values[1:]))):
        errors.append("eigen.l_values: must be positive and strictly increasing")
    if sub == "blowup" and domain is not None:
        if domain["kind"] != "strip":
            errors.append(f"blowup: needs a strip domain, got {domain['kind']!r}")
        elif domain["m_axes"] != 1:
            errors.append(f"blowup: needs a strip with m_axes = 1, got {domain['m_axes']}")
    if cfg["eigen"]["l_values"] and domain is not None and domain["kind"] != "strip":
        errors.append("eigen.l_values: only valid for strip domains")
    if cfg["output"]["field_format"] not in ("bin", "csv"):
        errors.append(f"output.field_format: must be 'bin' or 'csv', got {cfg['output']['field_format']!r}")
    if pot.get("value") == "lambda1_omega" and domain is not None and domain["kind"] != "strip":
        errors.append("physics.potential.value: 'lambda1_omega' needs a strip domain")

    if errors:
        raise ConfigError(errors)
    return config


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
        # the seed of the section the subcommand reads; eigen, certify and blowup read their own
        seeded = {"solve": "solver", "admissibility": "certify"}.get(self.config.subcommand, self.config.subcommand)
        return {
            "version": __version__,
            "config_hash": self.config.config_hash,
            "seed": getattr(self.config, seeded)["seed"],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }


def _run_solve(cfg: RunConfig, artifact: RunArtifact, override: bool) -> None:
    """The admissibility gate, then, for ``solve``, the continuation."""
    gate_only = cfg.subcommand == "admissibility"
    mesh = _build_mesh(cfg)
    V = _build_potential(cfg, mesh)
    W = _build_weight(cfg, mesh)
    p, q = cfg.physics["p"], cfg.physics["q"]
    artifact.admissibility = admissibility_report(
        V, mesh, p, q, W, samples=min(cfg.certify["samples"], 64), seed=cfg.certify["seed"]
    )
    if artifact.admissibility.violations and (gate_only or not override):
        artifact.failure = "admissibility violations" if gate_only else (
            "admissibility violations; rerun with --override-admissibility to proceed"
        )
        artifact.exit_code = 2
    if gate_only or artifact.exit_code:
        return
    f = _build_forcing(cfg, mesh)
    s = cfg.solver
    params = EnergyParams(p=p, q=q, delta=s["delta0"])
    schedule = EpsSchedule(s["eps0"], s["ratio"], s["steps"])
    report = continuation_solve(
        V, f, params, schedule,
        tol=s["tol"], W=W, max_iter=s["max_iter"],
    )
    artifact.solve_report = report
    artifact.solution = report.solution
    if not report.converged:
        artifact.failure = "continuation stages stopped above the residual tolerance"
        artifact.exit_code = 3


def _run_eigen(cfg: RunConfig, artifact: RunArtifact) -> None:
    e = cfg.eigen
    p = cfg.physics["p"]
    if e["l_values"]:
        omega = _omega_mesh(cfg)
        record = cylinder_eigen_check(
            omega,
            cfg.domain["m_axes"],
            [float(L) for L in e["l_values"]],
            p,
            z_nodes_per_unit=e["z_nodes_per_unit"],
            eigen_tol=e["tol"],
            seed=e["seed"],
            max_iter=e["max_iter"],
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
                    "residual": record.details["strip_residuals"][L],
                    "method": record.details["method"],
                }
            )
        if record.verdict == "violation":
            artifact.failure = "eigenvalue comparison violated its tolerance"
            artifact.exit_code = 2
            return
    else:
        mesh = _build_mesh(cfg)
        result = rayleigh_min(mesh, p, tol=e["tol"], max_iter=e["max_iter"], seed=e["seed"])
        artifact.solution = result.minimizer
        artifact.eigen_rows.append(
            {
                "p": p,
                "lambda": result.value,
                "iterations": result.iterations,
                "residual": result.residual,
                "method": result.method,
            }
        )
    # LOBPCG is exact to tol; a p != 2 descent is an estimate that may stop
    # on its stall rule above tol, so only the exact solves must converge
    for row in artifact.eigen_rows:
        bound = e["tol"] * max(1.0, abs(row["lambda"]))
        if row["method"] == "lobpcg" and row["residual"] > bound:
            artifact.failure = (
                f"eigenvalue solve stopped at residual {row['residual']:.3e} above its tolerance {bound:.3e}"
            )
            artifact.exit_code = 3
            return


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
            cube = Domain("punctured_box", ((-1.0, 1.0),) * 3, puncture_radius=0.05)
            # no name keeps the mesh and its cached operators alive in later checks
            records.append(
                hardy_check(
                    build_mesh(cube, [33, 33, 33]), 2.0, samples=c["samples"], seed=seed,
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
    # a last row k = -1 carries the fitted constant of the harmonic growth
    fitted = BlowupRow(-1, 0.0, 0.0, result.fitted_constant, 1.0, result.fitted_constant)
    artifact.blowup_rows = [asdict(row) for row in [*result.rows, fitted]]


def run(config: RunConfig, override_admissibility: bool = False) -> RunArtifact:
    """Execute the configured pipeline and return the artifact.

    Never raises for run failures; they are recorded on the artifact with
    the corresponding exit code (2 violations, 3 solver failure); every
    config error was refused by :func:`parse_config`.
    """
    artifact = RunArtifact(config=config)
    t0 = time.perf_counter()
    try:
        if config.subcommand in ("solve", "admissibility"):
            _run_solve(config, artifact, override_admissibility)
        elif config.subcommand == "eigen":
            _run_eigen(config, artifact)
        elif config.subcommand == "certify":
            _run_certify(config, artifact)
        else:
            _run_blowup(config, artifact)
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

    # file name -> rows of column -> value; the first row's keys are the header
    tables: dict[str, list[dict]] = {}

    if artifact.admissibility is not None:
        rep = artifact.admissibility
        tables["admissibility.csv"] = [{
            "p": rep.p, "q": rep.q, "n_dims": rep.n_dims, "r": rep.r, "r_alt": rep.r_alt,
            "local_integrability_proxy": rep.local_integrability_proxy, "sampled_margin": rep.sampled_margin,
            "violations": len(rep.violations),
        }]
        summary["admissibility"] = {
            "r": rep.r,
            "r_alt": rep.r_alt,
            "sampled_margin": rep.sampled_margin,
            "violations": rep.violations,
        }

    if artifact.solve_report is not None:
        rep = artifact.solve_report
        tables["solve_stages.csv"] = [asdict(s) for s in rep.stages]
        summary["solve"] = {
            "terminal_residual": rep.terminal_residual,
            "dual_norm_estimate": rep.dual_norm_estimate,
            "converged": rep.converged,
            "stages": len(rep.stages),
        }

    if artifact.eigen_rows:
        header = sorted({k for row in artifact.eigen_rows for k in row})
        tables["eigen.csv"] = [{k: row.get(k, "") for k in header} for row in artifact.eigen_rows]
        summary["eigen"] = artifact.eigen_rows

    if artifact.certifications:
        columns = ["inequality_id", "sample_count", "worst_margin", "worst_sample", "verdict", "tolerance"]
        tables["certifications.csv"] = [{k: getattr(r, k) for k in columns} for r in artifact.certifications]
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
        tables["blowup.csv"] = artifact.blowup_rows

    if artifact.solution is not None:
        field_file = f"solution.{cfg.output['field_format']}"
        if field_file == "solution.bin":
            artifact.solution.values.astype("<f8").tofile(run_dir / field_file)
            written.append(run_dir / field_file)
        else:
            tables[field_file] = [{"value": v} for v in artifact.solution.values]
        summary["solution"] = {
            "file": field_file,
            "nodes_per_axis": list(artifact.solution.mesh.shape),
            "dtype": "<f8",
            "order": "C",
        }

    for name, rows in tables.items():
        path = run_dir / name
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            writer.writerows([_fmt(v) for v in row.values()] for row in rows)
        written.append(path)

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
    """A copy of ``base`` with the dotted ``key`` set to ``value``; a ``key``
    through a value that is not an object is a ``ValueError``."""
    out = json.loads(json.dumps(base))
    node = out
    *parents, last = key.split(".")
    for i, part in enumerate(parents):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"{'.'.join(parents[:i + 1])} is not an object")
    node[last] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plapsolve",
        description="Forced p-Laplacian solves, eigenvalue estimates, and inequality certification.",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS, help="pipeline to run")
    parser.add_argument("--config", required=True, help="path to a JSON config, or preset:NAME")
    parser.add_argument("--out", default=None, help="output directory (overrides output.directory)")
    parser.add_argument("--seed", type=int, default=None, help="override the solver, eigen, certify and blowup seeds")
    parser.add_argument(
        "--override-admissibility",
        action="store_true",
        help="proceed with solves even if the admissibility check records violations",
    )
    parser.add_argument("--sweep", default=None, metavar="KEY=V1,V2,...", help="fan out runs over a config key")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="write a cProfile of each run and its report emission to profile.pstats in the run directory",
    )
    args = parser.parse_args(argv)

    try:
        raw = json.loads(_load_config_text(args.config))
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if not isinstance(raw, dict):
        print("config error: config: top level must be an object", file=sys.stderr)
        return 1
    raw["subcommand"] = args.subcommand
    if args.seed is not None:
        for section in ("solver", "certify", "eigen", "blowup"):
            # a section that is not an object is left for parse_config to refuse
            if isinstance(raw.setdefault(section, {}), dict):
                raw[section]["seed"] = args.seed

    variants: list[dict] = [raw]
    if args.sweep:
        try:
            key, _, values = args.sweep.partition("=")
            swept = json.loads("[" + values + "]")
            if not swept:
                raise ValueError("expected KEY=V1,V2,...")
            variants = [_apply_sweep(raw, key.strip(), v) for v in swept]
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"config error: --sweep {exc}", file=sys.stderr)
            return 1

    configs: list[RunConfig] = []
    for variant in variants:
        try:
            configs.append(parse_config(json.dumps(variant)))
        except ConfigError as exc:
            for err in exc.errors:
                print(f"config error: {err}", file=sys.stderr)
            return 1

    def run_and_emit(cfg: RunConfig) -> tuple[RunArtifact, list[Path]]:
        artifact = run(cfg, override_admissibility=args.override_admissibility)
        return artifact, emit_reports(artifact, args.out)

    def execute(cfg: RunConfig) -> int:
        if args.profile:
            profiler = cProfile.Profile()
            artifact, files = profiler.runcall(run_and_emit, cfg)
            profiler.dump_stats(files[0].parent / "profile.pstats")
        else:
            artifact, files = run_and_emit(cfg)
        run_dir = files[0].parent
        status = "failed: " + artifact.failure if artifact.failure else "ok"
        print(f"[{cfg.subcommand}] {run_dir} {status}")
        return artifact.exit_code

    return max([execute(cfg) for cfg in configs])


if __name__ == "__main__":
    sys.exit(main())
