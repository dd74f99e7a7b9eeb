"""Config parsing, the run pipeline, report emission, and exit codes."""

import csv
import json
import pstats
import warnings
from pathlib import Path

import numpy as np
import pytest

import plapsolve.cli
from plapsolve import CertificationRecord, presets
from plapsolve.cli import (
    _KIND_KEYS,
    _SCHEMA,
    ConfigError,
    RunArtifact,
    emit_reports,
    evaluate_expression,
    main,
    parse_config,
    run,
)
from plapsolve.grid import box, build_mesh, interval

SMALL_SOLVE = {
    "subcommand": "solve",
    "domain": {"kind": "interval", "bounds": [[0.0, 1.0]]},
    "mesh": {"nodes_per_axis": [51]},
    "physics": {
        "p": 2.0,
        "potential": {"kind": "zero"},
        "weight": {"kind": "constant", "value": 0.45},
        "forcing": {"kind": "expression", "expr": "pi**2 * sin(pi*x)"},
    },
    "solver": {"eps0": 0.5, "ratio": 0.25, "steps": 4, "tol": 1e-9},
}

_CUBE = {"kind": "box", "bounds": [[-1.0, 1.0]] * 3}
_PUNCTURED = {**_CUBE, "kind": "punctured_box", "puncture_radius": 0.1}
_NODES3 = {"mesh.nodes_per_axis": [5, 5, 5]}
_STRIP = {"kind": "strip", "bounds": [[0.0, 1.0]], "m_axes": 1, "truncation_length": 2.0}
_SWEEP = {"domain": _STRIP, "mesh.nodes_per_axis": [5, 5], "eigen.l_values": [2.0]}
_BLOWUP = {"subcommand": "blowup", "domain": _STRIP, "mesh.nodes_per_axis": [5, 5]}


def _with(cfg: dict, updates: dict) -> dict:
    """Deep copy of ``cfg`` with each dotted path in ``updates`` set."""
    out = json.loads(json.dumps(cfg))
    for path, value in updates.items():
        *parents, key = path.split(".")
        node = out
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = value
    return out


# (id, updates to SMALL_SOLVE, section the message starts with, constraint it names)
REFUSED = [
    ("bounds_order", {"domain.bounds": [[1.0, 0.0]]}, "domain:", "lo < hi"),
    ("m_axes", {"domain": {**_STRIP, "m_axes": 0}, "mesh.nodes_per_axis": [5]}, "domain:", "unbounded axis"),
    ("truncation_length", {"domain": {**_STRIP, "truncation_length": -1.0}}, "domain:", "truncation length"),
    ("puncture_radius_negative", {"domain": {**_PUNCTURED, "puncture_radius": -0.1}, **_NODES3},
     "domain:", "nonnegative"),
    ("puncture_reaches_boundary", {"domain": {**_PUNCTURED, "puncture_radius": 1.0}, **_NODES3},
     "domain:", "smaller than the distance"),
    ("puncture_outside_box", {"domain": {**_PUNCTURED, "bounds": [[0.5, 1.0]] * 3}, **_NODES3},
     "domain:", "contain the origin"),
    ("domain_kind", {"domain": {**_CUBE, "kind": "sphere"}, **_NODES3}, "domain:", "unknown domain kind 'sphere'"),
    ("puncture_with_cap", {"domain": _PUNCTURED, **_NODES3, "mesh.singular_cap_radius": 0.1},
     "mesh:", "takes no singular_cap_radius or singular_axes"),
    ("puncture_with_singular_axes", {"domain": _PUNCTURED, **_NODES3, "mesh.singular_axes": [0, 1]},
     "mesh:", "takes no singular_cap_radius or singular_axes"),
    ("node_count", {"mesh.nodes_per_axis": [2]}, "mesh:", "at least 3 nodes"),
    ("node_axes", {"mesh.nodes_per_axis": [5, 5]}, "mesh:", "expected 1 node counts"),
    ("cap_negative", {"mesh.singular_cap_radius": -0.1}, "mesh:", "nonnegative"),
    ("cap_too_wide", {"mesh.singular_cap_radius": 0.5}, "mesh:", "below half the smallest extent"),
    ("singular_axis_negative", {"mesh.singular_axes": [-1]}, "mesh:", "out of range"),
    ("singular_axis_beyond", {"mesh.singular_axes": [1]}, "mesh:", "out of range"),
    ("p_at_one", {"physics.p": 1.0}, "physics:", "p must exceed 1"),
    ("q_at_one", {"physics.q": 1.0}, "physics:", "q must exceed 1"),
    ("q_above_p", {"physics.q": 2.5}, "physics:", "q must not exceed p"),
    ("q_below_p_minus_one", {"physics.p": 3.0, "physics.q": 1.5}, "physics:", "q must exceed p - 1"),
    ("potential_kind", {"physics.potential": {"kind": "coulomb"}}, "physics.potential:", "unknown potential kind"),
    ("potential_negative", {"physics.potential": {"kind": "constant", "value": -1.0}},
     "physics.potential:", "nonnegative"),
    ("k_axes_not_above_p", {"physics.potential": {"kind": "cylindrical_hardy", "k_axes": 2}},
     "physics.potential:", "k > p"),
    ("hardy_p_below_n", {"physics.potential": {"kind": "hardy_p"}}, "physics.potential:", "p < N"),
    ("quadratic_hardy_below_three", {"physics.potential": {"kind": "quadratic_hardy"}},
     "physics.potential:", "N >= 3"),
    ("weight_kind", {"physics.weight": {"kind": "gaussian", "value": 1.0}}, "physics.weight:", "unknown weight kind"),
    ("weight_value", {"physics.weight.value": 0.0}, "physics.weight:", "strictly positive"),
    ("eps0", {"solver.eps0": 1.0}, "solver:", "eps0"),
    ("ratio", {"solver.ratio": 0.0}, "solver:", "ratio"),
    ("steps", {"solver.steps": 0}, "solver:", "steps"),
    ("puncture_radius_on_box", {"domain": {**_CUBE, "puncture_radius": 0.1}, **_NODES3},
     "domain.puncture_radius:", "punctured_box"),
    ("blowup_off_strip", {"subcommand": "blowup"}, "blowup:", "strip domain"),
    ("blowup_two_axes", {"subcommand": "blowup", "domain": {**_STRIP, "m_axes": 2}, "mesh.nodes_per_axis": [5, 5, 5]},
     "blowup:", "m_axes = 1, got 2"),
    ("p_values_items", {"certify.p_values": ["a"]}, "certify.p_values:", "list of numbers"),
    ("l_values_items", {"eigen.l_values": ["x"]}, "eigen.l_values:", "list of numbers"),
    ("checks_items", {"certify.checks": [1]}, "certify.checks:", "list of strings"),
    ("directory_type", {"output.directory": 5}, "output.directory:", "must be a string"),
    ("samples_boolean", {"certify.samples": True}, "certify.samples:", "must be an integer"),
    ("p_boolean", {"physics.p": True}, "physics.p:", "must be a number"),
    ("tol_boolean", {"solver.tol": False}, "solver.tol:", "must be a number"),
    ("nodes_boolean", {"mesh.nodes_per_axis": [True]}, "mesh.nodes_per_axis:", "list of integers"),
    ("p_values_range", {"certify.p_values": [0.5]}, "certify.p_values:", "p must exceed 1"),
    ("l_values_off_strip", {"eigen.l_values": [2.0]}, "eigen.l_values:", "only valid for strip domains"),
    ("samples_zero", {"certify.samples": 0}, "certify.samples:", "at least 1"),
    ("solver_not_object", {"solver": 5}, "solver:", "must be an object"),
    ("potential_not_object", {"physics.potential": "zero"}, "physics.potential:", "must be an object"),
    ("domain_not_object", {"domain": "interval"}, "domain:", "must be an object"),
    ("value_on_zero_potential", {"physics.potential": {"kind": "zero", "value": 3.0}},
     "physics.potential.value:", "only valid for constant potentials"),
    ("k_axes_on_constant_potential", {"physics.potential": {"kind": "constant", "k_axes": 2}},
     "physics.potential.k_axes:", "only valid for cylindrical_hardy potentials"),
    ("p_on_constant_weight", {"physics.weight": {"kind": "constant", "value": 0.45, "p": 2.0}},
     "physics.weight.p:", "only valid for cylinder_decay weights"),
    ("expr_on_zero_forcing", {"physics.forcing": {"kind": "zero", "expr": "x"}},
     "physics.forcing.expr:", "only valid for expression forcings"),
    ("l_values_decreasing", {**_SWEEP, "eigen.l_values": [4.0, 2.0]}, "eigen.l_values:", "strictly increasing"),
    ("l_values_negative", {**_SWEEP, "eigen.l_values": [-1.0]}, "eigen.l_values:", "positive"),
    ("eigen_z_nodes_negative", {**_SWEEP, "eigen.z_nodes_per_unit": -3}, "eigen.z_nodes_per_unit:", "positive"),
    ("blowup_z_nodes_zero", {**_BLOWUP, "blowup.z_nodes_per_unit": 0.0}, "blowup.z_nodes_per_unit:", "positive"),
    ("length_per_bump_negative", {**_BLOWUP, "blowup.length_per_bump": -2.0}, "blowup.length_per_bump:", "positive"),
    ("pair_samples_negative", {"certify.pair_samples": -5}, "certify.pair_samples:", "at least 0"),
    ("subcommand_unknown", {"subcommand": "bogus"}, "config.subcommand:", "must be one of"),
    ("forcing_kind", {"physics.forcing": {"kind": "gaussian"}}, "physics.forcing.kind:", "'zero' or 'expression'"),
    ("n_terms", {"blowup.n_terms": 2}, "blowup.n_terms:", "at least 3 bumps"),
    ("field_format", {"output.field_format": "xml"}, "output.field_format:", "'bin' or 'csv'"),
    ("lambda1_omega_off_strip", {"physics.potential": {"kind": "constant", "value": "lambda1_omega"}},
     "physics.potential.value:", "needs a strip domain"),
]

# refused by the schema's type checks; they used to crash or fail inside a run
MISTYPED = ["p_values_items", "l_values_items", "directory_type", "samples_boolean"]

# refused at parse; each used to run, and to exit 0 or 3 or crash: {case: subcommand}
FORMERLY_PAST_PARSE = {
    "p_values_range": "certify",
    "l_values_off_strip": "eigen",
    "samples_zero": "certify",
    "solver_not_object": "solve",
    "potential_not_object": "solve",
    "domain_not_object": "solve",
    "l_values_decreasing": "eigen",
    "l_values_negative": "eigen",
    "eigen_z_nodes_negative": "eigen",
    "blowup_z_nodes_zero": "blowup",
    "length_per_bump_negative": "blowup",
    "pair_samples_negative": "certify",
    "puncture_with_cap": "solve",
    "puncture_with_singular_axes": "solve",
}

# refused at run time (exit 1 after the run starts) before the constructors validated the config
FORMERLY_AT_RUN_TIME = [
    "puncture_reaches_boundary",
    "puncture_outside_box",
    "cap_too_wide",
    "singular_axis_beyond",
    "quadratic_hardy_below_three",
]


class TestParseConfig:
    def test_minimal_defaults_filled(self):
        cfg = parse_config(json.dumps(SMALL_SOLVE))
        assert cfg.solver["max_iter"] == 800
        assert cfg.physics["q"] == 2.0
        assert cfg.output["directory"] == "runs"

    def test_round_trip(self):
        cfg = parse_config(json.dumps(SMALL_SOLVE))
        echoed = json.dumps(cfg.to_dict())
        cfg2 = parse_config(echoed)
        assert cfg2.to_dict() == cfg.to_dict()
        assert cfg2.config_hash == cfg.config_hash

    def test_p_below_one_names_constraint(self):
        bad = json.loads(json.dumps(SMALL_SOLVE))
        bad["physics"]["p"] = 0.5
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any(e.startswith("physics: p must exceed 1") for e in err.value.errors)

    def test_hardy_dimension_constraint(self):
        bad = json.loads(json.dumps(SMALL_SOLVE))
        bad["physics"]["potential"] = {"kind": "hardy_p"}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any(e.startswith("physics.potential:") and "p < N" in e for e in err.value.errors)

    def test_unknown_keys_are_errors(self):
        bad = json.loads(json.dumps(SMALL_SOLVE))
        bad["extra"] = 1
        bad["solver"]["bogus"] = 2
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        msgs = "\n".join(err.value.errors)
        assert "config.extra: unknown key" in msgs
        assert "solver.bogus: unknown key" in msgs

    def test_missing_domain_for_solve(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"subcommand": "solve"}))
        assert any("config.domain: required" in e for e in err.value.errors)

    def test_certify_needs_no_domain(self):
        cfg = parse_config(json.dumps({"subcommand": "certify"}))
        assert cfg.domain is None

    @pytest.mark.parametrize("subcommand", ["solve", "admissibility"])
    def test_gated_runs_need_a_weight_value(self, tmp_path, capsys, subcommand):
        # no weight value passes the gate everywhere: the former default 1.0
        # violated it on all 65 samples of this config, which exited 2
        unset = _with(SMALL_SOLVE, {"subcommand": subcommand, "physics.weight": {"kind": "constant"}})
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(unset))
        assert f"physics.weight.value: required for subcommand {subcommand!r}" in err.value.errors
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(unset))
        assert main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "config error: physics.weight.value: required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("updates", [{"subcommand": "eigen"}, {"subcommand": "certify"}, _BLOWUP])
    def test_ungated_runs_need_no_weight(self, updates):
        cfg = parse_config(json.dumps(_with(SMALL_SOLVE, {**updates, "physics.weight": {"kind": "constant"}})))
        assert cfg.physics["weight"]["value"] is None

    @pytest.mark.parametrize(
        "updates, section, constraint", [case[1:] for case in REFUSED], ids=[case[0] for case in REFUSED]
    )
    def test_constructor_refusal_names_section(self, updates, section, constraint):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(_with(SMALL_SOLVE, updates)))
        assert any(e.startswith(section) and constraint in e for e in err.value.errors), err.value.errors

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "config: invalid JSON ("), ("[1, 2]", "config: top level must be an object")],
        ids=["invalid_json", "top_level_list"],
    )
    def test_document_refusal(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors[0].startswith(message), err.value.errors

    @pytest.mark.parametrize("case", FORMERLY_AT_RUN_TIME)
    def test_refused_before_any_run(self, tmp_path, capsys, case):
        updates = next(c[1] for c in REFUSED if c[0] == case)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_with(SMALL_SOLVE, updates)))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", MISTYPED)
    def test_mistyped_refused_before_any_run(self, tmp_path, capsys, case):
        updates = next(c[1] for c in REFUSED if c[0] == case)
        subcommand = "certify" if case in ("p_values_items", "samples_boolean") else "solve"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_with(SMALL_SOLVE, updates)))
        assert main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        key = next(iter(updates))
        assert f"config error: {key}: must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", FORMERLY_PAST_PARSE)
    def test_refused_at_parse_exits_one(self, tmp_path, capsys, case):
        updates, section, constraint = next(c[1:] for c in REFUSED if c[0] == case)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_with(SMALL_SOLVE, updates)))
        subcommand = FORMERLY_PAST_PARSE[case]
        assert main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"config error: {section}" in err and constraint in err
        assert not (tmp_path / "out").exists()

    def test_punctured_box_is_a_box_capped_over_every_axis(self):
        cfg = parse_config(json.dumps(_with(SMALL_SOLVE, {"domain": _PUNCTURED, **_NODES3})))
        mesh = plapsolve.cli._build_mesh(cfg)
        capped = build_mesh(box(*[(-1.0, 1.0)] * 3), [5, 5, 5], singular_cap_radius=0.1)
        assert (mesh.domain, mesh.singular_cap_radius, mesh.singular_axes) == (capped.domain, 0.1, (0, 1, 2))
        assert mesh.excluded_mask.any()
        assert np.array_equal(mesh.excluded_mask, capped.excluded_mask)

    def test_readme_config_grammar_has_no_unknown_key(self):
        # the grammar block lists every key; one the schema drops must leave it,
        # and one the schema or a kind adds must be in it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        text = "\n".join(line.split("//", 1)[0] for line in block.splitlines())
        try:
            parse_config(text)
        except ConfigError as err:
            assert not [e for e in err.errors if "unknown key" in e], err.errors
        tables = [*_SCHEMA.values(), *(keys for kinds in _KIND_KEYS.values() for keys in kinds.values())]
        missing = sorted({key for keys in tables for key in keys if f'"{key}"' not in block})
        assert not missing, missing

    def test_q_constraints(self):
        bad = json.loads(json.dumps(SMALL_SOLVE))
        bad["physics"]["q"] = 2.5
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("must not exceed p" in e for e in err.value.errors)


class TestExpression:
    def test_coordinates_and_functions(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        vals = evaluate_expression("sin(pi*x) + x0", mesh)
        x = mesh.points[:, 0]
        assert np.allclose(vals, np.sin(np.pi * x) + x)

    def test_rejects_unknown_names(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        with pytest.raises(ConfigError):
            evaluate_expression("__import__('os')", mesh)
        with pytest.raises(ConfigError):
            evaluate_expression("nope(x)", mesh)
        with pytest.raises(ConfigError, match="unknown name 't'"):
            evaluate_expression("t * x", mesh)

    @pytest.mark.parametrize(
        "expr",
        [
            "[c for c in ().__class__.__base__.__subclasses__()]",
            "().__class__.__base__.__subclasses__()",
            "x.__class__",
            "x[0]",
            "(lambda: 1)()",
            "'text'",
            "sin(x, out=x)",
            "x if 1 else 0",
            "9**9**9**9",
        ],
    )
    def test_rejects_escapes_and_runaway_powers(self, expr):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        with pytest.raises(ConfigError, match="expression"):
            evaluate_expression(expr, mesh)

    def test_comparisons_and_calls(self):
        mesh = build_mesh(interval(0.0, 1.0), [11])
        x = mesh.points[:, 0]
        vals = evaluate_expression("where(x > 0.5, -x, maximum(x, 0.2)) + (r <= 0.3)", mesh)
        assert np.array_equal(vals, np.where(x > 0.5, -x, np.maximum(x, 0.2)) + (x <= 0.3))


class TestRunAndEmit:
    def test_solve_pipeline(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_SOLVE))
        artifact = run(cfg)
        assert artifact.exit_code == 0
        assert artifact.solve_report is not None
        assert all(s.residual <= 1e-9 for s in artifact.solve_report.stages)
        files = emit_reports(artifact, tmp_path)
        names = {f.name for f in files}
        assert {"config.json", "summary.json", "solve_stages.csv", "admissibility.csv", "solution.bin"} <= names

    def test_stage_table_rows(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_SOLVE))
        artifact = run(cfg)
        files = emit_reports(artifact, tmp_path)
        stage_file = next(f for f in files if f.name == "solve_stages.csv")
        lines = stage_file.read_text().strip().splitlines()
        assert len(lines) == 1 + cfg.solver["steps"]

    def test_solution_dump_roundtrip(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_SOLVE))
        artifact = run(cfg)
        files = emit_reports(artifact, tmp_path)
        sol_file = next(f for f in files if f.name == "solution.bin")
        loaded = np.fromfile(sol_file, dtype="<f8")
        assert np.array_equal(loaded, artifact.solution.values)

    def test_csv_field_format_writes_one_row_per_node(self, tmp_path):
        artifact = run(parse_config(json.dumps(_with(SMALL_SOLVE, {"output.field_format": "csv"}))))
        assert "solution.csv" in {f.name for f in emit_reports(artifact, tmp_path)}
        assert not list(tmp_path.glob("run_*/solution.bin"))
        with open(next(tmp_path.glob("run_*/solution.csv")), newline="") as fh:
            values = [float(row["value"]) for row in csv.DictReader(fh)]
        assert values == artifact.solution.values.tolist()
        assert len(values) == SMALL_SOLVE["mesh"]["nodes_per_axis"][0]

    def test_stages_stopped_at_max_iter_exit_three(self, tmp_path):
        # at p = 3 five steps leave stages above tol while the dual-norm bound
        # still holds (two steps would break it), so the residual rule ends the run
        artifact = run(parse_config(json.dumps(_with(SMALL_SOLVE, {"physics.p": 3.0, "solver.max_iter": 5}))))
        assert artifact.exit_code == 3
        assert artifact.failure == "continuation stages stopped above the residual tolerance"
        assert not artifact.solve_report.converged
        assert any(s.iterations == 5 and s.residual > 1e-9 for s in artifact.solve_report.stages)
        emit_reports(artifact, tmp_path)
        summary = json.loads(next(tmp_path.glob("run_*/summary.json")).read_text())
        assert (summary["status"], summary["exit_code"], summary["failure"]) == ("failed", 3, artifact.failure)

    def test_indefinite_energy_mid_solve_exits_three(self):
        # V = 60 lies above the first eigenvalue pi^2 of the unit interval: the
        # gate refutes (A), and past the override the energy form is indefinite
        cfg = parse_config(json.dumps(_with(SMALL_SOLVE, {"physics.potential": {"kind": "constant", "value": 60.0}})))
        artifact = run(cfg, override_admissibility=True)
        assert artifact.admissibility.violations
        assert artifact.exit_code == 3
        assert artifact.failure.startswith("IndefiniteEnergyError: ")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_SOLVE))
        a1 = run(cfg)
        a2 = run(cfg)
        f1 = emit_reports(a1, tmp_path / "a")
        f2 = emit_reports(a2, tmp_path / "b")
        for p1, p2 in zip(f1, f2):
            if p1.name == "summary.json":
                continue  # carries wall time and timestamp
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_admissibility_violation_blocks_solve(self):
        bad = json.loads(json.dumps(SMALL_SOLVE))
        bad["physics"]["weight"]["value"] = 5.0
        cfg = parse_config(json.dumps(bad))
        artifact = run(cfg)
        assert artifact.exit_code == 2
        assert artifact.solve_report is None

    def test_override_proceeds(self):
        bad = json.loads(json.dumps(SMALL_SOLVE))
        bad["physics"]["weight"]["value"] = 5.0
        cfg = parse_config(json.dumps(bad))
        artifact = run(cfg, override_admissibility=True)
        assert artifact.exit_code == 0
        assert artifact.solve_report is not None

    def test_planted_violation_exits_two(self):
        cfg = parse_config(
            json.dumps(
                {
                    "subcommand": "certify",
                    "certify": {"checks": ["power_mean"], "constant_scale": 1.5, "p_values": [2.0]},
                }
            )
        )
        artifact = run(cfg)
        assert artifact.exit_code == 2
        assert any(r.verdict == "violation" for r in artifact.certifications)

    def test_tabulated_pole_inside_the_puncture(self):
        # the origin is an excluded node of the hardy_quadratic mesh, so a
        # table with its pole there is the quadratic Hardy potential itself
        builtin = _with(presets.get("hardy_quadratic"), {"subcommand": "admissibility"})
        tabulated = _with(builtin, {"physics.potential": {"kind": "tabulated", "expr": "0.25/r**2"}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run(parse_config(json.dumps(tabulated)))
        ref = run(parse_config(json.dumps(builtin)))
        assert got.exit_code == ref.exit_code == 0, got.failure
        assert got.admissibility.sampled_margin == pytest.approx(ref.admissibility.sampled_margin, rel=1e-12)

    def test_eigen_sweep_rows(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                {
                    "subcommand": "eigen",
                    "domain": {
                        "kind": "strip",
                        "bounds": [[0.0, 1.0]],
                        "m_axes": 1,
                        "truncation_length": 2.0,
                    },
                    "mesh": {"nodes_per_axis": [17, 17]},
                    "physics": {"p": 2.0},
                    "eigen": {"l_values": [1.0, 2.0], "z_nodes_per_unit": 5.0, "tol": 1e-6},
                }
            )
        )
        artifact = run(cfg)
        assert artifact.exit_code == 0
        assert len(artifact.eigen_rows) == 2
        files = emit_reports(artifact, tmp_path)
        eigen_file = next(f for f in files if f.name == "eigen.csv")
        lines = eigen_file.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per truncation length

    STRIP_SWEEP = {
        "subcommand": "eigen",
        "domain": _STRIP,
        "mesh": {"nodes_per_axis": [17, 65]},
        "physics": {"p": 2.0},
        "eigen": {"l_values": [2.0, 4.0]},
    }

    def test_eigen_sweep_honours_max_iter(self):
        rows = {
            n: run(parse_config(json.dumps(_with(self.STRIP_SWEEP, {"eigen.max_iter": n})))).eigen_rows
            for n in (1, 800)
        }
        assert [r["lambda"] for r in rows[1]] != [r["lambda"] for r in rows[800]]
        # the cross-section keeps its own iteration rule
        assert rows[1][0]["lambda_omega"] == rows[800][0]["lambda_omega"]

    @pytest.mark.parametrize(
        "p, max_iter, code",
        [(2.0, 1, 3), (2.0, 800, 0), (1.5, 1, 0)],
        ids=["exact_unconverged", "exact_default", "estimate_unconverged"],
    )
    def test_unconverged_exact_eigen_solve_exits_three(self, p, max_iter, code):
        cfg = {
            "subcommand": "eigen",
            "domain": {"kind": "interval", "bounds": [[0.0, 1.0]]},
            "mesh": {"nodes_per_axis": [65]},
            "physics": {"p": p},
            "eigen": {"max_iter": max_iter},
        }
        artifact = run(parse_config(json.dumps(cfg)))
        assert artifact.exit_code == code, artifact.failure
        row = artifact.eigen_rows[0]
        if code:
            assert f"{row['residual']:.3e}" in artifact.failure
            assert f"{1e-8 * max(1.0, row['lambda']):.3e}" in artifact.failure
        else:
            assert artifact.failure is None

    def test_strip_sweep_violation_exits_two_before_the_residual_rule(self, monkeypatch):
        # the record's strip residual is above tolerance too, so an exit 2
        # shows that the verdict is read first
        details = {"lambda_omega": 9.9, "lambda_strip": {2.0: 9.0}, "tensor_quotients": {2.0: 10.0},
                   "strip_residuals": {2.0: 1.0}, "method": "lobpcg"}
        record = CertificationRecord("strip_above_section", 1, -0.1, "L=2", "violation", 1e-8, details)
        monkeypatch.setattr(plapsolve.cli, "cylinder_eigen_check", lambda *args, **kwargs: record)
        artifact = run(parse_config(json.dumps(self.STRIP_SWEEP)))
        assert artifact.exit_code == 2
        assert artifact.failure == "eigenvalue comparison violated its tolerance"
        assert [row["residual"] for row in artifact.eigen_rows] == [1.0]

    @pytest.mark.parametrize("max_iter, code", [(3, 3), (800, 0)], ids=["unconverged", "default"])
    def test_unconverged_exact_strip_sweep_exits_three(self, max_iter, code):
        # every strip row carries its residual, and an exact (LOBPCG) strip
        # value above its tolerance fails the run like a single-mesh solve
        artifact = run(parse_config(json.dumps(_with(self.STRIP_SWEEP, {"eigen.max_iter": max_iter}))))
        assert artifact.exit_code == code, artifact.failure
        bounds = [1e-8 * max(1.0, row["lambda"]) for row in artifact.eigen_rows]
        above = [row for row, bound in zip(artifact.eigen_rows, bounds) if row["residual"] > bound]
        if code:
            assert above
            assert f"{above[0]['residual']:.3e}" in artifact.failure
        else:
            assert not above and artifact.failure is None


class TestMain:
    def test_cli_solve_preset(self, tmp_path, capsys):
        code = main(["solve", "--config", "preset:manufactured_interval", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_blowup_off_strip_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        assert main(["blowup", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "config error: blowup: needs a strip domain" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_blowup_with_two_unbounded_axes_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_with(SMALL_SOLVE, {"domain": {**_STRIP, "m_axes": 2},
                                                          "mesh.nodes_per_axis": [5, 5, 5]})))
        assert main(["blowup", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "config error: blowup: needs a strip with m_axes = 1, got 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_config_error_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"physics": {"p": 0.5}}))
        code = main(["solve", "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err

    @pytest.mark.parametrize(
        "physics, mesh, section",
        [
            ({"forcing": {"kind": "expression", "expr": "nope(x)"}}, None, "physics.forcing"),
            ({"potential": {"kind": "tabulated", "expr": "x - 2"}}, None, "physics.potential"),
            (
                {"potential": {"kind": "quadratic_hardy"}, "forcing": {"kind": "zero"}},
                {"domain": {"kind": "box", "bounds": [[-1.0, 1.0]] * 3}, "mesh": {"nodes_per_axis": [5, 5, 5]}},
                "physics.potential",
            ),
            ({"weight": {"kind": "cylinder_decay", "value": 0.45}}, None, "physics.weight"),
            (
                {"potential": {"kind": "tabulated", "expr": "1/y**2"}, "forcing": {"kind": "zero"}},
                {"domain": _PUNCTURED, "mesh": {"nodes_per_axis": [5, 5, 5]}},
                "physics.potential",
            ),
        ],
        ids=[
            "unknown_function", "negative_tabulated_potential", "uncapped_singular_node", "strip_weight_off_strip",
            "tabulated_pole_off_the_puncture",
        ],
    )
    def test_config_derived_run_error_exits_one(self, tmp_path, capsys, physics, mesh, section):
        # the parse evaluates the fields on the run's mesh, so a field the
        # mesh cannot carry is refused before any run, like a mistyped key
        cfg = json.loads(json.dumps(SMALL_SOLVE))
        cfg["physics"].update(physics)
        cfg.update(mesh or {})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"config error: {section}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_without_values_runs_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--sweep", "solver.tol="]) == 1
        assert "config error: --sweep expected KEY=V1,V2,..." in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_with_a_config_error_runs_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        sweep = ["--sweep", 'physics.forcing.expr="sin(pi*x)","nope(x)"']
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *sweep]) == 1
        captured = capsys.readouterr()
        assert "config error: physics.forcing: expression 'nope(x)'" in captured.err
        assert not captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, extra",
        [
            ([1, 2], []),
            ({**SMALL_SOLVE, "solver": 5}, ["--seed", "1"]),
            ({**SMALL_SOLVE, "physics": 5}, ["--sweep", "physics.p=1.5,3"]),
            (SMALL_SOLVE, ["--sweep", "solver.tol.x=1"]),
        ],
        ids=["top_level_list", "seed_into_non_object", "sweep_into_non_object", "sweep_through_number"],
    )
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, config, extra):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *extra]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_sweep(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        code = main(
            [
                "solve",
                "--config", str(cfg_path),
                "--out", str(tmp_path),
                "--sweep", "solver.eps0=0.5,0.3",
            ]
        )
        assert code == 0
        run_dirs = [p for p in tmp_path.iterdir() if p.is_dir() and p.name.startswith("run_")]
        assert len(run_dirs) == 2

    @pytest.mark.parametrize(
        "config, sweep, key, values",
        [
            (SMALL_SOLVE, 'physics.forcing.expr="maximum(x, 0.5)","x"', ("physics", "forcing", "expr"),
             ["maximum(x, 0.5)", "x"]),
            (_with(SMALL_SOLVE, {"domain": {"kind": "box", "bounds": [[0.0, 1.0]] * 2},
                                 "physics.forcing.expr": "sin(pi*x)*sin(pi*y)"}),
             "mesh.nodes_per_axis=[9,13],[11,9]", ("mesh", "nodes_per_axis"), [[9, 13], [11, 9]]),
        ],
        ids=["comma_in_expression", "list_value"],
    )
    def test_sweep_values_are_one_json_array(self, tmp_path, capsys, config, sweep, key, values):
        # a swept value may itself hold commas
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--sweep", sweep]) == 0
        run_dirs = [Path(line.split()[1]) for line in capsys.readouterr().out.splitlines()]
        echoed = []
        for run_dir in run_dirs:
            node = json.loads((run_dir / "config.json").read_text())
            for part in key:
                node = node[part]
            echoed.append(node)
        assert echoed == values

    @pytest.mark.parametrize("source", ["preset:nope", "missing.json"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, source):
        source = source if source.startswith("preset:") else str(tmp_path / source)
        assert main(["solve", "--config", source, "--out", str(tmp_path / "out")]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_runs_in_order_like_single_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        values = [0.5, 0.3, 0.4]
        sweep = ["--sweep", "solver.eps0=" + ",".join(map(str, values))]
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "sweep"), *sweep]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line, eps0 in zip(lines, values, strict=True):
            alone = tmp_path / f"alone_{eps0}"
            cfg_path.write_text(json.dumps(_with(SMALL_SOLVE, {"solver.eps0": eps0})))
            assert main(["solve", "--config", str(cfg_path), "--out", str(alone)]) == 0
            (single,) = alone.iterdir()
            swept = tmp_path / "sweep" / single.name
            assert line == f"[solve] {swept} ok"
            assert sorted(f.name for f in swept.iterdir()) == sorted(f.name for f in single.iterdir())
            for f in single.iterdir():
                if f.name != "summary.json":  # carries wall time and timestamp
                    assert f.read_bytes() == (swept / f.name).read_bytes(), f.name

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--seed", "7"])
        run_dir = next((tmp_path / "a").iterdir())
        echoed = json.loads((run_dir / "config.json").read_text())
        assert echoed["solver"]["seed"] == 7


    @pytest.mark.parametrize(
        "subcommand, updates, seed",
        [
            ("solve", {}, 1),
            ("eigen", {}, 2),
            ("certify", {}, 3),
            ("admissibility", {}, 3),
            ("blowup", {"domain": _STRIP, "mesh.nodes_per_axis": [5, 5]}, 4),
        ],
    )
    def test_provenance_records_the_seed_the_subcommand_reads(self, subcommand, updates, seed):
        seeds = {"solver.seed": 1, "eigen.seed": 2, "certify.seed": 3, "blowup.seed": 4}
        cfg = parse_config(json.dumps(_with(SMALL_SOLVE, {"subcommand": subcommand, **updates, **seeds})))
        assert RunArtifact(config=cfg).provenance["seed"] == seed

    def test_solve_gate_draws_from_the_solver_seed(self):
        # a solve's gate draws from solver.seed, the seed its provenance names
        hardy = _with(presets.get("hardy_quadratic"), {"mesh.nodes_per_axis": [9, 9, 9], "certify.seed": 0})
        margins = []
        for seed in (0, 5):
            solve = run(parse_config(json.dumps(_with(hardy, {"solver.seed": seed}))))
            gate = run(parse_config(json.dumps(_with(hardy, {"subcommand": "admissibility", "certify.seed": seed}))))
            assert solve.provenance["seed"] == seed
            assert solve.admissibility.sampled_margin == gate.admissibility.sampled_margin
            margins.append(solve.admissibility.sampled_margin)
        assert margins[0] != margins[1]

    def test_profile_writes_pstats_and_changes_nothing_else(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "plain")]) == 0
        assert main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "prof"), "--profile"]) == 0
        (plain,) = (tmp_path / "plain").iterdir()
        (prof,) = (tmp_path / "prof").iterdir()
        stats = pstats.Stats(str(prof / "profile.pstats"))
        assert any(name == "continuation_solve" for _, _, name in stats.stats)
        assert sorted(f.name for f in prof.iterdir()) == sorted([f.name for f in plain.iterdir()] + ["profile.pstats"])
        for f in plain.iterdir():
            if f.name != "summary.json":  # carries wall time and timestamp
                assert f.read_bytes() == (prof / f.name).read_bytes(), f.name


# config_hash of each shipped preset; a change to the normalized config moves it
PRESET_HASHES = {
    "admissibility_hardy": "fe5411cb76b1",
    "blowup_strip": "b4e1bd3573e8",
    "bounded_potential": "4f9d92626ac3",
    "certify_suite": "95e479ea9448",
    "eigen_interval": "63a285be4da7",
    "eigen_strip_sweep": "59d3ffcafc43",
    "hardy_cylindrical": "0f48356ac2b5",
    "hardy_quadratic": "8ba32fcfbc04",
    "manufactured_interval": "0e4caf8fae9e",
    "strip_critical": "a3ac74424b9d",
}


class TestPresets:
    def test_config_hashes_are_pinned(self):
        hashes = {name: parse_config(json.dumps(presets.get(name))).config_hash for name in presets.names()}
        assert hashes == PRESET_HASHES

    def test_all_presets_parse(self):
        for name in presets.names():
            cfg = parse_config(json.dumps(presets.get(name)))
            assert cfg.subcommand in ("solve", "eigen", "certify", "blowup", "admissibility")

    def test_write_and_load(self, tmp_path):
        path = presets.write("manufactured_interval", tmp_path / "p.json")
        cfg = parse_config(path.read_text())
        assert cfg.subcommand == "solve"

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            presets.get("nope")
