"""Config parsing, the run pipeline, report emission, and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from plapsolve import presets
from plapsolve.cli import (
    ConfigError,
    emit_reports,
    evaluate_expression,
    main,
    parse_config,
    run,
)
from plapsolve.grid import build_mesh, interval

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
        assert any("physics.p: must exceed 1" in e for e in err.value.errors)

    def test_hardy_dimension_constraint(self):
        bad = json.loads(json.dumps(SMALL_SOLVE))
        bad["physics"]["potential"] = {"kind": "hardy_p"}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        assert any("1 < p < N" in e for e in err.value.errors)

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


class TestMain:
    def test_cli_solve_preset(self, tmp_path, capsys):
        code = main(["solve", "--config", "preset:manufactured_interval", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_cli_config_error_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"physics": {"p": 0.5}}))
        code = main(["solve", "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err

    @pytest.mark.parametrize(
        "physics, mesh",
        [
            ({"forcing": {"kind": "expression", "expr": "nope(x)"}}, None),
            ({"potential": {"kind": "tabulated", "expr": "x - 2"}}, None),
            (
                {"potential": {"kind": "quadratic_hardy"}, "forcing": {"kind": "zero"}},
                {"domain": {"kind": "box", "bounds": [[-1.0, 1.0]] * 3}, "mesh": {"nodes_per_axis": [5, 5, 5]}},
            ),
            ({"weight": {"kind": "cylinder_decay", "value": 0.45}}, None),
        ],
        ids=["unknown_function", "negative_tabulated_potential", "uncapped_singular_node", "strip_weight_off_strip"],
    )
    def test_config_derived_run_error_exits_one(self, tmp_path, capsys, physics, mesh):
        cfg = json.loads(json.dumps(SMALL_SOLVE))
        cfg["physics"].update(physics)
        cfg.update(mesh or {})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 1
        assert "failed: ConfigError" in capsys.readouterr().out

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

    def test_seed_override_changes_hash(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_SOLVE))
        main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "a"), "--seed", "7"])
        run_dir = next((tmp_path / "a").iterdir())
        echoed = json.loads((run_dir / "config.json").read_text())
        assert echoed["solver"]["seed"] == 7


class TestPresets:
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
