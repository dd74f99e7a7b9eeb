"""Tests of the benchmark's own logic: self time, output checks, seeds, and
the missing-entry-point report."""

import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bench import environment, run, spans, workloads
from plapsolve import cli


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_aggregates_totals_self_times_and_parents(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    root = tracer.open("root")      # 0
    a = tracer.open("leaf")         # 1
    tracer.close(a)                 # 2
    b = tracer.open("mid")          # 3
    c = tracer.open("leaf")         # 4
    tracer.close(c)                 # 6
    tracer.close(b)                 # 10 (mid closes; root stays open)
    tracer.end[root] = 12.0
    agg = tracer.aggregate()
    assert agg["leaf"]["calls"] == 2 and agg["leaf"]["total"] == 3.0
    assert agg["mid"]["self"] == 5.0
    assert agg["root"]["self"] == 12.0 - 1.0 - 7.0
    assert agg["leaf"]["parents"] == {"root": 1, "mid": 1}


def _artifact(**overrides):
    base = dict(exit_code=0, failure=None, solve_report=None, certifications=[], eigen_rows=[], solution=None)
    base.update(overrides)
    return SimpleNamespace(**base)


def _cylinder_record(verdict="no_violation", lam_omega=math.pi**2, scale=1.0):
    return SimpleNamespace(
        inequality_id="cylinder_first_eigenvalue",
        verdict=verdict,
        details={
            "p": 2.0,
            "lambda_omega": lam_omega,
            "lambda_strip": {L: scale * workloads.strip_eigenvalue(L) for L in (2.0, 4.0, 8.0)},
        },
    )


def test_closed_forms():
    assert workloads.interval_eigenvalue(2.0) == pytest.approx(math.pi**2)
    assert workloads.strip_eigenvalue(2.0) == pytest.approx(math.pi**2 * (1 + 1 / 16))


def test_passing_run_has_no_problems():
    row = {"p": 3.0, "lambda": workloads.interval_eigenvalue(3.0) * (1 + 1e-5)}
    outcome = workloads.observe(_artifact(eigen_rows=[row]), ("interval",))
    assert workloads.judge(outcome) == []
    assert outcome["errors"]["interval:p=3"] == pytest.approx(1e-5)


@pytest.mark.parametrize(
    "artifact, refs",
    [
        # a reference value outside its pinned tolerance
        (_artifact(eigen_rows=[{"p": 2.0, "lambda": 1.01 * math.pi**2}]), ("interval",)),
        (_artifact(certifications=[_cylinder_record(lam_omega=1.05 * math.pi**2)]), ("strip_p2",)),
        (_artifact(certifications=[_cylinder_record(scale=1.05)]), ("strip_p2",)),
        # an unexpected verdict
        (_artifact(certifications=[_cylinder_record(verdict="violation")]), ("strip_p2",)),
        # an unexpected exit code, or an unconverged solve
        (_artifact(exit_code=3, failure="solver failure"), ()),
        (_artifact(solve_report=SimpleNamespace(converged=False)), ()),
        # a reference quantity the run no longer produces
        (_artifact(), ("sine",)),
        (_artifact(), ("strip_p2",)),
    ],
)
def test_wrong_reference_or_unexpected_result_fails_the_run(artifact, refs):
    assert workloads.judge(workloads.observe(artifact, refs))


def test_manufactured_solution_is_compared_with_the_sine():
    mesh = SimpleNamespace(points=np.linspace(0.0, 1.0, 11)[:, None])
    exact = np.sin(np.pi * mesh.points[:, 0])
    good = _artifact(solution=SimpleNamespace(mesh=mesh, values=exact * (1 - 1e-6)))
    bad = _artifact(solution=SimpleNamespace(mesh=mesh, values=exact + 0.01))
    assert workloads.judge(workloads.observe(good, ("sine",))) == []
    assert workloads.judge(workloads.observe(bad, ("sine",)))


def test_a_raising_run_fails():
    assert workloads.judge({"exception": "RuntimeError: boom"})


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_seed_reaches_every_config_seed(workload):
    for name, cfg, _ in workloads.configs(workload, 7):
        parsed = cli.parse_config(json.dumps(cfg))
        seeds = [getattr(parsed, section)["seed"] for section in workloads.SEEDED_SECTIONS]
        assert seeds == [7, 7, 7, 7], name
    assert workloads.configs(workload, 7) == workloads.configs(workload, 7)


def test_missing_entry_point_is_reported_by_name_not_as_zero(monkeypatch):
    monkeypatch.setattr(
        spans, "ENTRY_POINTS", (("solver.minimize", [("solver", "minimize_phi_renamed")], spans._span),)
    )
    tracer = spans.Tracer()
    with warnings.catch_warnings():
        missing = spans.install(tracer)
    assert missing == {"solver.minimize": ["solver.minimize_phi_renamed"]}
    values, absent = spans.layer_metrics(tracer, missing, ["r"])
    for name in ("solver.minimize_s", "solver.minimize_calls", "solver.iterations", "solver.unconverged"):
        assert name not in values
        assert "solver.minimize_phi_renamed" in absent[name]
    assert values["cli.run_s.r"] == 0.0


def test_count_mismatch_is_reported_but_times_may_differ():
    units = dict(run.per_layer_names())
    first = {"descent.precond_builds": 3, "descent.precond_build_s": 1.0, "cli.emit_bytes": 10}
    second = {"descent.precond_builds": 4, "descent.precond_build_s": 2.0, "cli.emit_bytes": 11}
    assert run.count_mismatches(first, second, units) == ["descent.precond_builds: 3 then 4"]
    assert run.count_mismatches(first, dict(first), units) == []


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()
    }


def test_environment_names_versions_blas_and_cpu():
    env = environment.describe()
    assert {"python", "numpy", "scipy", "blas", "nproc", "cpu_model"} <= set(env)
    assert env["nproc"] >= 1


def test_pass_time_sums_each_runs_median():
    passes = [
        {"outcomes": [{"run": "a", "seconds": 1.0}, {"run": "b", "seconds": 5.0}]},
        {"outcomes": [{"run": "a", "seconds": 9.0}, {"run": "b", "seconds": 2.0}]},
        {"outcomes": [{"run": "a", "seconds": 2.0}, {"run": "b", "seconds": 3.0}]},
    ]
    assert run.pass_time(passes) == 2.0 + 3.0
