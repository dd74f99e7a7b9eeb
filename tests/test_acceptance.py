"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance, printing one pass line on success (run with ``pytest -s`` or
``-rA`` to see them all).

Oracles are analytic solutions, the closed-form critical constants, and the
hand-assembled reference systems in :mod:`oracles`.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import plapsolve as pl
from plapsolve import presets
from plapsolve.cli import emit_reports, parse_config, run
from plapsolve.energy import _grad_square, _phi_arrays, _phi_gradient_arrays
from plapsolve.spectra import (
    blowup_demo,
    cylinder_eigen_check,
    hardy_check,
    monotonicity_constant_check,
    poincare_remainder_check,
    rayleigh_min,
)


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_01_manufactured_linear_solve():
    t0 = time.perf_counter()
    mesh = pl.build_mesh(pl.interval(0.0, 1.0), [401])
    params = pl.EnergyParams(p=2.0)
    f = pl.ForcingTerm.manufactured(mesh, lambda x: np.pi**2 * np.sin(np.pi * x[:, 0]))
    report = pl.continuation_solve(
        pl.Potential.zero(), f, params, pl.EpsSchedule(0.5, 0.25, 7), tol=1e-9
    )
    err = np.max(np.abs(report.solution.values - np.sin(np.pi * mesh.points[:, 0])))
    elapsed = time.perf_counter() - t0
    assert err <= 1e-4
    assert elapsed <= 5.0
    _report("01 manufactured solve", f"max err {err:.2e} <= 1e-4 in {elapsed:.2f}s")


def test_02_eigenvalue_accuracy():
    t0 = time.perf_counter()
    mesh1 = pl.build_mesh(pl.interval(0.0, 1.0), [401])
    lam1 = rayleigh_min(mesh1, 2.0, tol=1e-9, seed=0).value
    rel1 = abs(lam1 - np.pi**2) / np.pi**2
    mesh2 = pl.build_mesh(pl.box((0.0, 1.0), (0.0, 1.0)), [41, 41])
    lam2 = rayleigh_min(mesh2, 2.0, tol=1e-8, seed=0).value
    rel2 = abs(lam2 - 2 * np.pi**2) / (2 * np.pi**2)
    elapsed = time.perf_counter() - t0
    assert rel1 <= 0.01
    assert rel2 <= 0.02
    assert elapsed <= 30.0
    _report(
        "02 eigenvalue accuracy",
        f"interval rel {rel1:.2e} <= 1%, square rel {rel2:.2e} <= 2%, {elapsed:.1f}s",
    )


@pytest.mark.parametrize("p", [2.0, 1.5, 3.0])
def test_03_cylinder_eigenvalue_identity(p):
    t0 = time.perf_counter()
    omega = pl.build_mesh(pl.interval(0.0, 1.0), [33])
    record = cylinder_eigen_check(omega, 1, [2.0, 4.0, 8.0], p, tol=1e-6, seed=0)
    lam_omega = record.details["lambda_omega"]
    strips = record.details["lambda_strip"]
    gaps = {L: strips[L] - lam_omega for L in (2.0, 4.0, 8.0)}
    elapsed = time.perf_counter() - t0
    assert record.verdict == "no_violation"
    for L in (2.0, 4.0, 8.0):
        assert strips[L] >= lam_omega - 1e-6
    assert gaps[2.0] >= gaps[4.0] >= gaps[8.0]
    assert gaps[8.0] <= 0.03 * lam_omega
    assert elapsed <= 120.0
    _report(
        f"03 cylinder identity p={p}",
        f"gaps {gaps[2.0]:.3e} > {gaps[4.0]:.3e} > {gaps[8.0]:.3e}, "
        f"L=8 gap {100 * gaps[8.0] / lam_omega:.2f}% <= 3%, {elapsed:.1f}s",
    )


def test_04_poincare_remainder_certification():
    t0 = time.perf_counter()
    omega = pl.build_mesh(pl.interval(0.0, 1.0), [9])
    rec_a = poincare_remainder_check(
        omega, 3, 2.0, 2.0, samples=200, seed=0, z_nodes=17, tolerance=1e-8
    )
    assert rec_a.details["constant"] == pytest.approx(0.25)
    assert rec_a.verdict == "no_violation"
    assert rec_a.sample_count >= 200

    rec_b = poincare_remainder_check(
        omega, 2, 2.0, 1.5, samples=200, seed=0, z_nodes=33, tolerance=1e-8
    )
    assert rec_b.details["constant"] == pytest.approx(2 ** (-0.25) * (1 / 3) ** 1.5)
    assert rec_b.verdict == "no_violation"
    assert rec_b.sample_count >= 200
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    _report(
        "04 remainder certification",
        f"p=2/M=3 worst {rec_a.worst_margin:.3f}, p=1.5/M=2 worst {rec_b.worst_margin:.3f}, "
        f"0 violations in {elapsed:.1f}s",
    )


def test_05_hardy_certification():
    dom = pl.punctured_box((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), radius=0.05)
    mesh = pl.build_mesh(dom, [33, 33, 33])
    record = hardy_check(mesh, 2.0, samples=200, seed=0, tolerance=1e-8)
    assert record.verdict == "no_violation"
    assert record.sample_count >= 200
    probe = record.details["probe_infimum"]
    assert probe >= 0.25 - 5e-2
    _report(
        "05 hardy certification",
        f"worst margin {record.worst_margin:.3f}, probe infimum {probe:.3f} >= 0.20",
    )


def test_06_flux_monotonicity_constants():
    estimates = {}
    for p in (1.5, 2.0, 3.0, 4.0):
        record = monotonicity_constant_check(p, samples=100_000, seed=0)
        assert record.sample_count >= 100_000
        c = record.details["c_est"]
        assert c > 0.0
        estimates[p] = c
    assert estimates[2.0] == pytest.approx(1.0, abs=1e-12)
    _report(
        "06 monotonicity constants",
        "c_est " + ", ".join(f"p={p}: {c:.4f}" for p, c in estimates.items()),
    )


def test_07_solver_invariants_on_presets():
    solve_presets = [n for n in presets.names() if presets.get(n)["subcommand"] == "solve"]
    assert solve_presets
    details = []
    for name in solve_presets:
        cfg = parse_config(json.dumps(presets.get(name)))
        artifact = run(cfg)
        assert artifact.exit_code == 0, f"{name}: {artifact.failure}"
        report = artifact.solve_report
        p = cfg.physics["p"]
        pc = p / (p - 1.0)
        from plapsolve.cli import _build_forcing, _build_mesh

        mesh = _build_mesh(cfg)
        f = _build_forcing(cfg, mesh)
        pairing = f.pairing(report.solution)
        identity_err = abs(report.stages[-1].phi_value - (1.0 / p - 1.0) * pairing)
        assert identity_err <= 1e-6 * abs(pairing), name
        for stage in report.stages:
            assert stage.phi_increase_max <= 1e-12 * max(1.0, abs(stage.phi_value)), name
            assert stage.q_v_value <= report.dual_norm_estimate**pc * (1 + 1e-3), name
        details.append(f"{name} id_err {identity_err / abs(pairing):.1e}")
    _report("07 solver invariants", "; ".join(details))


def test_08_gradient_finite_difference_order():
    rng = np.random.default_rng(42)
    mesh = pl.build_mesh(pl.interval(0.0, 1.0), [41])
    p_pool = [1.5, 2.2, 2.5, 3.0, 4.0]
    steps = np.array([1e-3, 1e-4, 1e-5])
    orders = []
    for trial in range(20):
        p = p_pool[trial % len(p_pool)]
        eps = float(rng.choice([0.0, 0.3]))
        delta = float(rng.choice([1e-3, 1e-2]))
        V = pl.Potential.constant(0.4) if rng.random() < 0.5 else pl.Potential.zero()
        params = pl.EnergyParams(p=p, eps=eps, delta=delta)
        f = pl.ForcingTerm.manufactured(mesh, lambda x: np.cos(np.pi * x[:, 0]))
        v_vals = pl.evaluate_potential(V, mesh)[mesh.free_mask]
        u = rng.standard_normal(mesh.n_nodes)[mesh.free_mask]
        w = rng.standard_normal(mesh.n_nodes)[mesh.free_mask]

        def phi(values):
            return _phi_arrays(mesh, values, v_vals, f, params, _grad_square(mesh, values))

        pairing = float(_phi_gradient_arrays(mesh, u, v_vals, f, params, _grad_square(mesh, u)) @ w)
        errs = []
        for t in steps:
            fd = (phi(u + t * w) - phi(u - t * w)) / (2 * t)
            errs.append(max(abs(fd - pairing), 1e-300))
        order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        orders.append(order)
    assert min(orders) >= 1.8
    _report("08 gradient fd order", f"20 triples, min observed order {min(orders):.2f} >= 1.8")


def test_09_blowup_construction():
    omega = pl.build_mesh(pl.interval(0.0, 1.0), [17])
    result = blowup_demo(omega, 1, n_terms=16, length_per_bump=6.0, seed=0)
    assert result.supports_disjoint
    rows = {row.k: row for row in result.rows}
    for row in result.rows:
        assert row.dual_norm_partial < np.sqrt(np.pi**2 / 6) + 1e-3  # about 1.2835
    for k in (4, 8, 16):
        assert 0.5 <= rows[k].energy_ratio <= 2.0
    growth = rows[16].gradient_energy / rows[4].gradient_energy - 1.0
    assert growth >= 0.20
    _report(
        "09 blowup construction",
        f"dual max {rows[16].dual_norm_partial:.4f} < 1.2835, "
        f"ratios ({rows[4].energy_ratio:.2f}, {rows[8].energy_ratio:.2f}, "
        f"{rows[16].energy_ratio:.2f}) in [0.5, 2], growth {100 * growth:.0f}% >= 20%",
    )


def test_10_determinism_of_report_tables(tmp_path):
    matrix = presets.names()
    mismatches = []
    compared = 0
    for name in matrix:
        cfg = parse_config(json.dumps(presets.get(name)))
        artifact_a, artifact_b = run(cfg), run(cfg)
        assert artifact_a.exit_code == artifact_b.exit_code == 0, f"{name}: {artifact_a.failure}"
        files_a = emit_reports(artifact_a, tmp_path / "a")
        files_b = emit_reports(artifact_b, tmp_path / "b")
        for pa, pb in zip(files_a, files_b):
            if pa.name == "summary.json":
                continue  # wall time and timestamp live here
            compared += 1
            if pa.read_bytes() != pb.read_bytes():
                mismatches.append(f"{name}/{pa.name}")
    assert not mismatches, mismatches
    _report("10 determinism", f"{compared} report files byte-identical across reruns")
