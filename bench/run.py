"""Benchmark of the path the ``plapsolve`` CLI takes:
``cli.parse_config`` -> ``cli.run`` -> ``cli.emit_reports``.

    python3 bench/run.py --workload {linear,nonlinear,certify} --seed N --seconds S --trace {0,1}

Every pass runs in a fresh single-process interpreter (``bench/child.py``),
never through ``--sweep``, whose thread pool would start up to 4 threads.

``--trace 0`` measures the end-to-end metrics with nothing wrapped: it
repeats whole passes while another one fits in ``--seconds``, samples set-up
(import plus parsing) in fresh interpreters between them, and reports
medians.  ``--trace 1`` runs one untraced pass and two traced passes at the
same seed, reports the per-layer metrics, and checks that every count
repeats exactly between the two traced passes.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2, printing no result, when the program's source is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import spans, workloads  # noqa: E402

SOURCE = ROOT / "src" / "plapsolve" / "cli.py"
DEADLINE_S = 170.0
SETUPS_PER_PASS = 2
MIN_SETUP_SAMPLES = 7  # counting the one each pass gives

# (name, unit) of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
    ("ref_rel_err", "ratio"),
)


class PassError(RuntimeError):
    pass


class Passes:
    """Starts child passes inside one work directory, each bounded by the
    run's deadline, and collects their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def __call__(self, mode: str) -> dict:
        self.count += 1
        tag = f"{mode}{self.count}"
        out, result, log = self.work / f"out_{tag}", self.work / f"{tag}.json", self.work / f"{tag}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise PassError(f"no time left for a {mode} pass")
        with log.open("w") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "bench" / "child.py"), mode,
                     str(self.work / "configs.json"), str(out), str(result)],
                    cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT, timeout=timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise PassError(f"{mode} pass did not end within {timeout:.0f} s") from exc
        shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text()[-2000:]
            raise PassError(f"{mode} pass exited with code {proc.returncode}:\n{tail}")
        data = json.loads(result.read_text())
        if not Path(data["source"]).resolve().is_relative_to(ROOT / "src"):
            raise PassError(f"plapsolve was imported from {data['source']}, not from {ROOT / 'src'}")
        return data


def _outcomes(passes: list[dict]) -> list[dict]:
    return [outcome for p in passes for outcome in p["outcomes"]]


def _failures(outcomes: list[dict]) -> list[dict]:
    return [o for o in outcomes if o["problems"]]


def pass_time(passes: list[dict]) -> float:
    """Wall time of one pass: the sum over its runs of each run's median
    time across the passes, so that a slow spell of the machine during one
    run of one pass moves no other run's figure."""
    seconds: dict[str, list[float]] = {}
    for outcome in _outcomes(passes):
        seconds.setdefault(outcome["run"], []).append(outcome["seconds"])
    return sum(statistics.median(values) for values in seconds.values())


def timed_run(run_pass: Passes, seconds: float) -> tuple[dict, list[dict], list[str], bool]:
    # set-up samples are taken between the passes, so that they spread over
    # the whole run as the passes do
    setups, passes, durations = [], [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        setups += [run_pass("setup") for _ in range(SETUPS_PER_PASS)]
        passes.append(run_pass("run"))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - begin
        typical = statistics.median(durations)
        if elapsed + typical > seconds or time.monotonic() + typical > run_pass.deadline:
            break
    # a workload whose pass fills the run still gets a median of several
    while len(setups) + len(passes) < MIN_SETUP_SAMPLES:
        setups.append(run_pass("setup"))

    outcomes = _outcomes(passes)
    walls = [p["wall_s"] for p in passes]
    setup_samples = [p["setup_s"] for p in setups + passes]
    errors = [err for o in outcomes for err in o.get("errors", {}).values()]
    metrics = {
        "wall_s": pass_time(passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": 1.0 - len(_failures(outcomes)) / len(outcomes),
        # no reference quantity at all means every one went absent, and those
        # runs already count as failed; report a full relative error
        "ref_rel_err": max(errors) if errors else 1.0,
    }
    notes = [
        "env " + json.dumps(setups[0]["env"], sort_keys=True),
        f"passes {len(passes)}; whole-pass wall times {[round(w, 4) for w in walls]} "
        f"(median {statistics.median(walls):.4f})",
        f"setup_s samples {[round(s, 4) for s in setup_samples]}",
        f"fail_ratio {len(_failures(outcomes)) / len(outcomes):g} "
        f"({len(_failures(outcomes))} of {len(outcomes)} runs failed)",
    ]
    units = dict(END_TO_END)
    return {name: (metrics[name], units[name]) for name, _ in END_TO_END}, outcomes, notes, True


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(name, unit) for name, unit, *_ in spans.METRICS]
    runs = [run for w in workloads.WORKLOADS for run in workloads.run_names(w)]
    names += [(spans.run_metric(run), "s") for run in dict.fromkeys(runs)]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


# Units of the metrics that must repeat exactly between two traced passes.
# Emitted bytes are left out: summary.json carries the wall time and a
# timestamp by design.
EXACT_UNITS = ("count", "ratio")


def count_mismatches(first: dict, second: dict, units: dict) -> list[str]:
    """Count metrics that differ between two traced passes of the same
    inputs, or are present in only one of them."""
    out = []
    for name in sorted(set(first) | set(second)):
        if units.get(name) in EXACT_UNITS and first.get(name) != second.get(name):
            out.append(f"{name}: {first.get(name)} then {second.get(name)}")
    return out


def trace_run(run_pass: Passes) -> tuple[dict, list[dict], list[str], bool]:
    untraced = run_pass("run")
    traced = [run_pass("trace"), run_pass("trace")]
    units = dict(per_layer_names())
    layers = [t["layers"] for t in traced]
    mismatches = count_mismatches(layers[0], layers[1], units)
    metrics = {}
    for name, unit in per_layer_names():
        if name == "trace.overhead_ratio":
            value = statistics.mean(t["wall_s"] for t in traced) / untraced["wall_s"]
        elif name not in layers[0]:
            if name.startswith("cli.run_s."):
                value = 0.0  # a run that is not part of this workload takes no time
            else:
                continue  # its entry point is gone: missing, never zero
        elif unit == "s":
            value = statistics.mean(layer[name] for layer in layers)
        else:
            value = layers[0][name]
        metrics[name] = (value, unit)
    notes = [
        "env " + json.dumps(untraced["env"], sort_keys=True),
        f"untraced wall_s {untraced['wall_s']:.4f}; traced wall_s {[round(t['wall_s'], 4) for t in traced]}",
    ]
    for name, reason in sorted(traced[0]["missing"].items()):
        notes.append(f"missing metric {name} ({reason})")
    notes += [f"count differs between traced passes: {m}" for m in mismatches]
    return metrics, _outcomes([untraced] + traced), notes, not mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not SOURCE.is_file():
        print(f"benchmark: program source {SOURCE.relative_to(ROOT)} not found", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        entries = [
            [name, json.dumps(cfg, sort_keys=True), list(refs)]
            for name, cfg, refs in workloads.configs(args.workload, args.seed)
        ]
        (work / "configs.json").write_text(json.dumps(entries))
        run_pass = Passes(work, deadline)
        if args.trace:
            metrics, outcomes, notes, consistent = trace_run(run_pass)
        else:
            metrics, outcomes, notes, consistent = timed_run(run_pass, args.seconds)
    except PassError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = _failures(outcomes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for o in failed:
        print(f"FAILED {o['run']}: {'; '.join(o['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": consistent and not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
