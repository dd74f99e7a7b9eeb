"""One benchmark pass in a fresh single-process interpreter.

    python3 bench/child.py MODE CONFIGS OUT RESULT

MODE is ``setup`` (import ``plapsolve.cli`` and parse every config), ``run``
(also run each config and emit its reports, untraced) or ``trace`` (the same,
with every layer's entry points wrapped).  CONFIGS is a JSON list of
``[run name, config text, reference kinds]``; reports go under OUT, and the
pass's figures are written to RESULT as JSON.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(mode: str, configs_path: str, out_dir: str, result_path: str) -> int:
    entries = json.loads(Path(configs_path).read_text())
    tracer = missing = None
    if mode == "trace":
        from bench import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)

    from plapsolve import cli

    parsed = [(name, cli.parse_config(text), refs) for name, text, refs in entries]
    result = {"setup_s": time.perf_counter() - _T0, "source": cli.__file__}

    from bench import environment, workloads

    result["env"] = environment.describe()
    if mode != "setup":
        outcomes = []
        start = time.perf_counter()
        for name, cfg, refs in parsed:
            root = tracer.open(spans.root_span(name)) if tracer else None
            run_start = time.perf_counter()
            try:
                artifact = cli.run(cfg)
                cli.emit_reports(artifact, out_dir)
                outcome = workloads.observe(artifact, tuple(refs))
            except Exception as exc:  # a raising run is a failed run, not a crashed pass
                outcome = {"exception": f"{type(exc).__name__}: {exc}"}
            finally:
                if tracer:
                    tracer.close(root)
            outcome["seconds"] = time.perf_counter() - run_start
            outcome["run"] = name
            outcome["problems"] = workloads.judge(outcome)
            outcomes.append(outcome)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = _peak_rss_mb()
        result["outcomes"] = outcomes
        if tracer:
            values, absent = spans.layer_metrics(tracer, missing, [name for name, *_ in entries])
            result["layers"] = values
            result["missing"] = absent
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
