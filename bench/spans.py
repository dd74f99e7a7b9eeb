"""Outside-in tracing of one benchmark pass.

Spans (name, start, end, parent) are recorded only from the benchmark's own
files, by wrapping each layer's entry points as the calling module sees them
(``solver.minimize_phi``, ``Preconditioner.apply``, ``spectra.rayleigh_min``
and so on).  The layers are the ``plapsolve`` modules; ``_descent`` is named
``descent``.  A layer's self time is its span minus its child spans.

An entry point that no longer exists is reported by name, and every metric
that depends on it is left out of the report rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span recorder, one row per span, kept in flat columns."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total time, self time, and calls per parent name."""
        names = np.asarray(self.name_id, dtype=np.int64)
        parents = np.asarray(self.parent, dtype=np.int64)
        selfs = self_times(self.start, self.end, self.parent)
        durations = np.asarray(self.end) - np.asarray(self.start)
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            parent_names = Counter(
                self.names[names[i]] if i >= 0 else "" for i in parents[mask]
            )
            out[name] = {
                "calls": int(mask.sum()),
                "total": float(durations[mask].sum()),
                "self": float(selfs[mask].sum()),
                "parents": parent_names,
            }
        return out


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and the
    part of its interval they cover is the sum of their durations.
    """
    starts = np.asarray(starts, dtype=float)
    durations = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent], minlength=starts.size)
    return durations - covered


# -- wrappers ---------------------------------------------------------------


def _span(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, result)
        return result

    return wrapper


def _linesearch(tracer, name, fn):
    """Span around the line search; counts objective evaluations by wrapping
    the objective passed in, and accepted or failed searches by the result."""

    @functools.wraps(fn)
    def wrapper(objective, *args, **kwargs):
        def counted(x):
            tracer.counts["descent.linesearch_evals"] += 1
            return objective(x)

        index = tracer.open(name)
        try:
            result = fn(counted, *args, **kwargs)
        finally:
            tracer.close(index)
        tracer.counts["descent.linesearch_failures" if result[0] is None else "descent.linesearch_accepted"] += 1
        return result

    return wrapper


def _generator(tracer, name, fn):
    """One span per item a generator yields; the span covers the work done to
    produce it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            yield item

    return wrapper


def _add_result_count(key: str, attribute: str, transform=int):
    def after(tracer, result):
        value = getattr(result, attribute, None)
        if value is None:
            tracer.counts[f"absent:{key}"] += 1
        else:
            tracer.counts[key] += transform(value)

    return after


def _minimize_counts(tracer, result):
    _add_result_count("solver.iterations", "iterations")(tracer, result)
    _add_result_count("solver.unconverged", "converged", lambda converged: int(not converged))(tracer, result)


def _emit_bytes(tracer, written):
    tracer.counts["cli.emit_bytes"] += sum(path.stat().st_size for path in written)


# (span name, [(plapsolve module, attribute path as that module sees it)], wrapper)
ENTRY_POINTS = (
    ("cli.parse", [("cli", "parse_config")], _span),
    ("cli.emit", [("cli", "emit_reports")], functools.partial(_span, after=_emit_bytes)),
    ("solver.continuation", [("cli", "continuation_solve")], _span),
    ("solver.minimize", [("solver", "minimize_phi")], functools.partial(_span, after=_minimize_counts)),
    ("energy.dual_norm", [("solver", "dual_norm")], _span),
    ("energy.phi", [("solver", "_phi_arrays")], _span),
    ("energy.gradient", [("solver", "_phi_gradient_arrays")], _span),
    ("energy.grad_square", [("energy", "_grad_square"), ("solver", "_grad_square"), ("spectra", "_grad_square")], _span),
    ("descent.precond_build", [("_descent", "Preconditioner.__init__")], _span),
    ("descent.precond_apply", [("_descent", "Preconditioner.apply")], _span),
    (
        "descent.linesearch",
        [("solver", "armijo_backtrack"), ("spectra", "armijo_backtrack"), ("energy", "armijo_backtrack")],
        _linesearch,
    ),
    (
        "spectra.rayleigh",
        [("cli", "rayleigh_min"), ("spectra", "rayleigh_min")],
        functools.partial(_span, after=_add_result_count("spectra.rayleigh_iterations", "iterations")),
    ),
    ("spectra.quotient_descent", [("spectra", "_quotient_descent")], _span),
    ("spectra.hardy", [("cli", "hardy_check")], _span),
    ("spectra.cylinder", [("cli", "cylinder_eigen_check")], _span),
    ("spectra.poincare", [("cli", "poincare_remainder_check")], _span),
    ("spectra.pointwise_checks", [("cli", "monotonicity_constant_check"), ("cli", "power_mean_check")], _span),
    ("spectra.blowup", [("cli", "blowup_demo")], _span),
    ("potentials.admissibility", [("cli", "admissibility_report")], _span),
    (
        "potentials.evaluate",
        [("potentials", "evaluate_potential"), ("energy", "evaluate_potential"), ("solver", "evaluate_potential")],
        _span,
    ),
    ("sampling.bump", [("sampling", "bump_family"), ("spectra", "bump_family")], _generator),
    ("grid.mesh_build", [("cli", "build_mesh"), ("spectra", "build_mesh")], _span),
    ("grid.operator_assembly", [("grid", "Mesh._build_grad_op"), ("grid", "Mesh.energy_stiffness")], _span),
    (
        "grid.integrate",
        [("energy", "integrate"), ("solver", "integrate"), ("spectra", "integrate"), ("potentials", "integrate")],
        _span,
    ),
)

# Warning text prefix -> count name.
WARNINGS = {
    "rayleigh starts disagree": "spectra.start_disagreements",
    "line search stalled": "solver.linesearch_stalls",
}


def _resolve(module: str, path: str):
    """(owner, attribute, current value) of ``plapsolve.<module>.<path>``, or
    None when any part of it no longer exists."""
    try:
        owner = importlib.import_module(f"plapsolve.{module}")
    except ImportError:
        return None
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if value is None:
        return None
    return owner, attribute, value


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every entry point for ``tracer`` and start counting warnings.

    Returns, per span name, the bindings that no longer exist; a span with a
    missing binding is not wrapped anywhere, so it records nothing.
    """
    missing = {}
    for name, bindings, wrap in ENTRY_POINTS:
        resolved = [(f"{module}.{path}", _resolve(module, path)) for module, path in bindings]
        gone = [label for label, found in resolved if found is None]
        if gone:
            missing[name] = gone
            continue
        for _, (owner, attribute, value) in resolved:
            setattr(owner, attribute, wrap(tracer, name, value))

    shown = warnings.showwarning

    def count_warning(message, category, filename, lineno, file=None, line=None):
        for prefix, key in WARNINGS.items():
            if str(message).startswith(prefix):
                tracer.counts[key] += 1
        shown(message, category, filename, lineno, file, line)

    warnings.simplefilter("always", RuntimeWarning)
    warnings.showwarning = count_warning
    return missing


# -- per-layer metrics ------------------------------------------------------

# (metric, unit, better, span names it needs, value from (spans, counts))
_S = "s"
_C = "count"


def _total(name):
    return lambda spans, counts: spans.get(name, {}).get("total", 0.0)


def _self(name):
    return lambda spans, counts: spans.get(name, {}).get("self", 0.0)


def _calls(name):
    return lambda spans, counts: spans.get(name, {}).get("calls", 0)


def _count(key):
    return lambda spans, counts: counts.get(key, 0)


def _ratio(num, den):
    return lambda spans, counts: num(spans, counts) / max(den(spans, counts), 1)


def _calls_under(name, parent):
    return lambda spans, counts: spans.get(name, {}).get("parents", {}).get(parent, 0)


METRICS = (
    ("descent.precond_apply_s", _S, "lower", ("descent.precond_apply",), _total("descent.precond_apply")),
    ("descent.precond_applies", _C, "lower", ("descent.precond_apply",), _calls("descent.precond_apply")),
    ("descent.precond_build_s", _S, "lower", ("descent.precond_build",), _total("descent.precond_build")),
    ("descent.precond_builds", _C, "lower", ("descent.precond_build",), _calls("descent.precond_build")),
    (
        "descent.applies_per_build", "ratio", "higher", ("descent.precond_apply", "descent.precond_build"),
        _ratio(_calls("descent.precond_apply"), _calls("descent.precond_build")),
    ),
    ("descent.linesearch_s", _S, "lower", ("descent.linesearch",), _self("descent.linesearch")),
    ("descent.linesearches", _C, "lower", ("descent.linesearch",), _calls("descent.linesearch")),
    (
        "descent.linesearch_evals_per_step", "ratio", "lower", ("descent.linesearch",),
        _ratio(_count("descent.linesearch_evals"), _count("descent.linesearch_accepted")),
    ),
    ("descent.linesearch_failures", _C, "lower", ("descent.linesearch",), _count("descent.linesearch_failures")),
    ("energy.phi_s", _S, "lower", ("energy.phi",), _total("energy.phi")),
    ("energy.phi_calls", _C, "lower", ("energy.phi",), _calls("energy.phi")),
    ("energy.gradient_s", _S, "lower", ("energy.gradient",), _total("energy.gradient")),
    ("energy.gradient_calls", _C, "lower", ("energy.gradient",), _calls("energy.gradient")),
    ("energy.grad_square_s", _S, "lower", ("energy.grad_square",), _total("energy.grad_square")),
    ("energy.grad_square_calls", _C, "lower", ("energy.grad_square",), _calls("energy.grad_square")),
    ("energy.dual_norm_s", _S, "lower", ("energy.dual_norm",), _self("energy.dual_norm")),
    (
        "energy.dual_norm_steps", _C, "lower", ("energy.dual_norm", "descent.linesearch"),
        _calls_under("descent.linesearch", "energy.dual_norm"),
    ),
    ("solver.continuation_s", _S, "lower", ("solver.continuation",), _total("solver.continuation")),
    ("solver.minimize_s", _S, "lower", ("solver.minimize",), _self("solver.minimize")),
    ("solver.minimize_calls", _C, "lower", ("solver.minimize",), _calls("solver.minimize")),
    ("solver.iterations", _C, "lower", ("solver.minimize",), _count("solver.iterations")),
    ("solver.unconverged", _C, "lower", ("solver.minimize",), _count("solver.unconverged")),
    ("solver.linesearch_stalls", _C, "lower", (), _count("solver.linesearch_stalls")),
    ("spectra.rayleigh_s", _S, "lower", ("spectra.rayleigh",), _total("spectra.rayleigh")),
    ("spectra.rayleigh_calls", _C, "lower", ("spectra.rayleigh",), _calls("spectra.rayleigh")),
    ("spectra.rayleigh_iterations", _C, "lower", ("spectra.rayleigh",), _count("spectra.rayleigh_iterations")),
    ("spectra.quotient_descent_s", _S, "lower", ("spectra.quotient_descent",), _self("spectra.quotient_descent")),
    ("spectra.quotient_descents", _C, "lower", ("spectra.quotient_descent",), _calls("spectra.quotient_descent")),
    ("spectra.hardy_s", _S, "lower", ("spectra.hardy",), _total("spectra.hardy")),
    ("spectra.cylinder_s", _S, "lower", ("spectra.cylinder",), _total("spectra.cylinder")),
    ("spectra.poincare_s", _S, "lower", ("spectra.poincare",), _total("spectra.poincare")),
    ("spectra.pointwise_checks_s", _S, "lower", ("spectra.pointwise_checks",), _total("spectra.pointwise_checks")),
    ("spectra.blowup_s", _S, "lower", ("spectra.blowup",), _total("spectra.blowup")),
    ("spectra.start_disagreements", _C, "lower", (), _count("spectra.start_disagreements")),
    ("potentials.admissibility_s", _S, "lower", ("potentials.admissibility",), _self("potentials.admissibility")),
    ("potentials.evaluate_s", _S, "lower", ("potentials.evaluate",), _total("potentials.evaluate")),
    ("potentials.evaluate_calls", _C, "lower", ("potentials.evaluate",), _calls("potentials.evaluate")),
    ("sampling.bump_s", _S, "lower", ("sampling.bump",), _total("sampling.bump")),
    ("sampling.bumps", _C, "lower", ("sampling.bump",), _calls("sampling.bump")),
    ("grid.mesh_build_s", _S, "lower", ("grid.mesh_build",), _total("grid.mesh_build")),
    ("grid.meshes", _C, "lower", ("grid.mesh_build",), _calls("grid.mesh_build")),
    ("grid.operator_assembly_s", _S, "lower", ("grid.operator_assembly",), _total("grid.operator_assembly")),
    ("grid.integrate_s", _S, "lower", ("grid.integrate",), _total("grid.integrate")),
    ("grid.integrate_calls", _C, "lower", ("grid.integrate",), _calls("grid.integrate")),
    ("cli.parse_s", _S, "lower", ("cli.parse",), _total("cli.parse")),
    ("cli.emit_s", _S, "lower", ("cli.emit",), _total("cli.emit")),
    ("cli.emit_bytes", "bytes", "lower", ("cli.emit",), _count("cli.emit_bytes")),
)

def run_metric(run: str) -> str:
    return f"cli.run_s.{run}"


def root_span(run: str) -> str:
    """Name of the root span around one config's ``run`` and ``emit_reports``."""
    return f"run:{run}"


def layer_metrics(tracer: Tracer, missing_spans: dict, runs: list[str]) -> tuple[dict, dict]:
    """(metric -> value, metric -> reason it is missing) for one traced pass."""
    spans = tracer.aggregate()
    values, missing = {}, {}
    for name, _unit, _better, needs, value in METRICS:
        gone = [binding for span in needs for binding in missing_spans.get(span, ())]
        if tracer.counts.get(f"absent:{name}"):
            gone.append("the attribute of the result it is read from")
        if gone:
            missing[name] = "gone: " + ", ".join(gone)
        else:
            values[name] = value(spans, tracer.counts)
    for run in runs:
        values[run_metric(run)] = spans.get(root_span(run), {}).get("total", 0.0)
    return values, missing
