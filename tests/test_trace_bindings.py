"""Every entry point the benchmark's tracer wraps still exists.

A refactor that drops a traced binding (say ``integrate`` imported into
``potentials``) fails no other test; the tracer would only report the
span's metrics as missing.
"""

import importlib.util
from pathlib import Path

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = _load_spans()
    bindings = [(module, path) for _, found, _ in spans.ENTRY_POINTS for module, path in found]
    missing = [f"{module}.{path}" for module, path in bindings if spans._resolve(module, path) is None]
    assert bindings
    assert not missing, missing
