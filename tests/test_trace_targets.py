"""The benchmark tracer wraps library functions by name; each must exist.

A renamed or removed layer function would leave its per-layer metric at 0
without any error, so every (module, function) pair the tracer targets is
resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name, _ in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
