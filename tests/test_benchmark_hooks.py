"""The benchmark's span hooks (perfbench/spans.py) wrap raymat attributes by name.

A rename or removal of one of them breaks the benchmark's traced runs; this test
catches it in the tier-1 suite, without running the benchmark.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from raymat import em, identify, rldb, settling

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_span_hooks_wrap_attributes_that_exist():
    spans = _load_spans()
    rec = spans.SpanRecorder()
    mods = SimpleNamespace(identify=identify, rldb=rldb, em=em, settling=settling)
    try:
        spans.install_raymat(rec, mods)  # reads each attribute before it wraps it
        patched = list(rec._patches)
        for owner, attr, original in patched:
            assert attr in vars(owner), f"{owner.__name__}.{attr} is not defined there"
            assert callable(original) and getattr(owner, attr) is not original
    finally:
        rec.uninstall()
    assert {attr for _, attr, _ in patched} >= {"trace", "identify_loop", "lookup", "reflection_loss"}
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
