"""The benchmark's contract with raymat, checked in the tier-1 suite.

The span hooks (perfbench/spans.py) wrap raymat attributes by name, and the
workloads (perfbench/workloads.py) call raymat and check what it returns. A
rename, a removal or a changed result breaks the benchmark; these tests catch
it without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import raymat
from raymat import demo, em, identify, materials, rldb, settling

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_one_untraced_pass_of_each_in_process_workload_passes_its_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    mods = SimpleNamespace(
        raymat=raymat, demo=demo, em=em, identify=identify, materials=materials,
        rldb=rldb, settling=settling,
    )
    resolved = {}
    for name in ("demo_k3", "demo_k1_grid", "model_tables"):
        w = workloads.WORKLOADS[name]
        ctx = w.setup(mods, 1, str(tmp_path))
        out = w.run(ctx, None)
        assert w.check(ctx, out) == [], name
        resolved[name] = w.facets_resolved(ctx, out)
        numbers = {**w.work(ctx, out), **w.layer_extras(ctx, out)}
        assert all(isinstance(v, (int, float)) for v in numbers.values()), name
    assert resolved == {"demo_k3": 7, "demo_k1_grid": 10, "model_tables": 10}
