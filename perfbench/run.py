"""Seeded benchmark for raymat.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo_k3 --seed 1 --seconds 20 --trace 0

Workloads: demo_k3, demo_k1_grid, model_tables, cli_chain (see
BENCHMARK.json for why each exists). The program is imported from ``src/``
next to this directory. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics. Detailed results and the span list go
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# one thread per process for BLAS/OpenMP, here and in the CLI children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench_out"
SETUP_REPS = 7
# time of reference_loop() at the typical speed of a 2-core Xeon VM (2.1 GHz,
# Python 3.11, numpy 2.4); timings are reported scaled to this speed
REFERENCE_NOMINAL_S = 0.16
RAYMAT_MODULES = ("cli", "demo", "em", "identify", "materials", "rldb", "settling", "tracer")



def import_raymat():
    """Fresh import of raymat from src/ (earlier copies are dropped first)."""
    for name in [m for m in sys.modules if m == "raymat" or m.startswith("raymat.")]:
        del sys.modules[name]
    ns = argparse.Namespace(raymat=importlib.import_module("raymat"))
    for name in RAYMAT_MODULES:
        setattr(ns, name, importlib.import_module(f"raymat.{name}"))
    origin = Path(ns.raymat.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"raymat imported from {origin}, not from {SRC}")
    return ns


def reference_loop(n: int = 4000) -> float:
    """Fixed work with raymat's instruction mix: 3-vector numpy calls and set/dict churn.

    The machine's speed drifts by 10-25% over tens of seconds on a shared
    host, so a run's raw wall times depend on when it ran. This loop is timed
    between passes; dividing a pass by the neighbouring loop times removes
    most of that drift. It does not touch raymat, so no change to the
    program can move it.
    """
    import numpy as np

    t0 = time.perf_counter()
    v = np.array([0.3, 0.4, 0.5])
    normal = np.array([0.0, 0.6, 0.8])
    acc = 0.0
    seen: dict = {}
    for i in range(n):
        d = v - 2.0 * float(v @ normal) * normal
        acc += float(np.linalg.norm(np.cross(d, normal)))
        seen.setdefault((i % 97, i % 13), set()).add(i % 5)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def percentile(values, q):
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def layer_metrics(rec, passes: int, extras: dict) -> dict:
    """Per-layer numbers for one set-up plus one pass, from the recorded spans."""
    setup, body = rec.summary(0), rec.summary(1)

    def per(name, field="busy"):
        return setup.get(name, {}).get(field, 0) / SETUP_REPS + body.get(name, {}).get(field, 0) / passes

    def count(key):
        return rec.counter(0, key) / SETUP_REPS + rec.counter(1, key) / passes

    loop = body.get("identify.loop", {"busy": 0.0, "children": {}})
    own = ("tracer.trace", "identify.enumerate", "identify.match", "bench.measure")
    self_s = (loop["busy"] - sum(loop["children"].get(c, 0.0) for c in own)) / passes
    trace_ms = [d * 1e3 for d in body.get("tracer.trace", {}).get("durations", [])]
    trajectories, sequences = count("tracer.trajectories"), count("tracer.sequences")
    candidates, kept = count("identify.candidates"), count("identify.kept")
    lookups = per("rldb.lookup", "calls")
    m = {
        "tracer.busy_s": per("tracer.trace"),
        "tracer.calls": per("tracer.trace", "calls"),
        "tracer.call_ms_p50": percentile(trace_ms, 0.5),
        "tracer.call_ms_p90": percentile(trace_ms, 0.9),
        "tracer.facets": rec.counter(1, "tracer.facets"),
        "tracer.trajectories": trajectories,
        "tracer.sequences": sequences,
        "tracer.yield": trajectories / sequences if sequences else 0.0,
        "identify.loop_s": per("identify.loop"),
        "identify.self_s": self_s,
        "identify.enumerate_s": per("identify.enumerate"),
        "identify.match_s": per("identify.match"),
        "identify.candidates": candidates,
        "identify.kept": kept,
        "identify.keep_ratio": kept / candidates if candidates else 0.0,
        "identify.pairs": per("tracer.trace", "calls"),
        "identify.entries": 0,
        "identify.rp_keys": 0,
        "identify.survivors": 0,
        "bench.measure_s": per("bench.measure"),
        "rldb.build_s": per("rldb.build"),
        "rldb.cells": count("rldb.cells"),
        "rldb.save_s": per("rldb.save"),
        "rldb.load_s": per("rldb.load"),
        "rldb.csv_bytes": count("rldb.csv_bytes"),
        "rldb.lookup_calls": lookups,
        "rldb.lookup_us": per("rldb.lookup") / lookups * 1e6 if lookups else 0.0,
        "em.reflection_loss_calls": per("em.reflection_loss", "calls"),
        "em.reflection_loss_s": per("em.reflection_loss"),
        "settling.queries": per("settling.settling_thickness", "calls"),
        "settling.not_settled": count("settling.not_settled"),
        "settling.busy_s": per("settling.settling_thickness"),
        "cli.import_s": 0.0,
        "cli.demo_s": 0.0,
        "cli.simulate_s": 0.0,
        "cli.identify_s": 0.0,
    }
    m.update(extras)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "raymat" / "__init__.py").is_file():
        print(f"error: no raymat sources at {SRC}; run from a raymat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import spans as spans_mod
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    OUTDIR.mkdir(exist_ok=True)
    rec = spans_mod.SpanRecorder() if args.trace else None

    # set-up: import, scene, seeded inputs, RL database; repeated, median kept
    setup_times = []
    refs = [reference_loop()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        mods = import_raymat()
        if rec:
            spans_mod.install_raymat(rec, mods)
        ctx = wl.setup(mods, args.seed, str(OUTDIR))
        setup_times.append(time.perf_counter() - t0)
        if rec:
            rec.uninstall()
        refs.append(reference_loop())
    setup_loop_s = statistics.median(refs)

    # timed passes until the next one would overrun --seconds; each pass is
    # followed by a reference loop, and scaled by the two loops around it
    untraced, traced, errors = [], [], []
    raw = {"untraced": [], "traced": []}
    attempted = failed = 0
    resolved = []
    out = None
    start = time.perf_counter()
    i = 0
    while True:
        traced_pass = rec is not None and i % 2 == 1
        if traced_pass:
            rec.current_phase = 1
            spans_mod.install_raymat(rec, mods)
        t0 = time.perf_counter()
        try:
            result = wl.run(ctx, rec if traced_pass else None)
        except Exception:
            result = None
            errors.append(("exception", traceback.format_exc(limit=4)))
        dt = time.perf_counter() - t0
        if traced_pass:
            rec.uninstall()
        refs.append(reference_loop())
        loop_s = (refs[-1] + refs[-2]) / 2
        attempted += wl.ops_per_pass
        if result is None:
            failed += wl.ops_per_pass
        else:
            out = result
            problems = wl.check(ctx, result)
            errors.extend(problems)
            failed += len({op for op, _ in problems})
            resolved.append(wl.facets_resolved(ctx, result))
            (traced if traced_pass else untraced).append(dt * REFERENCE_NOMINAL_S / loop_s)
            raw["traced" if traced_pass else "untraced"].append(dt)
        i += 1
        elapsed = time.perf_counter() - start
        enough = bool(untraced) and (rec is None or bool(traced))
        if elapsed + dt + refs[-1] > args.seconds and (enough or elapsed > 2 * args.seconds):
            break

    env = environment()
    rss = peak_rss_mb(wl.rusage)
    work = wl.work(ctx, out) if out is not None else {}
    run_s = statistics.median(untraced) if untraced else 0.0
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "work": work,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "reference_s": refs,
        "passes_s": untraced,
        "traced_passes_s": traced,
        "passes_wall_s": raw["untraced"],
        "traced_passes_wall_s": raw["traced"],
        "setups_wall_s": setup_times,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": [f"{op}: {msg}" for op, msg in errors[:20]],
    }
    if args.trace:
        extras = wl.layer_extras(ctx, out) if out is not None else {}
        metrics = layer_metrics(rec, max(len(traced), 1), extras)
        traced_s = statistics.median(traced) if traced else 0.0
        metrics.update({
            "bench.run_s_untraced": run_s,
            "bench.run_s_traced": traced_s,
            "bench.trace_overhead_s": traced_s - run_s,
        })
        rec.write_csv(OUTDIR / f"{wl.name}.spans.csv")
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup_times) * REFERENCE_NOMINAL_S / setup_loop_s,
            "peak_rss_mb": rss,
            "facets_resolved": statistics.median(resolved) if resolved else 0,
        }
    report["metrics"] = metrics
    with open(OUTDIR / f"{wl.name}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} passes={len(untraced)}+{len(traced)} traced"
          f" setups={len(setup_times)}")
    print(f"# env {json.dumps(env)}")
    print(f"# work {json.dumps(work)}")
    if untraced:
        wall = raw["untraced"]
        print(f"# run_s median={run_s:.4f} min={min(untraced):.4f} max={max(untraced):.4f} n={len(untraced)}"
              f" (wall median={statistics.median(wall):.4f}, reference loop median"
              f" {statistics.median(refs):.4f} s vs nominal {REFERENCE_NOMINAL_S} s)")
    print(f"# failed_frac {report['failed_frac']:.4f} ({failed}/{attempted} ops)")
    for op, msg in errors[:5]:
        print(f"# FAILED {op}: {msg}", file=sys.stderr)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
