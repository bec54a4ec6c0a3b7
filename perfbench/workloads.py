"""The benchmark's four workloads: set-up, timed body, and correctness checks.

Each workload object has
  - ``ops_per_pass``: operations one pass attempts (failures are counted per op);
  - ``rusage``: whose peak memory is reported, this process or its children;
  - ``setup(mods, seed, outdir)``: everything before the first timed pass
    except the import, which run.py times with it;
  - ``run(ctx, rec)``: one timed pass; ``rec`` is the span recorder on traced
    passes, else None;
  - ``check(ctx, out)``: failed checks as (op, message) pairs;
  - ``facets_resolved(ctx, out)`` and ``work(ctx, out)``: outcome and work size;
  - ``layer_extras(ctx, out)``: per-layer numbers that come from outputs
    rather than spans.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import inputs

FREQ_GHZ = 100.0
PALETTE = ("wood", "plaster", "glass")
U_DB = 4.0
SIGMA_DB = 1.0


def _palette(mods):
    return [mods.materials.PRESETS[name] for name in PALETTE]


def _ground_truth(mods, scene):
    return {f.facet_id: mods.materials.PRESETS[f.material_label] for f in scene.facets}


class IdentifyWorkload:
    """identify_loop over a TX x RX placement lattice in the demo building."""

    ops_per_pass = 1
    rusage = resource.RUSAGE_SELF

    def __init__(self, name: str, max_bounces: int):
        self.name = name
        self.max_bounces = max_bounces

    def setup(self, mods, seed, outdir):
        scene = mods.demo.demo_building()
        palette = _palette(mods)
        truth = _ground_truth(mods, scene)
        tx, rx, pair_labels = inputs.placements(self.name, seed)
        provider = inputs.MeasurementProvider(
            mods.identify, scene, truth, pair_labels, FREQ_GHZ, SIGMA_DB, U_DB
        )
        db = mods.rldb.build(palette, [FREQ_GHZ], np.arange(0.0, 86.0))
        return SimpleNamespace(
            mods=mods, scene=scene, palette=palette, truth=truth, tx=tx, rx=rx,
            provider=provider, db=db, reference=None,
        )

    def run(self, ctx, rec):
        ctx.provider.reset()
        measure = rec.wrap(ctx.provider, "bench.measure") if rec else ctx.provider
        belief, report = ctx.mods.identify.identify_loop(
            ctx.scene, ctx.tx, ctx.rx, ctx.palette, ctx.db, FREQ_GHZ,
            U_DB, self.max_bounces, measure,
        )
        return SimpleNamespace(belief=belief, report=report, text=report.to_text())

    def check(self, ctx, out):
        errors = []
        for fid, mat in sorted(out.report.resolved.items()):
            if ctx.truth[fid].name != mat:
                errors.append(("identify", f"facet {fid} resolved to {mat}, truth {ctx.truth[fid].name}"))
        # noise stays inside u, so the true sequence always matches: an empty
        # set anywhere is a program error, not a property of the input
        if out.report.contradictions:
            errors.append(("identify", f"contradictions: {out.report.contradictions[:3]}"))
        if out.report.no_hypothesis:
            errors.append(("identify", f"no hypothesis for {out.report.no_hypothesis[:3]}"))
        if ctx.reference is None:
            ctx.reference = out.text
        elif out.text != ctx.reference:
            errors.append(("identify", "report text differs from the first pass"))
        return errors

    def facets_resolved(self, ctx, out):
        return sum(ctx.truth[f].name == m for f, m in out.report.resolved.items())

    def work(self, ctx, out):
        p = ctx.provider
        return {
            "facets": len(ctx.scene.facets),
            "tx": len(ctx.tx),
            "rx": len(ctx.rx),
            "pairs_with_paths": len(p.pairs),
            "trajectories": p.calls,
            "measured": p.calls - p.skipped,
            "entries": len(out.belief.survivors),
            "survivors": sum(len(c) for c in out.belief.survivors.values()),
            "rp_keys": len(out.belief.rp_domains),
            "resolved": len(out.report.resolved),
            "ambiguous": len(out.report.ambiguous),
        }

    def layer_extras(self, ctx, out):
        w = self.work(ctx, out)
        return {
            "identify.entries": w["entries"],
            "identify.rp_keys": w["rp_keys"],
            "identify.survivors": w["survivors"],
        }


class ModelTablesWorkload:
    """RL tables and settling thicknesses across 28 GHz - 1 THz; no tracing."""

    name = "model_tables"
    ops_per_pass = 1
    rusage = resource.RUSAGE_SELF
    n_freqs = 120
    angles_deg = np.arange(0.0, 90.0)
    n_lookups = 50_000
    settling_freqs = 40
    tolerances_db = (0.1, 0.2, 0.5)
    band_ghz = (28.0, 1000.0)

    def setup(self, mods, seed, outdir):
        materials = _palette(mods)
        lo, hi = self.band_ghz
        return SimpleNamespace(
            mods=mods,
            materials=materials,
            freqs=np.geomspace(lo, hi, self.n_freqs),
            queries=inputs.lookup_stream(
                list(PALETTE), self.n_lookups, seed, lo, hi, float(self.angles_deg[-1])
            ),
            settling_freqs=[float(f) for f in np.geomspace(lo, hi, self.settling_freqs)],
            path=os.path.join(outdir, "model_tables_rldb.csv"),
            scene=mods.demo.demo_building(),
            reference=None,
        )

    def run(self, ctx, rec):
        rldb, settling = ctx.mods.rldb, ctx.mods.settling
        built = rldb.build(ctx.materials, ctx.freqs, self.angles_deg)
        built.save(ctx.path)
        loaded = rldb.load(ctx.path)
        values = [loaded.lookup(m, f, a) for m, f, a in ctx.queries]
        thickness = {}
        for mat in ctx.materials:
            for f in ctx.settling_freqs:
                for tol in self.tolerances_db:
                    query = settling.SettlingQuery(material=mat, f_ghz=f, tol_db=tol)
                    try:
                        thickness[(mat.name, f, tol)] = settling.settling_thickness(query)
                    except settling.NotSettledError:
                        thickness[(mat.name, f, tol)] = None
        return SimpleNamespace(
            built=built, loaded=loaded, values=values, thickness=thickness,
            csv_bytes=os.path.getsize(ctx.path),
        )

    def check(self, ctx, out):
        errors = []
        b, l = out.built, out.loaded

        def six(a):
            return np.vectorize(lambda v: float(f"{v:.6g}"))(np.asarray(a, dtype=float))

        if (
            b.material_names != l.material_names
            or b.rl_db.shape != l.rl_db.shape
            or not np.array_equal(six(b.freqs_ghz), l.freqs_ghz)
            or not np.array_equal(six(b.angles_deg), l.angles_deg)
            or not np.array_equal(six(b.rl_db), l.rl_db)
        ):
            errors.append(("rldb", "loaded database differs from the built one at 6 digits"))
        values = np.asarray(out.values)
        lo, hi = float(l.rl_db.min()), float(l.rl_db.max())
        if not (np.all(np.isfinite(values)) and values.min() >= lo and values.max() <= hi):
            errors.append(("rldb", "lookup value non-finite or outside the table range"))
        bad = [k for k, h in out.thickness.items() if h is None or not (math.isfinite(h) and h > 0)]
        if bad:
            errors.append(("settling", f"{len(bad)} results not finite and positive, e.g. {bad[0]}"))
        digest = (float(np.sum(values)), tuple(sorted(out.thickness.items(), key=str)))
        if ctx.reference is None:
            ctx.reference = digest
        elif digest != ctx.reference:
            errors.append(("model_tables", "outputs differ from the first pass"))
        return errors

    def facets_resolved(self, ctx, out):
        """Demo facets whose thickness settles at 0.2 dB at every table frequency.

        These are the facets whose reflection the thick-slab RL table
        describes; the modeller's table resolves them.
        """
        need = {}
        for (name, _, tol), h in out.thickness.items():
            if tol == 0.2 and h is not None:
                need[name] = max(need.get(name, 0.0), h)
        return sum(
            f.material_label in need and f.thickness_m >= need[f.material_label]
            for f in ctx.scene.facets
        )

    def work(self, ctx, out):
        return {
            "cells": int(out.built.rl_db.size),
            "csv_bytes": out.csv_bytes,
            "lookups": len(out.values),
            "settling_queries": len(out.thickness),
            "not_settled": sum(h is None for h in out.thickness.values()),
        }

    def layer_extras(self, ctx, out):
        return {}


class CliChainWorkload:
    """``python -m raymat demo``, ``simulate``, ``identify`` as child processes."""

    name = "cli_chain"
    ops_per_pass = 3
    rusage = resource.RUSAGE_CHILDREN  # the largest child process
    steps = ("demo", "simulate", "identify")
    noise_db = 0.2  # 5 sigma below u = 1 dB

    def setup(self, mods, seed, outdir):
        workdir = os.path.join(outdir, "cli_chain")
        os.makedirs(workdir, exist_ok=True)
        src = os.path.dirname(os.path.dirname(mods.raymat.__file__))
        env = {k: v for k, v in os.environ.items() if k != mods.cli.OUTPUT_DIR_ENV}
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # a bare import warms the file cache the timed passes read from
        t = _timed_child([sys.executable, "-c", "import raymat.cli"], workdir, env)
        if t.returncode != 0:
            raise RuntimeError(f"import raymat.cli failed: {t.stderr.strip()[-300:]}")
        truth = {f.facet_id: f.material_label for f in mods.demo.demo_building().facets}
        return SimpleNamespace(
            seed=seed, workdir=workdir, env=env, truth=truth, import_s=t.wall_s,
            step_s={s: [] for s in self.steps}, reference=None,
        )

    def _raymat(self, ctx, *argv):
        return _timed_child([sys.executable, "-m", "raymat", *argv], ctx.workdir, ctx.env)

    def run(self, ctx, rec):
        procs = {}
        demo = procs["demo"] = self._raymat(ctx, "demo", "--outdir", ".")
        flags = []
        for line in demo.stdout.splitlines():
            role, _, coords = line.partition(",")
            if role[:2] in ("tx", "rx") and role[2:].isdigit():
                flags += [f"--{role[:2]}", coords]
        common = ["--scene", "demo_building.json", *flags, "--freq", "100", "--u", "1"]
        measurements = None
        if demo.returncode == 0:
            sim = procs["simulate"] = self._raymat(
                ctx, "simulate", *common, "--noise", str(self.noise_db),
                "--seed", str(ctx.seed), "--output", "m.csv",
            )
            if sim.returncode == 0:
                with open(os.path.join(ctx.workdir, "m.csv"), encoding="utf-8") as fh:
                    measurements = fh.read()
                procs["identify"] = self._raymat(ctx, "identify", *common, "--measurements", "m.csv")
        for step, r in procs.items():
            ctx.step_s[step].append(r.wall_s)
        return SimpleNamespace(procs=procs, measurements=measurements)

    def resolved_map(self, out):
        r = out.procs.get("identify")
        if r is None:
            return {}
        lines = r.stdout.splitlines()
        try:
            start = lines.index("# resolved facets (facet_id,material)") + 1
            stop = lines.index("# ambiguous facets (facet_id,materials)")
        except ValueError:
            return {}
        return dict(line.split(",", 1) for line in lines[start:stop])

    def check(self, ctx, out):
        errors = []
        for step in self.steps:
            r = out.procs.get(step)
            if r is None:
                errors.append((step, "not run: an earlier step failed"))
            elif r.returncode != 0:
                errors.append((step, f"exit {r.returncode}: {r.stderr.strip()[-300:]}"))
        resolved = self.resolved_map(out)
        for fid, mat in sorted(resolved.items()):
            if ctx.truth.get(fid) != mat:
                errors.append(("identify", f"facet {fid} resolved to {mat}, truth {ctx.truth.get(fid)}"))
        for prefix, mat in (("floor", "wood"), ("rail", "glass"), ("wall", "plaster")):
            if not any(f.split("_")[0] == prefix and m == mat for f, m in resolved.items()):
                errors.append(("identify", f"no {prefix} facet resolved to {mat}"))
        outputs = {s: (r.stdout if (r := out.procs.get(s)) else None) for s in self.steps}
        outputs["simulate"] = out.measurements  # simulate writes its CSV to --output
        if ctx.reference is None:
            ctx.reference = outputs
        else:
            for step in self.steps:
                if outputs[step] != ctx.reference[step]:
                    errors.append((step, "output differs from the first pass"))
        return errors

    def facets_resolved(self, ctx, out):
        return sum(ctx.truth.get(f) == m for f, m in self.resolved_map(out).items())

    def work(self, ctx, out):
        rows = (out.measurements or "").count("\np")
        return {
            "processes": len(out.procs),
            "measurement_rows": rows,
            "resolved": len(self.resolved_map(out)),
        }

    def layer_extras(self, ctx, out):
        extras = {"cli.import_s": ctx.import_s}
        for step in self.steps:
            times = ctx.step_s[step]
            extras[f"cli.{step}_s"] = statistics.median(times) if times else 0.0
        return extras


def _timed_child(argv, cwd, env):
    t0 = time.perf_counter()
    r = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    r.wall_s = time.perf_counter() - t0
    return r


WORKLOADS = {
    w.name: w
    for w in (
        IdentifyWorkload("demo_k3", max_bounces=3),
        IdentifyWorkload("demo_k1_grid", max_bounces=1),
        ModelTablesWorkload(),
        CliChainWorkload(),
    )
}
