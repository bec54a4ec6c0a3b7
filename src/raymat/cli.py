"""Command-line front end: every subsystem as a subcommand emitting CSV.

Units at the CLI boundary: frequencies in GHz, angles in degrees, thicknesses
in millimeters (meters and radians internally). Grids use start:stop:step with
an inclusive stop. All outputs are UTF-8 CSV with ``#``-prefixed metadata
headers and are byte-identical for identical argv, input files, and seed.
Float cells are written ``.6g``. A command that fails writes no output file.

Exit status: 0 on success, 1 on any validation error, 2 when identification
ends in a contradiction or a no-hypothesis outcome.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from contextlib import contextmanager

import numpy as np

from . import demo as demo_mod
from . import em, identify, rldb, settling, tracer
from .materials import PRESETS, MaterialParams, load_material_table
from .scene import load_scene, save_scene

OUTPUT_DIR_ENV = "RAYMAT_OUTPUT_DIR"
MAX_ANGLE_DEG = 85.0  # database hull: tables built here span 0..85 deg in 1 deg steps


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this artifact reserves 2 for
    # contradiction outcomes and uses 1 for every validation error. The
    # parser that failed (a subcommand's, for its own arguments) gives the usage.
    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _parse_grid(text: str) -> np.ndarray:
    """Inclusive grid of finite numbers from 'start:stop:step', or a comma list.

    A start:stop:step grid of more than ``settling.MAX_GRID_POINTS`` points is
    refused before anything is allocated.
    """
    stepped = ":" in text
    parts = text.split(":" if stepped else ",")
    if stepped and len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"grid values must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if not stepped:
        return np.array(values)
    start, stop, step = values
    if step <= 0:
        raise ValueError("grid step must be > 0")
    if stop < start:
        raise ValueError("grid stop must be >= start")
    points = (stop - start) / step + 1e-9
    if not points < settling.MAX_GRID_POINTS:  # an overflow to inf fails here too
        raise ValueError(
            f"grid {text!r} has {points + 1:.3g} points, more than {settling.MAX_GRID_POINTS:.0e}"
        )
    return start + step * np.arange(int(math.floor(points)) + 1)


def _number(*rules, kind=float):
    """argparse type: a ``kind`` (float, or int) that passes each (rule, test) pair,
    in order; the first pair it fails gives "must be <rule>, got '<text>'"."""

    def number(text: str):
        value = kind(text)
        for rule, test in rules:
            if not test(value):
                raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return number


_FINITE = ("a finite number", math.isfinite)
_finite = _number(_FINITE)
_non_negative = _number(("a finite number >= 0", lambda v: 0 <= v < math.inf))
_positive = _number(("a finite number > 0", lambda v: 0 < v < math.inf))
_INCIDENT_ANGLE = ("an angle in [0, 90) degrees", lambda v: 0 <= v < 90)
_TABLE_ANGLE = ("an angle in [0, 89] degrees", lambda v: 0 <= v <= 89)  # rldb.build's grid
_incident_angle = _number(_INCIDENT_ANGLE)
_hop_angle = _number(_FINITE, ("an angle in [0, 90] degrees", lambda v: 0 <= v <= 90))
_FREQUENCY = ("a frequency > 0 GHz", lambda v: v > 0)
_bounces = _number((f"an integer in [1, {tracer.MAX_BOUNCES}]", lambda v: 1 <= v <= tracer.MAX_BOUNCES), kind=int)


def _parse_point(text: str) -> np.ndarray:
    try:
        x, y, z = map(float, text.split(","))
    except ValueError:  # not three parts, or a part that is no number
        raise ValueError(f"point must be x,y,z in meters, got {text!r}") from None
    return np.array([x, y, z])


def _material_catalog(table_path: str | None) -> dict[str, MaterialParams]:
    catalog = dict(PRESETS)
    if table_path:
        for mat in load_material_table(table_path):
            if mat.name in PRESETS:
                raise ValueError(f"{table_path}: material {mat.name!r} is a built-in preset")
            catalog[mat.name] = mat
    return catalog


def _resolve_materials(names: str, table_path: str | None) -> list[MaterialParams]:
    catalog = _material_catalog(table_path)
    picked: dict[str, MaterialParams] = {}
    for name in names.split(","):
        name = name.strip()
        if name not in catalog:
            raise ValueError(
                f"unknown material {name!r}; known: {', '.join(sorted(catalog))}"
            )
        if name in picked:
            raise ValueError(f"material {name!r} is listed twice")
        picked[name] = catalog[name]
    return list(picked.values())


def _resolve_one(name: str, table_path: str | None) -> MaterialParams:
    materials = _resolve_materials(name, table_path)
    if len(materials) != 1:
        raise ValueError(f"expected exactly one material, got {name!r}")
    return materials[0]


@contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write_csv(path: str | None, meta, columns: str, rows) -> None:
    """Write ``#<entry>`` per meta entry, the column line, then one line per row:
    float cells (numpy's float64 included) as ``.6g``, other cells with ``str``.

    Every line is built before ``path`` opens, so a run whose rows fail writes no file.
    """
    lines = [f"#{entry}\n" for entry in meta]
    lines.append(f"{columns}\n")
    lines.extend(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n" for row in rows)
    with _open_output(path) as fh:
        fh.writelines(lines)


def _cmd_coeff(args) -> int:
    mat = _resolve_one(args.material, args.materials_table)
    grid_m = _parse_grid(args.h_grid) * 1e-3
    rows = settling.thickness_sweep(mat, args.freq, math.radians(args.theta), grid_m)
    eta = em.relative_permittivity(mat, args.freq)
    thick = em.fresnel_thick(eta, math.radians(args.theta))
    meta = [
        f"material={mat.name}",
        f"freq_ghz={_fmt(args.freq)}",
        f"theta_deg={_fmt(args.theta)}",
        f"te_thick_db={_fmt(em.amplitude_db(thick.te))}",
        f"tm_thick_db={_fmt(em.amplitude_db(thick.tm))}",
    ]
    _write_csv(args.output, meta, "h_m,te_db,tm_db", rows)
    return 0


def _checked_grid(flag: str, text: str, rule) -> list[float]:
    """The grid ``flag`` gives, every value checked against one (rule, test) pair."""
    values = _parse_grid(text).tolist()
    name, test = rule
    for value in values:
        if not test(value):
            raise ValueError(f"{flag}: {value:g} is not {name}")
    return values


def _load_db(path: str) -> rldb.RLDatabase:
    """rldb.load, a malformed table named as ``path:line: message``."""
    try:
        return rldb.load(path)
    except rldb.DatabaseFormatError as err:
        where = path if err.line is None else f"{path}:{err.line}"
        raise ValueError(f"{where}: {err.message}") from None


def _cmd_rl(args) -> int:
    mat = _resolve_one(args.material, args.materials_table)
    angles = _checked_grid("--angles", args.angles, _INCIDENT_ANGLE)
    thetas = np.array([math.radians(a) for a in angles])
    losses = em.reflection_loss(mat, args.freq, thetas, kappa=args.kappa)
    meta = [f"material={mat.name}", f"freq_ghz={_fmt(args.freq)}", f"kappa={_fmt(args.kappa)}"]
    _write_csv(args.output, meta, "angle_deg,rl_db", zip(angles, losses.tolist()))
    return 0


def _cmd_settling(args) -> int:
    materials = _resolve_materials(args.material, args.materials_table)
    grid_step_m = None if args.grid_step is None else args.grid_step * 1e-3
    rows = []
    for mat in materials:
        query = settling.SettlingQuery(mat, args.freq, math.radians(args.theta), args.tol, grid_step_m)
        rows.append((mat.name, args.freq, args.theta, args.tol, settling.settling_thickness(query)))
    _write_csv(args.output, [], "material,f_ghz,theta_deg,tol_db,h_m", rows)
    return 0


def _cmd_rldb_build(args) -> int:
    materials = _resolve_materials(args.materials, args.materials_table)
    freqs = _checked_grid("--freqs", args.freqs, _FREQUENCY)
    db = rldb.build(materials, freqs, _checked_grid("--angles", args.angles, _TABLE_ANGLE), args.kappa)
    db.save(args.db)
    return 0


def _cmd_rldb_show(args) -> int:
    db = _load_db(args.db)
    meta = [f"version={rldb.FORMAT_VERSION}", f"kappa={_fmt(db.kappa)}", f"materials={','.join(db.material_names)}"]
    for label, grid in (("freqs_ghz", db.freqs_ghz), ("angles_deg", db.angles_deg)):
        meta.append(f"{label}={_fmt(float(grid[0]))}..{_fmt(float(grid[-1]))} (n={grid.size})")
    rows = [(name, float(rl.min()), float(rl.max())) for name, rl in zip(db.material_names, db.rl_db)]
    _write_csv(args.output, meta, "material,rl_min_db,rl_max_db", rows)
    return 0


def _pairs(args):
    scene = load_scene(args.scene)
    txs = [_parse_point(p) for p in args.tx]
    rxs = [_parse_point(p) for p in args.rx]
    return scene, identify.traced_pairs(scene, txs, rxs, args.max_bounces)


def _cmd_trace(args) -> int:
    _, labelled = _pairs(args)
    rows = (
        (tid, traj.bounces, traj.total_length, i, hop.facet_id, *map(float, hop.point), math.degrees(hop.theta_i))
        for tid, traj in labelled
        for i, hop in enumerate(traj.hops)
    )
    meta = [f"scene={os.path.basename(args.scene)}", f"max_bounces={args.max_bounces}"]
    _write_csv(args.output, meta, "trajectory_id,bounces,total_length_m,hop,facet_id,x_m,y_m,z_m,theta_deg", rows)
    return 0


def _cmd_simulate(args) -> int:
    em.check_kappa(args.kappa)
    scene, labelled = _pairs(args)
    catalog = _material_catalog(args.materials_table)
    ground_truth = {}
    for facet in scene.facets:
        if facet.material_label in catalog:
            ground_truth[facet.facet_id] = catalog[facet.material_label]
    rng = random.Random(args.seed)
    rows = []
    for tid, traj in labelled:
        unknown = next((h.facet_id for h in traj.hops if h.facet_id not in ground_truth), None)
        if unknown is not None:  # no ground truth to simulate
            label = scene.facet(unknown).material_label
            sys.stderr.write(
                f"warning: {tid}: facet {unknown!r} has material {label!r}, "
                "which is not in the catalog; no row written\n"
            )
            continue
        if any(math.degrees(hop.theta_i) > args.max_angle for hop in traj.hops):
            continue  # outside the RL-database hull
        try:
            record = identify.simulate_measurement(
                scene,
                traj,
                ground_truth,
                p_tx_dbm=args.ptx,
                f_ghz=args.freq,
                noise_sigma_db=args.noise,
                rng=rng,
                kappa=args.kappa,
                uncertainty_db=args.u,
                trajectory_id=tid,
            )
        except em.InconsistentMeasurementError as err:  # the noise put PL below FSPL
            sys.stderr.write(f"warning: {tid}: {err}; no row written\n")
            continue
        rows.append((tid, record.measured_total_rl_db, record.uncertainty_db))
    meta = [f"freq_ghz={_fmt(args.freq)}", f"ptx_dbm={_fmt(args.ptx)}"]
    meta += [f"noise_sigma_db={_fmt(args.noise)}", f"seed={args.seed}"]
    _write_csv(args.output, meta, "trajectory_id,measured_rl_db,u_db", rows)
    return 0


def _read_measurements(path) -> dict[str, tuple[float, float, int]]:
    """trajectory_id -> (measured_rl_db, u_db, line number)."""
    out: dict[str, tuple[float, float, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            fields = line.split(",")
            if not line or line.startswith("#") or fields[0] == "trajectory_id":
                continue
            if len(fields) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected trajectory_id,measured_rl_db,u_db"
                )
            tid = fields[0]
            try:
                value, u = float(fields[1]), float(fields[2])
                if not (math.isfinite(value) and math.isfinite(u) and u > 0):
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: measured_rl_db and u_db must be finite "
                    "numbers, u_db > 0"
                ) from None
            if tid in out:
                raise ValueError(f"{path}:{lineno}: duplicate trajectory_id {tid!r}")
            out[tid] = (value, u, lineno)
    return out


def _cmd_identify(args) -> int:
    scene = load_scene(args.scene)
    palette = _resolve_materials(args.palette, args.materials_table)
    if args.db:
        db = _load_db(args.db)
        stored = {m.name: rldb.material_header(m) for m in db.materials}
        for mat in palette:
            if mat.name not in stored:
                raise ValueError(f"material {mat.name!r} not in database ({', '.join(stored)})")
            ours = rldb.material_header(mat)
            if stored[mat.name] != ours:
                raise ValueError(
                    f"{args.db}: material {mat.name!r} differs: the table stores "
                    f"{stored[mat.name]}, the palette {ours} (name,a,b,c,d,sigma)"
                )
        lo, hi = db.freqs_ghz[0], db.freqs_ghz[-1]
        if not lo <= args.freq <= hi:
            raise ValueError(
                f"{args.db}: --freq {args.freq:g} GHz is outside the table's frequency range [{lo:g}, {hi:g}] GHz"
            )
    else:
        angles = np.arange(0.0, MAX_ANGLE_DEG + 1.0)
        db = rldb.build(palette, np.array([args.freq]), angles, args.kappa)
    measurements = _read_measurements(args.measurements)
    asked: set[str] = set()

    def measure(tid, traj):
        asked.add(tid)
        if tid not in measurements:
            return None
        value, u, _ = measurements[tid]
        return identify.MeasurementRecord(tid, value, u)

    _, report = identify.identify_loop(
        scene,
        [_parse_point(p) for p in args.tx],
        [_parse_point(p) for p in args.rx],
        palette,
        db,
        args.freq,
        args.u,
        args.max_bounces,
        measure,
    )
    for tid, (_, _, lineno) in measurements.items():
        if tid not in asked:
            raise ValueError(
                f"{args.measurements}:{lineno}: trajectory_id {tid!r} "
                "matches no traced trajectory"
            )
    with _open_output(args.output) as fh:
        fh.write(report.to_text())
    if report.contradictions or report.no_hypothesis:
        return 2
    return 0


def _cmd_demo(args) -> int:
    scene = demo_mod.demo_building()
    os.makedirs(args.outdir, exist_ok=True)
    scene_path = os.path.join(args.outdir, "demo_building.json")
    save_scene(scene, scene_path)
    txs, rxs = demo_mod.demo_positions()
    tx_flags = " ".join(f"--tx {p[0]:g},{p[1]:g},{p[2]:g}" for p in txs)
    rx_flags = " ".join(f"--rx {p[0]:g},{p[1]:g},{p[2]:g}" for p in rxs)
    m_path = os.path.join(args.outdir, "demo_measurements.csv")
    sys.stderr.write(
        f"wrote {scene_path}\n"
        "next:\n"
        f"  raymat simulate --scene {scene_path} {tx_flags} {rx_flags} "
        f"--freq 100 --u 1 --output {m_path}\n"
        f"  raymat identify --scene {scene_path} {tx_flags} {rx_flags} "
        f"--freq 100 --u 1 --measurements {m_path}\n"
    )
    rows = [(f"{role}{i}", *p) for role, points in (("tx", txs), ("rx", rxs)) for i, p in enumerate(points, 1)]
    _write_csv(args.output, ["demo positions (role,x_m,y_m,z_m)"], "role,x_m,y_m,z_m", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # flags shared by several subcommands, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument(
        "--materials-table",
        default=None,
        help="plain-text material table extending the built-in presets",
    )
    freq = argparse.ArgumentParser(add_help=False)
    freq.add_argument("--freq", type=float, required=True, help="GHz")
    theta = argparse.ArgumentParser(add_help=False)
    theta.add_argument("--theta", type=_incident_angle, default=0.0, help="degrees, in [0, 90)")
    path = argparse.ArgumentParser(add_help=False)  # simulate and identify must match trace
    path.add_argument("--scene", required=True)
    path.add_argument("--tx", action="append", required=True, help="x,y,z m (repeatable)")
    path.add_argument("--rx", action="append", required=True, help="x,y,z m (repeatable)")
    path.add_argument("--max-bounces", type=_bounces, default=2)

    parser = _Parser(prog="raymat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents, into=sub):
        p = into.add_parser(name, help=help, parents=[*parents, output])
        p.set_defaults(func=func)
        return p

    p = command("coeff", _cmd_coeff, "slab reflection coefficient vs thickness", freq, theta, table)
    p.add_argument("--material", required=True)
    p.add_argument("--h-grid", required=True, help="thickness grid in mm, start:stop:step")

    p = command("rl", _cmd_rl, "reflection loss vs incident angle", freq, table)
    p.add_argument("--material", required=True)
    p.add_argument("--angles", required=True, help="degrees, start:stop:step")
    p.add_argument("--kappa", type=float, default=0.0, help="roughness coefficient")

    p = command("settling", _cmd_settling, "settling thickness of a slab", freq, theta, table)
    p.add_argument("--material", required=True, help="name, or comma list")
    p.add_argument("--tol", type=_positive, default=0.2, help="band half-width in dB")
    p.add_argument("--grid-step", type=_positive, default=None, help="mm")

    actions = sub.add_parser("rldb", help="build or inspect a reflection-loss database")
    actions = actions.add_subparsers(dest="action", required=True)
    p = actions.add_parser("build", help="tabulate RL into a database CSV", parents=[table])
    p.set_defaults(func=_cmd_rldb_build)  # writes --db only, so it takes no --output
    p.add_argument("--db", required=True, help="database CSV path to write")
    p.add_argument("--materials", default="wood,plaster,glass")
    p.add_argument("--freqs", default="100", help="GHz grid or comma list")
    p.add_argument("--angles", default=f"0:{MAX_ANGLE_DEG:g}:1", help="degrees grid")
    p.add_argument("--kappa", type=float, default=0.0)
    p = command("show", _cmd_rldb_show, "summarize a database CSV", into=actions)
    p.add_argument("--db", required=True, help="database CSV path to read")

    command("trace", _cmd_trace, "list specular trajectories", path)

    p = command("simulate", _cmd_simulate, "synthesize total-RL measurements", path, freq, table)
    p.add_argument("--ptx", type=_finite, default=30.0, help="dBm")
    p.add_argument("--noise", type=_non_negative, default=0.0, help="gaussian sigma in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--u", type=_positive, default=1.0, help="uncertainty written per row")
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--max-angle", type=_hop_angle, default=MAX_ANGLE_DEG, help="skip steeper hops")

    p = command(
        "identify", _cmd_identify, "run the full identification pipeline, report per facet",
        path, freq, table,
    )
    p.add_argument("--measurements", required=True, help="CSV trajectory_id,measured_rl_db,u_db")
    p.add_argument("--u", type=_positive, default=None, help="override per-row uncertainty")
    p.add_argument("--palette", default="wood,plaster,glass")
    kappa_or_db = p.add_mutually_exclusive_group()  # a prebuilt table carries its own kappa
    kappa_or_db.add_argument("--kappa", type=float, default=0.0)
    kappa_or_db.add_argument("--db", default=None, help="prebuilt database CSV (else built on the fly)")

    p = command("demo", _cmd_demo, "write the bundled example scene")
    p.add_argument("--outdir", default=".")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        sys.stderr.write(f"usage error: {err}\n{err.usage}")
        return 1
    except (ValueError, KeyError, OSError, settling.NotSettledError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
