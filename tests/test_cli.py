import json
import math
import re
from pathlib import Path

import pytest

from raymat import em, identify, settling
from raymat.cli import _write_csv, main

from .oracles import (
    REFERENCE_ANGLES_DEG,
    REFERENCE_GLASS_40DEG_MODEL_DB,
    REFERENCE_RL_100GHZ,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = []
    header = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_rl_glass_row_matches_reference(capsys):
    code, out, _ = run(
        capsys, "rl", "--material", "glass", "--freq", "100", "--angles", "0:80:10"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9
    for row, theta, ref in zip(rows, REFERENCE_ANGLES_DEG, REFERENCE_RL_100GHZ["glass"]):
        assert float(row["angle_deg"]) == theta
        expected = REFERENCE_GLASS_40DEG_MODEL_DB if theta == 40 else ref
        assert float(row["rl_db"]) == pytest.approx(expected, abs=0.01)


def test_rl_determinism(capsys):
    argv = ("rl", "--material", "wood", "--freq", "140", "--angles", "0:85:5")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_settling_glass_1thz(capsys):
    code, out, _ = run(
        capsys, "settling", "--material", "glass", "--freq", "1000", "--tol", "0.2"
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["material"] == "glass"
    assert float(row["h_m"]) == pytest.approx(1.4e-3, rel=0.15)


def test_coeff_sweep(capsys):
    code, out, _ = run(
        capsys,
        "coeff", "--material", "glass", "--freq", "1000",
        "--theta", "0", "--h-grid", "0:5:0.01",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 501
    assert rows[0]["te_db"] == "-inf"
    assert "#te_thick_db=-7.33878" in out
    # curve settles into the +/-0.2 dB band beyond 1.45 mm
    for row in rows:
        h_m = float(row["h_m"])
        if h_m >= 1.45e-3:
            assert abs(float(row["te_db"]) - (-7.33878)) <= 0.2 + 1e-6


def test_rldb_build_show_roundtrip(capsys, tmp_path):
    db_path = tmp_path / "db.csv"
    code, _, _ = run(
        capsys,
        "rldb", "build", "--db", str(db_path),
        "--materials", "wood,glass", "--freqs", "100", "--angles", "0:85:1",
    )
    assert code == 0
    assert db_path.exists()
    code, out, _ = run(capsys, "rldb", "show", "--db", str(db_path))
    assert code == 0
    assert "#materials=wood,glass" in out
    assert "#angles_deg=0..85 (n=86)" in out


def test_trace_csv(capsys, tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":'
        "[[-1,-2,0],[5,-2,0],[5,2,0],[-1,2,0]],"
        '"material":"wood","thickness_m":0.1}]}',
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "trace", "--scene", str(scene), "--tx", "0,0,1", "--rx", "2,0,1",
        "--max-bounces", "1",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["trajectory_id"] == "p0t0"
    assert rows[0]["facet_id"] == "floor"
    assert float(rows[0]["x_m"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0]["theta_deg"]) == pytest.approx(45.0, abs=1e-9)


def test_trace_mirrored_pair(capsys, tmp_path):
    # TX and RX are mirror images across the slab_w plane z = 3.5, so the
    # transmitter's image lands on the receiver: that leg has no direction
    scene_path, _, _ = demo_files(tmp_path, capsys)
    code, out, err = run(
        capsys,
        "trace", "--scene", str(scene_path), "--tx", "1.5,1.5,2", "--rx", "1.5,1.5,5",
        "--max-bounces", "1",
    )
    assert (code, err) == (0, "")
    facets = [row["facet_id"] for row in parse_csv(out)]
    assert facets == ["wall_s", "wall_w", "wall_n", "wall_e"]


def test_non_finite_kappa_exits_1_before_any_output(capsys, tmp_path):
    db_path = tmp_path / "db.csv"
    code, _, err = run(capsys, "rldb", "build", "--db", str(db_path), "--kappa", "nan")
    assert code == 1
    assert "kappa" in err and "rl values" not in err
    assert not db_path.exists()
    argv = ("rl", "--material", "glass", "--freq", "100", "--angles", "0:10:5")
    code, out, err = run(capsys, *argv, "--kappa", "nan")
    assert (code, out) == (1, "") and "kappa" in err


def test_settling_rejects_an_oversized_grid(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(settling.np, "arange", no_grid)
    # the 32.8 mm envelope bound at 1 nm steps: 3.3e7 points
    argv = ("settling", "--material", "glass", "--freq", "100")
    code, out, err = run(capsys, *argv, "--grid-step", "1e-6")
    assert code == 1 and out == ""
    assert "3.28e+07 points" in err and "--grid-step" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"), ("--grid-step", "-1"), ("--grid-step", "nan")],
)
def test_settling_tol_and_grid_step_fail_naming_the_flag(capsys, tmp_path, flag, value):
    output = tmp_path / "out.csv"
    argv = ("settling", "--material", "glass", "--freq", "100", flag, value)
    code, out, err = run(capsys, *argv, "--output", str(output))
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument {flag}: must be a finite number > 0, got {value!r}\n")
    assert not output.exists()


@pytest.mark.parametrize("value", ["120", "90", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["coeff", "settling"])
def test_theta_is_an_incident_angle_in_degrees(capsys, tmp_path, command, value):
    output = tmp_path / "out.csv"
    argv = [command, "--material", "glass", "--freq", "100", "--theta", value]
    if command == "coeff":
        argv += ["--h-grid", "0:5:1"]
    code, out, err = run(capsys, *argv, "--output", str(output))
    assert (code, out) == (1, "")
    assert err.startswith(
        f"usage error: argument --theta: must be an angle in [0, 90) degrees, got {value!r}\n"
    )
    assert not output.exists()


@pytest.mark.parametrize(
    "action, flag, value",
    [
        ("build", "--output", "{tmp}/o.csv"),
        ("show", "--materials", "glass"),
        ("show", "--freqs", "28"),
        ("show", "--angles", "0:10:1"),
        ("show", "--kappa", "5"),
        ("show", "--materials-table", "{tmp}/nope.txt"),
    ],
    ids=["build-output", "show-materials", "show-freqs", "show-angles", "show-kappa", "show-table"],
)
def test_rldb_rejects_the_flags_of_its_other_action(capsys, tmp_path, action, flag, value):
    db_path = tmp_path / "db.csv"
    assert run(capsys, "rldb", "build", "--db", str(db_path))[0] == 0
    before = db_path.read_bytes()
    argv = ("rldb", action, "--db", str(db_path), flag, value.format(tmp=tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: unrecognized arguments: {flag} ")
    assert db_path.read_bytes() == before
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "line, extra",
    [
        ("bad, nan, 0, 0.01, 1.0, 0", ()),
        ("bad, 4.0, 0, inf, 1.0, 0", ()),
        ("bad, 4.0, 0, 0.01, 1.0, nan", ("--kappa", "1")),
    ],
    ids=["a-nan", "c-inf", "sigma-nan"],
)
def test_rl_rejects_a_non_finite_table_material_at_its_line(capsys, tmp_path, line, extra):
    table = tmp_path / "mats.txt"
    table.write_text(f"# custom\nbrick, 3.91, 0, 0.0238, 0.16, 0.0005\n{line}\n", encoding="utf-8")
    argv = ("rl", "--materials-table", str(table), "--material", "bad", "--freq", "100")
    code, out, err = run(capsys, *argv, "--angles", "0:20:10", *extra)
    assert (code, out) == (1, "")
    assert f"{table}:3:" in err and "must be finite" in err


@pytest.mark.parametrize("extra", [(), ("--grid-step", "0.01")], ids=["default-step", "step-0.01"])
def test_settling_of_a_gain_medium_names_the_growing_field(capsys, monkeypatch, tmp_path, extra):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(settling.np, "arange", no_grid)  # refused before any search
    table = tmp_path / "mats.txt"
    table.write_text("gain, 4.0, 0, -0.01, 1.0, 0\n", encoding="utf-8")
    argv = ("settling", "--materials-table", str(table), "--material", "gain")
    code, out, err = run(capsys, *argv, "--freq", "100", *extra)
    assert (code, out) == (1, "")
    assert "'gain' has gain at 100.0 GHz" in err and "grows with thickness" in err


def test_material_table_rejects_a_repeated_name_at_its_line(capsys, tmp_path):
    table = tmp_path / "mats.txt"
    table.write_text(
        "brick, 3.91, 0, 0.0238, 0.16, 0\n# same name, other values\nbrick, 9.0, 0, 0.5, 0.16, 0\n",
        encoding="utf-8",
    )
    argv = ("rl", "--materials-table", str(table), "--material", "brick", "--freq", "100")
    code, out, err = run(capsys, *argv, "--angles", "0:0:1")
    assert (code, out) == (1, "")
    assert f"{table}:3:" in err and "'brick'" in err and "line 1" in err


def test_material_table_may_not_redefine_a_preset(capsys, tmp_path):
    table = tmp_path / "mats.txt"
    table.write_text("wood, 3.91, 0, 0.0238, 0.16, 0\n", encoding="utf-8")
    argv = ("rl", "--materials-table", str(table), "--material", "wood", "--freq", "100")
    code, out, err = run(capsys, *argv, "--angles", "0:0:1")
    assert (code, out) == (1, "")
    assert str(table) in err and "'wood'" in err and "preset" in err


def demo_files(tmp_path, capsys):
    outdir = tmp_path / "demo"
    code, out, err = run(capsys, "demo", "--outdir", str(outdir))
    assert code == 0
    scene_path = outdir / "demo_building.json"
    assert scene_path.exists()
    tx_flags = []
    rx_flags = []
    for line in out.splitlines():
        if line.startswith("tx"):
            tx_flags += ["--tx", line.split(",", 1)[1]]
        if line.startswith("rx"):
            rx_flags += ["--rx", line.split(",", 1)[1]]
    assert len(tx_flags) == 4 and len(rx_flags) == 2
    return scene_path, tx_flags, rx_flags


def test_demo_simulate_identify_pipeline(capsys, tmp_path):
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    m_path = tmp_path / "m.csv"
    code, _, _ = run(
        capsys,
        "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--u", "1", "--seed", "3",
        "--output", str(m_path),
    )
    assert code == 0
    assert m_path.exists()

    code, out, _ = run(
        capsys,
        "identify", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--u", "1", "--measurements", str(m_path),
    )
    assert code == 0
    resolved = {}
    section = None
    for line in out.splitlines():
        if line.startswith("#"):
            section = line
            continue
        if section and section.startswith("# resolved") and "," in line:
            fid, material = line.split(",")
            resolved[fid] = material
    assert resolved.get("rail_s") == "glass"
    assert resolved.get("wall_n") == "plaster"
    assert resolved.get("floor") == "wood"


def test_readme_end_to_end_flags_are_the_ones_demo_prints(capsys, tmp_path):
    # the README's demo block spells out the placements; they must stay those of demo_positions
    code, _, err = run(capsys, "demo", "--outdir", str(tmp_path))
    assert code == 0

    def placements(command):
        return command.split()[1], re.findall(r"--[tr]x \S+", command)

    printed = dict(placements(line) for line in err.split("next:\n", 1)[1].splitlines())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```sh\n") if b.startswith("raymat demo --outdir")).split("```")[0]
    documented = dict(placements(c) for c in block.replace("\\\n", " ").splitlines())
    assert {name: documented.get(name) for name in printed} == printed
    assert set(printed) == {"simulate", "identify"} and len(printed["simulate"]) == 3


def test_simulate_byte_determinism(capsys, tmp_path):
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--noise", "0.3", "--seed", "11", "--u", "1",
    ]
    assert run(capsys, *argv, "--output", str(out_a))[0] == 0
    assert run(capsys, *argv, "--output", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_identify_no_hypothesis_exit_code(capsys, tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":'
        "[[-1,-2,0],[5,-2,0],[5,2,0],[-1,2,0]],"
        '"material":"wood","thickness_m":0.1}]}',
        encoding="utf-8",
    )
    m_path = tmp_path / "m.csv"
    m_path.write_text(
        "trajectory_id,measured_rl_db,u_db\np0t0,99.0,0.5\n", encoding="utf-8"
    )
    code, out, _ = run(
        capsys,
        "identify", "--scene", str(scene), "--tx", "0,0,1", "--rx", "2,0,1",
        "--freq", "100", "--measurements", str(m_path),
    )
    assert code == 2
    assert "p0t0" in out


@pytest.mark.parametrize(
    "rows",
    [
        "p0t0,nan,0.5\n",
        "p0t0,inf,0.5\n",
        "p0t0,12.0,nan\n",
        "p0t0,12.0,-inf\n",
        "p0t0,12.0,-0.5\n",
        "p0t0,12.0,0\n",
        "p0t0,twelve,0.5\n",
        "p0t0,12.0,0.5\np0t0,13.0,0.5\n",
        "p0t0,12.0,0.5\np7t3,12.0,0.5\n",
        "p0t0,12.0,0.5\np0t1,12.0,0.5\n",
        "p0t0,12.0,0.5\nx1,12.0,0.5\n",
        "p0t0,12.0\n",
        "p0t0,12.0,0.5\ntrajectory_id_typo,12.0,0.5\n",
    ],
    ids=[
        "nan", "inf", "nan-u", "inf-u", "negative-u", "zero-u", "text", "duplicate",
        "pair-out-of-range", "no-such-trajectory", "malformed-id", "two-fields",
        "id-opening-like-the-header",
    ],
)
def test_identify_rejects_bad_measurement_rows(capsys, tmp_path, rows):
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":'
        "[[-1,-2,0],[5,-2,0],[5,2,0],[-1,2,0]],"
        '"material":"wood","thickness_m":0.1}]}',
        encoding="utf-8",
    )
    m_path = tmp_path / "m.csv"
    m_path.write_text("trajectory_id,measured_rl_db,u_db\n" + rows, encoding="utf-8")
    code, out, err = run(
        capsys,
        "identify", "--scene", str(scene), "--tx", "0,0,1", "--rx", "2,0,1",
        "--freq", "100", "--measurements", str(m_path),
    )
    last_line = 1 + rows.count("\n")  # header plus the rows given
    assert code == 1
    assert out == ""
    assert f"{m_path}:{last_line}:" in err


def test_identify_rejects_a_row_of_a_later_pair_naming_no_trajectory(capsys, tmp_path):
    # the first pair alone resolves the lone floor, yet the loop still traces
    # the second, which has one trajectory only: the row for p1t3 names none
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":'
        "[[-3,-3,0],[6,-3,0],[6,3,0],[-3,3,0]],"
        '"material":"wood","thickness_m":0.1}]}',
        encoding="utf-8",
    )
    from raymat import em as _em
    from raymat.materials import GLASS, WOOD

    m_path = tmp_path / "m.csv"
    m_path.write_text(
        "trajectory_id,measured_rl_db,u_db\n"
        f"p0t0,{_em.reflection_loss(WOOD, 100.0, math.atan(1.0)):.6g},0.3\n"
        f"p1t0,{_em.reflection_loss(GLASS, 100.0, math.atan(0.5)):.6g},0.3\n"
        "p1t3,12.0,0.3\n",
        encoding="utf-8",
    )
    code, out, err = run(
        capsys,
        "identify", "--scene", str(scene), "--tx", "0,0,1", "--tx", "1,0,1",
        "--rx", "2,0,1", "--max-bounces", "1", "--freq", "100",
        "--measurements", str(m_path),
    )
    assert (code, out) == (1, "")
    assert f"{m_path}:4:" in err and "'p1t3'" in err


def test_identify_rejects_rows_for_a_traced_pair_without_trajectories(capsys, tmp_path):
    # the lone floor stays wood-or-plaster, so the loop traces both pairs;
    # the second (RX below the floor) has no trajectory, so no row can name it
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":'
        "[[-3,-3,0],[6,-3,0],[6,3,0],[-3,3,0]],"
        '"material":"wood","thickness_m":0.1}]}',
        encoding="utf-8",
    )
    from raymat import em as _em
    from raymat.materials import PLASTER, WOOD

    theta = math.atan(1.0)
    between = (
        _em.reflection_loss(WOOD, 100.0, theta) + _em.reflection_loss(PLASTER, 100.0, theta)
    ) / 2
    m_path = tmp_path / "m.csv"
    argv = [
        "identify", "--scene", str(scene), "--tx", "0,0,1", "--rx", "2,0,1",
        "--rx", "2,0,-1", "--max-bounces", "1", "--freq", "100",
        "--measurements", str(m_path),
    ]
    m_path.write_text(
        f"trajectory_id,measured_rl_db,u_db\np0t0,{between:.6g},2\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "floor,plaster|wood" in out.splitlines()
    m_path.write_text(
        f"trajectory_id,measured_rl_db,u_db\np0t0,{between:.6g},2\np1t0,12.0,2\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"{m_path}:3:" in err


def test_trace_ids_are_the_ids_identify_measures(capsys, tmp_path):
    from raymat.identify import identify_loop
    from raymat.materials import PRESETS
    from raymat.rldb import build
    from raymat.scene import load_scene

    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    code, out, _ = run(
        capsys, "trace", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--max-bounces", "2",
    )
    assert code == 0
    traced = {}
    for row in parse_csv(out):
        traced.setdefault(row["trajectory_id"], []).append(row["facet_id"])
    measured = {}

    def measure(tid, traj):
        measured[tid] = list(traj.facet_ids)
        return None

    palette = [PRESETS["wood"]]
    identify_loop(
        load_scene(str(scene_path)),
        [[float(v) for v in p.split(",")] for p in tx_flags[1::2]],
        [[float(v) for v in p.split(",")] for p in rx_flags[1::2]],
        palette, build(palette, [100.0], [0.0, 85.0]), 100.0, 1.0, 2, measure,
    )
    assert list(measured) == list(traced)
    assert measured == traced


def test_identify_db_and_kappa_are_exclusive(capsys, tmp_path):
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    db_path, m_path = tmp_path / "db.csv", tmp_path / "m.csv"
    assert run(capsys, "rldb", "build", "--db", str(db_path))[0] == 0
    assert run(
        capsys, "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--output", str(m_path),
    )[0] == 0
    argv = [
        "identify", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--measurements", str(m_path), "--db", str(db_path),
    ]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--kappa", "7.087")
    assert (code, out) == (1, "")
    assert "not allowed with argument" in err


def test_identify_db_refuses_a_palette_material_the_table_defines_otherwise(capsys, tmp_path):
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    as_wood, as_glass = tmp_path / "oak_wood.txt", tmp_path / "oak_glass.txt"
    as_wood.write_text("oak, 1.99, 0, 0.0047, 1.0718, 0\n", encoding="utf-8")
    as_glass.write_text("oak, 6.27, 0, 0.0043, 1.1925, 0\n", encoding="utf-8")
    db_path, m_path = tmp_path / "db.csv", tmp_path / "m.csv"
    assert run(
        capsys, "rldb", "build", "--db", str(db_path), "--materials", "oak,plaster,glass",
        "--materials-table", str(as_wood),
    )[0] == 0
    assert run(
        capsys, "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--output", str(m_path),
    )[0] == 0
    argv = [
        "identify", "--scene", str(scene_path), *tx_flags, *rx_flags, "--freq", "100",
        "--measurements", str(m_path), "--db", str(db_path), "--palette", "oak,plaster,glass",
    ]
    assert run(capsys, *argv, "--materials-table", str(as_wood))[0] == 0
    code, out, err = run(capsys, *argv, "--materials-table", str(as_glass))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {db_path}: material 'oak' differs: the table stores oak,1.99,0,0.0047,1.0718,0,"
        " the palette oak,6.27,0,0.0043,1.1925,0 (name,a,b,c,d,sigma)\n"
    )


def _identify_with_db(capsys, tmp_path, materials, *extra):
    """identify on the demo with a table of ``materials`` built at 100 GHz."""
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    db_path, m_path = tmp_path / "db.csv", tmp_path / "m.csv"
    assert run(capsys, "rldb", "build", "--db", str(db_path), "--materials", materials)[0] == 0
    assert run(
        capsys, "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--output", str(m_path),
    )[0] == 0
    argv = [
        "identify", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--measurements", str(m_path), "--db", str(db_path), *extra,
    ]
    return db_path, run(capsys, *argv)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("garbage\n", ":1", "expected 4 fields (material,f_ghz,angle_deg,rl_db), got 1"),
        ("#version=2\n", ":1", "unsupported version 2 (supported: 1)"),
        ("#version=1\n#kappa=0\n", "", "no data rows found (truncated file?)"),
    ],
    ids=["fields", "version", "no-rows"],
)
def test_a_malformed_table_is_named_by_path_and_line(capsys, tmp_path, text, line, message):
    """rldb show and identify --db name a malformed table as path:line: message, as the
    material-table and measurement readers do; an error of the whole file has no line."""
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    db_path, m_path = tmp_path / "bad.csv", tmp_path / "m.csv"
    assert run(
        capsys, "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--output", str(m_path),
    )[0] == 0
    db_path.write_text(text, encoding="utf-8")
    expected = (1, "", f"error: {db_path}{line}: {message}\n")
    assert run(capsys, "rldb", "show", "--db", str(db_path)) == expected
    assert run(
        capsys, "identify", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--measurements", str(m_path), "--db", str(db_path),
    ) == expected


def test_rldb_build_names_the_flag_of_an_angle_outside_the_table(capsys, tmp_path):
    """An --angles grid past 89 deg fails before any cell is built, naming the flag and
    the angle by the rule rl --angles uses."""
    db_path = tmp_path / "db.csv"
    for angles, bad in (("0:90:10", "90"), ("-5:10:5", "-5")):
        code, out, err = run(capsys, "rldb", "build", "--db", str(db_path), f"--angles={angles}")
        assert (code, out, err) == (1, "", f"error: --angles: {bad} is not an angle in [0, 89] degrees\n")
        assert not db_path.exists()
    assert run(capsys, "rldb", "build", "--db", str(db_path), "--angles", "0:89:89")[0] == 0


@pytest.mark.parametrize("freq", ["28", "99.99", "nan"])
def test_identify_db_refuses_a_frequency_outside_the_table(capsys, tmp_path, freq):
    """A --freq the table does not span fails before tracing, naming it and the table's
    range, instead of reporting every facet as uncovered."""
    db_path, (code, out, err) = _identify_with_db(capsys, tmp_path, "wood,plaster,glass", "--freq", freq)
    assert (code, out) == (1, "")
    assert err == f"error: {db_path}: --freq {float(freq):g} GHz is outside the table's frequency range [100, 100] GHz\n"


def test_identify_db_refuses_a_palette_material_the_table_lacks(capsys, tmp_path):
    _, (code, out, err) = _identify_with_db(capsys, tmp_path, "wood,glass", "--freq", "100")
    assert (code, out) == (1, "")
    assert err == "error: material 'plaster' not in database (wood, glass)\n"


@pytest.mark.parametrize("command", ["simulate", "identify"])
@pytest.mark.parametrize("u", ["0", "-1", "nan", "inf"])
def test_u_flag_must_be_positive(capsys, command, u):
    # argparse rejects the value before any file is opened
    extra = ["--measurements", "m.csv"] if command == "identify" else []
    code, out, err = run(
        capsys, command, "--scene", "scene.json", "--tx", "0,0,1", "--rx", "2,0,1",
        "--freq", "100", *extra, "--u", u,
    )
    assert (code, out) == (1, "")
    assert "usage error: argument --u: must be a finite number > 0" in err


def test_identify_u_overrides_every_row(capsys, tmp_path):
    # one pass over a lone floor; the row sits halfway between the wood and
    # plaster losses, too far from each to match at its own u of 0.1 dB
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":'
        "[[-3,-3,0],[6,-3,0],[6,3,0],[-3,3,0]],"
        '"material":"wood","thickness_m":0.1}]}',
        encoding="utf-8",
    )
    from raymat import em as _em
    from raymat.materials import PLASTER, WOOD

    theta = math.atan(1.0)  # tx (0,0,1) to rx (2,0,1) over z=0
    between = (
        _em.reflection_loss(WOOD, 100.0, theta) + _em.reflection_loss(PLASTER, 100.0, theta)
    ) / 2
    m_path = tmp_path / "m.csv"
    m_path.write_text(
        f"trajectory_id,measured_rl_db,u_db\np0t0,{between:.6g},0.1\n", encoding="utf-8"
    )
    argv = ("identify", "--scene", str(scene), "--tx", "0,0,1", "--rx", "2,0,1",
            "--max-bounces", "1", "--freq", "100", "--measurements", str(m_path))
    no_hypothesis = "# trajectories without surviving hypothesis\n"
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out.split(no_hypothesis)[1].startswith("p0t0\n")
    code, out, _ = run(capsys, *argv, "--u", "2")
    assert code == 0 and "floor,plaster|wood" in out.splitlines()
    assert out.split(no_hypothesis)[1].startswith("#")


def test_identify_contradiction_exit_code(capsys, tmp_path):
    # two transmitters see the same lone floor; the first measurement is
    # ambiguous (wood-or-plaster), the second cleanly implies glass, so the
    # facet-level intersection comes out empty
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":'
        "[[-3,-3,0],[6,-3,0],[6,3,0],[-3,3,0]],"
        '"material":"wood","thickness_m":0.1}]}',
        encoding="utf-8",
    )
    from raymat import em as _em
    from raymat.materials import GLASS, PLASTER, WOOD

    # 1-bounce angles for tx=(0,0,1)/(1,0,1) vs rx=(2,0,1) over z=0
    theta_a = math.atan(1.0)  # tx (0,0,1): mirror point (1,0,0)
    theta_b = math.atan(0.5)  # tx (1,0,1): mirror point (1.5,0,0)
    between = (
        _em.reflection_loss(WOOD, 100.0, theta_a)
        + _em.reflection_loss(PLASTER, 100.0, theta_a)
    ) / 2
    m_path = tmp_path / "m.csv"
    m_path.write_text(
        "trajectory_id,measured_rl_db,u_db\n"
        f"p0t0,{between:.6g},2\n"
        f"p1t0,{_em.reflection_loss(GLASS, 100.0, theta_b):.6g},0.3\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys,
        "identify", "--scene", str(scene), "--tx", "0,0,1", "--tx", "1,0,1",
        "--rx", "2,0,1", "--max-bounces", "1", "--freq", "100",
        "--measurements", str(m_path),
    )
    assert code == 2
    # the contradicted facet was covered: it is named once, on its
    # contradiction line, and is neither uncovered, resolved nor ambiguous
    assert [line for line in out.splitlines() if "floor" in line] == [
        "facet floor: reflection-point material sets have empty intersection"
    ]


@pytest.mark.parametrize(
    "command", ["coeff", "rl", "settling", "rldb", "trace", "simulate", "identify", "demo"]
)
def test_help_lists_the_shared_flags(capsys, command):
    def help_text(*argv):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--help"])
        assert exit_.value.code == 0
        return capsys.readouterr().out

    if command == "rldb":  # only show writes an output; build writes --db
        assert "--output" in help_text("rldb", "show")
        assert "--output" not in help_text("rldb", "build")
        return
    out = help_text(command)
    path_flags = ("--scene", "--tx", "--rx", "--max-bounces")
    for flag in ("--output", *(path_flags if command in ("trace", "simulate", "identify") else ())):
        assert flag in out


@pytest.mark.parametrize("command", ["rldb", "settling", "identify"])
def test_a_material_listed_twice_is_an_error(capsys, tmp_path, command):
    db_path = tmp_path / "db.csv"
    output = tmp_path / "out.csv"
    if command == "rldb":
        argv = ["rldb", "build", "--db", str(db_path), "--materials", "wood, glass,wood"]
    elif command == "settling":
        argv = ["settling", "--material", "wood,glass,wood", "--freq", "100"]
    else:
        assert run(capsys, "rldb", "build", "--db", str(db_path), "--materials", "wood,glass")[0] == 0
        scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
        measurements = tmp_path / "m.csv"
        measurements.write_text("p0t0,10,1\n", encoding="utf-8")
        argv = ["identify", "--scene", str(scene_path), *tx_flags, *rx_flags, "--freq", "100",
                "--measurements", str(measurements), "--db", str(db_path),
                "--palette", "wood,glass,wood"]
    if command != "rldb":  # rldb build writes only --db
        argv += ["--output", str(output)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", "error: material 'wood' is listed twice\n")
    assert not output.exists()
    assert command != "rldb" or not db_path.exists()


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "rl", "--material", "glass", "--bogus", "1")
    assert code == 1
    assert "usage" in err.lower()


@pytest.mark.parametrize(
    "argv, usage",
    [
        (("settling", "--material", "glass", "--freq", "100", "--theta", "120"), "raymat settling [-h]"),
        (("rldb",), "raymat rldb [-h] {build,show} ..."),
        (("rldb", "show"), "raymat rldb show [-h]"),
        ((), "raymat [-h] {coeff,"),
    ],
    ids=["settling-theta", "rldb-no-action", "rldb-show-no-db", "no-command"],
)
def test_a_usage_error_prints_the_usage_of_the_parser_that_failed(capsys, argv, usage):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ")
    assert err.splitlines()[1].startswith(f"usage: {usage}")


def test_validation_error_exits_1(capsys):
    code, _, err = run(capsys, "rl", "--material", "granite", "--freq", "100", "--angles", "0:10:5")
    assert code == 1
    assert "granite" in err


def test_missing_scene_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "trace", "--scene", str(tmp_path / "nope.json"), "--tx", "0,0,1", "--rx", "1,0,1",
    )
    assert code == 1
    assert "error" in err


# a pair the per-pair walk refuses, with its receiver in the middle of the list:
# under the first transmitter, under the second, and before or after another bad pair
_A, _B, _R1, _R2 = "4,2.5,5.6", "15,2.5,5.6", "7,7.5,1.4", "16.5,7.5,1.4"
_OUT = "7,7.5,40"  # above the demo's padded box, which ends at z = 27 m
_FAR = "60,2.5,5.6"  # beyond the box's x end
_DISTINCT = "tx and rx must be distinct"
_RX_OUT = "rx [7.0, 7.5, 40.0] is outside the scene bounds"
BAD_PAIR_CASES = {
    "rx-is-tx0": ([_A, _B], [_R1, _A, _R2], _DISTINCT),
    "rx-is-tx1": ([_A, _B], [_R1, _B, _R2], _DISTINCT),
    "rx-outside": ([_A, _B], [_R1, _OUT, _R2], _RX_OUT),
    "rx-is-tx0-before-outside": ([_A, _B], [_R1, _A, _OUT], _DISTINCT),
    "rx-outside-before-tx1": ([_A, _B], [_R1, _OUT, _B], _RX_OUT),
    "tx1-outside": ([_A, _FAR], [_R1, _R2], "tx [60.0, 2.5, 5.6] is outside the scene bounds"),
    # a receiver equal to tx1 is checked against tx1 only after every receiver is
    # checked against tx0, and before tx2 is checked at all
    "rx-is-tx1-after-outside": ([_A, _B], [_R1, _B, _OUT], _RX_OUT),
    "rx-is-tx1-before-tx2-outside": ([_A, _B, _FAR], [_R1, _B], _DISTINCT),
}


@pytest.mark.parametrize("case", list(BAD_PAIR_CASES))
def test_a_bad_pair_fails_as_in_the_per_pair_walk(capsys, tmp_path, case):
    """traced_pairs and ``raymat trace`` fail with the error that trace gives the first
    pair of the TX-major walk it refuses, and the trace CLI with exit code 1 and no
    output."""
    import itertools

    from raymat import tracer
    from raymat.scene import load_scene

    txs, rxs, message = BAD_PAIR_CASES[case]
    scene_path, _, _ = demo_files(tmp_path, capsys)
    scene = load_scene(str(scene_path))
    tx_points, rx_points = ([[float(v) for v in p.split(",")] for p in flags] for flags in (txs, rxs))
    with pytest.raises(ValueError) as walked:
        for tx, rx in itertools.product(tx_points, rx_points):
            tracer.trace(scene, tx, rx, 2)
    assert str(walked.value) == message
    with pytest.raises(ValueError) as batched:
        identify.traced_pairs(scene, tx_points, rx_points, 2)
    assert str(batched.value) == message
    flags = [f for tx in txs for f in ("--tx", tx)] + [f for rx in rxs for f in ("--rx", rx)]
    assert run(capsys, "trace", "--scene", str(scene_path), *flags) == (1, "", f"error: {message}\n")


def test_trace_of_a_scene_with_a_non_object_facet_exits_1(capsys, tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text('{"units": "m", "facets": [1]}', encoding="utf-8")
    code, out, err = run(capsys, "trace", "--scene", str(scene_path), "--tx", "0,0,1", "--rx", "1,0,1")
    assert (code, out, err) == (1, "", "error: facet #0 must be a JSON object\n")


def test_trace_of_a_scene_that_is_not_a_json_object_exits_1(capsys, tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text("[1, 2]", encoding="utf-8")
    code, out, err = run(capsys, "trace", "--scene", str(scene_path), "--tx", "0,0,1", "--rx", "1,0,1")
    assert (code, out, err) == (1, "", "error: scene must be a JSON object, got list\n")


_TRIANGLE = '"vertices": [[1, 1, 0], [2, 1, 0], [2, 2, 0]]'
_TOO_LARGE = "bad {}: int too large to convert to float"


@pytest.mark.parametrize(
    "field, message",
    [
        ('"vertices": [[1, 1, 0], [2, 1, 0], [2, 2, NaN]]', "polygon vertices must be finite"),
        ('"vertices": [[1, 1, 0], [2, 1, 0], [2, 2, Infinity]]', "polygon vertices must be finite"),
        (_TRIANGLE + ', "thickness_m": [1]', "'thickness_m' must be a number, got [1]"),
        (_TRIANGLE + ', "thickness_m": "thick"', "'thickness_m' must be a number, got 'thick'"),
        (_TRIANGLE + ', "thickness_m": Infinity', "thickness must be >= 0 and finite, got inf"),
        (f'"vertices": [[1, 1, 0], [2, 1, 0], [2, 2, 1{"0" * 400}]]', _TOO_LARGE.format("or missing 'vertices'")),
        (_TRIANGLE + f', "thickness_m": 1{"0" * 400}', _TOO_LARGE.format("'thickness_m'")),
    ],
    ids=["nan-vertex", "inf-vertex", "list-thickness", "text-thickness", "inf-thickness", "huge-int-vertex", "huge-int-thickness"],
)
def test_trace_of_a_scene_with_a_bad_facet_number_names_the_facet(capsys, tmp_path, field, message):
    """A non-finite vertex or thickness, an integer too large for a float, or a thickness
    that is no number, is a scene error naming the facet, not a traceback or a later
    error about the endpoints."""
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(f'{{"units": "m", "facets": [{{"id": "floor", {field}}}]}}', encoding="utf-8")
    code, out, err = run(capsys, "trace", "--scene", str(scene_path), "--tx", "1,1,1", "--rx", "2,1,1")
    assert (code, out, err) == (1, "", f"error: facet 'floor': {message}\n")


def test_simulate_that_fails_leaves_no_output_file(capsys, tmp_path):
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    m_path = tmp_path / "m.csv"
    code, _, err = run(
        capsys,
        "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--u", "1", "--kappa", "-1", "--output", str(m_path),
    )
    assert code == 1
    assert err == "error: roughness kappa must be finite and >= 0, got -1.0\n"
    assert not m_path.exists()


_FLOOR = '{"units": "m", "facets": [{"id": "floor", "vertices": [[-1, -2, 0], [5, -2, 0], [5, 2, 0], [-1, 2, 0]]}]}'
_WOOD_FLOOR = _FLOOR.replace("]]}", ']], "material": "wood"}')
_HUGE = "huge 1e308 1 0.01 1 0\n"  # a * f^b is inf at 100 GHz
_BIG = "big 1e200 0 0.01 1 0\n"  # a finite permittivity whose loss overflows float64
_FAR_FREQ = "material 'wood' has no finite permittivity at 1e+308 GHz"
_BIG_LOSS = "material 'big' has no finite reflection loss at 100.0 GHz (permittivity 1e+200-0.18j)"


def test_coeff_at_zero_thickness_reflects_nothing_for_every_material(capsys, tmp_path):
    """The big line's thick coefficients round to exactly -1 and 1; its h = 0 row still
    reads -inf dB, as wood's does, with no warning."""
    table = tmp_path / "t.txt"
    table.write_text(_BIG, encoding="utf-8")
    code, out, err = run(
        capsys, "coeff", "--materials-table", str(table), "--material", "big",
        "--freq", "100", "--h-grid", "0:1:0.5",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == ["0,-inf,-inf", "0.0005,0,0", "0.001,0,0"]


@pytest.mark.parametrize(
    "argv, given, message",
    [
        (("coeff", "--material", "glass", "--freq", "100", "--h-grid", "0,0"), "",
         "thickness grid must be strictly ascending"),
        (("rl", "--material", "wood", "--freq", "100", "--angles", "0:90:10"), "",
         "--angles: 90 is not an angle in [0, 90) degrees"),
        (("rl", "--material", "wood", "--freq", "100", "--angles=-5:10:5"), "",
         "--angles: -5 is not an angle in [0, 90) degrees"),
        (("settling", "--materials-table", "{given}", "--material", "lossless", "--freq", "100"),
         "lossless, 4.0, 0, 0, 0, 0\n",
         "material 'lossless' is lossless at 100.0 GHz; the slab coefficient oscillates forever and never settles"),
        (("rldb", "show", "--db", "{given}"), "garbage\n",
         "{given}:1: expected 4 fields (material,f_ghz,angle_deg,rl_db), got 1"),
        (("trace", "--scene", "{given}", "--tx", "0,0,1", "--rx", "100,0,1"), _FLOOR,
         "rx [100.0, 0.0, 1.0] is outside the scene bounds"),
        (("settling", "--material", "wood", "--freq", "1e308"), "", _FAR_FREQ),
        (("rl", "--material", "wood", "--freq", "1e308", "--angles", "0:10:5"), "", _FAR_FREQ),
        (("coeff", "--material", "wood", "--freq", "1e308", "--h-grid", "0:1:0.5"), "", _FAR_FREQ),
        (("simulate", "--scene", "{given}", "--tx", "0,0,1", "--rx", "4,0,1", "--freq", "1e308"), _WOOD_FLOOR,
         _FAR_FREQ),
        # the table is built before the measurements are read
        (("identify", "--scene", "{given}", "--tx", "0,0,1", "--rx", "4,0,1", "--freq", "1e308",
          "--measurements", "{given}"), _WOOD_FLOOR, _FAR_FREQ),
        (("rl", "--materials-table", "{given}", "--material", "huge", "--freq", "100", "--angles", "0:10:5"), _HUGE,
         "material 'huge' has no finite permittivity at 100.0 GHz"),
        (("rl", "--materials-table", "{given}", "--material", "big", "--freq", "100", "--angles", "0:10:5"), _BIG,
         _BIG_LOSS),
        (("settling", "--materials-table", "{given}", "--material", "huge", "--freq", "100"), _HUGE,
         "material 'huge' has no finite permittivity at 100.0 GHz"),
        (("trace", "--scene", "{given}", "--tx", "a,b,c", "--rx", "4,0,1"), _FLOOR,
         "point must be x,y,z in meters, got 'a,b,c'"),
        (("rl", "--material", "wood", "--freq", "100", "--angles", "0:x:5"), "",
         "grid values must be numbers, got '0:x:5'"),
        (("coeff", "--material", "glass", "--freq", "100", "--h-grid", "1,2,x"), "",
         "grid values must be numbers, got '1,2,x'"),
    ],
    ids=[
        "coeff-grid", "rl-angle-90", "rl-angle-negative", "settling-lossless", "rldb-show-malformed", "trace-rx-outside",
        "settling-far-freq", "rl-far-freq", "coeff-far-freq", "simulate-far-freq", "identify-far-freq",
        "rl-huge-table", "rl-big-table", "settling-huge-table", "trace-text-point", "rl-text-grid", "coeff-text-grid",
    ],
)
def test_a_command_that_fails_after_parsing_writes_no_output_file(capsys, tmp_path, argv, given, message):
    given_path = tmp_path / "given.txt"
    given_path.write_text(given, encoding="utf-8")
    output = tmp_path / "out.csv"
    code, out, err = run(capsys, *(arg.format(given=given_path) for arg in argv), "--output", str(output))
    assert (code, out, err) == (1, "", f"error: {message.format(given=given_path)}\n")
    assert not output.exists()


@pytest.mark.parametrize(
    "flags, given, message",
    [
        (("--freqs", "1e308"), "", _FAR_FREQ),
        (("--materials", "huge", "--materials-table", "{given}"), _HUGE,
         "material 'huge' has no finite permittivity at 100.0 GHz"),
        (("--materials", "big", "--materials-table", "{given}"), _BIG, _BIG_LOSS),
        (("--freqs", "0"), "", "--freqs: 0 is not a frequency > 0 GHz"),
        (("--freqs=-5:10:5",), "", "--freqs: -5 is not a frequency > 0 GHz"),
        (("--freqs", "100,0"), "", "--freqs: 0 is not a frequency > 0 GHz"),
        (("--freqs", "0:x:5"), "", "grid values must be numbers, got '0:x:5'"),
    ],
    ids=["far-freq", "huge-table", "big-table", "zero-freq", "negative-freqs", "zero-after-a-good-freq", "text-freqs"],
)
def test_rldb_build_that_fails_writes_no_table(capsys, tmp_path, flags, given, message):
    given_path = tmp_path / "given.txt"
    given_path.write_text(given, encoding="utf-8")
    db_path = tmp_path / "db.csv"
    code, out, err = run(capsys, "rldb", "build", "--db", str(db_path), *(f.format(given=given_path) for f in flags))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not db_path.exists()


@pytest.mark.parametrize("freqs", ["0", "-5:10:5", "100,0"])
def test_freqs_are_checked_before_any_cell_is_built(capsys, monkeypatch, tmp_path, freqs):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(em, "reflection_loss", no_cell)
    code, out, err = run(capsys, "rldb", "build", "--db", str(tmp_path / "db.csv"), f"--freqs={freqs}")
    assert (code, out) == (1, "")
    assert err.startswith("error: --freqs: ")


@pytest.mark.parametrize("bounces", ["0", "5"])
@pytest.mark.parametrize("command", ["trace", "simulate", "identify"])
def test_max_bounces_outside_the_tracer_range_fails_at_parse_time(capsys, tmp_path, command, bounces):
    # the scene, measurements and output are never opened: parsing fails first
    argv = [command, "--scene", str(tmp_path / "scene.json"), "--tx", "0,0,1", "--rx", "4,0,1"]
    argv += {"simulate": ["--freq", "100"], "identify": ["--freq", "100", "--measurements", "m.csv"]}.get(command, [])
    output = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--max-bounces", bounces, "--output", str(output))
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument --max-bounces: must be an integer in [1, 4], got '{bounces}'\n")
    assert not output.exists()


def test_the_csv_writer_opens_no_file_when_a_row_fails(tmp_path):
    def rows():
        yield (1.0,)
        raise ValueError("no second row")

    output = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="no second row"):
        _write_csv(str(output), ["meta"], "x", rows())
    assert not output.exists()


def test_output_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RAYMAT_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(
        capsys,
        "rl", "--material", "glass", "--freq", "100", "--angles", "0:10:10",
        "--output", "sub/out.csv",
    )
    assert code == 0
    assert (tmp_path / "sub" / "out.csv").exists()


def test_grid_syntax_errors(capsys):
    code, _, err = run(
        capsys, "rl", "--material", "glass", "--freq", "100", "--angles", "0:80"
    )
    assert code == 1
    assert "start:stop:step" in err


@pytest.mark.parametrize(
    "angles, message",
    [("0:80:0", "step must be > 0"), ("0:80:-5", "step must be > 0"), ("80:0:5", "stop must be >= start")],
)
def test_grid_must_step_forward(capsys, angles, message):
    code, out, err = run(capsys, "rl", "--material", "glass", "--freq", "100", "--angles", angles)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "command, grid",
    [
        ("rl", "0:inf:1"),
        ("rl", "0,nan"),
        ("coeff", "nan:1:0.5"),
        ("coeff", "0,inf"),
    ],
)
def test_grid_values_must_be_finite(capsys, command, grid):
    flag = "--angles" if command == "rl" else "--h-grid"
    code, out, err = run(capsys, command, "--material", "glass", "--freq", "100", flag, grid)
    assert (code, out) == (1, "")
    assert err == f"error: grid values must be finite, got {grid!r}\n"


@pytest.mark.parametrize(
    "argv, points",
    [
        (("rldb", "build", "--db", "{db}", "--angles", "0:1e300:1e290"), "1e+10 points"),
        (("rldb", "build", "--db", "{db}", "--freqs", "1:1e308:1e-300"), "inf points"),
        (("rl", "--material", "glass", "--freq", "100", "--angles", "0:85:1e-6"), "8.5e+07 points"),
    ],
    ids=["angles", "freqs-overflow", "rl-angles"],
)
def test_oversized_grid_fails_before_allocating(capsys, monkeypatch, tmp_path, argv, points):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(settling.np, "arange", no_grid)
    db_path = tmp_path / "db.csv"
    code, out, err = run(capsys, *(arg.format(db=db_path) for arg in argv))
    assert (code, out) == (1, "")
    assert points in err and f"more than {settling.MAX_GRID_POINTS:.0e}" in err
    assert not db_path.exists()


@pytest.mark.parametrize("freq", ["inf", "nan"])
@pytest.mark.parametrize("command", ["rl", "coeff", "settling", "simulate", "identify"])
def test_frequency_must_be_finite(capsys, tmp_path, command, freq):
    output = tmp_path / "out.csv"
    if command in ("simulate", "identify"):
        scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
        argv = [command, "--scene", str(scene_path), *tx_flags, *rx_flags]
        if command == "identify":
            measurements = tmp_path / "m.csv"
            measurements.write_text("p0t0,10,1\n", encoding="utf-8")
            argv += ["--measurements", str(measurements)]
    else:
        argv = [command, "--material", "glass"]
        argv += {"rl": ["--angles", "0:10:5"], "coeff": ["--h-grid", "0:1:0.5"]}.get(command, [])
    code, out, err = run(capsys, *argv, "--freq", freq, "--output", str(output))
    assert (code, out) == (1, "")
    assert err == f"error: frequency must be finite and > 0 GHz, got {freq}\n"
    assert not output.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--noise", "nan", "must be a finite number >= 0, got 'nan'"),
        ("--noise", "-0.5", "must be a finite number >= 0, got '-0.5'"),
        ("--max-angle", "nan", "must be a finite number, got 'nan'"),
        ("--max-angle", "-5", "must be an angle in [0, 90] degrees, got '-5'"),
        ("--max-angle", "90.5", "must be an angle in [0, 90] degrees, got '90.5'"),
        ("--ptx", "inf", "must be a finite number, got 'inf'"),
    ],
)
def test_simulate_rejects_a_bad_number_up_front(capsys, tmp_path, flag, value, message):
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    m_path = tmp_path / "m.csv"
    code, out, err = run(
        capsys,
        "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", flag, value, "--output", str(m_path),
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument {flag}: {message}\n")
    assert not m_path.exists()


@pytest.mark.parametrize("point", ["0,0", "0,0,1,2"])
def test_point_needs_three_coordinates(capsys, tmp_path, point):
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"units":"m","facets":[{"id":"floor","vertices":[[-1,-2,0],[5,-2,0],[5,2,0],[-1,2,0]]}]}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "trace", "--scene", str(scene), "--tx", point, "--rx", "1,0,1")
    assert (code, out) == (1, "")
    assert f"point must be x,y,z in meters, got {point!r}" in err


def test_custom_material_table(capsys, tmp_path):
    table = tmp_path / "mats.txt"
    table.write_text("brick, 3.91, 0, 0.0238, 0.16, 0.0005\n", encoding="utf-8")
    code, out, _ = run(
        capsys,
        "rl", "--material", "brick", "--freq", "40", "--angles", "0:0:10",
        "--materials-table", str(table),
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["rl_db"]) > 0


def test_simulate_checks_kappa_before_tracing(capsys, tmp_path, monkeypatch):
    # --max-angle 0 skips every trajectory, so a per-hop check would never run
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)

    def no_trace(*args, **kwargs):
        raise AssertionError("traced before the kappa check")

    monkeypatch.setattr(identify, "trace_pairs", no_trace)
    code, out, err = run(
        capsys,
        "simulate", "--scene", str(scene_path), *tx_flags, *rx_flags,
        "--freq", "100", "--kappa", "nan", "--max-angle", "0",
    )
    assert (code, out, err) == (1, "", "error: roughness kappa must be finite and >= 0, got nan\n")


def test_simulate_warns_for_each_trajectory_on_a_material_not_in_the_catalog(capsys, tmp_path):
    # the demo's walls relabelled concrete: every trajectory with a wall hop is
    # skipped with one warning naming its first wall hop; the other rows are
    # those of the demo as bundled, byte for byte
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    doc = json.loads(scene_path.read_text(encoding="utf-8"))
    for facet in doc["facets"]:
        if facet["id"].startswith("wall_"):
            facet["material"] = "concrete"
    concrete_path = tmp_path / "concrete.json"
    concrete_path.write_text(json.dumps(doc), encoding="utf-8")
    common = [*tx_flags, *rx_flags, "--freq", "100", "--u", "1"]
    code, out, err = run(capsys, "trace", "--scene", str(concrete_path), *tx_flags, *rx_flags)
    assert code == 0
    first_wall = {}
    for row in parse_csv(out):
        if row["facet_id"].startswith("wall_"):
            first_wall.setdefault(row["trajectory_id"], row["facet_id"])
    assert len(first_wall) >= 2
    code, bundled, _ = run(capsys, "simulate", "--scene", str(scene_path), *common)
    assert code == 0
    code, out, err = run(capsys, "simulate", "--scene", str(concrete_path), *common)
    assert code == 0
    assert err == "".join(
        f"warning: {tid}: facet {fid!r} has material 'concrete', which is not in the catalog; "
        "no row written\n"
        for tid, fid in first_wall.items()
    )
    kept = [line for line in bundled.splitlines(keepends=True) if line.split(",")[0] not in first_wall]
    assert out == "".join(kept)


def test_simulate_skips_a_draw_above_free_space_with_a_warning(capsys, tmp_path):
    # at seed 2 the noise drawn for p1t2 exceeds its true total loss, so the
    # receiver's check finds PL below FSPL: no row for it, every other row kept
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    common = ["--scene", str(scene_path), *tx_flags, *rx_flags, "--freq", "100", "--u", "1"]
    m_path = tmp_path / "m.csv"
    code, _, err = run(capsys, "simulate", *common, "--noise", "4", "--seed", "2", "--output", str(m_path))
    assert code == 0
    assert err.startswith("warning: p1t2: PL - FSPL = ") and err.endswith("; no row written\n")
    rows = parse_csv(m_path.read_text(encoding="utf-8"))
    assert len(rows) == 20 and "p1t2" not in {row["trajectory_id"] for row in rows}
    code, out, _ = run(capsys, "identify", *common, "--measurements", str(m_path))
    assert code != 1
    assert out.split("# trajectories skipped (no measurement or out of database range)\n")[1] == "p1t2\n"


@pytest.mark.parametrize(
    "max_angle, skipped",
    [
        ("89.9", [
            "p0t19 (hop 1 (facet 'rail_w', theta=85.1 deg): angle 85.0526 outside grid hull [0, 85])",
            "p1t14 (hop 1 (facet 'rail_w', theta=85.6 deg): angle 85.5624 outside grid hull [0, 85])",
        ]),
        (None, ["p0t19", "p1t14"]),
    ],
    ids=["measured", "filtered"],
)
def test_identify_skips_hops_outside_the_table_hull(capsys, tmp_path, max_angle, skipped):
    # p0t19 and p1t14 hop off rail_w at 85.05 and 85.56 deg, past the 0..85 deg
    # table: measured, identify skips them with the hop named; filtered out by
    # simulate's default --max-angle, they have no measurement
    scene_path, tx_flags, rx_flags = demo_files(tmp_path, capsys)
    common = ["--scene", str(scene_path), *tx_flags, *rx_flags,
              "--freq", "100", "--u", "1", "--max-bounces", "3"]
    m_path = tmp_path / "m.csv"
    extra = ["--max-angle", max_angle] if max_angle else []
    assert run(capsys, "simulate", *common, *extra, "--output", str(m_path))[0] == 0
    measured = {row["trajectory_id"] for row in parse_csv(m_path.read_text(encoding="utf-8"))}
    assert ({"p0t19", "p1t14"} <= measured) == bool(max_angle)
    code, out, _ = run(capsys, "identify", *common, "--measurements", str(m_path))
    assert code == 0
    assert out.split("# trajectories skipped (no measurement or out of database range)\n")[1] == (
        "".join(f"{line}\n" for line in skipped)
    )
