import math

import pytest

from raymat.cli import main

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
    ],
    ids=[
        "nan", "inf", "nan-u", "inf-u", "negative-u", "zero-u", "text", "duplicate",
        "pair-out-of-range", "no-such-trajectory", "malformed-id",
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


def test_identify_accepts_rows_after_early_stop(capsys, tmp_path):
    # the first pair settles the lone floor, so the loop never traces the
    # second; its rows (even one naming no trajectory) are not errors
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
    assert (code, err) == (0, "")
    assert "floor,wood" in out.splitlines()


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


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "rl", "--material", "glass", "--bogus", "1")
    assert code == 1
    assert "usage" in err.lower()


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
