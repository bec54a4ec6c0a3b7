import copy
import math
import pickle

import numpy as np
import pytest

from raymat import em, rldb
from raymat.materials import GLASS, PLASTER, WOOD, MaterialParams

from .oracles import (
    REFERENCE_ANGLES_DEG,
    REFERENCE_GLASS_40DEG_MODEL_DB,
    REFERENCE_RL_100GHZ,
)

PRESET_LIST = [WOOD, PLASTER, GLASS]


@pytest.fixture(scope="module")
def db100():
    return rldb.build(PRESET_LIST, [100.0], np.arange(0.0, 86.0), kappa=0.0)


@pytest.fixture(scope="module")
def db100_fitted():
    return rldb.build(
        PRESET_LIST, [100.0], np.arange(0.0, 86.0), kappa=em.FITTED_ROUGHNESS_KAPPA
    )


@pytest.fixture(scope="module")
def db_multi():
    """3 materials x 7 frequencies 28 GHz-1 THz x 0..89 deg, fitted roughness."""
    return rldb.build(
        PRESET_LIST,
        np.geomspace(28.0, 1000.0, 7),
        np.arange(0.0, 90.0),
        kappa=em.FITTED_ROUGHNESS_KAPPA,
    )


def test_build_glass_row_matches_reference(db100):
    # the 40 deg cell of the published table deviates from its own model;
    # compare against the model value there (documented upstream defect)
    for theta, ref in zip(REFERENCE_ANGLES_DEG, REFERENCE_RL_100GHZ["glass"]):
        expected = REFERENCE_GLASS_40DEG_MODEL_DB if theta == 40 else ref
        assert db100.lookup("glass", 100.0, float(theta)) == pytest.approx(
            expected, abs=0.01
        )


def test_build_wood_row_close_to_rough_reference(db100):
    deviations = [
        abs(db100.lookup("wood", 100.0, float(t)) - ref)
        for t, ref in zip(REFERENCE_ANGLES_DEG, REFERENCE_RL_100GHZ["wood"])
    ]
    assert max(deviations) <= 1.2


def test_build_cells_equal_reflection_loss(db_multi):
    expected = [
        em.reflection_loss(
            mat, f, math.radians(angle), kappa=em.FITTED_ROUGHNESS_KAPPA
        )
        for mat in PRESET_LIST
        for f in db_multi.freqs_ghz.tolist()
        for angle in db_multi.angles_deg.tolist()
    ]
    assert db_multi.rl_db.ravel().tolist() == expected


def test_build_minimal_grid():
    db = rldb.build([GLASS], [140.0], [30.0])
    assert db.rl_db.shape == (1, 1, 1)
    assert db.lookup("glass", 140.0, 30.0) == db.rl_db[0, 0, 0]


def test_build_validation():
    with pytest.raises(ValueError, match="at least one material"):
        rldb.build([], [100.0], [0.0])
    with pytest.raises(ValueError, match=r"\[0, 89\]"):
        rldb.build([GLASS], [100.0], [0.0, 89.5])


def test_lookup_node_exact(db100):
    assert db100.lookup("glass", 100.0, 60.0) == db100.rl_db[2, 0, 60]
    assert db100.lookup("glass", 100.0, 60.0) == pytest.approx(6.56, abs=0.01)


def test_lookup_midpoint_is_mean_of_nodes(db100):
    v0 = db100.lookup("plaster", 100.0, 40.0)
    v1 = db100.lookup("plaster", 100.0, 41.0)
    mid = db100.lookup("plaster", 100.0, 40.5)
    assert mid == pytest.approx((v0 + v1) / 2, abs=1e-12)


def test_lookup_rough_reference_at_7p2deg(db100_fitted):
    assert db100_fitted.lookup("plaster", 100.0, 7.2) == pytest.approx(11.86, abs=0.05)


def test_lookup_out_of_hull(db100):
    with pytest.raises(rldb.OutOfRangeError, match="angle"):
        db100.lookup("glass", 100.0, 85.5)
    with pytest.raises(rldb.OutOfRangeError, match="frequency"):
        db100.lookup("glass", 101.0, 10.0)
    with pytest.raises(KeyError, match="not in database"):
        db100.lookup("brick", 100.0, 10.0)


def test_lookup_log_frequency_interpolation():
    db = rldb.build([GLASS], [50.0, 200.0], [0.0, 10.0])
    v = db.lookup("glass", 100.0, 0.0)
    lo = db.rl_db[0, 0, 0]
    hi = db.rl_db[0, 1, 0]
    w = (math.log(100) - math.log(50)) / (math.log(200) - math.log(50))
    assert v == pytest.approx((1 - w) * lo + w * hi, abs=1e-12)
    assert min(lo, hi) <= v <= max(lo, hi)


def _reference_lookup(db, material, f_ghz, angle_deg):
    """RLDatabase.lookup as first written: np.searchsorted on the grid arrays
    and bilinear interpolation of numpy scalars."""

    def bracket(grid, value, label, log_axis=False):
        lo, hi = grid[0], grid[-1]
        if not lo <= value <= hi:
            raise rldb.OutOfRangeError(
                f"{label} {value:.6g} outside grid hull [{lo:.6g}, {hi:.6g}]"
            )
        i = int(np.searchsorted(grid, value, side="right")) - 1
        if i >= grid.size - 1:
            return grid.size - 1, grid.size - 1, 0.0
        x0, x1 = grid[i], grid[i + 1]
        if value == x0:
            return i, i, 0.0
        if log_axis:
            w = (math.log(value) - math.log(x0)) / (math.log(x1) - math.log(x0))
        else:
            w = (value - x0) / (x1 - x0)
        return i, i + 1, float(w)

    names = db.material_names
    if material not in names:
        raise KeyError(f"material {material!r} not in database ({', '.join(names)})")
    mi = names.index(material)
    fi0, fi1, wf = bracket(db.freqs_ghz, f_ghz, "frequency", log_axis=True)
    ai0, ai1, wa = bracket(db.angles_deg, angle_deg, "angle")
    v00 = db.rl_db[mi, fi0, ai0]
    v01 = db.rl_db[mi, fi0, ai1]
    v10 = db.rl_db[mi, fi1, ai0]
    v11 = db.rl_db[mi, fi1, ai1]
    return float(
        (1 - wf) * ((1 - wa) * v00 + wa * v01) + wf * ((1 - wa) * v10 + wa * v11)
    )


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (KeyError, ValueError) as err:
        return type(err), str(err)
    return type(value), value


# the 7 x 90 table of db_multi, one with uneven steps on both axes, and
# db_multi's values handed over as a non-contiguous view
@pytest.mark.parametrize("table", ["db_multi", "uneven", "strided"])
def test_lookup_equals_reference_formula(db_multi, table):
    db = db_multi
    if table == "uneven":
        angles = 89.0 * np.linspace(0.0, 1.0, 13) ** 1.3
        db = rldb.build(PRESET_LIST, [28.0, 41.5, 140.0, 1000.0], angles)
    if table == "strided":
        view = np.ascontiguousarray(db_multi.rl_db.transpose(2, 1, 0)).transpose(2, 1, 0)
        db = rldb.RLDatabase(PRESET_LIST, db_multi.freqs_ghz, db_multi.angles_deg, view)
        assert db.rl_db is view and not view.flags.c_contiguous
    names = db.material_names
    freqs, angles = db.freqs_ghz, db.angles_deg
    rng = np.random.default_rng(2024)
    n = 3000
    queries = list(
        zip(
            rng.choice(names, n).tolist(),
            np.exp(rng.uniform(math.log(28.0), math.log(1000.0), n)).tolist(),
            rng.uniform(0.0, 89.0, n).tolist(),
        )
    )
    # every node, as numpy scalars and as floats, including the last ones
    queries += [(m, f, a) for m in names for f in freqs for a in angles]
    queries += [(m, f, a) for m in names for f in freqs.tolist() for a in (0.0, 88.0, 89.0)]
    queries += [("glass", 1000.0, 89.0), ("wood", 28.0, 0.0), ("plaster", 100, 45)]
    # angles as the tracer hands them over: np.degrees of radians, np.float64
    radians = rng.uniform(0.0, math.radians(89.0), 500)
    queries += [("wood", f, np.degrees(r)) for f, r in zip(rng.uniform(28.0, 1000.0, 500), radians)]
    queries += [("plaster", 100.0, np.degrees(np.radians(a))) for a in angles]
    # out of hull, NaN and unknown material
    queries += [
        ("glass", 27.9, 10.0), ("glass", 1000.5, 10.0), ("glass", 100.0, -0.1),
        ("glass", 100.0, 89.5), ("glass", math.nan, 10.0), ("glass", 100.0, math.nan),
        ("glass", np.float64("nan"), 1.0), ("glass", 100.0, np.degrees(np.float64(1.6))),
        ("brick", 100.0, 10.0), ("brick", math.nan, 10.0),
    ]
    got = [_outcome(db.lookup, *q) for q in queries]
    want = [_outcome(_reference_lookup, db, *q) for q in queries]
    assert got == want
    assert sum(t is float for t, _ in got) == len(queries) - 10


def _hull_error(db, name, f_ghz, angle):
    with pytest.raises(rldb.OutOfRangeError) as err:
        db.lookup(name, f_ghz, angle)
    return str(err.value)


@pytest.mark.parametrize("f_at", ["node", "between", "last-node"])
@pytest.mark.parametrize("table", ["db_multi", "uneven", "strided", "one-angle"])
def test_lookup_many_has_the_bits_of_lookup(db_multi, table, f_at):
    """Every cell of lookup_many's (angles, names) matrix has the bits of lookup at that
    name, frequency and angle: seeded angles, every node, the last one included, and
    values one ulp inside and beside each node; at a frequency node, between nodes
    (where the log weight applies) and at the last node. An angle that lookup refuses,
    NaN and the infinities included, is flagged and its row is NaN."""
    db = db_multi
    if table == "uneven":
        db = rldb.build(PRESET_LIST, [28.0, 41.5, 140.0, 1000.0], 89.0 * np.linspace(0.0, 1.0, 13) ** 1.3)
    if table == "strided":
        view = np.ascontiguousarray(db_multi.rl_db.transpose(2, 1, 0)).transpose(2, 1, 0)
        db = rldb.RLDatabase(PRESET_LIST, db_multi.freqs_ghz, db_multi.angles_deg, view)
    if table == "one-angle":
        db = rldb.build(PRESET_LIST, [28.0, 100.0, 1000.0], [30.0])
    freqs, grid = db.freqs_ghz.tolist(), db.angles_deg
    f_ghz = {"node": freqs[1], "between": math.sqrt(freqs[1] * freqs[2]), "last-node": freqs[-1]}[f_at]
    rng = np.random.default_rng(31)
    angles = np.concatenate([
        rng.uniform(grid[0], grid[-1], 400),
        np.degrees(rng.uniform(math.radians(grid[0]), math.radians(grid[-1]), 200)),
        grid,
        np.nextafter(grid, math.inf),
        np.nextafter(grid, -math.inf),
        [-0.0, math.nan, math.inf, -math.inf],
    ])
    names = ["plaster", "glass", "wood", "plaster"]
    rl, outside = db.lookup_many(names, f_ghz, angles)
    assert rl.shape == (angles.size, len(names)) and outside.shape == (angles.size,)
    inside = 0
    for row, angle, flagged in zip(rl, angles.tolist(), outside.tolist()):
        if flagged:
            assert np.isnan(row).all()
            _hull_error(db, names[0], f_ghz, angle)
        else:
            inside += 1
            assert [v.hex() for v in row.tolist()] == [db.lookup(n, f_ghz, angle).hex() for n in names]
    n = grid.size
    nodes, above, below = (outside[600 + i * n:600 + (i + 1) * n] for i in range(3))
    assert not nodes.any() and inside > (600 if n > 1 else 0)
    assert above[-1] and below[0] and outside[-3:].all()  # beyond each end, NaN, the infinities
    assert n == 1 or not (above[0] or below[-1])  # one ulp inside each end


def test_lookup_many_refuses_as_lookup_does(db_multi):
    """An unknown name is lookup's KeyError, the first in the given order, before the
    frequency is checked; a frequency outside the table is lookup's OutOfRangeError."""
    with pytest.raises(KeyError) as many:
        db_multi.lookup_many(["wood", "brick", "tile"], 1e6, [10.0])
    with pytest.raises(KeyError) as one:
        db_multi.lookup("brick", 100.0, 10.0)
    assert str(many.value) == str(one.value)
    for f_ghz in (27.9, 1000.5, math.nan):
        with pytest.raises(rldb.OutOfRangeError) as many:
            db_multi.lookup_many(["wood"], f_ghz, [])
        assert str(many.value) == _hull_error(db_multi, "wood", f_ghz, 10.0)
    rl, outside = db_multi.lookup_many(["wood", "glass"], 100.0, [])
    assert rl.shape == (0, 2) and outside.shape == (0,)


def test_database_pickles_and_copies(db_multi):
    for twin in (pickle.loads(pickle.dumps(db_multi)), copy.deepcopy(db_multi)):
        assert twin.materials == db_multi.materials and twin.kappa == db_multi.kappa
        assert np.array_equal(twin.rl_db, db_multi.rl_db) and twin.rl_db is not db_multi.rl_db
        assert twin.lookup("wood", 100.0, 33.3) == db_multi.lookup("wood", 100.0, 33.3)


def test_interpolation_bounded_by_corners(db100):
    rng = np.random.default_rng(42)
    for _ in range(200):
        angle = rng.uniform(0.0, 85.0)
        value = db100.lookup("wood", 100.0, angle)
        a0 = math.floor(angle)
        a1 = min(a0 + 1, 85)
        corners = [db100.rl_db[0, 0, a0], db100.rl_db[0, 0, a1]]
        assert min(corners) - 1e-12 <= value <= max(corners) + 1e-12


def test_save_load_round_trip(tmp_path, db100):
    path = tmp_path / "db.csv"
    db100.save(path)
    loaded = rldb.load(path)
    assert loaded.material_names == db100.material_names
    assert loaded.kappa == db100.kappa
    assert np.array_equal(loaded.freqs_ghz, db100.freqs_ghz)
    assert np.array_equal(loaded.angles_deg, db100.angles_deg)
    # values survive at the declared 6-significant-digit file precision
    assert np.max(np.abs(loaded.rl_db - db100.rl_db)) < 1e-4
    # and a loaded database round-trips exactly
    path2 = tmp_path / "db2.csv"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()
    again = rldb.load(path2)
    assert np.array_equal(again.rl_db, loaded.rl_db)
    assert again.materials == loaded.materials


def test_save_load_save_is_byte_identical(tmp_path, db_multi):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    db_multi.save(first)
    rldb.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_rebuild_is_byte_identical(tmp_path):
    a = rldb.build(PRESET_LIST, [100.0], np.arange(0.0, 20.0), kappa=0.5)
    b = rldb.build(PRESET_LIST, [100.0], np.arange(0.0, 20.0), kappa=0.5)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_load_truncated_file(tmp_path, db100):
    path = tmp_path / "db.csv"
    db100.save(path)
    text = path.read_text(encoding="utf-8")
    # cut mid-line: the broken row is reported with its line number
    truncated = tmp_path / "trunc.csv"
    truncated.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match="line"):
        rldb.load(truncated)
    # cut between lines: the grid is incomplete
    lines = text.splitlines(keepends=True)
    truncated.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match="incomplete"):
        rldb.load(truncated)


def test_load_names_first_missing_cell(tmp_path, db_multi):
    path = tmp_path / "db.csv"
    db_multi.save(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    f2 = f"{db_multi.freqs_ghz[2]:.6g}"
    gone = {f"plaster,{f2},3,", f"plaster,{f2},71,", "glass,28,0,"}
    kept = [line for line in lines if not line.startswith(tuple(gone))]
    assert len(kept) == len(lines) - len(gone)
    path.write_text("".join(kept), encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError) as info:
        rldb.load(path)
    assert str(info.value) == (
        f"missing cell (plaster, {f2} GHz, 3 deg); grid is incomplete (truncated file?)"
    )


def test_save_writes_the_documented_format(tmp_path):
    brick = MaterialParams("brick", 3.91, 0.0, 0.0238, 0.16, roughness_sigma=1.23456789e-4)
    db = rldb.build(
        [brick], [100.0, 123.456789], [0.0, 12.3456789], kappa=em.FITTED_ROUGHNESS_KAPPA
    )
    path = tmp_path / "db.csv"
    db.save(path)
    assert path.read_bytes() == (
        b"#version=1\n"
        b"#kappa=7.08703\n"
        b"#material=brick,3.91,0,0.0238,0.16,0.000123457\n"
        b"material,f_ghz,angle_deg,rl_db\n"
        b"brick,100,0,9.77983\n"
        b"brick,100,12.3457,9.77319\n"
        b"brick,123.457,0,9.83455\n"
        b"brick,123.457,12.3457,9.82541\n"
    )
    # cells that need exponent form or trimming print as f"{v:.6g}" does
    edge = [0.0, 1e-07, 20.0, 123456.7, 0.1 + 0.2]
    rldb.RLDatabase([brick], [100.0], [0.0, 1.0, 2.0, 3.0, 4.0], [[edge]]).save(path)
    rows = path.read_text(encoding="utf-8").splitlines()[-len(edge):]
    cells = [row.rsplit(",", 1)[1] for row in rows]
    assert cells == [f"{v:.6g}" for v in edge] == ["0", "1e-07", "20", "123457", "0.3"]


def test_load_does_not_depend_on_row_order(tmp_path, db_multi):
    path = tmp_path / "db.csv"
    db_multi.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index("material,f_ghz,angle_deg,rl_db") + 1
    head, rows = lines[:start], lines[start:]
    assert len(rows) == db_multi.rl_db.size
    rng = np.random.default_rng(7)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for i in sorted(rng.choice(len(rows), 40, replace=False), reverse=True):
        rows.insert(int(i), "")
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes("\r\n".join(head + rows + [""]).encode("utf-8"))
    want, got = rldb.load(path), rldb.load(shuffled)
    # materials keep the order of their first row; everything else is placed by value
    first_seen = list(dict.fromkeys(row.split(",")[0] for row in rows if row))
    assert got.material_names == first_seen and got.kappa == want.kappa
    for a, b in [(got.freqs_ghz, want.freqs_ghz), (got.angles_deg, want.angles_deg)]:
        assert a.tolist() == b.tolist() and np.signbit(a).tolist() == np.signbit(b).tolist()
    for mat in want.materials:
        mi = got.material_names.index(mat.name)
        assert got.materials[mi] == mat
        assert np.array_equal(got.rl_db[mi], want.rl_db[want.material_names.index(mat.name)])

    # a non-numeric row, then a duplicate of an earlier cell: the first fault is named
    data = [row for row in rows if row]
    faulty = head + data[:100] + ["wood,abc,0,1"] + data[100:] + [data[0]]
    shuffled.write_bytes("\r\n".join(faulty + [""]).encode("utf-8"))
    with pytest.raises(rldb.DatabaseFormatError, match="non-numeric") as info:
        rldb.load(shuffled)
    assert info.value.line == len(head) + 101


_HEAD = "#version=1\n#kappa=0\nmaterial,f_ghz,angle_deg,rl_db\n"


@pytest.mark.parametrize(
    "second", ["wood,100,0,9", "wood,1e2,0.0,9", "wood,100,0,9\nwood,100,1,7"]
)
def test_load_rejects_duplicate_cells(tmp_path, second):
    bad = tmp_path / "dup.csv"
    bad.write_text(_HEAD + "wood,100,0,5\nwood,100,1,6\n" + second + "\n", encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError) as info:
        rldb.load(bad)
    assert str(info.value) == "duplicate cell (wood, 100 GHz, 0 deg) (line 6)"
    assert info.value.line == 6


@pytest.mark.parametrize("row", ["wood,nan,0,5", "wood,100,inf,5", "wood,100,0,nan"])
def test_load_rejects_non_finite_values(tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(_HEAD + row + "\n", encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match="non-finite value.*line 4"):
        rldb.load(bad)


def test_load_version_mismatch(tmp_path, db100):
    path = tmp_path / "db.csv"
    db100.save(path)
    text = path.read_text(encoding="utf-8").replace("#version=1", "#version=9")
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(rldb.DatabaseVersionError, match="unsupported version 9"):
        rldb.load(bad)


def test_load_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "#version=1\n#kappa=0\nmaterial,f_ghz,angle_deg,rl_db\nwood,abc,0,1\n",
        encoding="utf-8",
    )
    with pytest.raises(rldb.DatabaseFormatError, match="line 4"):
        rldb.load(bad)


def test_load_missing_headers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("material,f_ghz,angle_deg,rl_db\nwood,100,0,15.3\n", encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match="#version"):
        rldb.load(bad)


def test_load_custom_material_header(tmp_path):
    brick = MaterialParams("brick", 3.91, 0.0, 0.0238, 0.16, roughness_sigma=5e-4)
    db = rldb.build([brick], [100.0], [0.0, 10.0])
    path = tmp_path / "brick.csv"
    db.save(path)
    loaded = rldb.load(path)
    assert loaded.materials[0] == brick


def test_load_unknown_material_without_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "#version=1\n#kappa=0\nmaterial,f_ghz,angle_deg,rl_db\ngranite,100,0,15.3\n",
        encoding="utf-8",
    )
    with pytest.raises(rldb.DatabaseFormatError, match="granite"):
        rldb.load(bad)


def test_database_invariants_enforced():
    with pytest.raises(ValueError, match="ascending"):
        rldb.RLDatabase([GLASS], [100.0, 100.0], [0.0], np.zeros((1, 2, 1)))
    with pytest.raises(ValueError, match="finite"):
        rldb.RLDatabase([GLASS], [100.0], [0.0], np.array([[[-1.0]]]))
    with pytest.raises(ValueError, match="shape"):
        rldb.RLDatabase([GLASS], [100.0], [0.0], np.zeros((1, 2, 1)))


@pytest.mark.parametrize(
    "freqs, angles",
    [([100.0, math.nan, 200.0], [0.0, 10.0]), ([100.0], [math.nan]), ([math.inf], [0.0])],
)
def test_database_rejects_non_finite_grid_nodes(freqs, angles):
    rl = np.ones((1, len(freqs), len(angles)))
    with pytest.raises(ValueError, match="finite and strictly ascending"):
        rldb.RLDatabase([GLASS], freqs, angles, rl)


@pytest.mark.parametrize(
    "materials, freqs, angles, match",
    [
        ([GLASS], [], [0.0], "frequency grid must be non-empty"),
        ([GLASS], [100.0], [], "angle grid must be non-empty"),
        ([GLASS, WOOD, GLASS], [100.0], [0.0], "material names must be unique"),
    ],
    ids=["no-freqs", "no-angles", "repeated-name"],
)
def test_database_rejects_empty_grids_and_repeated_names(materials, freqs, angles, match):
    with pytest.raises(ValueError, match=match):
        rldb.RLDatabase(materials, freqs, angles, np.ones((len(materials), len(freqs), len(angles))))


@pytest.mark.parametrize(
    "text, match",
    [
        ("#version=1\nmaterial,f_ghz,angle_deg,rl_db\nwood,100,0,15.3\n", "#kappa"),
        (_HEAD, "no data rows"),
        ("#version=1\n#kappa=0\n", "no data rows"),
    ],
    ids=["no-kappa", "header-only", "no-columns"],
)
def test_load_rejects_a_file_without_kappa_or_rows(tmp_path, text, match):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match=match):
        rldb.load(bad)


def test_frequency_grid_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="> 0 GHz"):
        rldb.RLDatabase([GLASS], [0.0, 100.0], [0.0], np.zeros((1, 2, 1)))
    bad = tmp_path / "bad.csv"
    bad.write_text(_HEAD + "wood,-5,0,5\n", encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match="> 0 GHz"):
        rldb.load(bad)


@pytest.mark.parametrize("kappa", ["nan", "inf", "-1"])
def test_load_rejects_a_bad_kappa_header_at_its_line(tmp_path, kappa):
    bad = tmp_path / "bad.csv"
    bad.write_text(_HEAD.replace("#kappa=0", f"#kappa={kappa}") + "wood,100,0,5\n", encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match="kappa") as info:
        rldb.load(bad)
    assert info.value.line == 2


@pytest.mark.parametrize("field", [1, 3, 5])
def test_load_rejects_a_non_finite_material_header_at_its_line(tmp_path, field):
    values = ["brick", "3.91", "0", "0.0238", "0.16", "0.0005"]
    values[field] = "nan"
    header = "#material=" + ",".join(values) + "\n"
    bad = tmp_path / "bad.csv"
    bad.write_text(_HEAD.replace("#kappa=0\n", "#kappa=0\n" + header) + "brick,100,0,5\n", encoding="utf-8")
    with pytest.raises(rldb.DatabaseFormatError, match="must be finite") as info:
        rldb.load(bad)
    assert info.value.line == 3


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_database_and_build_reject_a_bad_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
        rldb.RLDatabase([GLASS], [100.0], [0.0], np.ones((1, 1, 1)), kappa)
    with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
        rldb.build([GLASS], [100.0], [0.0], kappa)


def test_build_of_a_contrast_free_material_fails_on_finite_values():
    # power 0 takes log10(0): an inf cell, not a RuntimeWarning
    air = MaterialParams("air", a=1.0, b=0.0, c=0.0, d=0.0)
    with pytest.raises(ValueError, match="rl values must be finite"):
        rldb.build([air], [100.0], [0.0, 30.0])
