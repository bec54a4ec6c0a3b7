import io
import math

import numpy as np
import pytest

from raymat import em, settling
from raymat.materials import GLASS, PLASTER, PRESETS, WOOD, MaterialParams

from .oracles import REFERENCE_SETTLING_MM


def solve(mat, f_ghz, tol_db=0.2, **kwargs):
    return settling.settling_thickness(
        settling.SettlingQuery(material=mat, f_ghz=f_ghz, tol_db=tol_db, **kwargs)
    )


def test_glass_1thz_reference():
    h = solve(GLASS, 1000.0)
    step = settling.default_grid_step(1000.0)
    assert abs(h - 1.4e-3) <= max(0.15 * 1.4e-3, step)


def test_wood_100ghz_reference():
    h = solve(WOOD, 100.0)
    step = settling.default_grid_step(100.0)
    assert abs(h - 21e-3) <= max(0.15 * 21e-3, step)


def test_huge_tolerance_returns_first_grid_point():
    h = solve(GLASS, 100.0, tol_db=1e6, h_max_m=0.05, grid_step_m=1e-4)
    assert h == pytest.approx(1e-4, rel=1e-12)


def test_band_membership_replay():
    # every grid point from the returned thickness up to the ceiling stays in band
    query = settling.SettlingQuery(material=PLASTER, f_ghz=100.0, tol_db=0.2)
    h_star = settling.settling_thickness(query)
    step = settling.default_grid_step(100.0)
    h_max = settling.default_h_max(PLASTER, 100.0, 0.0, 0.2, step)
    grid = np.arange(step, h_max + step / 2, step)
    eta = em.relative_permittivity(PLASTER, 100.0)
    thin = em.slab_coefficient(eta, 0.0, grid, 100.0)
    thick = em.fresnel_thick(eta, 0.0)
    level = 10 * np.log10((np.abs(thin.te) ** 2 + np.abs(thin.tm) ** 2) / 2)
    ref = 10 * math.log10((abs(thick.te) ** 2 + abs(thick.tm) ** 2) / 2)
    deviation = np.abs(level - ref)
    assert np.all(deviation[grid >= h_star - step / 2] <= 0.2)
    # and the grid point right below h* violates the band
    below = (grid >= h_star - 1.5 * step) & (grid < h_star - step / 2)
    assert deviation[below][-1] > 0.2


def test_frequency_ordering_strictly_decreasing():
    for mat in (WOOD, PLASTER, GLASS):
        h28 = solve(mat, 28.0)
        h100 = solve(mat, 100.0)
        h1000 = solve(mat, 1000.0)
        assert h28 > h100 > h1000


@pytest.mark.parametrize("name", sorted(REFERENCE_SETTLING_MM))
@pytest.mark.parametrize("f", [28.0, 100.0, 1000.0])
def test_reference_settling_values(name, f):
    h_mm = solve(PRESETS[name], f) * 1e3
    ref_mm = REFERENCE_SETTLING_MM[name][f]
    step_mm = settling.default_grid_step(f) * 1e3
    assert abs(h_mm - ref_mm) <= max(0.15 * ref_mm, step_mm)


def test_tolerance_monotonicity():
    for tol_lo, tol_hi in [(0.1, 0.2), (0.2, 0.5), (0.5, 2.0)]:
        assert solve(GLASS, 100.0, tol_db=tol_hi) <= solve(GLASS, 100.0, tol_db=tol_lo)


def test_not_settled_when_ceiling_too_small():
    with pytest.raises(settling.NotSettledError, match="increase h_max"):
        solve(GLASS, 100.0, h_max_m=2e-3, grid_step_m=1e-5)


def test_lossless_material_never_settles():
    ideal = MaterialParams("ideal", a=4.0, b=0.0, c=0.0, d=0.0)
    with pytest.raises(settling.NotSettledError, match="lossless"):
        settling.default_h_max(ideal, 100.0)
    # an explicit ceiling runs the search, which names the cause, not the ceiling
    with pytest.raises(settling.NotSettledError, match=r"worst deviation .* dB\); material 'ideal' is lossless"):
        solve(ideal, 100.0, h_max_m=0.05, grid_step_m=2e-5)


def test_degenerate_grid_rejected():
    with pytest.raises(ValueError, match="grid_step"):
        solve(GLASS, 100.0, h_max_m=1e-3, grid_step_m=2e-3)
    with pytest.raises(ValueError, match="tol_db"):
        settling.SettlingQuery(material=GLASS, f_ghz=100.0, tol_db=0.0)


def test_settling_table_builds_per_material():
    table = settling.settling_table([WOOD, GLASS], 1000.0)
    assert set(table) == {"wood", "glass"}
    assert table["glass"] < table["wood"]


def test_sweep_zero_thickness_marker():
    rows = settling.thickness_sweep(GLASS, 1000.0, 0.0, [0.0, 1e-3])
    assert rows[0][1] == -math.inf and rows[0][2] == -math.inf
    assert math.isfinite(rows[1][1])


def test_sweep_glass_1thz_enters_band():
    grid = np.arange(0.0, 5e-3, 1e-5)
    rows = settling.thickness_sweep(GLASS, 1000.0, 0.0, grid)
    thick_db = em.amplitude_db(
        em.fresnel_thick(em.relative_permittivity(GLASS, 1000.0), 0.0).te
    )
    assert thick_db == pytest.approx(-7.34, abs=0.01)
    in_band = [abs(te - thick_db) <= 0.2 for h, te, tm in rows if h >= 1.45e-3]
    assert all(in_band)
    out_of_band = [abs(te - thick_db) > 0.2 for h, te, tm in rows if 0 < h < 1.3e-3]
    assert any(out_of_band)


def test_sweep_off_normal_converges_to_thick_values():
    # oblique panels: each polarization settles onto its own thick-slab level
    for theta_deg in (45.0, 85.0):
        theta = math.radians(theta_deg)
        eta = em.relative_permittivity(PLASTER, 100.0)
        thick = em.fresnel_thick(eta, theta)
        h_far = 10 * settling.settling_thickness(
            settling.SettlingQuery(material=PLASTER, f_ghz=100.0, theta_i=theta)
        )
        rows = settling.thickness_sweep(PLASTER, 100.0, theta, [h_far])
        (_, te_db, tm_db) = rows[0]
        assert te_db == pytest.approx(em.amplitude_db(thick.te), abs=0.01)
        assert tm_db == pytest.approx(em.amplitude_db(thick.tm), abs=0.01)
        assert te_db != pytest.approx(tm_db, abs=0.5)  # polarizations split


def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="non-empty"):
        settling.thickness_sweep(GLASS, 100.0, 0.0, [])
    with pytest.raises(ValueError, match="ascending"):
        settling.thickness_sweep(GLASS, 100.0, 0.0, [1e-3, 1e-3])


def test_band_deviation_shrinks_as_interval_doubles():
    # max deviation over [H, 2H] is non-increasing for doubling H and ends
    # below 0.05 dB at H = 4x the settling thickness
    for mat in (WOOD, PLASTER, GLASS):
        for f in (28.0, 100.0, 1000.0):
            h_settle = solve(mat, f)
            eta = em.relative_permittivity(mat, f)
            thick = em.fresnel_thick(eta, 0.0)
            ref = 10 * math.log10((abs(thick.te) ** 2 + abs(thick.tm) ** 2) / 2)
            step = settling.default_grid_step(f)

            def max_dev(h_lo, h_hi):
                grid = np.arange(h_lo, h_hi, step)
                thin = em.slab_coefficient(eta, 0.0, grid, f)
                level = 10 * np.log10(
                    (np.abs(thin.te) ** 2 + np.abs(thin.tm) ** 2) / 2
                )
                return float(np.max(np.abs(level - ref)))

            devs = [max_dev(m * h_settle, 2 * m * h_settle) for m in (1, 2, 4)]
            assert devs[0] >= devs[1] >= devs[2]
            assert devs[2] <= 0.05


def _full_grid_search(query):
    """The search over every grid point up to h_max, with no envelope bound:
    the thickness, or ("not settled", worst tail deviation)."""
    step = query.grid_step_m or settling.default_grid_step(query.f_ghz)
    h_max = query.h_max_m or settling.default_h_max(
        query.material, query.f_ghz, query.theta_i, query.tol_db, step
    )
    grid = np.arange(step, h_max + step / 2, step)
    eta = em.relative_permittivity(query.material, query.f_ghz)
    thin = em.slab_coefficient(eta, query.theta_i, grid, query.f_ghz)
    thick = em.fresnel_thick(eta, query.theta_i)
    level = 10 * np.log10((np.abs(thin.te) ** 2 + np.abs(thin.tm) ** 2) / 2)
    deviation = np.abs(level - 10 * math.log10((abs(thick.te) ** 2 + abs(thick.tm) ** 2) / 2))
    tail = grid >= h_max / 2
    if np.any(deviation[tail] > query.tol_db):
        return ("not settled", float(np.max(deviation[tail])))
    exceeding = np.nonzero(deviation > query.tol_db)[0]
    return float(grid[0]) if len(exceeding) == 0 else float(grid[exceeding[-1] + 1])


def _bounded_search(query):
    try:
        return settling.settling_thickness(query)
    except settling.NotSettledError as err:
        return ("not settled", str(err))


def _agree(query):
    want, got = _full_grid_search(query), _bounded_search(query)
    if isinstance(want, tuple):
        return isinstance(got, tuple) and f"worst deviation {want[1]:.3g} dB" in got[1]
    return got == want


@pytest.mark.parametrize("mat", [WOOD, PLASTER, GLASS], ids=lambda m: m.name)
def test_bounded_search_equals_the_full_grid_search(mat):
    queries = [
        settling.SettlingQuery(material=mat, f_ghz=f, theta_i=math.radians(t), tol_db=tol)
        for f in np.geomspace(28.0, 1000.0, 40).tolist()
        for tol in (0.05, 0.1, 0.2, 0.5, 1.0, 3.0)
        for t in (0.0, 30.0, 60.0, 85.0)
    ]
    # explicit ceilings and steps, several of them too low to settle
    explicit = [
        settling.SettlingQuery(mat, f, 0.3, tol, h_max_m=h_max, grid_step_m=step)
        for f in (28.0, 100.0, 300.0, 1000.0)
        for h_max in (2e-3, 1e-2, 5e-2, 0.2)
        for step in (1e-5, 1e-4)
        for tol in (0.1, 0.5)
    ]
    # steps so coarse that h* can be the first grid point past the bound
    explicit += [
        settling.SettlingQuery(mat, f, 0.3, tol, h_max_m=0.5, grid_step_m=step)
        for f in (300.0, 1000.0)
        for step in (1e-3, 2e-3, 5e-3, 1e-2)
        for tol in (0.1, 0.5, 3.0)
    ]
    disagree = [q for q in queries + explicit if not _agree(q)]
    assert disagree == []
    assert sum(isinstance(_full_grid_search(q), tuple) for q in explicit) >= 10


@pytest.mark.parametrize(
    "mat",
    [
        MaterialParams("gain", 4.0, 0.0, -0.01, 1.0),  # grows into the slab: no bound
        MaterialParams("lossless", 4.0, 0.0, 0.0, 0.0),  # no decay: no bound
        MaterialParams("near_air", 1.01, 0.0, 0.002, 1.0),
        MaterialParams("metal_like", 5.0, 0.0, 50.0, 0.0),
    ],
    ids=lambda m: m.name,
)
def test_bounded_search_equals_the_full_grid_search_off_the_presets(mat):
    for f in (28.0, 100.0, 1000.0):
        for tol in (0.05, 0.5, 3.0):
            query = settling.SettlingQuery(mat, f, 0.4, tol, h_max_m=0.05, grid_step_m=2e-5)
            assert _agree(query)


def test_envelope_bound_applies_only_to_decaying_slabs():
    gain = MaterialParams("gain", 4.0, 0.0, -0.01, 1.0)  # the slab field grows
    lossless = MaterialParams("lossless", 4.0, 0.0, 0.0, 0.0)  # it keeps its level
    assert settling._envelope_bound(gain, 100.0, 0.4, 0.2) is None
    assert settling._envelope_bound(lossless, 100.0, 0.4, 0.2) is None
    assert settling._envelope_bound(GLASS, 100.0, 0.4, 0.2) > 0
    assert settling._envelope_bound(GLASS, 100.0, 0.4, 1e6) >= 0  # no overflow


@pytest.mark.parametrize("mat", [WOOD, PLASTER, GLASS], ids=lambda m: m.name)
@pytest.mark.parametrize("f", [28.0, 100.0, 1000.0])
@pytest.mark.parametrize("theta_deg", [0.0, 60.0, 85.0])
@pytest.mark.parametrize("tol", [0.05, 0.2, 3.0])
def test_deviation_past_the_envelope_bound_is_within_half_the_band(mat, f, theta_deg, tol):
    theta = math.radians(theta_deg)
    bound = settling._envelope_bound(mat, f, theta, tol)
    step = settling.default_grid_step(f) / 7  # off the search grid
    grid = np.arange(bound, 3 * bound, step)
    deviation = settling._band_deviation_db(mat, f, theta, grid)
    assert deviation.size > 100 and np.max(deviation) <= tol / 2


def test_oversized_grid_fails_before_allocating(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(settling.np, "arange", no_grid)
    lowloss = MaterialParams("lowloss", 2.0, 0.0, 1e-7, 0.0)
    # the default ceiling here is about 670 km: a 6.3e9-point grid at 0.1 mm
    with pytest.raises(ValueError, match=r"6\.\d+e\+09 points.*--grid-step.*--h-max"):
        solve(lowloss, 28.0)
    with pytest.raises(ValueError, match=r"1e\+08 points"):
        solve(GLASS, 100.0, h_max_m=1.0, grid_step_m=1e-8)
    with pytest.raises(ValueError, match="inf points"):
        solve(GLASS, 100.0, h_max_m=math.inf, grid_step_m=1e-4)


def test_csv_writers():
    buf = io.StringIO()
    settling.write_sweep_csv([(0.001, -7.5, -7.5)], buf)
    assert buf.getvalue() == "h_m,te_db,tm_db\n0.001,-7.5,-7.5\n"
    buf = io.StringIO()
    settling.write_settling_csv([("glass", 1000.0, 0.0, 0.2, 0.00144)], buf)
    assert buf.getvalue().splitlines()[1] == "glass,1000,0,0.2,0.00144"
