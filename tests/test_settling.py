import math
from collections import Counter

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
    h = solve(GLASS, 100.0, tol_db=1e6, grid_step_m=1e-4)
    assert h == pytest.approx(1e-4, rel=1e-12)


def test_band_membership_replay():
    # every grid point from the returned thickness up to 3x the envelope bound
    # stays in band
    query = settling.SettlingQuery(material=PLASTER, f_ghz=100.0, tol_db=0.2)
    h_star = settling.settling_thickness(query)
    step = settling.default_grid_step(100.0)
    h_max = 3 * settling._envelope_bound(PLASTER, 100.0, 0.0, 0.2)
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


def _no_grid(*args, **kwargs):
    raise AssertionError("a grid was allocated")


@pytest.fixture
def searched_blocks(monkeypatch):
    """Every grid settling_thickness hands _band_deviation_db, in call order."""
    blocks = []
    deviation = settling._band_deviation_db

    def spy(material, f_ghz, theta_i, grid):
        blocks.append(grid)
        return deviation(material, f_ghz, theta_i, grid)

    monkeypatch.setattr(settling, "_band_deviation_db", spy)
    return blocks


def _search(query, blocks):
    """h* and where the search found it: at grid[0] when no point leaves the
    band, else in the upper or lower half, which held the last such point."""
    blocks.clear()
    h = settling.settling_thickness(query)
    assert 1 <= len(blocks) <= 2
    return h, "grid[0]" if h == blocks[-1][0] else ("upper", "lower")[len(blocks) - 1]


def test_search_walks_the_grid_to_one_point_past_the_bound(searched_blocks):
    halves = []
    for tol in (0.2, 17.0):
        query = settling.SettlingQuery(PLASTER, 100.0, 0.0, tol, grid_step_m=1e-5)
        h, where = _search(query, searched_blocks)
        halves.append(where)
        bound = settling._envelope_bound(PLASTER, 100.0, 0.0, tol)
        top = searched_blocks[0]  # the upper half comes first
        assert top[-2] < bound <= top[-1] and h <= top[-1]
        # the blocks tile the grid from the top, with no overlap
        grid = np.arange(1e-5, bound + 1e-5, 1e-5)
        assert top.size == grid.size - grid.size // 2
        searched = np.concatenate(searched_blocks[::-1])
        assert np.array_equal(searched, grid[grid.size - searched.size:])
    assert halves == ["upper", "lower"]


def test_lossless_material_never_settles(monkeypatch):
    # refused with its cause before any grid is allocated, whatever the step
    monkeypatch.setattr(settling.np, "arange", _no_grid)
    ideal = MaterialParams("ideal", a=4.0, b=0.0, c=0.0, d=0.0)
    for step in (None, 2e-5):
        with pytest.raises(settling.NotSettledError, match="material 'ideal' is lossless"):
            solve(ideal, 100.0, grid_step_m=step)


def test_lossless_slab_past_total_internal_reflection_settles():
    # a < sin^2(theta): the field in the slab is evanescent and decays, so a
    # c = 0 material settles; its thick |r| is 1, here 1 ulp over by rounding
    tir = MaterialParams("tir", a=0.5, b=0.0, c=0.0, d=0.0)
    theta = math.radians(65.0)
    thick = em.fresnel_thick(em.relative_permittivity(tir, 100.0), theta)
    assert max(abs(thick.te), abs(thick.tm)) > 1
    query = settling.SettlingQuery(tir, 100.0, theta, 0.2)
    assert settling.settling_thickness(query) == _full_grid_search(query)


def test_thick_coefficients_never_exceed_one_beyond_rounding():
    # the envelope bound needs |r| <= 1; Re sqrt(eta - sin^2) >= 0 gives it
    # for lossy, lossless and gain permittivities alike
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3000):
        eta = complex(rng.uniform(0.05, 50.0), rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0, 20))
        thick = em.fresnel_thick(eta, rng.uniform(0, 1.5))
        worst = max(worst, abs(thick.te), abs(thick.tm))
    assert worst <= 1 + 4 * np.finfo(float).eps


def test_degenerate_grid_rejected():
    for step in (0.0, -1e-4, math.inf, math.nan):
        with pytest.raises(ValueError, match="grid_step must be finite and > 0"):
            solve(GLASS, 100.0, grid_step_m=step)
    with pytest.raises(ValueError, match="tol_db"):
        settling.SettlingQuery(material=GLASS, f_ghz=100.0, tol_db=0.0)


@pytest.mark.parametrize("tol", [0.0, -0.2, math.inf, math.nan])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match=f"tol_db must be finite and > 0, got {tol}"):
        settling.SettlingQuery(material=GLASS, f_ghz=100.0, tol_db=tol)


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
    """The search over every grid point up to 3x the envelope bound (the span
    test_deviation_past_the_envelope_bound_is_within_half_the_band proves in
    band), not stopping at the bound itself."""
    step = query.grid_step_m or settling.default_grid_step(query.f_ghz)
    bound = settling._envelope_bound(query.material, query.f_ghz, query.theta_i, query.tol_db)
    h_max = 3 * max(bound, step)
    grid = np.arange(step, h_max + step / 2, step)
    eta = em.relative_permittivity(query.material, query.f_ghz)
    thin = em.slab_coefficient(eta, query.theta_i, grid, query.f_ghz)
    thick = em.fresnel_thick(eta, query.theta_i)
    level = 10 * np.log10((np.abs(thin.te) ** 2 + np.abs(thin.tm) ** 2) / 2)
    deviation = np.abs(level - 10 * math.log10((abs(thick.te) ** 2 + abs(thick.tm) ** 2) / 2))
    assert np.all(deviation[grid >= h_max / 2] <= query.tol_db)  # the reference settled
    exceeding = np.nonzero(deviation > query.tol_db)[0]
    return float(grid[0]) if len(exceeding) == 0 else float(grid[exceeding[-1] + 1])


def _agree(query):
    return settling.settling_thickness(query) == _full_grid_search(query)


@pytest.mark.parametrize("mat", [WOOD, PLASTER, GLASS], ids=lambda m: m.name)
def test_bounded_search_equals_the_full_grid_search(mat, searched_blocks):
    queries = [
        settling.SettlingQuery(material=mat, f_ghz=f, theta_i=math.radians(t), tol_db=tol)
        for f in np.geomspace(28.0, 1000.0, 40).tolist()
        for tol in (0.05, 0.1, 0.2, 0.5, 1.0, 3.0, 6.0, 10.0, 17.0, 20.0)
        for t in (0.0, 30.0, 60.0, 85.0)
    ]
    explicit = [
        settling.SettlingQuery(mat, f, 0.3, tol, grid_step_m=step)
        for f in (28.0, 100.0, 300.0, 1000.0)
        for step in (1e-5, 1e-4)
        for tol in (0.1, 0.5)
    ]
    # steps so coarse that h* can be the first grid point past the bound
    coarse = [
        settling.SettlingQuery(mat, f, 0.3, tol, grid_step_m=step)
        for f in (300.0, 1000.0)
        for step in (1e-3, 2e-3, 5e-3, 1e-2)
        for tol in (0.1, 0.5, 3.0)
    ]
    disagree, where = [], Counter()
    for q in queries + explicit + coarse:
        h, half = _search(q, searched_blocks)
        where[half] += 1
        if h != _full_grid_search(q):
            disagree.append(q)
    assert disagree == []
    assert where["upper"] > 0 and where["lower"] > 0 and where["grid[0]"] > 0
    past_the_bound = [
        q for q in coarse
        if settling.settling_thickness(q)
        >= settling._envelope_bound(q.material, q.f_ghz, q.theta_i, q.tol_db)
    ]
    assert past_the_bound


@pytest.mark.parametrize(
    "f, theta_deg, tol",
    [(92.20872584116896, 0.0, 17.0), (261.628, 30.0, 20.0)],
    ids=["92GHz-17dB", "262GHz-20dB"],
)
def test_large_tolerance_settles_at_the_reference_thickness(f, theta_deg, tol):
    query = settling.SettlingQuery(PLASTER, f, math.radians(theta_deg), tol)
    assert settling.settling_thickness(query) == _full_grid_search(query)


@pytest.mark.parametrize(
    "mat",
    [
        MaterialParams("near_air", 1.01, 0.0, 0.002, 1.0),
        MaterialParams("metal_like", 5.0, 0.0, 50.0, 0.0),
    ],
    ids=lambda m: m.name,
)
def test_bounded_search_equals_the_full_grid_search_off_the_presets(mat, searched_blocks):
    where = Counter()
    for f in (28.0, 100.0, 1000.0):
        for tol in (0.05, 0.5, 3.0):
            query = settling.SettlingQuery(mat, f, 0.4, tol, grid_step_m=2e-5)
            h, half = _search(query, searched_blocks)
            where[half] += 1
            assert h == _full_grid_search(query)
    assert where["upper"] > 0 and where["lower"] > 0


def test_envelope_bound_applies_only_to_decaying_slabs():
    gain = MaterialParams("gain", 4.0, 0.0, -0.01, 1.0)  # the slab field grows
    lossless = MaterialParams("lossless", 4.0, 0.0, 0.0, 0.0)  # it keeps its level
    with pytest.raises(settling.NotSettledError, match="'gain' has gain .* grows with thickness"):
        settling._envelope_bound(gain, 100.0, 0.4, 0.2)
    with pytest.raises(settling.NotSettledError, match="'lossless' is lossless"):
        settling._envelope_bound(lossless, 100.0, 0.4, 0.2)
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
    monkeypatch.setattr(settling.np, "arange", _no_grid)
    lowloss = MaterialParams("lowloss", 2.0, 0.0, 1e-7, 0.0)
    # the envelope bound here is about 194 km: a 1.8e9-point grid at 0.1 mm
    with pytest.raises(ValueError, match=r"1\.8\de\+09 points.*\(--grid-step\)$"):
        solve(lowloss, 28.0)
    # glass at 100 GHz: a 32.8 mm bound at 1 nm steps
    with pytest.raises(ValueError, match=r"3\.28e\+07 points"):
        solve(GLASS, 100.0, grid_step_m=1e-9)
    # a bound of about 1.9e303 m: the point count overflows
    with pytest.raises(ValueError, match="inf points"):
        solve(MaterialParams("far", 2.0, 0.0, 1e-305, 0.0), 28.0, grid_step_m=1e-10)
