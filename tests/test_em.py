import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raymat import em
from raymat.materials import GLASS, PLASTER, PRESETS, WOOD, MaterialParams

from .oracles import (
    REFERENCE_ANGLES_DEG,
    REFERENCE_RL_100GHZ,
    fit_kappa_oracle,
    fresnel_rl_oracle,
    permittivity_oracle,
    roughness_db_oracle,
)

PRESET_LIST = [WOOD, PLASTER, GLASS]


# --- relative_permittivity ---------------------------------------------------


def test_permittivity_glass_100ghz():
    eta = em.relative_permittivity(GLASS, 100.0)
    assert eta.real == pytest.approx(6.27, abs=0)
    assert eta.imag == pytest.approx(-0.1876109329, abs=1e-9)


def test_permittivity_wood_100ghz():
    eta = em.relative_permittivity(WOOD, 100.0)
    assert eta.real == pytest.approx(1.99, abs=0)
    assert eta.imag == pytest.approx(-0.1176217253, abs=1e-9)


def test_permittivity_zero_conductivity_is_lossless():
    mat = MaterialParams("ideal", a=4.0, b=0.0, c=0.0, d=0.0)
    assert em.relative_permittivity(mat, 250.0).imag == 0.0


@pytest.mark.parametrize("f", [0.0, -3.0])
def test_permittivity_rejects_bad_frequency(f):
    with pytest.raises(ValueError):
        em.relative_permittivity(GLASS, f)


@pytest.mark.parametrize("f", [math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda f: em.relative_permittivity(GLASS, f),
        lambda f: em.reflection_loss(GLASS, f, 0.3),
        lambda f: em.phase_thickness(4 - 0.1j, 0.3, 0.01, f),
        lambda f: em.reflection_loss(WOOD, f, 0.3, kappa=1.0),
        lambda f: em.fspl(f, 10.0),
    ],
    ids=["permittivity", "reflection_loss", "phase_thickness", "roughness", "fspl"],
)
def test_frequency_must_be_finite(call, f):
    with pytest.raises(ValueError, match=r"frequency must be finite and > 0 GHz, got (inf|nan)"):
        call(f)


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("f", [28.0, 100.0, 1000.0])
def test_permittivity_matches_independent_oracle(name, f):
    eta = em.relative_permittivity(PRESETS[name], f)
    ref = permittivity_oracle(name, f)
    assert eta == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "mat, f, shown",
    [
        (MaterialParams("huge", 1e308, 1.0, 0.01, 1.0), 100.0, "100.0"),  # a * f^b is inf
        (WOOD, 1e308, "1e+308"),  # f^d overflows float's power
        (MaterialParams("lossy", 1.0, 0.0, 1e307, 1.0), 100.0, "100.0"),  # 17.98 * c * f^d is inf
    ],
    ids=["real-inf", "power-overflow", "imag-inf"],
)
def test_a_permittivity_past_float_range_names_material_and_frequency(mat, f, shown):
    message = f"material {mat.name!r} has no finite permittivity at {shown} GHz"
    for call in (
        lambda: em.relative_permittivity(mat, f),
        lambda: em.reflection_loss(mat, f, 0.3),
        lambda: em.reflection_loss(mat, f, np.array([0.0, 0.3])),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_permittivity_range_over_supported_band():
    # real part at least 1 and non-positive imaginary part (eta'' >= 0)
    for mat in PRESET_LIST:
        for f in np.geomspace(28.0, 1000.0, 25):
            eta = em.relative_permittivity(mat, float(f))
            assert eta.real >= 1.0
            assert eta.imag <= 0.0


# --- fresnel_thick -----------------------------------------------------------


def test_fresnel_normal_incidence_real_eta():
    r = em.fresnel_thick(6.27 + 0j, 0.0)
    expected = (1 - math.sqrt(6.27)) / (1 + math.sqrt(6.27))
    assert r.te == pytest.approx(-0.429223223867, abs=1e-9)
    assert r.te == pytest.approx(expected, abs=1e-12)
    assert r.tm == pytest.approx(-r.te, abs=1e-12)


def test_fresnel_no_contrast_is_zero():
    for theta in (0.0, 0.5, 1.2):
        r = em.fresnel_thick(1.0 + 0j, theta)
        assert abs(r.te) < 1e-15
        assert abs(r.tm) < 1e-15


def test_fresnel_normal_incidence_symmetry_presets():
    for mat in PRESET_LIST:
        for f in (28.0, 100.0, 1000.0):
            r = em.fresnel_thick(em.relative_permittivity(mat, f), 0.0)
            assert abs(r.tm + r.te) <= 1e-12


@pytest.mark.parametrize("theta", [-0.1, math.pi / 2, 2.0])
def test_fresnel_rejects_bad_angle(theta):
    with pytest.raises(ValueError):
        em.fresnel_thick(4.0 + 0j, theta)


# --- slab_coefficient --------------------------------------------------------


def test_slab_zero_thickness_is_exactly_zero():
    for mat in PRESET_LIST:
        eta = em.relative_permittivity(mat, 100.0)
        r = em.slab_coefficient(eta, 0.3, 0.0, 100.0)
        assert r.te == 0 and r.tm == 0


def test_slab_zero_thickness_is_zero_where_the_thick_coefficient_rounds_to_one():
    """A permittivity of 1e200 rounds the thick coefficients to exactly -1 (TE) and 1
    (TM), so the interference formula is 0/0 at h = 0. The slab still reflects
    nothing there, with no warning, and a thicker slab reflects as the thick one."""
    eta = em.relative_permittivity(MaterialParams("big", 1e200, 0.0, 0.01, 1.0), 100.0)
    thick = em.fresnel_thick(eta, 0.0)
    assert thick.te**2 == thick.tm**2 == 1
    r = em.slab_coefficient(eta, 0.0, 0.0, 100.0)
    assert isinstance(r.te, np.complex128) and r.te == 0 and r.tm == 0
    r = em.slab_coefficient(eta, 0.0, np.array([0.0, 5e-4]), 100.0)
    assert r.te.tolist() == [0, thick.te] and r.tm.tolist() == [0, thick.tm]


def test_slab_rejects_negative_thickness():
    with pytest.raises(ValueError):
        em.slab_coefficient(4.0 + 0j, 0.0, -1e-3, 100.0)


def test_slab_glass_1thz_within_band_beyond_settling():
    # beyond 1.4 mm the slab level stays within 0.2 dB of the thick value
    eta = em.relative_permittivity(GLASS, 1000.0)
    thick_db = em.amplitude_db(em.fresnel_thick(eta, 0.0).te)
    h = np.linspace(1.45e-3, 20e-3, 4000)
    r = em.slab_coefficient(eta, 0.0, h, 1000.0)
    assert np.max(np.abs(em.amplitude_db(r.te) - thick_db)) <= 0.2


def test_slab_converges_with_thickness_wood_100ghz():
    # deviation envelope near 50 mm sits below the envelope near 5 mm
    eta = em.relative_permittivity(WOOD, 100.0)
    thick = em.fresnel_thick(eta, 0.0).te

    def envelope(center):
        h = np.linspace(center * 0.9, center * 1.1, 2001)
        r = em.slab_coefficient(eta, 0.0, h, 100.0)
        return np.max(np.abs(r.te - thick))

    assert envelope(50e-3) < envelope(5e-3)


def test_slab_array_matches_scalar():
    eta = em.relative_permittivity(PLASTER, 100.0)
    h = np.array([0.0, 1e-3, 7e-3, 0.04])
    r = em.slab_coefficient(eta, 0.7, h, 100.0)
    for i, h_i in enumerate(h):
        r_i = em.slab_coefficient(eta, 0.7, float(h_i), 100.0)
        assert r.te[i] == pytest.approx(r_i.te, rel=1e-14, abs=1e-300)
        assert r.tm[i] == pytest.approx(r_i.tm, rel=1e-14, abs=1e-300)


@settings(max_examples=150, deadline=None)
@given(
    mat=st.sampled_from(PRESET_LIST),
    f=st.floats(28.0, 1000.0),
    theta=st.floats(0.0, math.radians(89.0)),
    h=st.floats(0.0, 1.0),
)
def test_passivity(mat, f, theta, h):
    eta = em.relative_permittivity(mat, f)
    thick = em.fresnel_thick(eta, theta)
    thin = em.slab_coefficient(eta, theta, h, f)
    for value in (thick.te, thick.tm, thin.te, thin.tm):
        assert abs(value) <= 1 + 1e-12


# --- reflection_loss ---------------------------------------------------------


def test_rl_glass_reference_endpoints():
    assert em.reflection_loss(GLASS, 100.0, 0.0) == pytest.approx(7.34, abs=0.02)
    assert em.reflection_loss(GLASS, 100.0, math.radians(80)) == pytest.approx(
        3.63, abs=0.02
    )


def test_rl_wood_80deg_smooth_model():
    # smooth-surface model gives 4.31; the rough-surface reference is 4.34
    loss = em.reflection_loss(WOOD, 100.0, math.radians(80))
    assert loss == pytest.approx(4.3068, abs=1e-3)
    assert abs(loss - 4.34) < 0.05


def test_rl_matches_independent_oracle_to_1e9():
    for theta_deg in REFERENCE_ANGLES_DEG:
        mine = em.reflection_loss(GLASS, 100.0, math.radians(theta_deg))
        ref = fresnel_rl_oracle("glass", 100.0, theta_deg)
        assert abs(mine - ref) <= 1e-9


def test_rl_nonincreasing_with_angle_at_100ghz():
    for mat in PRESET_LIST:
        row = [
            em.reflection_loss(mat, 100.0, math.radians(t))
            for t in REFERENCE_ANGLES_DEG
        ]
        assert all(row[i] >= row[i + 1] - 1e-12 for i in range(len(row) - 1))


def test_rl_contrast_free_material_is_infinite():
    air = MaterialParams("air", a=1.0, b=0.0, c=0.0, d=0.0)
    assert em.reflection_loss(air, 100.0, 0.3) == math.inf


@pytest.mark.parametrize("theta", [0.3, np.array([0.0, 0.3, 1.5])], ids=["float", "array"])
def test_rl_that_overflows_is_an_error_not_nan(theta):
    # a finite permittivity of 1e200 squares past float64 in the TM terms: inf / inf
    big = MaterialParams("big", 1e200, 0.0, 0.01, 1.0)
    message = "material 'big' has no finite reflection loss at 100.0 GHz (permittivity 1e+200-0.18j)"
    with pytest.raises(ValueError, match=re.escape(message)):
        em.reflection_loss(big, 100.0, theta)


@pytest.mark.parametrize("kappa", [0.0, em.FITTED_ROUGHNESS_KAPPA])
def test_rl_over_an_angle_array_is_bit_equal_to_scalar_calls(kappa):
    thetas = np.array([math.radians(a) for a in [*range(90), 0.5, 44.999, 88.9]])
    thin_air = MaterialParams("thin_air", 0.5, 0.0, 0.0, 0.0, roughness_sigma=1e-3)
    for mat in [*PRESET_LIST, thin_air]:
        for f in (28.0, 100.0, 140.0, 300.0, 1000.0):
            row = em.reflection_loss(mat, f, thetas, kappa=kappa)
            assert row.tolist() == [em.reflection_loss(mat, f, t, kappa=kappa) for t in thetas.tolist()]


def test_rl_array_math_matches_scalar_math():
    # reflection_loss's bit-equality rests on these pairs agreeing per element
    thetas = np.linspace(0.0, math.pi / 2, 2001)[:-1]
    assert np.cos(thetas).tolist() == [math.cos(t) for t in thetas.tolist()]
    assert np.sin(thetas).tolist() == [math.sin(t) for t in thetas.tolist()]
    w = np.array([em.relative_permittivity(m, 100.0) - s * s for m in PRESET_LIST for s in np.sin(thetas)])
    assert np.sqrt(w).tolist() == [cmath.sqrt(z) for z in w.tolist()]


def test_rl_angle_array_validation():
    with pytest.raises(ValueError, match=r"\[0, pi/2\) rad, got nan"):
        em.reflection_loss(GLASS, 100.0, np.array([0.1, math.nan]))
    with pytest.raises(ValueError, match="got -0.1"):
        em.reflection_loss(WOOD, 100.0, np.array([-0.1, 0.2]), kappa=1.0)
    with pytest.raises(ValueError, match="kappa must be finite"):
        em.reflection_loss(WOOD, 100.0, 0.3, kappa=math.nan)
    air = MaterialParams("air", a=1.0, b=0.0, c=0.0, d=0.0)
    assert em.reflection_loss(air, 100.0, np.array([0.0, 0.3])).tolist() == [math.inf] * 2


@pytest.mark.parametrize("theta", [-0.1, math.pi / 2, 2.0, math.nan])
def test_rl_rejects_a_float_angle_outside_the_quarter_turn(theta):
    with pytest.raises(ValueError, match=r"\[0, pi/2\) rad, got"):
        em.reflection_loss(GLASS, 100.0, theta)


def _roughness_db(mat, f, theta, kappa):
    """The roughness term of reflection_loss: its loss less the smooth material's."""
    smooth = dataclasses.replace(mat, roughness_sigma=0.0)
    return em.reflection_loss(mat, f, theta, kappa) - em.reflection_loss(smooth, f, theta, 0.0)


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("f", [28.0, 100.0, 1000.0])
def test_roughness_attenuation_matches_independent_oracle(name, f):
    mat, kappa = PRESETS[name], em.FITTED_ROUGHNESS_KAPPA
    smooth = dataclasses.replace(mat, roughness_sigma=0.0)
    degrees = [0.0, 30.0, 60.0, 85.0]
    expected = [roughness_db_oracle(name, f, d, kappa) for d in degrees]
    for d, want in zip(degrees, expected):
        theta = math.radians(d)
        assert _roughness_db(mat, f, theta, kappa) == pytest.approx(want, abs=1e-12)
        assert em.reflection_loss(smooth, f, theta, kappa) == em.reflection_loss(mat, f, theta, 0.0)
    got = _roughness_db(mat, f, np.radians(degrees), kappa)
    assert got.tolist() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "mat, kappa", [(GLASS, em.FITTED_ROUGHNESS_KAPPA), (WOOD, 0.0)], ids=["glass-sigma-0", "kappa-0"]
)
def test_vanishing_roughness_of_an_angle_array_is_an_array_of_zeros(mat, kappa):
    assert mat.roughness_sigma == 0 or kappa == 0
    got = _roughness_db(mat, 100.0, np.radians([[0.0, 30.0, 60.0], [85.0, 10.0, 45.0]]), kappa)
    assert isinstance(got, np.ndarray) and got.shape == (2, 3) and got.tolist() == [[0.0] * 3] * 2
    assert _roughness_db(mat, 100.0, 0.3, kappa) == 0.0


def test_vanishing_roughness_is_zero_where_sigma_squared_overflows():
    # (sigma*cos/lambda)^2 is inf here, so 0 * inf would give nan
    rough = dataclasses.replace(WOOD, roughness_sigma=1e200)
    assert _roughness_db(rough, 100.0, 0.3, 0.0) == 0.0
    assert _roughness_db(rough, 100.0, np.array([0.0, 0.3]), 0.0).tolist() == [0.0, 0.0]


def test_fitted_kappa_reproducible():
    refit = fit_kappa_oracle()
    assert refit == pytest.approx(em.FITTED_ROUGHNESS_KAPPA, abs=1e-4)


def test_fitted_kappa_reproduces_rough_reference_rows():
    kappa = em.FITTED_ROUGHNESS_KAPPA
    for name in ("wood", "plaster"):
        mat = PRESETS[name]
        for theta_deg, ref in zip(REFERENCE_ANGLES_DEG, REFERENCE_RL_100GHZ[name]):
            loss = em.reflection_loss(mat, 100.0, math.radians(theta_deg), kappa=kappa)
            assert loss == pytest.approx(ref, abs=0.15)


def test_roughness_zero_kappa_is_noop():
    theta = math.radians(30)
    assert em.reflection_loss(WOOD, 100.0, theta, kappa=0.0) == em.reflection_loss(
        WOOD, 100.0, theta
    )
    with pytest.raises(ValueError, match="kappa must be finite and >= 0, got -1.0"):
        em.reflection_loss(WOOD, 100.0, theta, kappa=-1.0)


def test_lossless_total_reflection_is_positive_zero_loss():
    # a lossless medium optically thinner than air reflects totally beyond
    # 45 deg: -10*log10(1.0) is -0.0, and the roughness term adds +0.0
    thin_air = MaterialParams("thin_air", 0.5, 0.0, 0.0, 0.0, roughness_sigma=1e-3)
    loss = em.reflection_loss(thin_air, 100.0, math.radians(50))
    assert loss == 0.0 and math.copysign(1.0, loss) == 1.0
    with pytest.raises(ValueError, match="kappa"):
        em.reflection_loss(WOOD, 100.0, math.radians(30), kappa=-1.0)


# --- fspl and extract_total_rl ------------------------------------------------


def test_fspl_values():
    assert em.fspl(100.0, 10.0) == pytest.approx(92.4, abs=1e-12)
    assert em.fspl(1.0, 1.0) == pytest.approx(32.4, abs=1e-12)


def test_fspl_distance_doubling():
    base = em.fspl(140.0, 3.7)
    assert em.fspl(140.0, 7.4) - base == pytest.approx(20 * math.log10(2), abs=1e-12)


@pytest.mark.parametrize("f,d", [(0.0, 1.0), (-1.0, 1.0), (10.0, 0.0), (10.0, -2.0)])
def test_fspl_rejects_nonpositive(f, d):
    with pytest.raises(ValueError):
        em.fspl(f, d)


def test_extract_total_rl_reference_trajectory():
    assert em.extract_total_rl(30.0, 30.0 - 92.4 - 14.68, 100.0, 10.0) == pytest.approx(14.68, abs=1e-9)


def test_extract_total_rl_lossless_limit():
    assert em.extract_total_rl(20.0, 20.0 - em.fspl(140.0, 25.0), 140.0, 25.0) == 0.0


def test_extract_total_rl_rejects_overpowered_rx():
    with pytest.raises(em.InconsistentMeasurementError):
        em.extract_total_rl(20.0, 20.0 - em.fspl(140.0, 25.0) + 0.5, 140.0, 25.0)


@settings(max_examples=100, deadline=None)
@given(
    p_tx=st.floats(-20.0, 50.0),
    f=st.floats(28.0, 1000.0),
    d=st.floats(0.5, 500.0),
    rl=st.floats(0.0, 60.0),
)
def test_extract_total_rl_round_trips_known_loss(p_tx, f, d, rl):
    assert em.extract_total_rl(p_tx, p_tx - em.fspl(f, d) - rl, f, d) == pytest.approx(rl, abs=1e-9)


# --- misc ---------------------------------------------------------------------


def test_amplitude_db():
    assert em.amplitude_db(0.1) == pytest.approx(-20.0, abs=1e-12)
    assert em.amplitude_db(0.0) == -math.inf
    arr = em.amplitude_db(np.array([1.0, 0.1]))
    assert arr[1] == pytest.approx(-20.0, abs=1e-12)


def test_a_float_thickness_gives_python_number_subclasses():
    eta = em.relative_permittivity(GLASS, 100.0)
    r = em.slab_coefficient(eta, 0.3, 1e-3, 100.0)
    assert isinstance(r.te, complex) and isinstance(r.tm, complex)
    assert isinstance(em.amplitude_db(r.te), float)
    assert isinstance(em.reflection_loss(WOOD, 100.0, 0.3, 1.0), float)


def test_transverse_root_branch():
    # lossy material: root must sit in the fourth quadrant (decay into slab)
    for mat in PRESET_LIST:
        eta = em.relative_permittivity(mat, 100.0)
        s = cmath.sqrt(eta - math.sin(0.9) ** 2)
        if s.real < 0:
            s = -s
        assert s.real > 0
        assert s.imag <= 0
