"""Reflection coefficients, reflection loss, and link-budget arithmetic.

All functions are pure. Conventions: frequencies in GHz, lengths in meters,
angles in radians measured from the surface normal, losses as positive dB,
coefficient magnitudes reported as amplitude dB (20*log10|r|).

Complex permittivity follows the engineering sign convention eta = eta' - j*eta''
with eta'' >= 0 for passive materials; square roots take the principal branch
(non-negative real part) so fields decay into the slab.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .materials import MaterialParams

SPEED_OF_LIGHT = 299_792_458.0  # m/s
_HALF_PI = math.pi / 2  # incident angles lie in [0, pi/2)

# Roughness coefficient kappa, least-squares fitted so that the built-in wood
# and plaster presets reproduce the bundled 100 GHz reflection-loss reference
# table (see tests/test_em.py::test_fitted_kappa_reproducible). Default kappa
# in reflection_loss remains 0 (roughness disabled).
FITTED_ROUGHNESS_KAPPA = 7.0870321


class InconsistentMeasurementError(ValueError):
    """Received power exceeds what free-space propagation alone allows."""


@dataclass(frozen=True)
class ReflectionCoefficients:
    """Complex amplitude reflection coefficients for TE and TM polarization."""

    te: complex
    tm: complex


def _check_frequency(f_ghz: float) -> None:
    if not 0 < f_ghz < math.inf:
        raise ValueError(f"frequency must be finite and > 0 GHz, got {f_ghz}")


def _check_angle(theta_i: float | np.ndarray) -> None:
    """An angle, or every angle of an ndarray, must lie in [0, pi/2) rad."""
    # Both sides run: a float per settling query, an ndarray per rldb.build row.
    if isinstance(theta_i, np.ndarray):
        bad = theta_i[~((theta_i >= 0) & (theta_i < _HALF_PI))]
        if bad.size:
            _check_angle(float(bad[0]))
    elif not 0 <= theta_i < _HALF_PI:
        raise ValueError(
            f"incident angle must be in [0, pi/2) rad, got {theta_i}"
        )


def check_kappa(kappa: float) -> None:
    """The roughness coefficient must be finite and >= 0."""
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"roughness kappa must be finite and >= 0, got {kappa}")


def relative_permittivity(mat: MaterialParams, f_ghz: float) -> complex:
    """Complex relative permittivity eta' - j*eta'' at frequency f (GHz).

    eta' = a*f^b and eta'' = 17.98*sigma/f with conductivity sigma = c*f^d,
    per the ITU-R P.2040 coefficient model. A part that is not finite (a power
    past float64's range) is a ValueError naming the material and frequency.
    """
    if not 0 < f_ghz < math.inf:  # inline: this sits on the per-hop path
        _check_frequency(f_ghz)
    try:
        real = mat.a * f_ghz**mat.b
        imag = 17.98 * mat.c * f_ghz**mat.d / f_ghz
    except OverflowError:
        real = imag = math.inf
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise ValueError(f"material {mat.name!r} has no finite permittivity at {f_ghz} GHz")
    return complex(real, -imag)


def _transverse_root(eta: complex, theta_i: float) -> complex:
    """Principal sqrt(eta - sin^2(theta)); its Re >= 0 keeps slab fields decaying."""
    return cmath.sqrt(eta - math.sin(theta_i) ** 2)


def fresnel_thick(eta: complex, theta_i: float) -> ReflectionCoefficients:
    """Fresnel coefficients of an effectively infinite slab, air incidence.

    te = (cos(t) - s) / (cos(t) + s) and tm = (eta*cos(t) - s) / (eta*cos(t) + s)
    with s = sqrt(eta - sin^2(t)).
    """
    _check_angle(theta_i)
    s = _transverse_root(eta, theta_i)
    cos_t = math.cos(theta_i)
    return ReflectionCoefficients(
        te=(cos_t - s) / (cos_t + s), tm=(eta * cos_t - s) / (eta * cos_t + s)
    )


def phase_thickness(eta: complex, theta_i: float, h_m, f_ghz: float):
    """One-way complex phase q = 2*pi*h*f*sqrt(eta - sin^2(theta))/c across the slab.

    ``h_m`` may be a scalar or an ndarray of thicknesses.
    """
    _check_frequency(f_ghz)
    _check_angle(theta_i)
    s = _transverse_root(eta, theta_i)
    return 2 * math.pi * np.asarray(h_m, dtype=float) * (f_ghz * 1e9) / SPEED_OF_LIGHT * s


def slab_coefficient(
    eta: complex, theta_i: float, h_m, f_ghz: float
) -> ReflectionCoefficients:
    """Reflection coefficients of a finite slab including internal interference.

    Per polarization r' = r*(1 - exp(-2jq)) / (1 - r^2*exp(-2jq)) with the
    Fresnel coefficient r of the thick slab and one-way phase q. Exactly zero
    at h = 0 and converging to the thick-slab value as h grows.

    ``h_m`` may be a float (gives np.complex128 fields, a subclass of complex)
    or an ndarray (gives ndarray fields of the same shape).
    """
    h = np.asarray(h_m, dtype=float)
    if np.any(h < 0):
        raise ValueError("slab thickness must be >= 0")
    r = fresnel_thick(eta, theta_i)
    decay = np.exp(-2j * phase_thickness(eta, theta_i, h, f_ghz))
    te = r.te * (1 - decay) / (1 - r.te**2 * decay)
    tm = r.tm * (1 - decay) / (1 - r.tm**2 * decay)
    return ReflectionCoefficients(te=te, tm=tm)


def amplitude_db(value):
    """Amplitude in dB, 20*log10|value|, -inf for zero: np.float64 for a scalar."""
    with np.errstate(divide="ignore"):
        return 20 * np.log10(np.abs(value))


def reflection_loss(
    mat: MaterialParams,
    f_ghz: float,
    theta_i: float | np.ndarray,
    kappa: float = 0.0,
) -> float | np.ndarray:
    """Unpolarized reflection loss in dB of one specular bounce off a thick surface.

    The loss is the power average of the two Fresnel coefficients,
    -10*log10((|te|^2 + |tm|^2)/2), taken in real arithmetic from
    s = sqrt(eta - sin^2(theta)) (``fresnel_thick`` gives each polarization).
    A non-zero ``kappa`` adds the roughness attenuation of the specular
    component, -20*log10(rho) >= 0 with rho = exp(-kappa*(sigma*cos(theta)/lambda)^2)
    for the material's roughness_sigma; kappa = 0 or sigma = 0 adds exactly 0.
    No impedance contrast (nothing reflects) gives inf. A permittivity so large
    that the TM terms overflow float64 is a ValueError naming the material and
    frequency, never a NaN.

    ``theta_i`` may be a float (returns a float) or an ndarray of angles
    (returns an ndarray of the same shape, each element bit-equal to the float
    call at that angle).
    """
    if kappa:  # 0 is valid; anything else is checked before any work
        check_kappa(kappa)
    eta = relative_permittivity(mat, f_ghz)
    # Both sides run: an ndarray per rldb.build row, a float per simulated hop,
    # where math costs a fifth of a 0-d array. numpy's sin, cos and sqrt give
    # math's and cmath's bits (tests/test_em.py checks it); the rest is IEEE ops.
    if type(theta_i) is not float and isinstance(theta_i, np.ndarray):
        _check_angle(theta_i)
        sin_t, cos_t = np.sin(theta_i), np.cos(theta_i)
        # an overflow ends in NaN, refused below; power 0 (no contrast) gives inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss = -10 * np.log10(_mean_power(eta, cos_t, np.sqrt(eta - sin_t * sin_t)))
        overflowed = np.isnan(loss).any()
    else:
        if not 0 <= theta_i < _HALF_PI:
            _check_angle(theta_i)
        sin_t, cos_t = math.sin(theta_i), math.cos(theta_i)
        power = _mean_power(eta, cos_t, cmath.sqrt(eta - sin_t * sin_t))
        if power == 0:
            return math.inf
        loss = -10 * float(np.log10(power))  # np.log10, as for an ndarray
        overflowed = loss != loss
    if overflowed:
        raise ValueError(f"material {mat.name!r} has no finite reflection loss at {f_ghz} GHz (permittivity {eta:.3g})")
    if kappa and mat.roughness_sigma:
        x = mat.roughness_sigma * cos_t / (SPEED_OF_LIGHT / (f_ghz * 1e9))
        return loss + 20 * math.log10(math.e) * kappa * x * x
    return loss + 0.0  # + 0.0 turns a lossless -0.0 into 0.0


def _mean_power(eta: complex, cos_t, s):
    """(|te|^2 + |tm|^2)/2 in real arithmetic, from s = sqrt(eta - sin^2(theta))."""
    p, q = s.real, s.imag
    c_minus, c_plus = cos_t - p, cos_t + p
    te2 = (c_minus * c_minus + q * q) / (c_plus * c_plus + q * q)
    a, b = eta.real * cos_t, -eta.imag * cos_t  # eta*cos(t) = a - jb
    a_minus, a_plus, b_plus, b_minus = a - p, a + p, b + q, b - q
    tm2 = (a_minus * a_minus + b_plus * b_plus) / (a_plus * a_plus + b_minus * b_minus)
    return (te2 + tm2) / 2


def fspl(f_ghz: float, distance_m: float) -> float:
    """Free-space path loss in dB: 32.4 + 20*log10(f_GHz) + 20*log10(d_m)."""
    _check_frequency(f_ghz)
    if not distance_m > 0:
        raise ValueError(f"distance must be > 0 m, got {distance_m}")
    return 32.4 + 20 * math.log10(f_ghz) + 20 * math.log10(distance_m)


def extract_total_rl(
    p_tx_dbm: float, p_rx_dbm: float, f_ghz: float, distance_m: float
) -> float:
    """Total reflection loss in dB left in a power measurement after free space.

    PL = p_tx - p_rx, total RL = PL - FSPL over the full trajectory length,
    clamped at 0.0 within the tolerance below.

    Raises:
        InconsistentMeasurementError: if the implied RL is negative beyond
            numeric tolerance (more power received than free space allows).
    """
    rl_total = (p_tx_dbm - p_rx_dbm) - fspl(f_ghz, distance_m)
    if rl_total < -1e-9:
        raise InconsistentMeasurementError(
            f"PL - FSPL = {rl_total:.6g} dB < 0: received power exceeds the "
            f"free-space bound for f={f_ghz} GHz, d={distance_m} m"
        )
    return max(rl_total, 0.0)
