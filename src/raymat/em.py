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


@dataclass(frozen=True)
class LinkBudget:
    """Decomposition of a measured link into its loss terms (dB/dBm)."""

    p_tx_dbm: float
    p_rx_dbm: float
    pl_db: float
    fspl_db: float
    rl_total_db: float
    f_ghz: float
    distance_m: float


def _check_frequency(f_ghz: float) -> None:
    if not f_ghz > 0:
        raise ValueError(f"frequency must be > 0 GHz, got {f_ghz}")


def _check_angle(theta_i: float) -> None:
    if not 0 <= theta_i < math.pi / 2:
        raise ValueError(
            f"incident angle must be in [0, pi/2) rad, got {theta_i}"
        )


def relative_permittivity(mat: MaterialParams, f_ghz: float) -> complex:
    """Complex relative permittivity eta' - j*eta'' at frequency f (GHz).

    eta' = a*f^b and eta'' = 17.98*sigma/f with conductivity sigma = c*f^d,
    per the ITU-R P.2040 coefficient model.
    """
    _check_frequency(f_ghz)
    real = mat.a * f_ghz**mat.b
    imag = 17.98 * mat.c * f_ghz**mat.d / f_ghz
    return complex(real, -imag)


def _transverse_root(eta: complex, theta_i: float) -> complex:
    """Principal sqrt(eta - sin^2(theta)); Re >= 0 keeps slab fields decaying."""
    s = cmath.sqrt(eta - math.sin(theta_i) ** 2)
    if s.real < 0:
        s = -s
    return s


def fresnel_thick(eta: complex, theta_i: float) -> ReflectionCoefficients:
    """Fresnel coefficients of an effectively infinite slab, air incidence.

    te = (cos(t) - s) / (cos(t) + s) and tm = (eta*cos(t) - s) / (eta*cos(t) + s)
    with s = sqrt(eta - sin^2(t)).
    """
    return ReflectionCoefficients(*_fresnel_te_tm(eta, theta_i))


def _fresnel_te_tm(eta: complex, theta_i: float) -> tuple[complex, complex]:
    """(te, tm) of fresnel_thick, without building a ReflectionCoefficients."""
    _check_angle(theta_i)
    s = _transverse_root(eta, theta_i)
    cos_t = math.cos(theta_i)
    return (cos_t - s) / (cos_t + s), (eta * cos_t - s) / (eta * cos_t + s)


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

    ``h_m`` may be a scalar (returns complex fields) or an ndarray (returns
    ndarray fields of the same shape).
    """
    h = np.asarray(h_m, dtype=float)
    if np.any(h < 0):
        raise ValueError("slab thickness must be >= 0")
    r = fresnel_thick(eta, theta_i)
    q = phase_thickness(eta, theta_i, h, f_ghz)
    decay = np.exp(-2j * q)
    te = r.te * (1 - decay) / (1 - r.te**2 * decay)
    tm = r.tm * (1 - decay) / (1 - r.tm**2 * decay)
    if np.isscalar(h_m) or np.ndim(h_m) == 0:
        return ReflectionCoefficients(te=complex(te), tm=complex(tm))
    return ReflectionCoefficients(te=te, tm=tm)


def amplitude_db(value) -> float:
    """Amplitude in dB, 20*log10|value|; -inf for zero."""
    mag = np.abs(value)
    with np.errstate(divide="ignore"):
        out = 20 * np.log10(mag)
    if np.ndim(value) == 0:
        return float(out)
    return out


def roughness_attenuation_db(
    sigma_m: float, theta_i: float, f_ghz: float, kappa: float
) -> float:
    """Extra loss in dB of the specular component over a rough surface.

    Attenuation factor rho = exp(-kappa*(sigma*cos(theta)/lambda)^2); returns
    -20*log10(rho) >= 0. kappa = 0 disables roughness entirely.
    """
    if kappa < 0:
        raise ValueError("roughness kappa must be >= 0")
    _check_frequency(f_ghz)
    _check_angle(theta_i)
    if kappa == 0 or sigma_m == 0:
        return 0.0
    lam = SPEED_OF_LIGHT / (f_ghz * 1e9)
    x = sigma_m * math.cos(theta_i) / lam
    return 20 * math.log10(math.e) * kappa * x * x


def reflection_loss(
    mat: MaterialParams,
    f_ghz: float,
    theta_i: float,
    kappa: float = 0.0,
) -> float:
    """Unpolarized reflection loss in dB of one specular bounce off a thick surface.

    The loss is the power average of the two Fresnel coefficients,
    -10*log10((|te|^2 + |tm|^2)/2); ``fresnel_thick`` gives each polarization.
    A non-zero ``kappa`` adds the roughness attenuation for the material's
    roughness_sigma.
    """
    te, tm = _fresnel_te_tm(relative_permittivity(mat, f_ghz), theta_i)
    power = (abs(te) ** 2 + abs(tm) ** 2) / 2
    if power == 0:  # no impedance contrast: nothing reflects
        return math.inf
    loss = -10 * math.log10(power)
    rough = roughness_attenuation_db(mat.roughness_sigma, theta_i, f_ghz, kappa) if kappa else 0.0
    return loss + rough  # + 0.0 turns a lossless -0.0 into 0.0


def fspl(f_ghz: float, distance_m: float) -> float:
    """Free-space path loss in dB: 32.4 + 20*log10(f_GHz) + 20*log10(d_m)."""
    _check_frequency(f_ghz)
    if not distance_m > 0:
        raise ValueError(f"distance must be > 0 m, got {distance_m}")
    return 32.4 + 20 * math.log10(f_ghz) + 20 * math.log10(distance_m)


def extract_total_rl(
    p_tx_dbm: float, p_rx_dbm: float, f_ghz: float, distance_m: float
) -> LinkBudget:
    """Split a power measurement into path loss, FSPL, and total reflection loss.

    PL = p_tx - p_rx, total RL = PL - FSPL over the full trajectory length.

    Raises:
        InconsistentMeasurementError: if the implied RL is negative beyond
            numeric tolerance (more power received than free space allows).
    """
    free_space = fspl(f_ghz, distance_m)
    pl = p_tx_dbm - p_rx_dbm
    rl_total = pl - free_space
    if rl_total < -1e-9:
        raise InconsistentMeasurementError(
            f"PL - FSPL = {rl_total:.6g} dB < 0: received power exceeds the "
            f"free-space bound for f={f_ghz} GHz, d={distance_m} m"
        )
    return LinkBudget(
        p_tx_dbm=p_tx_dbm,
        p_rx_dbm=p_rx_dbm,
        pl_db=pl,
        fspl_db=free_space,
        rl_total_db=max(rl_total, 0.0),
        f_ghz=f_ghz,
        distance_m=distance_m,
    )
