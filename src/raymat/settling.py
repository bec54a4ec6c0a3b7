"""Settling thickness: where a slab's reflection stops depending on thickness.

The reflection coefficient of a thin slab oscillates with thickness because of
internal multiple reflections; absorption damps the oscillation, so beyond some
thickness the reflection stays inside a tolerance band around the thick
surface's loss, ``em.reflection_loss``, the program's one formula for it.
``settling_thickness`` finds the smallest such thickness on a grid; the
oscillation rules out root-finding. The band is checked at every grid point
from the answer on, not between grid points: a peak that grazes the
tolerance between two points can be missed (ROADMAP item 3 measured 44 of
1080 preset queries leaving the band past the answer, by at most 0.0014 dB).
The search stops where the decay envelope proves the band holds: with
|d| = exp(-2*alpha*h) the internal round-trip factor and |r| <= 1 (true of
both thick-slab coefficients for any permittivity, up to rounding, since the
principal root s = sqrt(eta - sin^2(theta)) has Re s >= 0), the
slab-to-thick power ratio lies within
[((1-|d|)/(1+|d|))^2, ((1+|d|)/(1-|d|))^2], so no grid point past the
thickness where that range narrows to +/-tol/2 dB can leave the band. The
answer follows the last out-of-band point, so the search evaluates the upper
half of the grid first and the lower half only if the upper half is all in
band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import em
from .materials import MaterialParams


# Largest thickness grid a query may ask for: each float64 or complex array
# over it is 80-160 MB, and the search holds several at once.
MAX_GRID_POINTS = 10**7


class NotSettledError(Exception):
    """No envelope bound exists, so the band would never provably hold."""


@dataclass(frozen=True)
class SettlingQuery:
    """Inputs of a settling-thickness search.

    ``grid_step_m`` defaults to wavelength/100 when left as None.
    """

    material: MaterialParams
    f_ghz: float
    theta_i: float = 0.0
    tol_db: float = 0.2
    grid_step_m: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.tol_db < math.inf:
            raise ValueError(f"tol_db must be finite and > 0, got {self.tol_db}")


def default_grid_step(f_ghz: float) -> float:
    """Default thickness resolution: one hundredth of the free-space wavelength."""
    return em.SPEED_OF_LIGHT / (f_ghz * 1e9) / 100.0


def _envelope_bound(
    material: MaterialParams, f_ghz: float, theta_i: float, tol_db: float
) -> float:
    """Thickness past which the deviation, at most 20*log10((1+|d|)/(1-|d|)),
    stays within tol_db/2 (see the module docstring).

    Raises:
        NotSettledError: naming why no such thickness exists: the slab field
            does not decay (alpha = -Im q per metre is < 0 for a gain medium,
            0 for a lossless one).
    """
    eta = em.relative_permittivity(material, f_ghz)
    alpha = -float(np.imag(em.phase_thickness(eta, theta_i, 1.0, f_ghz)))
    if alpha < 0:
        raise NotSettledError(
            f"material {material.name!r} has gain at {f_ghz} GHz; the slab "
            "field grows with thickness and never settles"
        )
    if alpha == 0:
        raise NotSettledError(
            f"material {material.name!r} is lossless at {f_ghz} GHz; the slab "
            "coefficient oscillates forever and never settles"
        )
    # (1+|d|)/(1-|d|) = 10^(tol/40) = 1 + g. A larger tol only lowers the
    # bound, so taking it at no more than 1e4 dB keeps it sound and g finite.
    g = math.expm1(min(tol_db, 1e4) / 40 * math.log(10))
    return math.log1p(2 / g) / (2 * alpha)


def _band_deviation_db(
    eta: complex, thick_db: float, f_ghz: float, theta_i: float, h_grid: np.ndarray
) -> np.ndarray:
    """|dB(slab) - dB(thick)| of the unpolarized power on the grid, for the
    permittivity eta and the thick surface's loss thick_db (em.reflection_loss)."""
    thin = em.slab_coefficient(eta, theta_i, h_grid, f_ghz)
    with np.errstate(divide="ignore"):
        level = 10 * np.log10((np.abs(thin.te) ** 2 + np.abs(thin.tm) ** 2) / 2)
    return np.abs(level + thick_db)


def settling_thickness(query: SettlingQuery) -> float:
    """Smallest grid thickness from which the band holds at every thicker grid point.

    Returns the smallest grid point h* such that every grid point from h* on
    keeps the slab's unpolarized reflection within tol_db of the thick surface's
    loss, ``em.reflection_loss(material, f_ghz, theta_i)``. Reported
    at grid resolution; the band is not checked between grid points (see the
    module docstring). The grid stops one point past the envelope bound:
    points beyond it are in band by construction and never computed. The upper
    half of the grid is searched first; the lower half is computed only when
    no upper point leaves the band.

    Raises:
        NotSettledError: (named in the message) if the material has gain or
            is lossless, so that no bound exists, or if its thick surface reflects
            nothing (an infinite loss), before the grid is sized.
        ValueError: ``em``'s, naming the material and frequency, if the
            permittivity or the thick surface's loss is not finite, before the
            grid is sized; or if the grid step is not finite and > 0, or the
            grid up to the bound has more than MAX_GRID_POINTS points.
    """
    bound = _envelope_bound(query.material, query.f_ghz, query.theta_i, query.tol_db)
    eta = em.relative_permittivity(query.material, query.f_ghz)
    thick_db = em.reflection_loss(query.material, query.f_ghz, query.theta_i)
    if thick_db == math.inf:  # the slab levels are -inf too, and -inf + inf, NaN, would count as in band
        raise NotSettledError(
            f"material {query.material.name!r} reflects nothing at {query.f_ghz} GHz: with no "
            "impedance contrast its thick loss is infinite and the slab never settles to it"
        )
    step = (
        query.grid_step_m
        if query.grid_step_m is not None
        else default_grid_step(query.f_ghz)
    )
    if not 0 < step < math.inf:
        raise ValueError(f"grid_step must be finite and > 0, got {step} m")
    extent = max(bound, step)
    points = extent / step
    if not points <= MAX_GRID_POINTS:
        raise ValueError(
            f"settling grid of {points:.3g} points (bound {bound:.6g} m, step "
            f"{step:.6g} m) exceeds {MAX_GRID_POINTS:.0e}; set a coarser grid "
            "step (--grid-step)"
        )
    grid = np.arange(step, extent + step, step)  # h* may be the point past the bound
    half = len(grid) // 2
    for start, stop in ((half, len(grid)), (0, half)):
        if start == stop:
            continue
        deviation = _band_deviation_db(eta, thick_db, query.f_ghz, query.theta_i, grid[start:stop])
        exceeding = np.nonzero(deviation > query.tol_db)[0]
        if len(exceeding):
            return float(grid[start + exceeding[-1] + 1])
    return float(grid[0])


def thickness_sweep(
    material: MaterialParams,
    f_ghz: float,
    theta_i: float,
    h_grid_m,
) -> list[tuple[float, float, float]]:
    """Per-thickness (h_m, te_db, tm_db) amplitude levels of the slab coefficient.

    h = 0 yields -inf dB per polarization (no reflected wave).
    """
    grid = np.asarray(h_grid_m, dtype=float)
    if grid.size == 0:
        raise ValueError("thickness grid must be non-empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("thickness grid must be strictly ascending")
    eta = em.relative_permittivity(material, f_ghz)
    coeffs = em.slab_coefficient(eta, theta_i, grid, f_ghz)
    te_db, tm_db = em.amplitude_db(coeffs.te), em.amplitude_db(coeffs.tm)
    return [
        (float(h), float(te), float(tm)) for h, te, tm in zip(grid, te_db, tm_db)
    ]
