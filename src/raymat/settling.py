"""Settling thickness: where a slab's reflection stops depending on thickness.

The reflection coefficient of a thin slab oscillates with thickness because of
internal multiple reflections; absorption damps the oscillation, so beyond some
thickness the coefficient stays inside a tolerance band around the thick-slab
Fresnel value. ``settling_thickness`` finds the smallest such thickness by
exhaustive grid search (the band must hold for *every* larger thickness, and
the oscillation rules out root-finding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import em
from .materials import MaterialParams
from .scene import Scene


class NotSettledError(Exception):
    """The tolerance band is not reached and held within the search ceiling."""


@dataclass(frozen=True)
class SettlingQuery:
    """Inputs of a settling-thickness search.

    ``h_max_m`` and ``grid_step_m`` default to an analytic decay estimate and
    wavelength/100 respectively when left as None.
    """

    material: MaterialParams
    f_ghz: float
    theta_i: float = 0.0
    tol_db: float = 0.2
    h_max_m: float | None = None
    grid_step_m: float | None = None

    def __post_init__(self) -> None:
        if not self.tol_db > 0:
            raise ValueError("tol_db must be > 0")


def default_grid_step(f_ghz: float) -> float:
    """Default thickness resolution: one hundredth of the free-space wavelength."""
    return em.SPEED_OF_LIGHT / (f_ghz * 1e9) / 100.0


def default_h_max(
    material: MaterialParams,
    f_ghz: float,
    theta_i: float = 0.0,
    tol_db: float = 0.2,
    grid_step_m: float | None = None,
) -> float:
    """Search ceiling: 4x an analytic decay estimate of the settling point.

    The oscillation envelope decays like exp(-2*alpha*h) with
    alpha = (2*pi*f/c)*|Im sqrt(eta - sin^2(theta))|, so the band is entered
    near ln(K/tol)/(2*alpha) for an envelope prefactor K <= ~17.4 dB.

    Raises:
        NotSettledError: for lossless materials (no decay, never settles).
    """
    eta = em.relative_permittivity(material, f_ghz)
    q_unit = em.phase_thickness(eta, theta_i, 1.0, f_ghz)
    alpha = abs(float(np.imag(q_unit)))
    if alpha <= 0:
        raise NotSettledError(
            f"material {material.name!r} is lossless at {f_ghz} GHz; the slab "
            "coefficient oscillates forever and never settles"
        )
    estimate = math.log(17.4 / min(tol_db, 17.4)) / (2 * alpha) if tol_db < 17.4 else 0.0
    step = grid_step_m if grid_step_m is not None else default_grid_step(f_ghz)
    return max(4 * estimate, 100 * step)


def _resolve_grid(query: SettlingQuery) -> tuple[np.ndarray, float]:
    step = (
        query.grid_step_m
        if query.grid_step_m is not None
        else default_grid_step(query.f_ghz)
    )
    h_max = (
        query.h_max_m
        if query.h_max_m is not None
        else default_h_max(query.material, query.f_ghz, query.theta_i, query.tol_db, step)
    )
    if not 0 < step < h_max:
        raise ValueError(f"need 0 < grid_step ({step}) < h_max ({h_max})")
    grid = np.arange(step, h_max + step / 2, step)
    return grid, h_max


def _band_deviation_db(
    material: MaterialParams,
    f_ghz: float,
    theta_i: float,
    h_grid: np.ndarray,
) -> np.ndarray:
    """|dB(slab) - dB(thick)| of the unpolarized power on the grid."""
    eta = em.relative_permittivity(material, f_ghz)
    thin = em.slab_coefficient(eta, theta_i, h_grid, f_ghz)
    thick = em.fresnel_thick(eta, theta_i)
    with np.errstate(divide="ignore"):
        level = 10 * np.log10((np.abs(thin.te) ** 2 + np.abs(thin.tm) ** 2) / 2)
    ref = 10 * math.log10((abs(thick.te) ** 2 + abs(thick.tm) ** 2) / 2)
    return np.abs(level - ref)


def settling_thickness(query: SettlingQuery) -> float:
    """Smallest grid thickness from which the band holds up to the ceiling.

    Returns the smallest grid point h* such that every grid point in
    [h*, h_max] keeps the slab coefficient within tol_db of the thick-slab
    value. Reported at grid resolution.

    Raises:
        NotSettledError: if the band is not held on [h_max/2, h_max], i.e. the
            ceiling is too small (or the material is lossless).
    """
    grid, h_max = _resolve_grid(query)
    deviation = _band_deviation_db(query.material, query.f_ghz, query.theta_i, grid)
    tail = grid >= h_max / 2
    if np.any(deviation[tail] > query.tol_db):
        worst = float(np.max(deviation[tail]))
        raise NotSettledError(
            f"band of +/-{query.tol_db} dB not held on [h_max/2, h_max] = "
            f"[{h_max / 2:.6g}, {h_max:.6g}] m (worst deviation {worst:.3g} dB); "
            "increase h_max"
        )
    exceeding = np.nonzero(deviation > query.tol_db)[0]
    if len(exceeding) == 0:
        return float(grid[0])
    return float(grid[exceeding[-1] + 1])


def settling_table(
    materials: list[MaterialParams],
    f_ghz: float,
    tol_db: float = 0.2,
    theta_i: float = 0.0,
) -> dict[str, float]:
    """Settling thickness per material name at one frequency."""
    return {
        m.name: settling_thickness(
            SettlingQuery(material=m, f_ghz=f_ghz, theta_i=theta_i, tol_db=tol_db)
        )
        for m in materials
    }


def check_settling(
    scene: Scene, settling_by_material: dict[str, float]
) -> list[tuple[str, bool | None]]:
    """Compare each facet's thickness with its material's settling thickness.

    ``settling_by_material`` maps material label to the settling thickness in
    meters at the frequency of interest (see settling_table). Returns
    (facet_id, ok) pairs in scene order; ok is None (indeterminate) for facets
    whose material has no entry.
    """
    report: list[tuple[str, bool | None]] = []
    for facet in scene.facets:
        threshold = settling_by_material.get(facet.material_label)
        if threshold is None:
            report.append((facet.facet_id, None))
        else:
            report.append((facet.facet_id, facet.thickness_m >= threshold))
    return report


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
    te_db = np.atleast_1d(em.amplitude_db(coeffs.te))
    tm_db = np.atleast_1d(em.amplitude_db(coeffs.tm))
    return [
        (float(h), float(te), float(tm)) for h, te, tm in zip(grid, te_db, tm_db)
    ]


def write_sweep_csv(rows: list[tuple[float, float, float]], fh) -> None:
    """Write sweep rows as CSV columns h_m, te_db, tm_db."""
    fh.write("h_m,te_db,tm_db\n")
    for h, te, tm in rows:
        fh.write(f"{h:.6g},{te:.6g},{tm:.6g}\n")


def write_settling_csv(
    results: list[tuple[str, float, float, float, float]], fh
) -> None:
    """Write settling results as CSV columns material, f_ghz, theta_deg, tol_db, h_m."""
    fh.write("material,f_ghz,theta_deg,tol_db,h_m\n")
    for name, f_ghz, theta_deg, tol_db, h_m in results:
        fh.write(f"{name},{f_ghz:.6g},{theta_deg:.6g},{tol_db:.6g},{h_m:.6g}\n")
