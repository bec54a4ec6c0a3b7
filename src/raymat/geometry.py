"""Small 3D geometry kit: planes, convex polygons, mirrors.

Everything works on float64 numpy arrays of shape (3,). Polygons are convex,
planar, and wound counter-clockwise around their outward normal.
"""

from __future__ import annotations

import math

import numpy as np

COPLANARITY_TOL = 1e-9  # m
MIN_AREA = 1e-12  # m^2
GRAZING_COS = 1e-12  # |cos(theta)| below this is grazing: no specular reflection


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector; raises on (near-)zero input."""
    n = math.sqrt(v @ v)  # the bits of np.linalg.norm(v)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def validate_convex_polygon(vertices: np.ndarray) -> tuple[np.ndarray, float]:
    """Check finiteness, planarity, convexity, and non-degeneracy; return (normal, area)."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
        raise ValueError("polygon needs an (n, 3) array with n >= 3")
    if not np.isfinite(v).all():
        raise ValueError("polygon vertices must be finite")
    rel = v - v[0]  # offsets from a vertex, so far-out coordinates do not cancel
    normal = np.sum(np.cross(rel, np.roll(rel, -1, axis=0)), axis=0)  # Newell's method
    doubled_area = float(np.linalg.norm(normal))
    if doubled_area < 2 * MIN_AREA:
        raise ValueError("degenerate polygon (area below minimum)")
    normal, area = normal / doubled_area, doubled_area / 2
    offsets = rel @ normal
    if np.max(np.abs(offsets)) > COPLANARITY_TOL:
        raise ValueError(
            f"vertices not coplanar within {COPLANARITY_TOL} m "
            f"(max offset {np.max(np.abs(offsets)):.3g} m)"
        )
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    if np.any(lengths < 1e-12):
        raise ValueError("polygon has a zero-length edge")
    turns = np.cross(edges, np.roll(edges, -1, axis=0)) @ normal
    if np.any(turns < -1e-9 * lengths.max() ** 2):
        raise ValueError("polygon is not convex (or winding is inconsistent)")
    return normal, area


def mirror_point(point: np.ndarray, plane_point: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Reflect a point across the plane (plane_point, unit normal)."""
    d = float((point - plane_point) @ normal)
    return point - 2 * d * normal


def reflect_direction(direction: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Specular reflection of a direction vector about a unit normal."""
    return direction - 2 * float(direction @ normal) * normal


def ray_plane_parameter(
    origin: np.ndarray, direction: np.ndarray, plane_point: np.ndarray, normal: np.ndarray
) -> float | None:
    """Parameter t with origin + t*direction on the plane; None if |cos| to the normal
    is below GRAZING_COS, or if direction is zero (a mirrored image on the point it aims at)."""
    denom = float(direction @ normal)
    if not abs(denom) > GRAZING_COS * math.sqrt(direction @ direction):
        return None
    return float((plane_point - origin) @ normal) / denom
