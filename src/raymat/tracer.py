"""Deterministic image-method ray tracing for multi-bounce specular paths.

Facet sequences are walked depth first, mirroring the transmitter across each
facet plane once per image prefix (the visibility tree of beam tracing,
Funkhouser et al. 1998). For each sequence the line from the last image to the
receiver is folded back through the chain, and the reflection points are
validated (inside the polygon, genuine crossings, and no leg occluded by any
other facet). Facets reflect on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import mirror_point, ray_plane_parameter, unit
from .scene import Facet, Scene

OCCLUSION_EPS = 1e-6  # m; keeps reflection points from occluding their own legs

__all__ = ["Hop", "Trajectory", "trace", "check_settling", "OCCLUSION_EPS"]


@dataclass(frozen=True, eq=False)
class Hop:
    """One specular reflection: where, off which facet, at what angle."""

    point: np.ndarray
    facet_id: str
    theta_i: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A TX-to-RX specular path with ordered reflection points."""

    tx: np.ndarray
    rx: np.ndarray
    hops: tuple[Hop, ...]
    segment_lengths: tuple[float, ...]
    total_length: float

    @property
    def bounces(self) -> int:
        return len(self.hops)

    @property
    def facet_ids(self) -> tuple[str, ...]:
        return tuple(h.facet_id for h in self.hops)


def _segment_blocked(scene: Scene, start: np.ndarray, end: np.ndarray) -> bool:
    """True if any facet cuts the open segment, OCCLUSION_EPS away from both ends."""
    direction = end - start
    for facet in scene.facets:
        t = ray_plane_parameter(start, direction, facet.plane_point, facet.normal)
        if t is None or not 0.0 < t < 1.0:
            continue
        point = start + t * direction
        near_end = min(np.linalg.norm(point - start), np.linalg.norm(point - end))
        if near_end > OCCLUSION_EPS and facet.contains(point):
            return True
    return False


def _trajectory(
    scene: Scene,
    sequence: tuple[Facet, ...],
    images: tuple[np.ndarray, ...],
    rx: np.ndarray,
) -> Trajectory | None:
    """The specular path off ``sequence``, or None if there is none.

    ``images[j]`` is the transmitter mirrored across the first j facets.
    """
    points = [rx]  # reflection points, folded back from the receiver
    for facet, origin in zip(reversed(sequence), reversed(images[1:])):
        direction = points[-1] - origin
        t = ray_plane_parameter(origin, direction, facet.plane_point, facet.normal)
        if t is None or not 1e-12 < t < 1.0 - 1e-12:
            return None
        rp = origin + t * direction
        if not facet.contains(rp):
            return None
        points.append(rp)
    path = [images[0], *reversed(points)]
    legs = [b - a for a, b in zip(path, path[1:])]
    lengths = [float(np.linalg.norm(leg)) for leg in legs]
    if any(length <= OCCLUSION_EPS for length in lengths):
        return None
    thetas = []
    for leg, facet in zip(legs, sequence):
        cos_t = abs(float(unit(leg) @ facet.normal))
        if cos_t < 1e-12:
            return None  # grazing
        thetas.append(math.acos(min(cos_t, 1.0)))
    if any(_segment_blocked(scene, a, b) for a, b in zip(path, path[1:])):
        return None
    hops = tuple(
        Hop(point=rp, facet_id=facet.facet_id, theta_i=theta)
        for rp, facet, theta in zip(path[1:-1], sequence, thetas)
    )
    return Trajectory(
        tx=path[0], rx=rx, hops=hops,
        segment_lengths=tuple(lengths), total_length=float(sum(lengths)),
    )


def trace(scene: Scene, tx, rx, max_bounces: int = 2) -> list[Trajectory]:
    """All specular trajectories between tx and rx with 1..max_bounces hops.

    Output is sorted by (bounce count, total length, facet id sequence) and is
    fully deterministic. Consecutive bounces off the same facet are excluded.

    Raises:
        ValueError: if tx == rx, either endpoint is outside the scene bounds,
            or max_bounces is outside [1, 4].
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    if tx.shape != (3,) or rx.shape != (3,):
        raise ValueError("tx and rx must be 3D points")
    if float(np.linalg.norm(tx - rx)) < 1e-12:
        raise ValueError("tx and rx must be distinct")
    if not 1 <= max_bounces <= 4:
        raise ValueError(f"max_bounces must be in [1, 4], got {max_bounces}")
    for label, p in (("tx", tx), ("rx", rx)):
        if not scene.contains(p):
            raise ValueError(f"{label} {p.tolist()} is outside the scene bounds")

    found: list[Trajectory] = []

    def extend(sequence: tuple[Facet, ...], images: tuple[np.ndarray, ...]) -> None:
        for facet in scene.facets:
            if sequence and facet is sequence[-1]:
                continue
            longer = (*sequence, facet)
            deeper = (*images, mirror_point(images[-1], facet.plane_point, facet.normal))
            if (trajectory := _trajectory(scene, longer, deeper, rx)) is not None:
                found.append(trajectory)
            if len(longer) < max_bounces:
                extend(longer, deeper)

    extend((), (tx,))
    found.sort(key=lambda t: (t.bounces, t.total_length, t.facet_ids))
    return found


def check_settling(
    scene: Scene, settling_by_material: dict[str, float]
) -> list[tuple[str, bool | None]]:
    """Compare each facet's thickness with its material's settling thickness.

    ``settling_by_material`` maps material label to the settling thickness in
    meters at the frequency of interest (see settling.settling_table). Returns
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
