"""Deterministic image-method ray tracing for multi-bounce specular paths.

Facet sequences of one depth are mirrored and folded back from the receiver
together, and only certainly invalid ones are dropped. The survivors' reflection
points must then lie inside their polygons, be genuine crossings, and have no leg
occluded by another facet. Facets reflect on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import mirror_point, ray_plane_parameter, unit
from .scene import Facet, Scene

OCCLUSION_EPS = 1e-6  # m; keeps reflection points from occluding their own legs
PRUNE_TOL = 1e-7  # m; far above rounding differences between batched and exact tests

__all__ = ["Hop", "Trajectory", "trace", "OCCLUSION_EPS"]


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


def _may_cross(scene: Scene, a, b, f, growth, near=0.0):
    """Mask, crossing points and growth of the rows whose segment a->b may cross facet f.

    A row is dropped only if its crossing lies outside the segment, within ``near`` of
    an end, or outside a half-plane of f by more than PRUNE_TOL * growth. growth bounds
    how far rounding differences from the exact test have grown: 2|b - a| / |n @ (b - a)|
    per crossing, so near-parallel rows get an inf or NaN bound and are always kept.
    """
    side_a, side_b = (np.einsum("...j,...j", p, scene.normals[f]) - scene.plane_offsets[f] for p in (a, b))
    length = np.linalg.norm(d := b - a, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = side_a / (side_a - side_b)
        growth = 2 * growth * length / np.abs(side_a - side_b)
        ok = ~(np.minimum(t, 1 - t) * length < near - PRUNE_TOL * growth)
        point = a + t[:, None] * d
        inside = np.einsum("ijk,ik->ij", scene.inward[f], point) - scene.offsets[f]
        # Facet.slack is 1e-9 per metre of edge scale; widen it by PRUNE_TOL * growth
        ok &= ~(inside < -scene.slack[f] * (1 + growth[:, None] * (PRUNE_TOL / 1e-9))).any(axis=1)
    return ok, point, growth


def _segment_blocked(scene: Scene, start: np.ndarray, end: np.ndarray) -> bool:
    """True if any facet cuts the open segment, OCCLUSION_EPS away from both ends."""
    direction = end - start
    maybe, _, _ = _may_cross(scene, start, end, slice(None), 1.0, OCCLUSION_EPS)
    for facet in (scene.facets[i] for i in np.flatnonzero(maybe)):
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
    every = np.arange(len(scene.facets))
    stack = [(every[:, None], np.tile(tx, (len(every), 1, 1)))]  # (sequences, images)
    while stack:  # all first hops at once, then one subtree per first facet
        seqs, images = stack.pop()
        n, last = scene.normals[seqs[:, -1]], images[:, -1]
        side = np.sum(last * n, axis=1) - scene.plane_offsets[seqs[:, -1]]
        images = np.concatenate([images, (last - 2 * side[:, None] * n)[:, None]], axis=1)
        rows, point, growth = np.arange(len(seqs)), rx, 1.0
        for j in reversed(range(seqs.shape[1])):  # fold back from the receiver
            ok, point, growth = _may_cross(scene, images[rows, j + 1], point, seqs[rows, j], growth)
            rows, point, growth = rows[ok], point[ok], growth[ok]
        for row in rows:  # the exact check, on images from mirror_point
            sequence = tuple(scene.facets[i] for i in seqs[row])
            chain = [tx]
            for facet in sequence:
                chain.append(mirror_point(chain[-1], facet.plane_point, facet.normal))
            if (trajectory := _trajectory(scene, sequence, tuple(chain), rx)) is not None:
                found.append(trajectory)
        if seqs.shape[1] < max_bounces:
            parent, nxt = np.nonzero(seqs[:, -1:] != every)  # no immediate repeat
            children = np.column_stack([seqs[parent], nxt]), images[parent]
            subtrees = len(seqs) if seqs.shape[1] == 1 else 1  # one per first facet
            stack += zip(*(np.split(c, subtrees) for c in children))
    found.sort(key=lambda t: (t.bounces, t.total_length, t.facet_ids))
    return found
