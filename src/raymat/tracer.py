"""Deterministic image-method ray tracing for multi-bounce specular paths.

Facet sequences are traced depth first in blocks of at most BLOCK_ROWS rows. Each
block is mirrored and folded back from the receiver together, and the legs of
every row that may be valid are tested against every facet at once. A leg meets
the plane of a facet it reflects off at one of its own ends only at that end, so
those facets never occlude it, in the batch or in the exact check. Rows that are
certainly invalid, or have a certainly occluded leg, are dropped. The exact check
then rebuilds each survivor: its reflection points must lie inside their polygons
and be genuine crossings, and only the legs the batch could not call clear get the
exact occlusion test. Facets reflect on both sides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import GRAZING_COS, mirror_point, ray_plane_parameter, unit
from .scene import Facet, Scene

OCCLUSION_EPS = 1e-6  # m; other facets met this near a leg's ends (a neighbour at a hop's edge) do not occlude it
PRUNE_TOL = 1e-7  # m; far above rounding differences between batched and exact tests
BLOCK_ROWS = 2048  # most facet sequences in one batch

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


def _crossings(scene: Scene, a, b, f, growth, near=0.0):
    """Whether segments a->b may or must cross facets f, their crossing points and growth.

    growth bounds how far rounding differences from the exact test have grown:
    2|b - a| / |n @ (b - a)| per crossing, so near-parallel rows get an inf or NaN
    bound. The margin PRUNE_TOL * growth is taken both ways: ``may`` is False only if
    the crossing lies outside the segment, within ``near`` of an end, or outside a
    half-plane of f, by more than the margin; ``must`` is True only if it lies beyond
    ``near`` from both ends and inside every half-plane, by more than the margin, and
    growth is finite. a, b and f broadcast together. A leg's crossing with a facet at
    its own end has reach about 0, so ``may`` keeps it; _survivors clears it.
    """
    side_a, side_b = (np.einsum("...j,...j", p, scene.normals[f]) - scene.plane_offsets[f] for p in (a, b))
    length = np.linalg.norm(d := b - a, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = side_a / (side_a - side_b)
        growth = 2 * growth * length / np.abs(side_a - side_b)
        reach, margin = np.minimum(t, 1 - t) * length, PRUNE_TOL * growth
        point = a + t[..., None] * d
        inside = np.einsum("...kj,...j->...k", scene.inward[f], point) - scene.offsets[f]
        # Facet.slack is 1e-9 per metre of edge scale; widen it by PRUNE_TOL * growth
        widened = scene.slack[f] * (1 + growth[..., None] * (PRUNE_TOL / 1e-9))
        may = ~(reach < near - margin) & ~(inside < -widened).any(axis=-1)
        must = (reach > near + margin) & (inside >= widened).all(axis=-1) & np.isfinite(growth)
    return may, must, point, growth


def _segment_blocked(scene: Scene, start: np.ndarray, end: np.ndarray, ends) -> bool:
    """True if a facet other than those in ``ends`` cuts the open segment, OCCLUSION_EPS
    away from both ends."""
    direction = end - start
    maybe, _, _, _ = _crossings(scene, start, end, slice(None), 1.0, OCCLUSION_EPS)
    for facet in (scene.facets[i] for i in np.flatnonzero(maybe)):
        if facet in ends:  # Facet compares by identity
            continue
        t = ray_plane_parameter(start, direction, facet.plane_point, facet.normal)
        if t is None or not 0.0 < t < 1.0:
            continue
        point = start + t * direction
        near_end = min(np.linalg.norm(point - start), np.linalg.norm(point - end))
        if near_end > OCCLUSION_EPS and facet.contains(point):
            return True
    return False


def _survivors(scene: Scene, seqs: np.ndarray, images: np.ndarray, rx: np.ndarray):
    """The rows of seqs that may have a specular path, and two (rows, legs) masks of
    their legs, from the transmitter: certainly blocked, and certainly clear.

    ``images[:, j]`` is the transmitter mirrored across the first j facets of each row.
    Each hop's facet is cleared from the legs into and out of it.
    """
    rows, growth, points = np.arange(len(seqs)), 1.0, [np.broadcast_to(rx, (len(seqs), 3))]
    for j in reversed(range(seqs.shape[1])):  # fold back from the receiver
        ok, _, point, growth = _crossings(scene, images[rows, j + 1], points[-1], seqs[rows, j], growth)
        rows, growth, points = rows[ok], growth[ok], [p[ok] for p in (*points, point)]
    path = np.stack([images[rows, 0], *reversed(points)], axis=1)  # the last growth bounds every hop
    may, must, _, _ = _crossings(
        scene, path[:, :-1, None], path[:, 1:, None], slice(None), growth[:, None, None], OCCLUSION_EPS
    )
    r, hop, ends = np.arange(len(rows))[:, None], np.arange(seqs.shape[1]), seqs[rows]
    for mask, leg in itertools.product((may, must), (hop, hop + 1)):
        mask[r, leg, ends] = False
    return rows, must.any(axis=2), ~may.any(axis=2)


def _blocks(scene: Scene, seqs: np.ndarray, images: np.ndarray, max_bounces: int):
    """Yield (sequences, images) for seqs, then, depth first, for their extensions
    up to max_bounces facets with no immediate repeat. Parents are cut into chunks
    before they are extended, so a block of children has at most BLOCK_ROWS rows,
    or one parent's children if those are more.

    ``images[:, j]`` is the transmitter mirrored across the first j facets of each
    row; the image across the last facet is added here.
    """
    n, last = scene.normals[seqs[:, -1]], images[:, -1]
    side = np.sum(last * n, axis=1) - scene.plane_offsets[seqs[:, -1]]
    images = np.concatenate([images, (last - 2 * side[:, None] * n)[:, None]], axis=1)
    yield seqs, images
    if seqs.shape[1] < max_bounces:
        every = np.arange(len(scene.facets))
        chunk = max(1, BLOCK_ROWS // max(1, len(every) - 1))  # parents per block of children
        for start in range(0, len(seqs), chunk):
            parent, nxt = np.nonzero(seqs[start : start + chunk, -1:] != every)  # no immediate repeat
            parent += start
            yield from _blocks(scene, np.column_stack([seqs[parent], nxt]), images[parent], max_bounces)


def _trajectory(
    scene: Scene, sequence: tuple[Facet, ...], tx: np.ndarray, rx: np.ndarray, clear=()
) -> Trajectory | None:
    """The specular path from tx off ``sequence`` to rx, or None if there is none.

    Legs, from the transmitter, flagged True in ``clear`` are known unoccluded and
    skip the exact occlusion test; every other leg gets it, against every facet but
    the ones it reflects off at its own ends.
    """
    images = [tx]  # the transmitter mirrored across the first j facets
    for facet in sequence:
        images.append(mirror_point(images[-1], facet.plane_point, facet.normal))
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
    path = [tx, *reversed(points)]
    legs = [b - a for a, b in zip(path, path[1:])]
    lengths = [float(np.linalg.norm(leg)) for leg in legs]
    if any(length <= OCCLUSION_EPS for length in lengths):
        return None
    thetas = []
    for leg, facet in zip(legs, sequence):
        cos_t = abs(float(unit(leg) @ facet.normal))
        if cos_t < GRAZING_COS:
            return None
        thetas.append(math.acos(min(cos_t, 1.0)))
    clear = itertools.chain(clear, itertools.repeat(False))
    for leg, (a, b, c) in enumerate(zip(path, path[1:], clear)):
        if not c and _segment_blocked(scene, a, b, sequence[max(leg - 1, 0) : leg + 1]):
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
    first = np.arange(len(scene.facets))[:, None]
    for seqs, images in _blocks(scene, first, np.tile(tx, (len(first), 1, 1)), max_bounces):
        rows, blocked, clear = _survivors(scene, seqs, images, rx)
        open_rows = ~blocked.any(axis=1)
        for row, clear_legs in zip(rows[open_rows], clear[open_rows]):  # the exact check
            sequence = tuple(scene.facets[i] for i in seqs[row])
            if (trajectory := _trajectory(scene, sequence, tx, rx, clear_legs)) is not None:
                found.append(trajectory)
    found.sort(key=lambda t: (t.bounces, t.total_length, t.facet_ids))
    return found
