"""Deterministic image-method ray tracing for multi-bounce specular paths.

Facet sequences are traced depth first over one image tree per transmitter, in blocks
of at most BLOCK_ROWS rows, one per sequence and receiver, each under one np.errstate.
A block is mirrored and folded back from its receivers together; then every path
node is projected once onto every facet's plane and edges, and a leg's crossings
interpolate its two nodes. A leg meets the plane of a facet it reflects off at one of
its own ends only at that end, so those facets never occlude it, in the batch or in
the exact check. Rows that are certainly invalid, or have a certainly occluded leg,
are dropped. The exact check then runs once per block, on arrays over the surviving
rows, with the bits of the scalar 3-vector calls (a stacked matmul row is the 1-D
``a @ b``): it rebuilds each row's images and reflection points, which must lie inside
their polygons and be genuine crossings, and only legs the batch could not call clear
get the exact occlusion test, a scalar loop. _trajectory is its one-row case. Facets
reflect on both sides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import GRAZING_COS, ray_plane_parameter
from .scene import Facet, Scene

OCCLUSION_EPS = 1e-6  # m; other facets met this near a leg's ends (a neighbour at a hop's edge) do not occlude it
PRUNE_TOL = 1e-7  # m; far above rounding differences between batched and exact tests
BLOCK_ROWS = 2048  # most rows, facet sequences times receivers, in one batch

__all__ = ["Hop", "Trajectory", "trace", "trace_many", "OCCLUSION_EPS"]


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


def _crossings(side_a, side_b, length, growth):
    """t along segments a->b where they cross the facets' planes, from the signed distances
    of a and b, and growth times 2|b - a| / |n @ (b - a)|: the bound on how far rounding
    differences from the exact test have grown, inf or NaN near parallel."""
    gap = side_a - side_b
    return side_a / gap, 2 * growth * length / np.abs(gap)


def _on_facets(t, length, inside, slack, growth, near=0.0):
    """Whether crossings at t along segments of the given length, with half-plane values
    ``inside`` (inward @ p - offsets, edges last), may or must lie on the facets.

    The margin PRUNE_TOL * growth goes both ways: ``may`` is False only if the crossing
    lies outside the segment, within ``near`` of an end, or outside a half-plane, by more
    than the margin; ``must`` is True only if it lies beyond ``near`` from both ends and
    inside every half-plane, by more than the margin, with growth finite. A crossing with
    a facet at the segment's own end has reach about 0, so ``may`` keeps it.
    """
    reach, margin = np.minimum(t, 1 - t) * length, PRUNE_TOL * growth
    # Facet.slack is 1e-9 per metre of edge scale; widen it by PRUNE_TOL * growth
    widened = slack * (1 + growth[..., None] * (PRUNE_TOL / 1e-9))
    may = ~((reach < near - margin) | (inside < -widened).any(axis=-1))  # NaN keeps a row
    must = (reach > near + margin) & (inside >= widened).all(axis=-1) & np.isfinite(growth)
    return may, must


def _segment_blocked(scene: Scene, start: np.ndarray, end: np.ndarray, ends) -> bool:
    """True if a facet other than those in ``ends`` cuts the open segment, OCCLUSION_EPS
    away from both ends."""
    direction = end - start
    for facet in scene.facets:
        if facet in ends:  # Facet compares by identity
            continue
        t = ray_plane_parameter(start, direction, facet.plane_point, facet.normal)
        if t is None or not 0.0 < t < 1.0:
            continue
        point = start + t * direction
        to_start, to_end = point - start, point - end
        near_end = math.sqrt(min(to_start @ to_start, to_end @ to_end))
        if near_end > OCCLUSION_EPS and facet.contains(point):
            return True
    return False


def _survivors(scene: Scene, seqs: np.ndarray, images: np.ndarray, rx: np.ndarray):
    """The rows of seqs that may have a specular path, and two (rows, legs) masks of
    their legs, from the transmitter: certainly blocked, and certainly clear.

    ``images[:, j]`` is the transmitter mirrored across the first j facets of each row,
    and ``rx`` is the receiver, or one per row. Each hop's facet is cleared from the
    legs into and out of it.
    """
    rows, growth, points = np.arange(len(seqs)), 1.0, [np.broadcast_to(rx, (len(seqs), 3))]
    with np.errstate(divide="ignore", invalid="ignore"):  # one per block, for the near-parallel rows
        for j in reversed(range(seqs.shape[1])):  # fold back from the receiver, one facet a row
            f, a, b = seqs[rows, j], images[rows, j + 1], points[-1]
            n, o, d = scene.normals[f], scene.plane_offsets[f], b - a
            length = np.sqrt(np.einsum("ij,ij->i", d, d))
            t, growth = _crossings(np.einsum("ij,ij->i", a, n) - o, np.einsum("ij,ij->i", b, n) - o, length, growth)
            point = a + t[:, None] * d
            inside = np.einsum("ikj,ij->ik", scene.inward[f], point) - scene.offsets[f]
            ok, _ = _on_facets(t, length, inside, scene.slack[f], growth)
            rows, growth, points = rows[ok], growth[ok], [p[ok] for p in (*points, point)]
        path = np.stack([images[rows, 0], *reversed(points)], axis=1)  # the last growth bounds every hop
        side = path @ scene.normals.T - scene.plane_offsets  # every node against every facet
        inside = (path @ scene.inward.reshape(-1, 3).T).reshape(side.shape + scene.offsets.shape[1:]) - scene.offsets
        d = path[:, 1:] - path[:, :-1]
        legs = np.sqrt(np.einsum("...j,...j", d, d))[..., None]
        t, growth = _crossings(side[:, :-1], side[:, 1:], legs, growth[:, None, None])
        inside = inside[:, :-1] + t[..., None] * (inside[:, 1:] - inside[:, :-1])  # affine in the point
        may, must = _on_facets(t, legs, inside, scene.slack, growth, OCCLUSION_EPS)
    r, hop, ends = np.arange(len(rows))[:, None], np.arange(seqs.shape[1]), seqs[rows]
    for mask, leg in itertools.product((may, must), (hop, hop + 1)):
        mask[r, leg, ends] = False
    return rows, must.any(axis=2), ~may.any(axis=2)


def _blocks(scene: Scene, seqs: np.ndarray, images: np.ndarray, max_bounces: int, cap: int):
    """Yield (sequences, images) for seqs, then, depth first, for their extensions
    up to max_bounces facets with no immediate repeat. Parents are cut into chunks
    before they are extended, so a block of children has at most ``cap`` rows,
    or one parent's children if those are more.

    ``images[:, j]`` is the transmitter mirrored across the first j facets of each
    row; the image across the last facet is added here.
    """
    n, last = scene.normals[seqs[:, -1]], images[:, -1]
    side = np.einsum("ij,ij->i", last, n) - scene.plane_offsets[seqs[:, -1]]
    images = np.concatenate([images, (last - 2 * side[:, None] * n)[:, None]], axis=1)
    yield seqs, images
    if seqs.shape[1] < max_bounces:
        every = np.arange(len(scene.facets))
        chunk = max(1, cap // max(1, len(every) - 1))  # parents per block of children
        for start in range(0, len(seqs), chunk):
            parent, nxt = np.nonzero(seqs[start : start + chunk, -1:] != every)  # no immediate repeat
            parent += start
            yield from _blocks(scene, np.column_stack([seqs[parent], nxt]), images[parent], max_bounces, cap)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b along the last axis, row by row as a stacked matmul: each row is the 1-D
    ``a @ b`` call, the BLAS ddot, so it has that call's bits (ddot is an FMA chain,
    which an einsum or a sum of products does not reproduce)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _trajectories(
    scene: Scene, seqs: np.ndarray, tx: np.ndarray, rxs: np.ndarray, clear: np.ndarray
) -> list[Trajectory | None]:
    """The specular path of each row from tx off the facets ``seqs[i]`` to ``rxs[i]``,
    or None where there is none.

    Images, hops, the polygon test, leg lengths and angles are computed for all rows at
    once, with the bits of the 3-vector calls mirror_point, ray_plane_parameter,
    Facet.contains and math.sqrt(v @ v). Legs, from the transmitter, flagged True in
    ``clear[i]`` are known unoccluded and skip the exact occlusion test; every other leg
    of a row that passed the rest gets it, in leg order, against every facet but the
    ones it reflects off at its own ends.
    """
    found: list[Trajectory | None] = [None] * len(seqs)
    if not len(seqs):
        return found
    k, n, plane = seqs.shape[1], scene.normals[seqs], scene.plane_points[seqs]  # (rows, hops, 3)
    images = [np.broadcast_to(tx, (len(seqs), 3))]  # the transmitter mirrored across the first j facets
    for j in range(k):
        images.append(images[-1] - (2 * _dot(images[-1] - plane[:, j], n[:, j]))[:, None] * n[:, j])
    aim = _dot(plane - np.stack(images[1:], axis=1), n)  # (plane_point - image) @ normal, per hop
    points, ts, steep = [rxs], [], []  # reflection points, folded back from the receiver
    with np.errstate(divide="ignore", invalid="ignore"):  # a row that fails a test is dropped below
        for j in reversed(range(k)):  # ray_plane_parameter from image j + 1 towards the last point
            direction = points[-1] - images[j + 1]
            denom = _dot(direction, n[:, j])
            ts.append(aim[:, j] / denom)
            steep.append(np.abs(denom) > GRAZING_COS * np.sqrt(_dot(direction, direction)))
            points.append(images[j + 1] + ts[-1][:, None] * direction)
        path = np.stack([images[0], *reversed(points)], axis=1)
        legs = path[:, 1:] - path[:, :-1]
        lengths = np.sqrt(_dot(legs, legs))
        cos = np.abs(_dot(legs[:, :k] / lengths[:, :k, None], n))
        inward = np.matmul(scene.inward[seqs], path[:, 1:-1, :, None])[..., 0]  # Facet.contains's bits
        inside = (scene.offsets[seqs] - inward <= scene.slack[seqs]).all(axis=(1, 2))
    t = np.stack(ts, axis=1)
    ok = (np.stack(steep, axis=1) & (0.0 < t) & (t < 1.0)).all(axis=1) & inside
    ok &= ~(lengths <= OCCLUSION_EPS).any(axis=1) & ~(cos < GRAZING_COS).any(axis=1)  # NaN passes, as in the float tests
    rows = np.flatnonzero(ok)
    facets, clear = scene.facets, clear.tolist()
    for row, nodes, ids, legs_m, cos_t in zip(
        rows.tolist(), path[rows], seqs[rows].tolist(), lengths[rows].tolist(), cos[rows].tolist()
    ):
        sequence = [facets[i] for i in ids]
        if any(
            not c and _segment_blocked(scene, nodes[leg], nodes[leg + 1], sequence[max(leg - 1, 0) : leg + 1])
            for leg, c in enumerate(clear[row])
        ):
            continue
        hops = tuple(
            Hop(point=p, facet_id=f.facet_id, theta_i=math.acos(min(c, 1.0)))
            for p, f, c in zip(nodes[1:-1], sequence, cos_t)
        )
        found[row] = Trajectory(
            tx=tx, rx=rxs[row], hops=hops, segment_lengths=tuple(legs_m), total_length=float(sum(legs_m))
        )
    return found


def _trajectory(
    scene: Scene, sequence: tuple[Facet, ...], tx: np.ndarray, rx: np.ndarray, clear=()
) -> Trajectory | None:
    """The specular path from tx off ``sequence`` to rx, or None if there is none:
    _trajectories on one row. Legs flagged True in ``clear`` skip the exact occlusion test."""
    seqs = np.array([[scene.facets.index(f) for f in sequence]])
    clear = itertools.islice(itertools.chain(clear, itertools.repeat(False)), len(sequence) + 1)
    return _trajectories(scene, seqs, tx, rx[None], np.array([list(clear)]))[0]


def trace(scene: Scene, tx, rx, max_bounces: int = 2) -> list[Trajectory]:
    """All specular trajectories between tx and rx with 1..max_bounces hops.

    Output is sorted by (bounce count, total length, facet id sequence) and is
    fully deterministic. Consecutive bounces off the same facet are excluded.

    Raises:
        ValueError: if tx == rx, either endpoint is outside the scene bounds,
            or max_bounces is outside [1, 4].
    """
    return trace_many(scene, tx, [rx], max_bounces)[0]


def trace_many(scene: Scene, tx, rxs, max_bounces: int = 2) -> list[list[Trajectory]]:
    """``[trace(scene, tx, rx, max_bounces) for rx in rxs]``, over one image tree.

    Images depend only on the transmitter, so each block of facet sequences is tiled
    over the receivers, one row per sequence and receiver; BLOCK_ROWS bounds those rows.
    The transmitter and max_bounces are checked first, with no receivers too; then the
    receivers, in list order, so the first that fails raises trace's error.
    """
    tx, checked = np.asarray(tx, dtype=float), []
    if tx.shape != (3,):
        raise ValueError("tx and rx must be 3D points")
    if not 1 <= max_bounces <= 4:
        raise ValueError(f"max_bounces must be in [1, 4], got {max_bounces}")
    if not scene.contains(a := tx.tolist()):
        raise ValueError(f"tx {a} is outside the scene bounds")
    for rx in rxs:
        rx = np.asarray(rx, dtype=float)
        if rx.shape != (3,):
            raise ValueError("tx and rx must be 3D points")
        if math.dist(a, b := rx.tolist()) < 1e-12:
            raise ValueError("tx and rx must be distinct")
        if not scene.contains(b):
            raise ValueError(f"rx {b} is outside the scene bounds")
        checked.append(rx)
    found: list[list[Trajectory]] = [[] for _ in checked]
    if not checked:
        return found
    n, receivers, first = len(checked), np.array(checked), np.arange(len(scene.facets))[:, None]
    tree = _blocks(scene, first, np.broadcast_to(tx, (len(first), 1, 3)), max_bounces, max(1, BLOCK_ROWS // n))
    for seqs, images in tree:  # row i of a tiled block: sequence i // n, receiver i % n
        tiled = np.repeat(seqs, n, axis=0), np.repeat(images, n, axis=0), np.tile(receivers, (len(seqs), 1))
        rows, blocked, clear = _survivors(scene, *tiled)
        open_rows = ~blocked.any(axis=1)
        rows, clear = rows[open_rows], clear[open_rows]
        r = rows % n
        for i, trajectory in zip(r.tolist(), _trajectories(scene, seqs[rows // n], tx, receivers[r], clear)):
            if trajectory is not None:
                found[i].append(trajectory)
    return [sorted(f, key=lambda t: (t.bounces, t.total_length, t.facet_ids)) for f in found]
