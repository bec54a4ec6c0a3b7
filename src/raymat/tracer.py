"""Deterministic image-method ray tracing for multi-bounce specular paths.

Facet sequences are traced depth first over one image forest, whose roots are every
(transmitter, facet), in blocks of at most BLOCK_ROWS rows, one per sequence and receiver,
each under one np.errstate; a block may mix transmitters, and each row carries its
transmitter's index. Each image is mirrored once per sequence. A sequence is extended only
to the facets its reflection cone can reach: the next hop lies on a ray from the
sequence's last image through its last facet's polygon, beyond that facet, so a facet
whose vertices all lie beyond one face of that cone, by a margin that covers the polygon
tests' slack and the rounding, is cut with its whole subtree (beam tracing's visibility
test, Funkhouser et al., SIGGRAPH 1998; _blocks proves that no path is lost). One exact
pass per block then folds every row back from its receiver, drops it at the first hop that
is grazing, off its facet's plane segment or outside the facet's polygon, and tests the
legs of the rows left for occlusion, on only the facets whose planes they cross strictly
inside. Every step has the bits of the scalar 3-vector calls: a stacked matmul row is the
1-D ``a @ b``. A leg meets the plane of a facet it reflects off at one of its own ends
only at that end, so those facets never occlude it. Facets reflect on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GRAZING_COS
from .scene import Scene

OCCLUSION_EPS = 1e-6  # m; other facets met this near a leg's ends (a neighbour at a hop's edge) do not occlude it
BLOCK_ROWS = 2048  # most rows, facet sequences times receivers, in one batch
MAX_BOUNCES = 4  # most hops of a trajectory

__all__ = ["Hop", "Trajectory", "trace", "trace_pairs", "OCCLUSION_EPS"]


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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b along the last axis, row by row as a stacked matmul that broadcasts: each
    row is the 1-D ``a @ b`` call, the BLAS ddot, so it has that call's bits (ddot is an
    FMA chain, which an einsum or a sum of products does not reproduce)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _blocks(scene: Scene, seqs: np.ndarray, images: np.ndarray, owner: np.ndarray, max_bounces: int, cap: int):
    """Yield (sequences, images, owner) for seqs in blocks of at most ``cap`` rows, each
    followed, depth first, by its rows' extensions up to max_bounces facets with no
    immediate repeat, to the next facets _reachable keeps. The children kept from all
    of a block's parents are packed into full blocks in turn, whatever their transmitter.

    ``images[:, j]`` is the transmitter mirrored across the first j facets of each
    row, and ``owner`` the index of that transmitter; the image across the last facet
    is added here, with the bits of the scalar mirror in tests/oracles.py.

    The cut loses no path. Take a row ending on facet f with image I (``mirrored``),
    a child g, and any extension of it that the exact pass accepts. Its hop Q on g
    passed g's polygon test, and its hop P on f is I + t (Q - I) with 0 < t < 1 and
    passed f's, so Q = I + s (P - I) with s = 1 / t > 1. Every coordinate met is below
    9 * far (Scene), each rounding error of the arithmetic below is under 64 ulps of
    that, and Scene's ``rounding`` is over 100 times that much: call it r. Then
      (a) P is within spill_f of f's plane and of the inner side of each edge line of
          f: slack_e / |edge e| from the test, plus rounding; spill_f adds 8 r;
      (b) Q is within reach_g of the hull of g's vertices: if a convex polygon's
          centre c is at least r0 inside each edge line and R from each vertex, a
          point within spill_g of every edge line is within spill_g * R / r0 of the
          polygon (shrink it towards c by 1 + spill_g / r0); plus COPLANARITY_TOL,
          Q's rounding off g's plane and the rounding of the vertex tests, 4 r.
      (c) f's plane: with z the height over it, signed towards I, z(Q) = (1 - s) z(I)
          + s z(P) <= spill_f once z(I) >= spill_f, since s > 1. So g is cut when
          every vertex has z > spill_f + reach_g.
      (d) the plane through I and an edge of f, with h the distance beyond it: h is
          affine and h(I) is a rounding error, so h(Q) = (1 - s) h(I) + s h(P) <=
          s * spill_f, and s = (z(I) - z(Q)) / (z(I) - z(P)) is at most
          stretch = (z(I) + max |z(vertex)| + reach_g + spill_f) / (z(I) - spill_f).
          So g is cut when every vertex has h > stretch * spill_f + reach_g. As I
          nears f's plane stretch grows without bound (a hop within slack of f maps
          to points |Q - I| / |P - I| times as far beyond the face), and when z(I) <=
          spill_f nothing is cut.
    A vertex beyond a face by more than the bound puts every point of g's hull there,
    and every point within reach_g of it beyond the bound on Q, so there is no Q.
    The test's einsum and matmul products have no pinned bits; the margin, not
    their last bits, decides every cut.
    """
    for start in range(0, len(seqs), cap):
        rows = slice(start, start + cap)
        block, tx_index, f, last = seqs[rows], owner[rows], seqs[rows, -1], images[rows, -1]
        n = scene.normals[f]
        mirrored = last - (2 * _dot(last - scene.plane_points[f], n))[:, None] * n
        imaged = np.concatenate([images[rows], mirrored[:, None]], axis=1)
        yield block, imaged, tx_index
        if block.shape[1] < max_bounces:
            p, g = np.nonzero(_reachable(scene, f, mirrored))
            yield from _blocks(scene, np.column_stack([block[p], g]), imaged[p], tx_index[p], max_bounces, cap)


def _reachable(scene: Scene, f: np.ndarray, image: np.ndarray) -> np.ndarray:
    """(rows, facets): whether a facet g other than f may follow a row that ends on
    facet f with ``image``, the transmitter mirrored across all of the row's facets.

    g is cut when all its vertices lie beyond one face of the reflection cone
    {image + s (P - image): s > 1, P on f} by more than the margin _blocks proves.
    The faces are f's plane and, per edge of f, the plane through the image and the
    edge (the pencil of f's plane and the edge's half-plane); each is
    ``planes @ x - levels``, positive beyond it, scaled by |planes|.
    """
    n, inward, offsets = scene.normals[f], scene.inward[f], scene.offsets[f]
    level = np.einsum("ij,ij->i", n, scene.plane_points[f])
    height = np.einsum("ij,ij->i", n, image) - level  # the image over f's plane
    sign, above = np.sign(height), np.abs(height)
    side = sign[:, None] * (np.einsum("ikj,ij->ik", inward, image) - offsets)  # (rows, edges)
    pencil = side[..., None] * n[:, None] - above[:, None, None] * inward
    planes = np.concatenate([sign[:, None, None] * n[:, None], pencil], axis=1)
    levels = np.concatenate([(sign * level)[:, None], side * level[:, None] - above[:, None] * offsets], axis=1)
    beyond = np.full((*levels.shape, len(scene.facets)), np.inf)  # (rows, faces, facets), least over g's vertices
    tallest = np.zeros((len(f), len(scene.facets)))  # largest |height| of g's vertices over f's plane
    flat = planes.reshape(-1, 3)  # one matrix product per vertex index
    for corner in scene.vertices.transpose(1, 0, 2):  # one vertex of every facet
        out = (flat @ corner.T).reshape(beyond.shape) - levels[..., None]
        np.minimum(beyond, out, out=beyond)
        np.maximum(tallest, np.abs(out[:, 0]), out=tallest)
    spill, reach = scene.spill[f][:, None], scene.reach
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a NaN or inf margin cuts nothing
        stretch = (above[:, None] + tallest + reach + spill) / (above[:, None] - spill)
        scale = np.sqrt(_dot(planes[:, 1:], planes[:, 1:]))[..., None]  # 0 for a padded edge
        cut = (beyond[:, 0] > spill + reach) | (beyond[:, 1:] > scale * (stretch * spill + reach)[:, None]).any(axis=1)
    cut &= above[:, None] > spill
    return ~cut & (f[:, None] != np.arange(len(scene.facets)))


def _inside(scene: Scene, f: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether each point passes every half-plane of its facet f in Scene's arrays, with 1-D ``inward @ p`` bits."""
    inward = np.matmul(scene.inward[f], points[..., None])[..., 0]
    return (scene.offsets[f] - inward <= scene.slack[f]).all(axis=-1)


def _blocked(scene: Scene, seqs: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Whether a leg of each row's path is occluded: cut by a facet, OCCLUSION_EPS away
    from both its ends, other than the ones it reflects off at its own ends.

    A leg meets the plane of an end facet only at that end, however the hop rounds, so
    those facets are left out by index. Only the crossings of steep planes strictly
    inside a leg get the distance and polygon tests.
    """
    start, d = path[:, :-1], path[:, 1:] - path[:, :-1]  # (rows, legs, 3)
    denom = _dot(d[:, :, None], scene.normals)  # (rows, legs, facets)
    t = _dot(scene.plane_points - start[:, :, None], scene.normals) / denom
    crossing = (np.abs(denom) > GRAZING_COS * np.sqrt(_dot(d, d))[..., None]) & (0.0 < t) & (t < 1.0)
    r, hop = np.arange(len(seqs))[:, None], np.arange(seqs.shape[1])
    crossing[r, hop, seqs] = crossing[r, hop + 1, seqs] = False
    r, leg, f = np.nonzero(crossing)
    a, b = start[r, leg], path[r, leg + 1]
    point = a + t[r, leg, f][:, None] * d[r, leg]
    to_a, to_b = point - a, point - b
    near = np.sqrt(np.minimum(_dot(to_a, to_a), _dot(to_b, to_b)))
    blocked = np.zeros(len(seqs), dtype=bool)
    blocked[r[(near > OCCLUSION_EPS) & _inside(scene, f, point)]] = True
    return blocked


def _trajectories(scene: Scene, seqs: np.ndarray, images: np.ndarray, rxs: np.ndarray) -> list[Trajectory | None]:
    """The specular path of each row from ``images[i, 0]`` off ``seqs[i]`` to ``rxs[i]``, or None.

    ``images[i, j]`` is the transmitter mirrored across the first j facets of row i.
    Each row is folded back from its receiver into one path array and dropped at the
    first hop that fails the grazing cut, 0 < t < 1 or the polygon test; a row left
    needs legs longer than OCCLUSION_EPS, no hop with |cos| below GRAZING_COS and no
    occluded leg. Each step has the bits of the scalar oracle (tests/oracles.py).
    """
    k, rows, found = seqs.shape[1], np.arange(len(seqs)), [None] * len(seqs)
    path = np.empty((len(seqs), k + 2, 3))  # tx, the hops, rx; the tx is written for the rows left
    path[:, -1] = rxs
    with np.errstate(divide="ignore", invalid="ignore"):  # one per block; a row that fails a test is dropped
        for j in reversed(range(k)):  # the ray from image j + 1 towards the path's next point
            origin, f = images[rows, j + 1], seqs[rows, j]
            direction, n = path[rows, j + 2] - origin, scene.normals[f]
            denom = _dot(direction, n)
            t = _dot(scene.plane_points[f] - origin, n) / denom
            point = origin + t[:, None] * direction
            ok = (np.abs(denom) > GRAZING_COS * np.sqrt(_dot(direction, direction))) & (0.0 < t) & (t < 1.0)
            ok &= _inside(scene, f, point)
            rows = rows[ok]
            path[rows, j + 1] = point[ok]
            if not rows.size:  # every row dropped: no path is left to fold, measure or occlude
                return found
        path = path[rows]
        path[:, 0] = images[rows, 0]
        legs = path[:, 1:] - path[:, :-1]
        lengths = np.sqrt(_dot(legs, legs))
        cos = np.abs(_dot(legs[:, :k] / lengths[:, :k, None], scene.normals[seqs[rows]]))
        # a NaN length or cos passes, as in the float tests
        ok = ~(lengths <= OCCLUSION_EPS).any(axis=1) & ~(cos < GRAZING_COS).any(axis=1)
        ok[ok] = ~_blocked(scene, seqs[rows[ok]], path[ok])
    facets = scene.facets
    for row, nodes, legs_m, cos_t in zip(rows[ok].tolist(), path[ok], lengths[ok].tolist(), cos[ok].tolist()):
        hops = tuple(
            Hop(point=p, facet_id=facets[i].facet_id, theta_i=math.acos(min(c, 1.0)))
            for p, i, c in zip(nodes[1:-1], seqs[row].tolist(), cos_t)
        )
        found[row] = Trajectory(
            tx=nodes[0], rx=nodes[-1], hops=hops, segment_lengths=tuple(legs_m), total_length=float(sum(legs_m))
        )
    return found


def trace(scene: Scene, tx, rx, max_bounces: int = 2) -> list[Trajectory]:
    """All specular trajectories between tx and rx with 1..max_bounces hops.

    Output is sorted by (bounce count, total length, facet id sequence) and is
    fully deterministic. Consecutive bounces off the same facet are excluded.

    Raises:
        ValueError: if tx == rx, either endpoint is outside the scene bounds,
            or max_bounces is outside [1, 4].
    """
    return trace_pairs(scene, [tx], [rx], max_bounces)[0]


def trace_pairs(scene: Scene, txs, rxs, max_bounces: int = 2) -> list[list[Trajectory]]:
    """``[trace(scene, tx, rx, max_bounces) for tx in txs for rx in rxs]``, over one
    image forest.

    Images depend only on the transmitter, so each block of facet sequences is tiled
    over the receivers, one row per sequence and receiver, and a block may hold the
    sequences of several transmitters; at most ``max(1, BLOCK_ROWS // len(rxs))``
    sequences make a block. max_bounces is checked first, with no transmitters or
    receivers too, then every pair before anything is traced, in this list's order: a
    transmitter, with no receivers too, then each receiver against it, so the first
    pair that fails raises trace's error.
    """
    if not 1 <= max_bounces <= MAX_BOUNCES:
        raise ValueError(f"max_bounces must be in [1, {MAX_BOUNCES}], got {max_bounces}")
    rxs, checked = list(rxs), []
    for tx in txs:
        tx = np.asarray(tx, dtype=float)
        if tx.shape != (3,):
            raise ValueError("tx and rx must be 3D points")
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
        checked.append(tx)
    n = len(rxs)
    found: list[list[Trajectory]] = [[] for _ in range(len(checked) * n)]
    if not found:
        return found
    facets, receivers = len(scene.facets), np.array(rxs, dtype=float)
    roots = np.tile(np.arange(facets), len(checked))[:, None]  # (transmitter, facet), TX-major
    owner = np.repeat(np.arange(len(checked)), facets)
    images = np.repeat(np.array(checked), facets, axis=0)[:, None]
    for seqs, images, tx_index in _blocks(scene, roots, images, owner, max_bounces, max(1, BLOCK_ROWS // n)):
        # row i of a tiled block: sequence i // n, receiver i % n
        tiled = np.repeat(seqs, n, axis=0), np.repeat(images, n, axis=0), np.tile(receivers, (len(seqs), 1))
        pairs = (np.repeat(tx_index, n) * n + np.tile(np.arange(n), len(seqs))).tolist()
        for pair, trajectory in zip(pairs, _trajectories(scene, *tiled)):
            if trajectory is not None:
                found[pair].append(trajectory)
    return [sorted(f, key=lambda t: (t.bounces, t.total_length, t.facet_ids)) for f in found]
