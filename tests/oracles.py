"""Independent reference implementations and golden data for the test suite.

Everything here is deliberately written from scratch (different formulations,
different code paths) so it can serve as an oracle for the package under test.
The one exception is ``exact_trajectory`` with its ``segment_blocked``: the tracer's
exact pass written with scalar 3-vector calls, a bit-level reference for the batched pass.
Its scalar kit (``mirror_point``, ``ray_plane_parameter``, ``half_planes``) lives here
too, so that it shares no code with ``raymat.tracer`` or ``raymat.scene``.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import product

import numpy as np

from raymat import tracer
from raymat.geometry import GRAZING_COS

C0 = 299_792_458.0

# ITU-R P.2040-1 coefficients (a, b, c, d) and RMS roughness sigma in meters.
ITU_COEFFS = {
    "wood": (1.99, 0.0, 0.0047, 1.0718, 0.4e-3),
    "plaster": (2.94, 0.0, 0.0116, 0.7076, 0.2e-3),
    "glass": (6.27, 0.0, 0.0043, 1.1925, 0.0),
}

# Reference reflection-loss table at 100 GHz (dB), incident angles 0..80 deg in
# 10 deg steps, for surfaces with the roughness above.
REFERENCE_RL_100GHZ = {
    "wood": (16.42, 16.38, 16.25, 15.95, 15.28, 13.9, 11.55, 8.26, 4.34),
    "plaster": (11.86, 11.85, 11.81, 11.68, 11.35, 10.61, 9.19, 6.92, 3.85),
    "glass": (7.34, 7.34, 7.34, 7.31, 7.29, 7.02, 6.56, 5.58, 3.63),
}
REFERENCE_ANGLES_DEG = tuple(range(0, 81, 10))

# The glass 40 deg entry of the reference table is inconsistent with the
# smooth-surface Fresnel model it was generated from: the model value is
# 7.2284 dB (all other glass entries agree with the model to +/-0.005 dB).
# Documented upstream-data defect; see the repository notes.
REFERENCE_GLASS_40DEG_MODEL_DB = 7.2284

# Reference settling thicknesses in mm (band half-width 0.2 dB, normal
# incidence) per material and frequency in GHz.
REFERENCE_SETTLING_MM = {
    "wood": {28.0: 83.0, 100.0: 21.0, 1000.0: 1.8},
    "plaster": {28.0: 138.0, 100.0: 55.0, 1000.0: 10.0},
    "glass": {28.0: 103.0, 100.0: 22.0, 1000.0: 1.4},
}

# Reference per-hop losses (dB) at 100 GHz for the two double-bounce reference
# trajectories: hop angles and the loss of each candidate material per hop.
TRAJ1_ANGLES_DEG = (7.9, 7.2)
TRAJ2_ANGLES_DEG = (67.1, 25.0)
REFERENCE_HOP_RL = {
    7.9: {"wood": 16.39, "plaster": 11.86, "glass": 7.34},
    7.2: {"wood": 16.4, "plaster": 11.86, "glass": 7.34},
    67.1: {"wood": 9.3, "plaster": 7.67, "glass": 5.93},
    25.0: {"wood": 16.13, "plaster": 11.76, "glass": 7.31},
}


def permittivity_oracle(name: str, f_ghz: float) -> complex:
    """Complex permittivity via conductivity, written independently."""
    a, b, c, d, _ = ITU_COEFFS[name]
    sigma_sm = c * f_ghz**d
    return complex(a * f_ghz**b, -17.98 * sigma_sm / f_ghz)


def fresnel_rl_oracle(name: str, f_ghz: float, theta_deg: float) -> float:
    """Unpolarized reflection loss via the Snell-angle formulation.

    Uses cos(theta_t) = sqrt(1 - sin^2(theta)/eta) and impedance-style
    coefficients, which is algebraically equivalent to the transverse-root
    form but follows a different code path.
    """
    eta = permittivity_oracle(name, f_ghz)
    theta = math.radians(theta_deg)
    n = cmath.sqrt(eta)
    if n.real < 0:
        n = -n
    cos_i = math.cos(theta)
    cos_t = cmath.sqrt(1 - (math.sin(theta) / n) ** 2)
    if cos_t.real < 0:
        cos_t = -cos_t
    r_te = (cos_i - n * cos_t) / (cos_i + n * cos_t)
    r_tm = (n * cos_i - cos_t) / (n * cos_i + cos_t)
    power = (abs(r_te) ** 2 + abs(r_tm) ** 2) / 2
    return -10 * math.log10(power)


def roughness_db_oracle(name: str, f_ghz: float, theta_deg: float, kappa: float) -> float:
    sigma = ITU_COEFFS[name][4]
    lam = C0 / (f_ghz * 1e9)
    x = sigma * math.cos(math.radians(theta_deg)) / lam
    return -20 * math.log10(math.exp(-kappa * x * x))


def fit_kappa_oracle() -> float:
    """Least-squares kappa over the wood+plaster reference rows at 100 GHz."""
    coef = 20 / math.log(10)
    lam = C0 / 100e9
    num = den = 0.0
    for name in ("wood", "plaster"):
        sigma = ITU_COEFFS[name][4]
        for theta_deg, ref in zip(
            REFERENCE_ANGLES_DEG, REFERENCE_RL_100GHZ[name]
        ):
            x = coef * (sigma * math.cos(math.radians(theta_deg)) / lam) ** 2
            r = ref - fresnel_rl_oracle(name, 100.0, theta_deg)
            num += x * r
            den += x * x
    return num / den


def slab_coefficient_oracle(
    name: str, f_ghz: float, theta_deg: float, h_m: float
) -> tuple[complex, complex]:
    """Finite-slab coefficients via explicit wave summation limit formula."""
    eta = permittivity_oracle(name, f_ghz)
    theta = math.radians(theta_deg)
    s = cmath.sqrt(eta - math.sin(theta) ** 2)
    if s.real < 0:
        s = -s
    cos_i = math.cos(theta)
    r_te = (cos_i - s) / (cos_i + s)
    r_tm = (eta * cos_i - s) / (eta * cos_i + s)
    q = 2 * math.pi * h_m * f_ghz * 1e9 / C0 * s
    phase = cmath.exp(-2j * q)
    return (
        r_te * (1 - phase) / (1 - r_te * r_te * phase),
        r_tm * (1 - phase) / (1 - r_tm * r_tm * phase),
    )


# ---------------------------------------------------------------------------
# brute-force specular reflection point search


def _polygon_basis(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    v0 = vertices[0]
    e1 = vertices[1] - v0
    e1 = e1 / np.linalg.norm(e1)
    normal = np.cross(vertices[1] - v0, vertices[2] - v0)
    normal = normal / np.linalg.norm(normal)
    e2 = np.cross(normal, e1)
    return v0, e1, e2


def _polygon_uv(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    v0, e1, e2 = _polygon_basis(vertices)
    rel = vertices - v0
    return v0, e1, e2, np.stack([rel @ e1, rel @ e2], axis=1)


def _inside_uv(poly_uv: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    inside = np.ones_like(u, dtype=bool)
    npts = len(poly_uv)
    for i in range(npts):
        ax, ay = poly_uv[i]
        bx, by = poly_uv[(i + 1) % npts]
        cross = (bx - ax) * (v - ay) - (by - ay) * (u - ax)
        inside &= cross >= -1e-12
    return inside


def brute_force_single_bounce(
    vertices: np.ndarray, tx: np.ndarray, rx: np.ndarray, resolution: float = 1e-4
) -> np.ndarray:
    """Grid-refined search for the point on the polygon minimizing the path."""
    v0, e1, e2, poly_uv = _polygon_uv(np.asarray(vertices, float))
    lo = poly_uv.min(axis=0)
    hi = poly_uv.max(axis=0)
    center = (lo + hi) / 2
    half = (hi - lo) / 2
    best = center
    while True:
        us = np.linspace(best[0] - half[0], best[0] + half[0], 41)
        vs = np.linspace(best[1] - half[1], best[1] + half[1], 41)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        uf, vf = uu.ravel(), vv.ravel()
        mask = _inside_uv(poly_uv, uf, vf)
        if not mask.any():
            raise RuntimeError("no grid point inside polygon")
        pts = v0 + uf[mask, None] * e1 + vf[mask, None] * e2
        lengths = np.linalg.norm(pts - tx, axis=1) + np.linalg.norm(pts - rx, axis=1)
        k = int(np.argmin(lengths))
        best = np.array([uf[mask][k], vf[mask][k]])
        cell = 2 * half / 40
        if max(cell) < resolution:
            return v0 + best[0] * e1 + best[1] * e2
        half = cell * 2.5


def brute_force_double_bounce(
    vertices_a: np.ndarray,
    vertices_b: np.ndarray,
    tx: np.ndarray,
    rx: np.ndarray,
    resolution: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint grid-refined search over both polygons for the two-hop path."""
    va0, ea1, ea2, poly_a = _polygon_uv(np.asarray(vertices_a, float))
    vb0, eb1, eb2, poly_b = _polygon_uv(np.asarray(vertices_b, float))
    lo_a, hi_a = poly_a.min(axis=0), poly_a.max(axis=0)
    lo_b, hi_b = poly_b.min(axis=0), poly_b.max(axis=0)
    best_a = (lo_a + hi_a) / 2
    best_b = (lo_b + hi_b) / 2
    half_a = (hi_a - lo_a) / 2
    half_b = (hi_b - lo_b) / 2
    n = 15
    while True:
        us_a = np.linspace(best_a[0] - half_a[0], best_a[0] + half_a[0], n)
        vs_a = np.linspace(best_a[1] - half_a[1], best_a[1] + half_a[1], n)
        us_b = np.linspace(best_b[0] - half_b[0], best_b[0] + half_b[0], n)
        vs_b = np.linspace(best_b[1] - half_b[1], best_b[1] + half_b[1], n)
        ua, va = np.meshgrid(us_a, vs_a, indexing="ij")
        ub, vb = np.meshgrid(us_b, vs_b, indexing="ij")
        ua, va, ub, vb = ua.ravel(), va.ravel(), ub.ravel(), vb.ravel()
        mask_a = _inside_uv(poly_a, ua, va)
        mask_b = _inside_uv(poly_b, ub, vb)
        pa = va0 + ua[mask_a, None] * ea1 + va[mask_a, None] * ea2
        pb = vb0 + ub[mask_b, None] * eb1 + vb[mask_b, None] * eb2
        if len(pa) == 0 or len(pb) == 0:
            raise RuntimeError("no grid point inside polygon")
        d_tx = np.linalg.norm(pa - tx, axis=1)
        d_rx = np.linalg.norm(pb - rx, axis=1)
        mid = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
        total = d_tx[:, None] + mid + d_rx[None, :]
        ia, ib = np.unravel_index(int(np.argmin(total)), total.shape)
        best_a = np.array([ua[mask_a][ia], va[mask_a][ia]])
        best_b = np.array([ub[mask_b][ib], vb[mask_b][ib]])
        cell_a = 2 * half_a / (n - 1)
        cell_b = 2 * half_b / (n - 1)
        if max(*cell_a, *cell_b) < resolution:
            return (
                va0 + best_a[0] * ea1 + best_a[1] * ea2,
                vb0 + best_b[0] * eb1 + best_b[1] * eb2,
            )
        half_a = cell_a * 2.5
        half_b = cell_b * 2.5


# ---------------------------------------------------------------------------
# exhaustive joint enumeration over trajectory survivor sets


def joint_enumeration_domains(entries) -> dict:
    """Materials possible at every key under *global* consistency.

    entries: list of (trajectory_id, [SequenceCandidate]). Enumerates the full
    cross product of one surviving candidate per trajectory, keeps the combos
    that agree on every shared key, and collects the materials each key takes
    across the consistent combos.
    """
    candidate_lists = [cands for _, cands in entries]
    domains: dict = {}
    for combo in product(*candidate_lists):
        merged: dict = {}
        ok = True
        for cand in combo:
            for key, name in cand.assignment:
                if key in merged and merged[key] != name:
                    ok = False
                    break
                merged[key] = name
            if not ok:
                break
        if not ok:
            continue
        for key, name in merged.items():
            domains.setdefault(key, set()).add(name)
    return domains


# ---------------------------------------------------------------------------
# the tracer's exact pass, one facet sequence at a time in scalar calls


def mirror_point(point: np.ndarray, plane_point: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Reflect a point across the plane (plane_point, unit normal)."""
    d = float((point - plane_point) @ normal)
    return point - 2 * d * normal


def ray_plane_parameter(
    origin: np.ndarray, direction: np.ndarray, plane_point: np.ndarray, normal: np.ndarray
) -> float | None:
    """Parameter t with origin + t*direction on the plane; None if |cos| to the normal
    is below GRAZING_COS, or if direction is zero (a mirrored image on the point it aims at)."""
    denom = float(direction @ normal)
    if not abs(denom) > GRAZING_COS * math.sqrt(direction @ direction):
        return None
    return float((plane_point - origin) @ normal) / denom


@functools.lru_cache(maxsize=1024)  # facets hash by identity
def half_planes(facet):
    """(inward, offsets, slack) of the facet's polygon, one row per edge, computed once
    per facet: p is inside when ``offsets - inward @ p <= slack`` on every row."""
    v = facet.vertices
    edges = np.roll(v, -1, axis=0) - v
    inward = np.cross(facet.normal, edges)  # normal x edge points inward (CCW)
    return inward, np.sum(inward * v, axis=1), 1e-9 * np.maximum(np.linalg.norm(edges, axis=1), 1)


def polygon_contains(facet, point) -> bool:
    """Whether point passes every half-plane of the facet; within slack of an edge line
    counts as inside."""
    inward, offsets, slack = half_planes(facet)
    return bool((offsets - inward @ point <= slack).all())


def segment_blocked(scene, start, end, ends):
    """True if a facet other than those in ``ends`` cuts the open segment start -> end,
    OCCLUSION_EPS away from both ends."""
    direction = end - start
    for facet in scene.facets:
        if facet in ends:  # Facet compares by identity
            continue
        t = ray_plane_parameter(start, direction, facet.vertices[0], facet.normal)
        if t is None or not 0.0 < t < 1.0:
            continue
        point = start + t * direction
        to_start, to_end = point - start, point - end
        near_end = math.sqrt(min(to_start @ to_start, to_end @ to_end))
        if near_end > tracer.OCCLUSION_EPS and polygon_contains(facet, point):
            return True
    return False


def mirrored_images(tx, sequence, memo):
    """tx mirrored across the first j facets of ``sequence``, j = 0..k, by mirror_point.
    ``memo`` keeps each image by tx's bytes and its facet prefix (facets compare by
    identity), so a prefix that many rows share is mirrored once per memo."""
    images, key = [tx], (tx.tobytes(),)
    for facet in sequence:
        key += (facet,)
        if key not in memo:
            memo[key] = mirror_point(images[-1], facet.vertices[0], facet.normal)
        images.append(memo[key])
    return images


def exact_trajectory(scene, sequence, tx, rx, memo=None):
    """The specular path from tx off ``sequence`` to rx, or None if there is none,
    with 3-vector numpy calls and Python floats: every bit the batched exact pass
    must reproduce. Every leg gets segment_blocked, against every facet but the ones
    it reflects off at its own ends. ``memo`` is mirrored_images': a caller
    that checks many rows passes one dict to them all, and drops it after.
    """
    images = mirrored_images(tx, sequence, {} if memo is None else memo)
    points = [rx]  # reflection points, folded back from the receiver
    for facet, origin in zip(reversed(sequence), reversed(images[1:])):
        direction = points[-1] - origin
        t = ray_plane_parameter(origin, direction, facet.vertices[0], facet.normal)
        if t is None or not 0.0 < t < 1.0:
            return None
        rp = origin + t * direction
        if not polygon_contains(facet, rp):
            return None
        points.append(rp)
    path = [tx, *reversed(points)]
    legs = [b - a for a, b in zip(path, path[1:])]
    lengths = [math.sqrt(leg @ leg) for leg in legs]  # the bits of np.linalg.norm
    if any(length <= tracer.OCCLUSION_EPS for length in lengths):  # a hop at a leg's end: no path
        return None
    thetas = []
    for leg, length, facet in zip(legs, lengths, sequence):
        cos_t = abs(float((leg / length) @ facet.normal))  # leg / length is unit(leg)
        if cos_t < GRAZING_COS:
            return None
        thetas.append(math.acos(min(cos_t, 1.0)))
    for leg, (a, b) in enumerate(zip(path, path[1:])):
        if segment_blocked(scene, a, b, sequence[max(leg - 1, 0) : leg + 1]):
            return None
    hops = tuple(
        tracer.Hop(point=p, facet_id=f.facet_id, theta_i=th) for p, f, th in zip(path[1:-1], sequence, thetas)
    )
    return tracer.Trajectory(
        tx=tx, rx=rx, hops=hops, segment_lengths=tuple(lengths), total_length=float(sum(lengths))
    )
