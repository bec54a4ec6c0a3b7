import itertools
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raymat import tracer
from raymat.demo import demo_building, demo_positions
from raymat.geometry import (
    mirror_point, reflect_direction, unit, validate_convex_polygon,
)
from raymat.scene import Facet, Scene, SceneValidationError, load_scene, save_scene, scene_from_dict
from raymat.tracer import trace

from .oracles import brute_force_double_bounce, brute_force_single_bounce, exact_trajectory
from .scenegen import random_endpoints, random_scene


def rect(*pts):
    return np.array(pts, dtype=float)


FLOOR_BIG = rect((-1, -2, 0), (5, -2, 0), (5, 2, 0), (-1, 2, 0))


def point_in_convex_polygon(point, vertices, normal, tol=1e-9):
    """Reference inside test: every edge's half-plane, boundary counts as inside.

    Assumes ``point`` lies (near) the polygon plane.
    """
    v = np.asarray(vertices, dtype=float)
    edges = np.roll(v, -1, axis=0) - v
    side = np.cross(edges, np.asarray(point, dtype=float) - v) @ normal
    return bool(np.all(side >= -tol * np.maximum(np.linalg.norm(edges, axis=1), 1.0)))


# --- trace: hand-checkable scenes ----------------------------------------------


def test_single_floor_bounce_midpoint():
    scene = Scene(facets=(Facet("floor", FLOOR_BIG, "wood", 0.1),))
    trajs = trace(scene, [0, 0, 1], [2, 0, 1], max_bounces=1)
    assert len(trajs) == 1
    t = trajs[0]
    assert t.facet_ids == ("floor",)
    assert np.allclose(t.hops[0].point, [1, 0, 0], atol=1e-12)
    assert t.hops[0].theta_i == pytest.approx(math.pi / 4, abs=1e-12)
    assert t.total_length == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert sum(t.segment_lengths) == pytest.approx(t.total_length, abs=1e-12)


def test_floor_then_ceiling_double_bounce():
    floor = rect((-1, -2, 0), (5, -2, 0), (5, 2, 0), (-1, 2, 0))
    ceiling = rect((-1, -2, 2), (-1, 2, 2), (5, 2, 2), (5, -2, 2))
    scene = Scene(facets=(Facet("floor", floor), Facet("ceiling", ceiling)))
    trajs = trace(scene, [0, 0, 1], [4, 0, 1], max_bounces=2)
    fc = [t for t in trajs if t.facet_ids == ("floor", "ceiling")]
    assert len(fc) == 1
    t = fc[0]
    assert np.allclose(t.hops[0].point, [1, 0, 0], atol=1e-9)
    assert np.allclose(t.hops[1].point, [3, 0, 2], atol=1e-9)
    for hop in t.hops:
        assert hop.theta_i == pytest.approx(math.pi / 4, abs=1e-9)
    assert t.total_length == pytest.approx(4 * math.sqrt(2), abs=1e-9)


def test_occluded_reflection_gives_empty_result():
    # a small wall between the floor's reflection point and the receiver
    # blocks the only candidate path; the wall itself has no valid bounce
    screen = rect((1.5, -0.2, 0), (1.5, 0.2, 0), (1.5, 0.2, 1.2), (1.5, -0.2, 1.2))
    scene = Scene(facets=(Facet("floor", FLOOR_BIG), Facet("screen", screen)))
    assert trace(scene, [0, 0, 1], [2, 0, 1], max_bounces=1) == []


def test_occluder_with_own_specular_point_replaces_shadowed_path():
    blocker = rect((0.5, -1, 0.2), (1.5, -1, 0.2), (1.5, 1, 0.2), (0.5, 1, 0.2))
    scene = Scene(
        facets=(Facet("floor", FLOOR_BIG), Facet("blocker", blocker))
    )
    trajs = trace(scene, [0, 0, 1], [2, 0, 1], max_bounces=1)
    # the floor bounce at (1,0,0) is shadowed by the blocker above it, and the
    # blocker's own specular point is valid instead
    assert all(t.facet_ids != ("floor",) for t in trajs)
    assert any(t.facet_ids == ("blocker",) for t in trajs)


def test_trace_validation_errors():
    scene = Scene(facets=(Facet("floor", FLOOR_BIG),))
    with pytest.raises(ValueError, match="distinct"):
        trace(scene, [0, 0, 1], [0, 0, 1])
    with pytest.raises(ValueError, match="outside the scene bounds"):
        trace(scene, [0, 0, 1], [500, 0, 1])
    with pytest.raises(ValueError, match="max_bounces"):
        trace(scene, [0, 0, 1], [2, 0, 1], max_bounces=0)
    with pytest.raises(ValueError, match="max_bounces"):
        trace(scene, [0, 0, 1], [2, 0, 1], max_bounces=5)


@pytest.mark.parametrize("point", [[0, 0], [0, 0, 1, 0], [[0, 0, 1]]], ids=["2d", "4d", "nested"])
def test_trace_rejects_an_endpoint_that_is_not_a_3_vector(point):
    scene = Scene(facets=(Facet("floor", FLOOR_BIG),))
    for tx, rx in ((point, [2, 0, 1]), ([2, 0, 1], point)):
        with pytest.raises(ValueError, match="3D points"):
            trace(scene, tx, rx)


def test_endpoints_above_a_lone_small_facet_are_in_bounds():
    # a 2 x 2 m floor; the pair 1.5 m above its plane reflects at its corner
    floor = Facet("floor", rect((1, 0, 0), (3, 0, 0), (3, 2, 0), (1, 2, 0)))
    (t,) = trace(Scene((floor,)), (0, 0, 1.5), (2, 0, 1.5), max_bounces=1)
    assert t.hops[0].point.tolist() == [1.0, 0.0, 0.0]


def test_no_consecutive_same_facet():
    scene = Scene(facets=(Facet("floor", FLOOR_BIG),))
    trajs = trace(scene, [0, 0, 1], [2, 0, 1], max_bounces=2)
    assert all(t.bounces == 1 for t in trajs)


def test_triple_bounce_corridor():
    floor = rect((-1, -2, 0), (7, -2, 0), (7, 2, 0), (-1, 2, 0))
    ceiling = rect((-1, -2, 2), (-1, 2, 2), (7, 2, 2), (7, -2, 2))
    scene = Scene(facets=(Facet("floor", floor), Facet("ceiling", ceiling)))
    trajs = trace(scene, [0, 0, 1], [6, 0, 1], max_bounces=3)
    fcf = [t for t in trajs if t.facet_ids == ("floor", "ceiling", "floor")]
    assert len(fcf) == 1
    t = fcf[0]
    assert np.allclose(t.hops[0].point, [1, 0, 0], atol=1e-9)
    assert np.allclose(t.hops[1].point, [3, 0, 2], atol=1e-9)
    assert np.allclose(t.hops[2].point, [5, 0, 0], atol=1e-9)
    assert t.total_length == pytest.approx(6 * math.sqrt(2), abs=1e-9)
    for hop in t.hops:
        assert hop.theta_i == pytest.approx(math.pi / 4, abs=1e-9)


def test_trace_sorted_and_deterministic():
    floor = rect((-1, -2, 0), (5, -2, 0), (5, 2, 0), (-1, 2, 0))
    ceiling = rect((-1, -2, 2), (-1, 2, 2), (5, 2, 2), (5, -2, 2))
    scene = Scene(facets=(Facet("floor", floor), Facet("ceiling", ceiling)))
    a = trace(scene, [0, 0, 1], [4, 0, 1], max_bounces=2)
    b = trace(scene, [0, 0, 1], [4, 0, 1], max_bounces=2)
    keys = [(t.bounces, t.total_length) for t in a]
    assert keys == sorted(keys)
    assert [t.facet_ids for t in a] == [t.facet_ids for t in b]
    for ta, tb in zip(a, b):
        for ha, hb in zip(ta.hops, tb.hops):
            assert np.array_equal(ha.point, hb.point)


# --- invariants on random scenes ------------------------------------------------


def _assert_reciprocal(fwd, rev) -> int:
    """Each forward trajectory has a reversed mate; returns how many were checked."""
    assert len(fwd) == len(rev)
    rev_index = {t.facet_ids: t for t in rev}
    for t in fwd:
        mate = rev_index[t.facet_ids[::-1]]
        assert mate.total_length == pytest.approx(t.total_length, abs=1e-9)
        for hop, mate_hop in zip(t.hops, reversed(mate.hops)):
            assert np.linalg.norm(hop.point - mate_hop.point) < 1e-9
            assert hop.theta_i == pytest.approx(mate_hop.theta_i, abs=1e-9)
    return len(fwd)


@pytest.mark.parametrize("max_bounces", [2, 3, 4])
def test_reciprocity_on_random_scenes(max_bounces):
    checked = 0
    for seed in range(40):
        scene, _ = random_scene(seed)
        rng = np.random.default_rng(1000 + seed)
        a, b = random_endpoints(rng, 2)
        fwd = trace(scene, a, b, max_bounces=max_bounces)
        rev = trace(scene, b, a, max_bounces=max_bounces)
        checked += _assert_reciprocal(fwd, rev)
    assert checked > 30  # the generator must actually produce trajectories


def test_reciprocity_on_demo_building_at_four_bounces():
    scene = demo_building()
    (a, _), (b,) = demo_positions()
    fwd = trace(scene, a, b, max_bounces=4)
    assert any(t.bounces == 4 for t in fwd)
    assert _assert_reciprocal(fwd, trace(scene, b, a, max_bounces=4)) == len(fwd)


def test_specular_replay_on_random_scenes():
    replayed = 0
    for seed in range(25):
        scene, _ = random_scene(seed)
        rng = np.random.default_rng(2000 + seed)
        a, b = random_endpoints(rng, 2)
        for t in trace(scene, a, b, max_bounces=2):
            path = [t.tx, *[h.point for h in t.hops], t.rx]
            for i, hop in enumerate(t.hops):
                facet = scene.facet(hop.facet_id)
                incoming = unit(path[i + 1] - path[i])
                outgoing = reflect_direction(incoming, facet.normal)
                expected_next = path[i + 1] + outgoing * np.linalg.norm(
                    path[i + 2] - path[i + 1]
                )
                assert np.linalg.norm(expected_next - path[i + 2]) < 1e-6
                # reflection point sits on the facet plane, inside the polygon
                offset = (hop.point - facet.plane_point) @ facet.normal
                assert abs(offset) < 1e-6
                assert point_in_convex_polygon(
                    hop.point, facet.vertices, facet.normal, tol=1e-6
                )
                replayed += 1
    assert replayed > 20


def test_facet_contains_agrees_with_reference():
    scenes = [demo_building()] + [random_scene(seed)[0] for seed in range(6)]
    checked = 0
    for scene in scenes:
        for facet in scene.facets:
            v = facet.vertices
            nxt = np.roll(v, -1, axis=0)
            mids = (v + nxt) / 2
            outward = np.cross(nxt - v, facet.normal)  # in-plane, away from the inside
            outward /= np.linalg.norm(outward, axis=1)[:, None]
            cases = [(p, True) for p in (*v, *mids, v.mean(axis=0))]
            cases += [(p, False) for p in mids + 1e-6 * outward]
            for point, inside in cases:
                reference = point_in_convex_polygon(point, v, facet.normal)
                assert facet.contains(point) == reference == inside
                checked += 1
    assert checked > 400


def test_image_method_agrees_with_brute_force_single_bounce():
    compared = 0
    for seed in range(6):
        scene, _ = random_scene(seed)
        rng = np.random.default_rng(3000 + seed)
        a, b = random_endpoints(rng, 2)
        for t in trace(scene, a, b, max_bounces=1):
            facet = scene.facet(t.hops[0].facet_id)
            rp = brute_force_single_bounce(facet.vertices, t.tx, t.rx)
            assert np.linalg.norm(rp - t.hops[0].point) < 1e-3
            compared += 1
    assert compared >= 4


def test_image_method_agrees_with_brute_force_double_bounce():
    compared = 0
    for seed in range(8):
        scene, _ = random_scene(seed)
        rng = np.random.default_rng(4000 + seed)
        a, b = random_endpoints(rng, 2)
        for t in trace(scene, a, b, max_bounces=2):
            if t.bounces != 2:
                continue
            fa = scene.facet(t.hops[0].facet_id)
            fb = scene.facet(t.hops[1].facet_id)
            rp1, rp2 = brute_force_double_bounce(fa.vertices, fb.vertices, t.tx, t.rx)
            assert np.linalg.norm(rp1 - t.hops[0].point) < 1e-3
            assert np.linalg.norm(rp2 - t.hops[1].point) < 1e-3
            compared += 1
            if compared >= 6:
                return
    assert compared >= 2


# --- trace against an exhaustive walk -------------------------------------------


def _every_sequence(scene, max_bounces):
    """Every facet sequence of 1..max_bounces facets without an immediate repeat, as
    rows of facet indices, one array per length."""
    for length in range(1, max_bounces + 1):
        every = itertools.product(range(len(scene.facets)), repeat=length)
        yield np.array([s for s in every if all(f != g for f, g in zip(s, s[1:]))], dtype=int).reshape(-1, length)


def _exhaustive_trace(scene, tx, rx, max_bounces):
    """Every facet sequence without an immediate repeat through the scalar oracle."""
    tx, rx = np.asarray(tx, dtype=float), np.asarray(rx, dtype=float)
    every = (tuple(scene.facets[i] for i in ids) for seqs in _every_sequence(scene, max_bounces) for ids in seqs)
    found = [t for t in (exact_trajectory(scene, sequence, tx, rx) for sequence in every) if t is not None]
    found.sort(key=lambda t: (t.bounces, t.total_length, t.facet_ids))
    return found


def _reprs(trajectories):
    return [
        repr((t.facet_ids, [h.point.tolist() for h in t.hops], [h.theta_i for h in t.hops],
              t.segment_lengths, t.total_length, t.tx.tolist(), t.rx.tolist()))
        for t in trajectories
    ]


def _floor_at(x0, y0):
    """A floor whose corner (x0, y0, 0) sits at or near (1, 0, 0), the specular
    point of the pair (0, 0, 1) -> (2, 0, 1)."""
    return Facet("floor", rect((x0, y0, 0), (4, y0, 0), (4, 3, 0), (x0, 3, 0)))


def _screen_at(y0, z0, x=0.5):
    """A screen in the plane x spanning y >= y0, z >= z0; the leg
    (0, 0, 1) -> (1, 0, 0) crosses that plane at (x, 0, 1 - x)."""
    return Facet("screen", rect((x, y0, z0), (x, 1, z0), (x, 1, 1.5), (x, y0, 1.5)))


def _grazing_at(u, v, w, far=0.0):
    """The point (u, v, w) in a frame whose w axis is the normal of a tilted floor,
    with its origin ``far`` metres out along every axis."""
    n = unit(np.array([0.3, -0.2, 1.0]))
    e_u = unit(np.cross(n, [0.0, 1.0, 0.0]))
    return np.array([3.1, 1.7, 0.9]) + far + u * e_u + v * np.cross(n, e_u) + w * n


def _grazing_quad(*corners, far=0.0):
    return np.array([_grazing_at(*c, far=far) for c in corners])


def _blade(a, b, eps):
    """A 0.6 x 0.6 m blade centred on the middle of the leg a -> b, its plane turned
    eps rad off the leg, so the leg crosses it there at |cos| of about eps."""
    u = unit(b - a)
    v = unit(np.array([0.7, 1.0, 0.7]))
    v = unit(v - (v @ u) * u)
    along, m = u + eps * np.cross(u, v), (a + b) / 2
    return np.array([m - 0.3 * along - 0.3 * v, m + 0.3 * along - 0.3 * v,
                     m + 0.3 * along + 0.3 * v, m - 0.3 * along + 0.3 * v])


def _exhaustive_cases():
    demo = demo_building()
    txs, rxs = demo_positions()
    pairs = [(a, b) for a in txs for b in rxs]
    pairs += [((4.0, 2.5, 5.6), (7.0, 7.5, 1.4)), ((15.0, 2.5, 5.6), (16.5, 7.5, 1.4))]
    # mirror images across the slab_w plane z = 3.5: the transmitter's image
    # lands on the receiver, so the leg direction is zero
    pairs += [((1.5, 1.5, 2.0), (1.5, 1.5, 5.0))]
    for i, (a, b) in enumerate(pairs):
        yield f"demo-{i}", demo, a, b
    for seed in range(12):
        scene, _ = random_scene(seed)
        a, b = random_endpoints(np.random.default_rng(5000 + seed), 2)
        yield f"random-{seed}", scene, a, b
    # facets with 3, 4 and 5 edges, so the stacked half-planes are padded
    mixed = Scene((
        Facet("floor", rect((-2, -2, 0), (4, -2, 0), (5, 1, 0), (2, 4, 0), (-2, 3, 0))),
        Facet("gable", rect((-2, 3.5, 0), (4, 3.5, 0), (1, 3.5, 3))),
        Facet("roof", rect((-2, -2, 3), (-2, 3, 2.5), (4, 3, 2.5), (4, -2, 3))),
    ))
    for i, (a, b) in enumerate([((0, 0, 1), (2, 1, 1.5)), ((-1, 2, 2), (3, -1, 0.5))]):
        yield f"mixed-{i}", mixed, a, b
    # specular point on a facet edge, on a vertex, and just either side of the
    # containment slack (1e-9 m here); the boundary counts as inside
    for shift in (-1e-8, 0.0, 5e-10, 1e-9, 2e-9):
        yield f"edge{shift:+g}", Scene((_floor_at(1 + shift, -1),)), (0, 0, 1), (2, 0, 1)
        yield f"vertex{shift:+g}", Scene((_floor_at(1 + shift, shift),)), (0, 0, 1), (2, 0, 1)
    # a leg nearly parallel to the wall y = 0: its fold-back denominator is
    # 2e over |d| = 4, around ray_plane_parameter's 1e-12 * |d| cutoff
    wall = Facet("wall", rect((0, 0, 0), (4, 0, 0), (4, 0, 2), (0, 0, 2)))
    for e in (1e-12, 2e-12, 2.5e-12, 4e-12, 1e-9):
        yield f"parallel{e:g}", Scene((wall, Facet("floor", FLOOR_BIG))), (0, e, 1), (4, e, 1)
    # an occluder whose edge, or vertex, the leg to the floor crosses exactly,
    # and the same occluder moved just inside and outside its slack
    for gap in (-1e-9, 0.0, 5e-10, 1e-9, 2e-9, 1e-6):
        for name, screen in (("edge", _screen_at(gap, 0)), ("vertex", _screen_at(gap, 0.5 + gap))):
            scene = Scene((Facet("floor", FLOOR_BIG), screen))
            yield f"occluder-{name}{gap:+g}", scene, (0, 0, 1), (2, 0, 1)
    # an occluder crossing the leg around OCCLUSION_EPS (1e-6 m) from the transmitter
    for x in (5e-7, 7e-7, 7.1e-7, 1e-6, 1e-3):
        scene = Scene((Facet("floor", FLOOR_BIG), _screen_at(-1, 0, x)))
        yield f"occluder-near-end{x:g}", scene, (0, 0, 1), (2, 0, 1)
    # grazing legs, 1e-9 m above a tilted floor over 10 m: a specular point moves by
    # about 1e-6 m for a rounding change in its image, so any arithmetic without the
    # scalar calls' bits would keep or drop these paths differently. The floor ends, or
    # a wall across the legs stands, within a few micrometres of the specular point.
    tx, rx = _grazing_at(0, -0.25, 1e-9), _grazing_at(10, -0.25, 1e-9)
    for s in (-3e-6, -2e-6, -1.5e-6, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 1.5e-6, 2e-6, 3e-6):
        u = 5 + s
        ends = {"before": _grazing_quad((-1, -2, 0), (u, -2, 0), (u, 2, 0), (-1, 2, 0)),
                "after": _grazing_quad((u, -2, 0), (11, -2, 0), (11, 2, 0), (u, 2, 0))}
        for name, floor in ends.items():
            yield f"grazing-ends-{name}{s:+g}", Scene((Facet("floor", floor),)), tx, rx
        wall = _grazing_quad((u, -2, -1), (u, 2, -1), (u, 2, 1), (u, -2, 1))
        floor = _grazing_quad((-1, -2, 0), (11, -2, 0), (11, 2, 0), (-1, 2, 0))
        yield f"grazing-wall{s:+g}", Scene((Facet("floor", floor), Facet("wall", wall))), tx, rx
    # legs at |cos| from 1e-11 to 1e-6 off a tilted floor, near the origin and 5e3 m
    # out: a leg meets the floor's own plane |the hop's rounding off that plane| / |cos|
    # from the hop, beyond OCCLUSION_EPS for some of them, so only leaving out the
    # facets at a leg's own ends, by identity, keeps every path
    for far in (0.0, 5e3):
        floor = Facet("floor", _grazing_quad((-1, -2, 0), (11, -2, 0), (11, 2, 0), (-1, 2, 0), far=far))
        for cos in (1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            for v in (-1.0, -0.25, 0.5):
                tx, rx = (_grazing_at(u, v, 5 * cos, far=far) for u in (0, 10))
                yield f"own-end-far{far:g}-cos{cos:g}-v{v:+g}", Scene((floor,)), tx, rx
    # a blade along the first leg (0.3, 0.2, 1.1) -> (1.29, -0.13, 0) of a floor path,
    # crossed in its middle at |cos| around GRAZING_COS: the last bit of the occlusion
    # test's denominator decides whether the blade cuts the leg
    tx, rx, hop = np.array([0.3, 0.2, 1.1]), np.array([2.1, -0.4, 0.9]), np.array([1.29, -0.13, 0.0])
    for eps in (9.999e-13, 1.00008e-12, 1.0001e-12, 1.00013e-12, 1.0002e-12):
        scene = Scene((Facet("floor", FLOOR_BIG), Facet("blade", _blade(tx, hop, eps))))
        yield f"blade-cos{eps:g}", scene, tx, rx
    # transmitters 1e-7 m or less from the floor's plane, with paths off the floor: the
    # image of such a transmitter across the floor is as near its plane, so the cone
    # faces through the floor's edges are steep, and a hop within slack of the floor
    # maps to points far beyond them; the cut's margin grows with that ratio
    end = Facet("end", rect((5, -2, 0), (5, -2, 3), (5, 2, 3), (5, 2, 0)))
    side = Facet("side", rect((-1, 2, 0), (5, 2, 0), (5, 2, 3), (-1, 2, 3)))
    for h in (1e-7, 5e-8, -1e-7):
        for i, rx in enumerate(((4, -1, 1e-7), (3, 1, 1.5))):
            yield f"near-plane{h:+g}-{i}", Scene((Facet("floor", FLOOR_BIG), end, side)), (0, 0, h), rx
    # a transmitter 1e-6 m above the floor and 1e-6 m in from its edge x = 1, whose
    # image across the floor is as near: a floor hop e past that edge, within the floor's
    # slack, sends the ray up to a screen about 7e5 * e below the cone face through the
    # image and the edge, and the screen lies wholly 7e-6 m or more below that face, so
    # a margin that does not grow with |X - I| / |P - I| cuts a path the exact pass finds
    floor = Facet("floor", rect((-1, -2, 0), (1, -2, 0), (1, 2, 0), (-1, 2, 0)))
    screen = Facet("screen", rect((1.7, -0.5, 0.6), (1.7, 0.5, 0.6), (1.7, 0.5, 0.69999), (1.7, -0.5, 0.69999)))
    tx = np.array([1 - 1e-6, 0, 1e-6])
    for e in (0.0, 2.5e-10, 5e-10, 1e-9):
        hop = np.array([1 + e, 0, 0])
        up = hop - tx * [1, 1, -1]  # from the image through the hop
        back = unit(up) * [-1, 1, 1]  # off the screen x = 1.7
        rx = tx * [1, 1, -1] + (1.7 - (1 - 1e-6)) / up[0] * up + 0.5 * back
        yield f"near-plane-slack{e:g}", Scene((floor, screen)), tx, rx
    # the cone from the image (0, 0, -1) through the floor x <= 1 has the face x - z = 1;
    # the screen's top vertices lie on it, or d beyond it, and the path to (1, 0, 2 - 3e)
    # meets the floor e past its edge, within its slack (1e-9 m) for some of them; the
    # same near the origin and about 1e6 m out
    for far in (0.0, 1e6):
        for d in (0.0, 1e-9, 2e-9):
            x = 2 + d
            screen = Facet("screen", rect((x, -1, 0), (x, 1, 0), (x, 1, 1), (x, -1, 1)) + far)
            scene = Scene((Facet("floor", rect((-2, -2, 0), (1, -2, 0), (1, 2, 0), (-2, 2, 0)) + far), screen))
            for e in (0.0, 5e-10, 1e-9):
                tx, rx = np.array([0, 0, 1]) + far, np.array([1, 0, 2 - 3 * e]) + far
                yield f"cone-face-far{far:g}-d{d:g}-e{e:g}", scene, tx, rx
    # coplanar floors sharing the edge x = 1, as the slab pieces do, under a roof: the
    # first pair's floor hop is on the shared edge
    west = Facet("west", rect((-2, -2, 0), (1, -2, 0), (1, 2, 0), (-2, 2, 0)))
    east = Facet("east", rect((1, -2, 0), (4, -2, 0), (4, 2, 0), (1, 2, 0)))
    roof = Facet("roof", rect((-2, -2, 3), (-2, 2, 3), (4, 2, 3), (4, -2, 3)))
    for i, (a, b) in enumerate((((0, 0, 1), (2, 0, 1)), ((0.5, -1, 2), (1.5, 1, 0.5)), ((-1, 0, 1.5), (3, 0.5, 1.5)))):
        yield f"coplanar-{i}", Scene((west, east, roof)), a, b


EXHAUSTIVE_CASES = list(_exhaustive_cases())


@pytest.mark.parametrize("case", EXHAUSTIVE_CASES, ids=[c[0] for c in EXHAUSTIVE_CASES])
@pytest.mark.parametrize("max_bounces", [1, 2, 3])
def test_trace_matches_exhaustive_walk(case, max_bounces):
    _, scene, a, b = case
    assert _reprs(trace(scene, a, b, max_bounces)) == _reprs(_exhaustive_trace(scene, a, b, max_bounces))


@pytest.fixture(scope="module")
def default_blocks():
    """Every EXHAUSTIVE_CASES input at k=1..3 and the demo at k=4, with their traces."""
    cases = [(scene, a, b, k) for _, scene, a, b in EXHAUSTIVE_CASES for k in (1, 2, 3)]
    demo = demo_building()
    (a, _), (b,) = demo_positions()
    cases.append((demo, a, b, 4))
    return cases, [_reprs(trace(*case)) for case in cases]


def _receiver_cases():
    """(scene, tx, receivers, k) for every EXHAUSTIVE_CASES input and the demo at k=1..3.

    Each case's receiver is joined by two points on its segment from the transmitter
    and by itself again; in the demo, four receivers face three transmitters, one of
    them inside the glass cubicle, so some receivers have no path.
    """
    cases = []
    for _, scene, a, b in EXHAUSTIVE_CASES:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        cases.append((scene, a, [b, (a + b) / 2, 0.2 * a + 0.8 * b, b]))
    demo = demo_building()
    cases += [(demo, tx, DEMO_RECEIVERS) for tx in DEMO_TRANSMITTERS]
    return [(scene, tx, rxs, k) for scene, tx, rxs in cases for k in (1, 2, 3)]


DEMO_TRANSMITTERS = [np.array(p, dtype=float) for p in ((4, 2.5, 5.6), (15, 2.5, 5.6), (10, 7, 1.5))]
DEMO_RECEIVERS = [np.array(p, dtype=float) for p in ((7, 7.5, 1.4), (16.5, 7.5, 1.4), (3, 12, 6), (3.5, 11.5, 1.2))]


def _transmitter_cases():
    """(scene, transmitters, receivers, k) with several transmitters, one of them repeated.

    Each EXHAUSTIVE_CASES input (k=1, 2) has its transmitter, the midpoint of its
    segment and its transmitter again facing its receiver and a point near it; the demo
    (k=1, 2) has DEMO_TRANSMITTERS and the first again facing DEMO_RECEIVERS.
    """
    cases = []
    for _, scene, a, b in EXHAUSTIVE_CASES:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        cases += [(scene, [a, (a + b) / 2, a], [b, 0.2 * a + 0.8 * b], k) for k in (1, 2)]
    demo = demo_building()
    return cases + [(demo, [*DEMO_TRANSMITTERS, DEMO_TRANSMITTERS[0]], DEMO_RECEIVERS, k) for k in (1, 2)]


@pytest.mark.parametrize("rows", [1, 7, 64, 10**6])
def test_trace_is_the_same_in_blocks_of_any_size(rows, default_blocks, monkeypatch):
    """Splitting each depth into blocks of at most BLOCK_ROWS rows changes no output.
    The first hops and the children kept from all of a block's parents are packed into
    full blocks, so no block, at any depth, is larger."""
    cases, expected = default_blocks
    exact = tracer._trajectories

    def capped(scene, seqs, images, rxs):
        assert len(seqs) <= rows
        return exact(scene, seqs, images, rxs)

    monkeypatch.setattr(tracer, "BLOCK_ROWS", rows)
    monkeypatch.setattr(tracer, "_trajectories", capped)
    assert [_reprs(trace(*case)) for case in cases] == expected


@pytest.fixture(scope="module")
def pair_cases():
    """(scene, transmitters, receivers, k) with each pair traced alone, TX-major:
    _receiver_cases() with one transmitter, and _transmitter_cases()."""
    cases = [(scene, [tx], rxs, k) for scene, tx, rxs, k in _receiver_cases()] + _transmitter_cases()
    return cases, [[_reprs(trace(scene, tx, rx, k)) for tx in txs for rx in rxs] for scene, txs, rxs, k in cases]


@pytest.mark.parametrize("rows", [1, 7, 64, 10**6])
def test_trace_many_is_trace_per_receiver_in_blocks_of_any_size(rows, pair_cases, monkeypatch):
    """trace_pairs over one image forest gives each pair what trace gives it alone, for
    several receivers of one transmitter and for several transmitters, a repeated one
    among them; BLOCK_ROWS bounds their rows, sequences times receivers, at every depth,
    first hops included, and a block has at least one sequence. At 64 rows, a cap that
    ignored the receivers would pack 64 sequences, 256 rows with four receivers, into
    one block."""
    cases, expected = pair_cases
    exact = tracer._trajectories
    receivers = []

    def capped(scene, seqs, images, rxs):
        assert len(seqs) <= max(rows, len(receivers[-1]))
        return exact(scene, seqs, images, rxs)

    monkeypatch.setattr(tracer, "BLOCK_ROWS", rows)
    monkeypatch.setattr(tracer, "_trajectories", capped)
    got = []
    for scene, txs, rxs, k in cases:
        receivers.append(rxs)
        got.append([_reprs(found) for found in tracer.trace_pairs(scene, txs, rxs, k)])
    assert got == expected
    paths = [len(found) for per_case in expected for found in per_case]
    assert paths.count(0) > 10 and len(paths) - paths.count(0) > 10


def _assert_rows_match_the_oracle(scene, seqs, tx, rxs, got, tally, oracle):
    """Each row's exact pass result is the scalar oracle's: None for None, else the same
    bits. ``oracle`` keeps the oracle's reprs of rows already seen, by scene, facets and
    endpoints."""
    for ids, rx, traj in zip(map(tuple, seqs.tolist()), rxs, got, strict=True):
        key = id(scene), ids, tx.tobytes(), rx.tobytes()
        if key not in oracle:
            want = exact_trajectory(scene, tuple(scene.facets[i] for i in ids), tx, rx)
            oracle[key] = _reprs([want] if want else [])
        assert _reprs([traj] if traj else []) == oracle[key], ([scene.facets[i].facet_id for i in ids], tx, rx)
        tally[not oracle[key]] += 1


def _assert_cut_rows_have_no_path(scene, tx, rxs, k, calls, tally, oracle):
    """The rows trace_pairs handed the exact pass (``calls``) and the rows its cut kept
    back together make every facet sequence of 1..k facets times every receiver, as a
    multiset, and the scalar oracle finds no path for any row kept back."""
    handed = Counter(
        (tuple(ids), rx.tobytes()) for seqs, _, got_rxs, _ in calls for ids, rx in zip(seqs.tolist(), got_rxs)
    )
    every = Counter(
        (tuple(ids), np.asarray(rx, dtype=float).tobytes())
        for seqs in _every_sequence(scene, k) for ids in seqs.tolist() for rx in rxs
    )
    assert not handed - every
    for ids, rx in (every - handed).elements():
        key = id(scene), ids, tx.tobytes(), rx
        if key not in oracle:
            want = exact_trajectory(scene, tuple(scene.facets[i] for i in ids), tx, np.frombuffer(rx))
            oracle[key] = _reprs([want] if want else [])
        assert oracle[key] == [], ([scene.facets[i].facet_id for i in ids], tx, np.frombuffer(rx))
        tally["cut"] += 1


def test_the_exact_check_is_the_scalar_oracle_on_every_row_it_receives(default_blocks, monkeypatch):
    """trace_pairs hands the exact pass facet sequences tiled over receivers, with images
    from the transmitter, and every row gets the scalar oracle's answer and bits; every
    row of every sequence and receiver that the reflection-cone cut keeps back has no
    path under the oracle: every EXHAUSTIVE_CASES input at k=1..3, the demo at k=4, and
    _receiver_cases(). The oracle sees each row once."""
    calls = []
    exact = tracer._trajectories

    def record(scene, seqs, images, rxs):
        calls.append((seqs, images, rxs, got := exact(scene, seqs, images, rxs)))
        return got

    monkeypatch.setattr(tracer, "_trajectories", record)
    tally, oracle = {True: 0, False: 0, "cut": 0}, {}
    for scene, tx, rxs, k in [(scene, a, [b], k) for scene, a, b, k in default_blocks[0]] + _receiver_cases():
        calls.clear()
        tracer.trace_pairs(scene, [tx], rxs, k)
        tx = np.asarray(tx, dtype=float)
        for seqs, images, got_rxs, got in calls:
            assert (images[:, 0] == tx).all()
            _assert_rows_match_the_oracle(scene, seqs, tx, got_rxs, got, tally, oracle)
        _assert_cut_rows_have_no_path(scene, tx, rxs, k, calls, tally, oracle)
    assert tally[False] > 1000 and tally[True] > 10 and tally["cut"] > 10000, tally


@pytest.mark.parametrize("k, rows", [(3, (4422, 27316)), (4, (44036, 271872))])
def test_the_cut_hands_the_exact_pass_a_pinned_number_of_rows(k, rows, monkeypatch):
    """The rows, sequences times receivers, that trace_pairs hands the exact pass on the
    demo building: demo_positions(), and DEMO_TRANSMITTERS to DEMO_RECEIVERS. With no
    cut they would be every sequence of 1..k facets, 5526 (k=3) or 93960 (k=4) per
    transmitter, times the receivers: 11052 and 66312 rows at k=3, 187920 and 1127520
    at k=4. A change to the reflection-cone cut or its margin moves these figures."""
    demo, exact, counted = demo_building(), tracer._trajectories, []

    def count(scene, seqs, images, rxs):
        counted[-1] += len(seqs)
        return exact(scene, seqs, images, rxs)

    monkeypatch.setattr(tracer, "_trajectories", count)
    for txs, rxs in (demo_positions(), (DEMO_TRANSMITTERS, DEMO_RECEIVERS)):
        counted.append(0)
        for tx in txs:
            tracer.trace_pairs(demo, [tx], rxs, k)
    assert tuple(counted) == rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(2, 3))
def test_the_cut_keeps_back_no_path_on_random_scenes(seed, k):
    """On a seeded random scene (a floor and two tilted walls), with four receivers of
    one transmitter, no row the reflection-cone cut keeps back has a path. The cut keeps
    back rows in about one draw in five."""
    scene, _ = random_scene(seed)
    tx, *rxs = random_endpoints(np.random.default_rng(seed), 5)
    calls, exact = [], tracer._trajectories

    def record(scene, seqs, images, got_rxs):
        calls.append((seqs, images, got_rxs, None))
        return exact(scene, seqs, images, got_rxs)

    tracer._trajectories = record
    try:
        tracer.trace_pairs(scene, [tx], rxs, k)
    finally:
        tracer._trajectories = exact
    _assert_cut_rows_have_no_path(scene, tx, rxs, k, calls, {"cut": 0}, {})


def _mirrored(scene, tx, seqs):
    """``images[i, j]``: tx mirrored across the first j facets of row i, by mirror_point."""
    images = np.empty((len(seqs), seqs.shape[1] + 1, 3))
    for row, ids in zip(images, seqs.tolist()):
        row[0] = tx
        for j, i in enumerate(ids):
            row[j + 1] = mirror_point(row[j], scene.facets[i].plane_point, scene.facets[i].normal)
    return images


def test_the_exact_check_is_the_scalar_oracle_on_every_sequence():
    """The exact pass on every facet sequence of 1..3 facets of each EXHAUSTIVE_CASES input,
    in one block per length with mirror_point's images, so rows fail at every test the
    oracle makes; the mixed scene's facets have 3, 4 and 5 edges, so padded half-planes
    are used."""
    tally = {True: 0, False: 0}
    for _, scene, tx, rx in EXHAUSTIVE_CASES:
        tx, rx = np.asarray(tx, dtype=float), np.asarray(rx, dtype=float)
        for seqs in _every_sequence(scene, 3):
            rxs = np.tile(rx, (len(seqs), 1))
            got = tracer._trajectories(scene, seqs, _mirrored(scene, tx, seqs), rxs)
            _assert_rows_match_the_oracle(scene, seqs, tx, rxs, got, tally, {})
    assert min(tally.values()) > 100, tally


def test_trace_pairs_of_no_receivers_or_no_transmitters_is_empty():
    demo = demo_building()
    txs, rxs = demo_positions()
    assert tracer.trace_pairs(demo, txs, [], 3) == tracer.trace_pairs(demo, [], rxs, 3) == []


SINGLE_FAULTS = {
    "tx-2d": ((1, 1), (2, 1, 1), 2, "tx and rx must be 3D points"),
    "rx-4d": ((1, 1, 1), (2, 1, 1, 0), 2, "tx and rx must be 3D points"),
    "rx-is-tx": ((1, 1, 1), (1, 1, 1), 2, "tx and rx must be distinct"),
    "k-0": ((1, 1, 1), (2, 1, 1), 0, "max_bounces must be in [1, 4], got 0"),
    "k-9": ((1, 1, 1), (2, 1, 1), 9, "max_bounces must be in [1, 4], got 9"),
    "tx-outside": ((1e9, 1, 1), (2, 1, 1), 2, "tx [1000000000.0, 1.0, 1.0] is outside the scene bounds"),
    "rx-outside": ((1, 1, 1), (2, 1, 1e9), 2, "rx [2.0, 1.0, 1000000000.0] is outside the scene bounds"),
}


@pytest.mark.parametrize("case", list(SINGLE_FAULTS))
def test_trace_pairs_refuses_a_bad_transmitter_or_k_with_no_receivers(case):
    """An input with one fault raises the same error from trace and from trace_pairs, a
    fault of the transmitter or of max_bounces raises it with no receivers too, and a
    fault of max_bounces with no transmitters too."""
    tx, rx, k, message = SINGLE_FAULTS[case]
    demo = demo_building()
    calls = [lambda: trace(demo, tx, rx, k), lambda: tracer.trace_pairs(demo, [tx], [(2, 2, 1), rx], k)]
    if not case.startswith("rx-"):
        calls.append(lambda: tracer.trace_pairs(demo, [tx], [], k))
    if case.startswith("k-"):
        calls += [lambda: tracer.trace_pairs(demo, [], [rx], k), lambda: tracer.trace_pairs(demo, [], [], k)]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("corner", ["edge", "vertex"])
def test_specular_point_on_polygon_boundary_counts_as_inside(corner):
    floor = _floor_at(1, -1 if corner == "edge" else 0)
    (t,) = trace(Scene((floor,)), (0, 0, 1), (2, 0, 1), max_bounces=1)
    assert t.hops[0].point.tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("z0", [0.0, 0.5])
def test_leg_through_occluder_boundary_is_blocked(z0):
    scene = Scene((Facet("floor", FLOOR_BIG), _screen_at(0.0, z0)))
    assert [t.facet_ids for t in trace(scene, (0, 0, 1), (2, 0, 1), max_bounces=1)] == []
    moved = Scene((Facet("floor", FLOOR_BIG), _screen_at(1e-6, z0 + 1e-6)))
    assert [t.facet_ids for t in trace(moved, (0, 0, 1), (2, 0, 1), max_bounces=1)] == [("floor",)]


def _one_side_of_floor(case):
    _, scene, tx, rx = case
    (floor,) = scene.facets
    a, b = ((np.asarray(p) - floor.plane_point) @ floor.normal for p in (tx, rx))
    return a * b > 0


OWN_END_CASES = [c for c in EXHAUSTIVE_CASES if c[0].startswith("own-end-") and _one_side_of_floor(c)]


@pytest.mark.parametrize("case", OWN_END_CASES, ids=[c[0] for c in OWN_END_CASES])
def test_a_leg_is_never_occluded_by_its_own_end_facets(case):
    """TX and RX strictly on one side of a lone floor have exactly the floor path: a
    leg meets the plane of the facet it reflects off only at that hop, however the
    hop rounds, so the oracle and trace both leave that facet out of the leg's
    occlusion test and build the same path."""
    _, scene, tx, rx = case
    exact = exact_trajectory(scene, scene.facets, np.asarray(tx, dtype=float), np.asarray(rx, dtype=float))
    assert exact is not None and exact.facet_ids == ("floor",)
    assert _reprs(trace(scene, tx, rx, 1)) == _reprs([exact])


@pytest.mark.parametrize("h, paths", [(1e-13, 0), (1e-10, 0), (4e-7, 0), (6e-7, 1), (2e-6, 1)])
def test_a_hop_at_a_leg_end_is_no_path(h, paths):
    """A transmitter h above a lone floor leaves a first leg of about h * sqrt(5): a path
    exists only if that leg is longer than OCCLUSION_EPS, and that one rule decides it."""
    floor = Facet("floor", rect((-3, -3, 0), (5, -3, 0), (5, 3, 0), (-3, 3, 0)))
    tx, rx = np.array([0.0, 0.0, h]), np.array([2.0, 0.0, 1.0])
    traced = trace(Scene((floor,)), tx, rx, max_bounces=1)
    assert [t.facet_ids for t in traced] == [("floor",)] * paths
    exact = exact_trajectory(Scene((floor,)), (floor,), tx, rx)
    assert _reprs([] if exact is None else [exact]) == _reprs(traced)


# --- scene validation and IO -----------------------------------------------------


def test_facet_rejects_non_coplanar():
    bad = rect((0, 0, 0), (1, 0, 0), (1, 1, 0.1), (0, 1, 0))
    with pytest.raises(SceneValidationError, match="coplanar"):
        Facet("warped", bad)


@pytest.mark.parametrize("far", [1e4, 3e4, 1e5])
def test_facet_far_from_the_origin_is_still_planar(far):
    """Newell's normal comes from vertex offsets, so the tilted 12 x 4 m floor of the
    own-end inputs validates, with its 48 m^2 area, however far out it sits, and a
    vertex lifted 1 um off its plane is still rejected."""
    corners = ((-1, -2, 0), (11, -2, 0), (11, 2, 0), (-1, 2, 0))
    floor = Facet("floor", _grazing_quad(*corners, far=far))
    assert validate_convex_polygon(floor.vertices)[1] == pytest.approx(48.0)
    with pytest.raises(SceneValidationError, match="coplanar"):
        Facet("warped", _grazing_quad(*corners[:3], (-1, 2, 1e-6), far=far))


def test_facet_rejects_concave():
    bad = rect((0, 0, 0), (2, 0, 0), (0.5, 0.5, 0), (0, 2, 0))
    with pytest.raises(SceneValidationError, match="convex"):
        Facet("arrow", bad)


def test_facet_rejects_degenerate():
    with pytest.raises(SceneValidationError, match="degenerate|area"):
        Facet("line", rect((0, 0, 0), (1, 0, 0), (2, 0, 0)))


def test_scene_rejects_duplicate_ids():
    with pytest.raises(SceneValidationError, match="duplicate"):
        Scene(facets=(Facet("f", FLOOR_BIG), Facet("f", FLOOR_BIG)))


def test_scene_json_round_trip(tmp_path):
    scene = Scene(
        facets=(
            Facet("floor", FLOOR_BIG, "wood", 0.3),
            Facet("pane", rect((0, -1, 0.5), (0, 1, 0.5), (0, 1, 1.5), (0, -1, 1.5)), "glass", 0.03),
        )
    )
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert [f.facet_id for f in loaded.facets] == ["floor", "pane"]
    assert loaded.facet("pane").material_label == "glass"
    assert loaded.facet("pane").thickness_m == 0.03
    assert np.array_equal(loaded.facet("floor").vertices, scene.facet("floor").vertices)


def test_scene_loader_reports_first_violation():
    data = {
        "units": "m",
        "facets": [
            {"id": "ok", "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]},
            {"id": "warped", "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0.1], [0, 1, 0]]},
        ],
    }
    with pytest.raises(SceneValidationError, match="warped"):
        scene_from_dict(data)
    with pytest.raises(SceneValidationError, match="units"):
        scene_from_dict({"units": "ft", "facets": []})


def test_scene_loader_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SceneValidationError, match="JSON"):
        load_scene(path)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="integers of any length parse")
@pytest.mark.parametrize("text", [
    '{"units": "m", "facets": [{"id": "floor", "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0]], "thickness_m": 1%s}]}',
    '{"units": "m", "facets": [{"id": "floor", "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 1%s]]}]}',
], ids=["thickness", "vertex"])
def test_scene_loader_names_the_file_of_an_integer_too_long_to_parse(tmp_path, text):
    """json.load refuses an integer longer than Python's int-parsing limit with a plain
    ValueError; the loader reports it as a scene error that names the file."""
    path = tmp_path / "long.json"
    path.write_text(text % ("0" * sys.get_int_max_str_digits()), encoding="utf-8")
    with pytest.raises(SceneValidationError, match=f"^invalid JSON in {re.escape(str(path))}: Exceeds the limit"):
        load_scene(path)


def test_scene_loader_names_the_file_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"units": "m", "facets": [{"id": "b\xe9ton"}]}'.encode("latin-1"))
    with pytest.raises(SceneValidationError, match=f"^invalid JSON in {re.escape(str(path))}: 'utf-8' codec"):
        load_scene(path)


def test_facet_rejects_an_empty_id_and_a_negative_thickness():
    with pytest.raises(SceneValidationError, match="id must be non-empty"):
        Facet("", FLOOR_BIG)
    with pytest.raises(SceneValidationError, match="thickness must be >= 0"):
        Facet("floor", FLOOR_BIG, "wood", -0.1)
    for value in (math.nan, math.inf):
        with pytest.raises(SceneValidationError, match=f"^facet 'floor': thickness must be >= 0 and finite, got {value}$"):
            Facet("floor", FLOOR_BIG, "wood", value)


def test_scene_facet_lookup_names_an_unknown_id():
    with pytest.raises(KeyError, match="no facet with id 'roof'"):
        Scene(facets=(Facet("floor", FLOOR_BIG),)).facet("roof")


_SQUARE = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
_NOT_A_NUMBER = "facet 'floor': 'thickness_m' must be a number, got "
_NOT_A_STRING = "^facet 'floor': 'material' must be a string, got "
_TOO_LARGE = "^facet 'floor': bad {}: int too large to convert to float$"


def _square(**fields):
    return [{"id": "floor", "vertices": _SQUARE, **fields}]


@pytest.mark.parametrize(
    "facets, match",
    [
        ({"id": "floor", "vertices": _SQUARE}, "non-empty 'facets' list"),
        ([], "non-empty 'facets' list"),
        ([{"vertices": _SQUARE}], "facet #0 is missing a string 'id'"),
        ([{"id": 7, "vertices": _SQUARE}], "facet #0 is missing a string 'id'"),
        ([{"id": "floor"}], "bad or missing 'vertices'"),
        ([{"id": "floor", "vertices": [[0, 0, 0], [1, "x", 0], [1, 1, 0]]}], "bad or missing 'vertices'"),
        ([{"id": "floor", "vertices": [[0, 0, 0], [1, 0], [1, 1, 0]]}], "bad or missing 'vertices'"),
        ([1], "facet #0 must be a JSON object"),
        ([{"id": "floor", "vertices": _SQUARE}, "wall"], "facet #1 must be a JSON object"),
        (_square(thickness_m=[1]), _NOT_A_NUMBER + r"\[1\]"),
        (_square(thickness_m="thick"), _NOT_A_NUMBER + "'thick'"),
        (_square(thickness_m=True), _NOT_A_NUMBER + "True"),
        (_square(thickness_m=None), _NOT_A_NUMBER + "None"),
        (_square(thickness_m=math.nan), "facet 'floor': thickness must be >= 0 and finite, got nan"),
        (_square(vertices=[[0, 0, 0], [1, math.inf, 0], [1, 1, 0]]), "facet 'floor': polygon vertices must be finite"),
        (_square(vertices=[[0, 0, 0], [1, math.nan, 0], [1, 1, 0]]), "facet 'floor': polygon vertices must be finite"),
        (_square(vertices=[[0, 0, 0], [10**400, 0, 0], [1, 1, 0]]), _TOO_LARGE.format("or missing 'vertices'")),
        (_square(thickness_m=10**400), _TOO_LARGE.format("'thickness_m'")),
        (_square(material=None), _NOT_A_STRING + "None"),
        (_square(material=["wood"]), _NOT_A_STRING + r"\['wood'\]"),
        (_square(material=5), _NOT_A_STRING + "5"),
    ],
    ids=[
        "not-a-list", "empty", "no-id", "number-id", "no-vertices", "text-vertex", "ragged", "number", "text",
        "list-thickness", "text-thickness", "bool-thickness", "null-thickness", "nan-thickness", "inf-vertex",
        "nan-vertex", "huge-int-vertex", "huge-int-thickness", "null-material", "list-material", "number-material",
    ],
)
def test_scene_loader_rejects_malformed_facets(facets, match):
    with pytest.raises(SceneValidationError, match=match):
        scene_from_dict({"units": "m", "facets": facets})


@pytest.mark.parametrize(
    "text, kind",
    [("[1, 2]", "list"), ('"x"', "str"), ("null", "NoneType"), ("3", "int")],
    ids=["list", "string", "null", "number"],
)
def test_scene_loader_rejects_a_top_level_that_is_not_an_object(tmp_path, text, kind):
    path = tmp_path / "scene.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SceneValidationError, match=f"^scene must be a JSON object, got {kind}$"):
        load_scene(path)


def test_scene_box_test_in_floats_agrees_with_the_numpy_box_test():
    """Scene.contains compares Python floats with a box it builds once; on and 1e-9
    m around every face of the box, and for NaN and inf, it agrees with the numpy
    test it replaced."""
    scene = Scene((Facet("floor", FLOOR_BIG), Facet("wall", rect((0, 2, 0), (0, 2, 2.5), (3, 2, 2.5), (3, 2, 0)))))
    stacked = np.vstack([f.vertices for f in scene.facets])
    lower, upper = stacked.min(axis=0), stacked.max(axis=0)
    pad = max(3.0, float((upper - lower).max()))
    lower, upper = lower - pad, upper + pad

    def numpy_box(point):
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= lower - 1e-9) and np.all(p <= upper + 1e-9))

    center = (lower + upper) / 2
    values = {axis: [] for axis in range(3)}
    for axis, face in itertools.product(range(3), (lower, upper)):
        edge = face[axis] + (1e-9 if face is upper else -1e-9)
        values[axis] += [face[axis], edge, *np.nextafter(edge, [-np.inf, np.inf]), edge - 1e-9, edge + 1e-9]
    values[0] += [math.nan, math.inf, -math.inf]
    checked = {True: 0, False: 0}
    for axis, column in values.items():
        for value in column:
            point = center.copy()
            point[axis] = value
            assert scene.contains(point.tolist()) == scene.contains(point) == numpy_box(point), (axis, value)
            checked[numpy_box(point)] += 1
    assert min(checked.values()) > 10, checked


def test_scalar_math_gives_the_bits_of_numpy():
    """The exact path takes a 3-vector's length as math.sqrt(v @ v) and the table
    angle as math.degrees: both must equal numpy's own (np.linalg.norm computes
    sqrt(v.dot(v))), or traces and tables would shift silently."""
    rng = np.random.default_rng(15)
    vectors = rng.standard_normal((20000, 3)) * 10.0 ** rng.uniform(-8, 4, (20000, 1))
    assert [math.sqrt(v @ v) for v in vectors] == [float(np.linalg.norm(v)) for v in vectors]
    angles = rng.uniform(0, math.pi / 2, 20000).tolist() + [0.0, math.pi / 2, 1e-300]
    assert [math.degrees(x) for x in angles] == np.degrees(angles).tolist()


def test_stacked_matmul_gives_the_bits_of_the_1d_products():
    """The exact pass takes a @ b row by row as a stacked matmul (tracer._dot), also
    broadcast, as the occlusion test takes legs (rows, legs, 1, 3) against facets
    (facets, 3), and Facet.contains's inward @ p over many points as a stacked mat-vec on
    the scene's zero-padded half-planes. A 1-D a @ b is the BLAS ddot, an FMA chain, so an
    einsum or a sum of the component products differs from it in the last bit for about a
    third of the rows; each row of a stacked matmul is that same BLAS call, so it must
    match the 1-D products bit for bit, or batched traces would shift silently."""
    rng = np.random.default_rng(22)
    a, b = (rng.standard_normal((20000, 3)) * 10.0 ** rng.uniform(-8, 4, (20000, 1)) for _ in range(2))
    assert tracer._dot(a, b).tolist() == [x @ y for x, y in zip(a, b)]
    legs, facets = a[:5000].reshape(1250, 4, 1, 3), b[:16]
    assert tracer._dot(legs, facets).tolist() == [[[x @ y for y in facets] for x in row[:, 0]] for row in legs]
    # half-planes of facets with 3 to 6 edges, zero-padded to 6 rows as Scene stacks them
    edges = rng.integers(3, 7, 20000)
    inward = rng.standard_normal((20000, 6, 3)) * 10.0 ** rng.uniform(-8, 4, (20000, 1, 1))
    inward[np.arange(6) >= edges[:, None]] = 0.0
    stacked = np.matmul(inward, b[:, :, None])[..., 0]
    for row, m, p, e in zip(stacked, inward, b, edges.tolist()):
        assert row[:e].tolist() == (m[:e] @ p).tolist() and not row[e:].any()


def test_geometry_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="zero vector"):
        unit(np.zeros(3))
    for bad in (np.zeros((4, 2)), np.zeros(3), rect((0, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match=r"\(n, 3\) array"):
            validate_convex_polygon(bad)
    with pytest.raises(ValueError, match="zero-length edge"):
        validate_convex_polygon(rect((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
    for value in (math.nan, math.inf, -math.inf):  # refused before Newell's normal, which they make NaN
        with pytest.raises(ValueError, match="^polygon vertices must be finite$"):
            validate_convex_polygon(rect((0, 0, 0), (1, value, 0), (1, 1, 0), (0, 1, 0)))
