import itertools
import math

import numpy as np
import pytest

from raymat import tracer
from raymat.demo import demo_building, demo_positions
from raymat.geometry import (
    ray_plane_parameter, reflect_direction, unit, validate_convex_polygon,
)
from raymat.scene import Facet, Scene, SceneValidationError, load_scene, save_scene, scene_from_dict
from raymat.settling import check_settling, settling_table
from raymat.tracer import OCCLUSION_EPS, _trajectory, trace
from raymat.materials import GLASS, PLASTER, WOOD

from .oracles import brute_force_double_bounce, brute_force_single_bounce
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
    (a, _), (b,) = demo_positions(scene)
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


def _segment_blocked_by_any(scene, start, end, ends):
    """The exact occlusion test run on every facet but the leg's own end facets
    ``ends``, with no batched filter first."""
    direction = end - start
    for facet in scene.facets:
        if any(facet is e for e in ends):
            continue
        t = ray_plane_parameter(start, direction, facet.plane_point, facet.normal)
        if t is None or not 0.0 < t < 1.0:
            continue
        point = start + t * direction
        near_end = min(np.linalg.norm(point - start), np.linalg.norm(point - end))
        if near_end > OCCLUSION_EPS and facet.contains(point):
            return True
    return False


def _exhaustive_trace(scene, tx, rx, max_bounces):
    """Every facet sequence without an immediate repeat, each through the exact check.

    Run it with tracer._segment_blocked replaced by _segment_blocked_by_any.
    """
    tx, rx = np.asarray(tx, dtype=float), np.asarray(rx, dtype=float)
    found = []
    for length in range(1, max_bounces + 1):
        for sequence in itertools.product(scene.facets, repeat=length):
            if any(f is g for f, g in zip(sequence, sequence[1:])):
                continue
            if (t := _trajectory(scene, sequence, tx, rx)) is not None:
                found.append(t)
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


def _exhaustive_cases():
    demo = demo_building()
    txs, rxs = demo_positions(demo)
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
    # grazing legs, 1e-9 m above a tilted floor over 10 m: batched and exact specular
    # points differ by about 1e-6 m, ten times PRUNE_TOL, so only the growth bound
    # keeps the prune and the occlusion classes sound. The floor ends, or a wall
    # across the legs stands, within a few micrometres of the specular point.
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


EXHAUSTIVE_CASES = list(_exhaustive_cases())


@pytest.mark.parametrize("case", EXHAUSTIVE_CASES, ids=[c[0] for c in EXHAUSTIVE_CASES])
@pytest.mark.parametrize("max_bounces", [1, 2, 3])
def test_trace_matches_exhaustive_walk(case, max_bounces, monkeypatch):
    _, scene, a, b = case
    traced = _reprs(trace(scene, a, b, max_bounces))
    monkeypatch.setattr(tracer, "_segment_blocked", _segment_blocked_by_any)
    assert traced == _reprs(_exhaustive_trace(scene, a, b, max_bounces))


@pytest.mark.parametrize("max_bounces", [1, 2, 3])
def test_batched_occlusion_classes_agree_with_exact_test(max_bounces, monkeypatch):
    """A leg the batch calls certainly blocked is blocked on the exact path, and a
    leg it calls certainly clear is not, by the unfiltered exact test."""
    batches, legs = [], []
    survivors = tracer._survivors

    def record(scene, seqs, images, rx):
        rows, blocked, clear = survivors(scene, seqs, images, rx)
        batches.append((seqs[rows], blocked, clear))
        return rows, blocked, clear

    monkeypatch.setattr(tracer, "_survivors", record)
    # _trajectory then runs every leg through this and keeps the exact path's legs
    monkeypatch.setattr(tracer, "_segment_blocked", lambda scene, a, b, ends: legs.append((a, b, ends)) or False)
    classified = {"blocked": 0, "clear": 0}
    for name, scene, tx, rx in EXHAUSTIVE_CASES:
        batches.clear()
        trace(scene, tx, rx, max_bounces)
        for seqs, blocked, clear in batches:
            for ids, blocked_legs, clear_legs in zip(seqs, blocked, clear):
                sequence = tuple(scene.facets[i] for i in ids)
                legs.clear()
                if _trajectory(scene, sequence, np.asarray(tx, dtype=float), np.asarray(rx, dtype=float)) is None:
                    continue  # no exact path, so nothing to occlude
                for leg, (a, b, ends) in enumerate(legs):
                    exact = _segment_blocked_by_any(scene, a, b, ends)
                    where = f"{name}, {[f.facet_id for f in sequence]}, leg {leg}"
                    assert exact or not blocked_legs[leg], f"blocked only in the batch: {where}"
                    assert not exact or not clear_legs[leg], f"clear only in the batch: {where}"
                    classified["blocked"] += bool(blocked_legs[leg])
                    classified["clear"] += bool(clear_legs[leg])
    assert min(classified.values()) > 10, classified


@pytest.fixture(scope="module")
def default_blocks():
    """Every EXHAUSTIVE_CASES input at k=1..3 and the demo at k=4, with their traces."""
    cases = [(scene, a, b, k) for _, scene, a, b in EXHAUSTIVE_CASES for k in (1, 2, 3)]
    demo = demo_building()
    (a, _), (b,) = demo_positions(demo)
    cases.append((demo, a, b, 4))
    return cases, [_reprs(trace(*case)) for case in cases]


@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_trace_is_the_same_in_blocks_of_any_size(rows, default_blocks, monkeypatch):
    """Splitting each depth into blocks of at most BLOCK_ROWS rows changes no output.
    A block is larger only when one parent's children, or the first hops, are."""
    cases, expected = default_blocks
    survivors = tracer._survivors

    def capped(scene, seqs, images, rx):
        assert len(seqs) <= max(rows, len(scene.facets))
        return survivors(scene, seqs, images, rx)

    monkeypatch.setattr(tracer, "BLOCK_ROWS", rows)
    monkeypatch.setattr(tracer, "_survivors", capped)
    assert [_reprs(trace(*case)) for case in cases] == expected


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
    rxs = [np.array(p) for p in ((7, 7.5, 1.4), (16.5, 7.5, 1.4), (3, 12, 6), (3.5, 11.5, 1.2))]
    cases += [(demo, np.array(tx), rxs) for tx in ((4, 2.5, 5.6), (15, 2.5, 5.6), (10, 7, 1.5))]
    return [(scene, tx, rxs, k) for scene, tx, rxs in cases for k in (1, 2, 3)]


@pytest.fixture(scope="module")
def one_receiver_at_a_time():
    """_receiver_cases() with each receiver traced alone."""
    cases = _receiver_cases()
    return cases, [[_reprs(trace(scene, tx, rx, k)) for rx in rxs] for scene, tx, rxs, k in cases]


@pytest.mark.parametrize("rows", [1, 7, 64, 10**6])
def test_trace_many_is_trace_per_receiver_in_blocks_of_any_size(rows, one_receiver_at_a_time, monkeypatch):
    """trace_many over one image tree gives each receiver what trace gives it alone, and
    BLOCK_ROWS bounds its rows, sequences times receivers, beyond the first hops and
    one parent's children. At 64 rows, a cap that ignored the receivers would let
    several parents' children in one block and exceed the bound."""
    cases, expected = one_receiver_at_a_time
    survivors = tracer._survivors
    receivers = []

    def capped(scene, seqs, images, rx):
        assert len(seqs) <= max(rows, len(receivers[-1]) * len(scene.facets))
        return survivors(scene, seqs, images, rx)

    monkeypatch.setattr(tracer, "BLOCK_ROWS", rows)
    monkeypatch.setattr(tracer, "_survivors", capped)
    got = []
    for scene, tx, rxs, k in cases:
        receivers.append(rxs)
        got.append([_reprs(found) for found in tracer.trace_many(scene, tx, rxs, k)])
    assert got == expected
    paths = [len(found) for per_case in expected for found in per_case]
    assert paths.count(0) > 10 and len(paths) - paths.count(0) > 10


def test_trace_many_of_no_receivers_is_empty():
    demo = demo_building()
    assert tracer.trace_many(demo, demo_positions(demo)[0][0], [], 3) == []


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
def test_a_leg_is_never_occluded_by_its_own_end_facets(case, monkeypatch):
    """TX and RX strictly on one side of a lone floor have exactly the floor path: a
    leg meets the plane of the facet it reflects off only at that hop, however the
    hop rounds. The exact check tests both legs; the batch clears both, so trace
    builds the same path without the exact occlusion test."""
    _, scene, tx, rx = case
    exact = _trajectory(scene, scene.facets, np.asarray(tx, dtype=float), np.asarray(rx, dtype=float))
    assert exact is not None and exact.facet_ids == ("floor",)
    monkeypatch.setattr(tracer, "_segment_blocked", None)
    assert _reprs(trace(scene, tx, rx, 1)) == _reprs([exact])


@pytest.mark.parametrize("h, paths", [(1e-13, 0), (1e-10, 0), (4e-7, 0), (6e-7, 1), (2e-6, 1)])
def test_a_hop_at_a_leg_end_is_no_path(h, paths):
    """A transmitter h above a lone floor leaves a first leg of about h * sqrt(5): a path
    exists only if that leg is longer than OCCLUSION_EPS, and that one rule decides it."""
    floor = Facet("floor", rect((-3, -3, 0), (5, -3, 0), (5, 3, 0), (-3, 3, 0)))
    tx, rx = np.array([0.0, 0.0, h]), np.array([2.0, 0.0, 1.0])
    traced = trace(Scene((floor,)), tx, rx, max_bounces=1)
    assert [t.facet_ids for t in traced] == [("floor",)] * paths
    exact = _trajectory(Scene((floor,)), (floor,), tx, rx)
    assert _reprs([] if exact is None else [exact]) == _reprs(traced)


# --- check_settling -------------------------------------------------------------


def test_check_settling_against_reference_thicknesses():
    glass_pane = Facet("pane", FLOOR_BIG, "glass", thickness_m=5e-3)
    wood_board = Facet("board", rect((-1, -2, 1), (5, -2, 1), (5, 2, 1), (-1, 2, 1)), "wood", thickness_m=10e-3)
    mystery = Facet("mystery", rect((-1, -2, 2), (5, -2, 2), (5, 2, 2), (-1, 2, 2)), "unknown", thickness_m=1.0)
    scene = Scene(facets=(glass_pane, wood_board, mystery))

    at_1thz = check_settling(scene, settling_table([GLASS, WOOD, PLASTER], 1000.0))
    assert ("pane", True) in at_1thz  # 5 mm >= 1.4 mm
    at_100ghz = check_settling(scene, settling_table([GLASS, WOOD, PLASTER], 100.0))
    assert ("board", False) in at_100ghz  # 10 mm < 21 mm
    assert ("mystery", None) in at_100ghz


# --- scene validation and IO -----------------------------------------------------


def test_facet_rejects_non_coplanar():
    bad = rect((0, 0, 0), (1, 0, 0), (1, 1, 0.1), (0, 1, 0))
    with pytest.raises(SceneValidationError, match="coplanar"):
        Facet("warped", bad)


@pytest.mark.parametrize("far", [1e4, 3e4, 1e5])
def test_facet_far_from_the_origin_is_still_planar(far):
    """Newell's normal comes from vertex offsets, so the tilted 12 x 4 m floor of the
    own-end inputs validates however far out it sits, and a vertex lifted 1 um off
    its plane is still rejected."""
    corners = ((-1, -2, 0), (11, -2, 0), (11, 2, 0), (-1, 2, 0))
    assert Facet("floor", _grazing_quad(*corners, far=far)).area == pytest.approx(48.0)
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


def test_facet_rejects_an_empty_id_and_a_negative_thickness():
    with pytest.raises(SceneValidationError, match="id must be non-empty"):
        Facet("", FLOOR_BIG)
    with pytest.raises(SceneValidationError, match="thickness must be >= 0"):
        Facet("floor", FLOOR_BIG, "wood", -0.1)


def test_scene_facet_lookup_names_an_unknown_id():
    with pytest.raises(KeyError, match="no facet with id 'roof'"):
        Scene(facets=(Facet("floor", FLOOR_BIG),)).facet("roof")


_SQUARE = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]


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
    ],
    ids=["not-a-list", "empty", "no-id", "number-id", "no-vertices", "text-vertex", "ragged", "number", "text"],
)
def test_scene_loader_rejects_malformed_facets(facets, match):
    with pytest.raises(SceneValidationError, match=match):
        scene_from_dict({"units": "m", "facets": facets})


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


def test_geometry_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="zero vector"):
        unit(np.zeros(3))
    for bad in (np.zeros((4, 2)), np.zeros(3), rect((0, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match=r"\(n, 3\) array"):
            validate_convex_polygon(bad)
    with pytest.raises(ValueError, match="zero-length edge"):
        validate_convex_polygon(rect((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
