import math

import numpy as np
import pytest

from raymat.demo import demo_building
from raymat.geometry import incident_angle, point_in_convex_polygon, reflect_direction, unit
from raymat.scene import Facet, Scene, SceneValidationError, load_scene, save_scene, scene_from_dict
from raymat.settling import settling_table
from raymat.tracer import check_settling, trace
from raymat.materials import GLASS, PLASTER, WOOD

from .oracles import brute_force_double_bounce, brute_force_single_bounce
from .scenegen import random_endpoints, random_scene


def rect(*pts):
    return np.array(pts, dtype=float)


FLOOR_BIG = rect((-1, -2, 0), (5, -2, 0), (5, 2, 0), (-1, 2, 0))


# --- incident_angle ------------------------------------------------------------


def test_incident_angle_normal():
    assert incident_angle(np.array([0.0, 0, -1]), np.array([0.0, 0, 1])) == 0.0


def test_incident_angle_45deg():
    d = np.array([1.0, 0, -1]) / math.sqrt(2)
    assert incident_angle(d, np.array([0.0, 0, 1])) == pytest.approx(math.pi / 4, abs=1e-12)


def test_incident_angle_requires_unit_vectors():
    with pytest.raises(ValueError, match="unit"):
        incident_angle(np.array([0.0, 0, -2]), np.array([0.0, 0, 1]))
    with pytest.raises(ValueError, match="unit"):
        incident_angle(np.array([0.0, 0, -1]), np.array([0.0, 0, 0.5]))


def test_incident_angle_grazing_stays_below_right_angle():
    d = unit(np.array([1.0, 0.0, -1e-7]))
    angle = incident_angle(d, np.array([0.0, 0, 1.0]))
    assert angle < math.pi / 2
    assert angle == pytest.approx(math.pi / 2, abs=1e-6)
    with pytest.raises(ValueError, match="parallel"):
        incident_angle(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0, 1.0]))


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


@pytest.mark.parametrize("max_bounces", [2, 3])
def test_reciprocity_on_random_scenes(max_bounces):
    checked = 0
    for seed in range(40):
        scene, _ = random_scene(seed)
        rng = np.random.default_rng(1000 + seed)
        a, b = random_endpoints(rng, 2)
        fwd = trace(scene, a, b, max_bounces=max_bounces)
        rev = trace(scene, b, a, max_bounces=max_bounces)
        assert len(fwd) == len(rev)
        rev_index = {t.facet_ids: t for t in rev}
        for t in fwd:
            mate = rev_index[t.facet_ids[::-1]]
            assert mate.total_length == pytest.approx(t.total_length, abs=1e-9)
            for hop, mate_hop in zip(t.hops, reversed(mate.hops)):
                assert np.linalg.norm(hop.point - mate_hop.point) < 1e-9
                assert hop.theta_i == pytest.approx(mate_hop.theta_i, abs=1e-9)
            checked += 1
    assert checked > 30  # the generator must actually produce trajectories


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
