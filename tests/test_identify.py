import math
import random
from itertools import permutations

import numpy as np
import pytest

from raymat import em, rldb
from raymat.demo import demo_building, demo_positions
from raymat.identify import (
    IdentificationReport,
    MeasurementRecord,
    Propagator,
    RPKey,
    SequenceCandidate,
    enumerate_sequences,
    identify_loop,
    match_measurement,
    merge_candidates,
    simulate_measurement,
    trajectory_keys,
)
from raymat.materials import GLASS, PLASTER, PRESETS, WOOD
from raymat.rldb import OutOfRangeError
from raymat.scene import scene_from_dict
from raymat.tracer import Hop, Trajectory, trace

from .oracles import (
    REFERENCE_HOP_RL,
    TRAJ1_ANGLES_DEG,
    TRAJ2_ANGLES_DEG,
    joint_enumeration_domains,
)
from .scenegen import make_measure_fn, random_endpoints, random_scene

PALETTE = [WOOD, PLASTER, GLASS]


@pytest.fixture(scope="module")
def db100():
    return rldb.build(PALETTE, [100.0], np.arange(0.0, 86.0), kappa=0.0)


def synthetic_trajectory(angles_deg, facet_ids=None, points=None) -> Trajectory:
    k = len(angles_deg)
    facet_ids = facet_ids or [f"f{i}" for i in range(k)]
    points = points if points is not None else [np.array([float(i), 0.0, 1.0]) for i in range(k)]
    hops = tuple(
        Hop(point=np.asarray(p, float), facet_id=fid, theta_i=math.radians(a))
        for p, fid, a in zip(points, facet_ids, angles_deg)
    )
    lengths = tuple(1.0 for _ in range(k + 1))
    return Trajectory(
        tx=np.array([0.0, 0, 2.0]),
        rx=np.array([float(k), 0, 2.0]),
        hops=hops,
        segment_lengths=lengths,
        total_length=float(k + 1),
    )


# --- RPKey ---------------------------------------------------------------------


def test_rpkey_quantization():
    a = RPKey.from_point("f", [2.021, 0.499, 3.948])
    b = RPKey.from_point("f", [2.019, 0.501, 3.952])
    c = RPKey.from_point("f", [2.08, 0.5, 3.95])
    assert a == b
    assert a != c
    assert a != RPKey.from_point("g", [2.021, 0.499, 3.948])


# --- enumerate_sequences ---------------------------------------------------------


def test_enumerate_nine_candidates_for_double_bounce(db100):
    traj = synthetic_trajectory(TRAJ1_ANGLES_DEG)
    cands = enumerate_sequences(traj, PALETTE, db100, 100.0)
    assert len(cands) == 9
    # lexicographic in palette order: first hop material varies slowest
    first_hop = [c.assignment[0][1] for c in cands]
    assert first_hop == ["wood"] * 3 + ["plaster"] * 3 + ["glass"] * 3
    for c in cands:
        assert c.total_rl_db == pytest.approx(sum(c.per_hop_rl_db), abs=1e-9)


def test_enumerate_all_glass_total_matches_reference(db100):
    traj = synthetic_trajectory(TRAJ1_ANGLES_DEG)
    cands = enumerate_sequences(traj, PALETTE, db100, 100.0)
    all_glass = [c for c in cands if all(m == "glass" for _, m in c.assignment)]
    assert len(all_glass) == 1
    assert all_glass[0].total_rl_db == pytest.approx(14.68, abs=0.02)


def test_enumerate_single_bounce_single_material(db100):
    traj = synthetic_trajectory([30.0])
    cands = enumerate_sequences(traj, [GLASS], db100, 100.0)
    assert len(cands) == 1
    assert cands[0].total_rl_db == cands[0].per_hop_rl_db[0]


def test_enumerate_rejects_out_of_hull_angle(db100):
    traj = synthetic_trajectory([30.0, 88.0])
    with pytest.raises(OutOfRangeError, match="hop 1"):
        enumerate_sequences(traj, PALETTE, db100, 100.0)
    with pytest.raises(ValueError, match="palette"):
        enumerate_sequences(traj, [], db100, 100.0)


# --- reference-table replay (Steps 4 and 5) --------------------------------------

RP1 = RPKey.from_point("s1", [2.02, 0.5, 3.95])
RP2 = RPKey.from_point("s2", [2.04, -7.5, 3.02])
RP3 = RPKey.from_point("s3", [5.49, -1.01, 3.06])


def reference_candidates(angles, keys):
    """The 9 sequence candidates built from the published per-hop losses."""
    cands = []
    for m1 in ("wood", "plaster", "glass"):
        for m2 in ("wood", "plaster", "glass"):
            rl1 = REFERENCE_HOP_RL[angles[0]][m1]
            rl2 = REFERENCE_HOP_RL[angles[1]][m2]
            cands.append(
                SequenceCandidate(
                    assignment=((keys[0], m1), (keys[1], m2)),
                    per_hop_rl_db=(rl1, rl2),
                    total_rl_db=rl1 + rl2,
                )
            )
    return cands


def test_match_trajectory1_19db():
    cands = reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2))
    survivors = match_measurement(cands, MeasurementRecord("t1", 19.0, 1.0))
    picks = {(c.assignment[0][1], c.assignment[1][1]) for c in survivors}
    assert picks == {("plaster", "glass"), ("glass", "plaster")}


def test_match_trajectory2_21p5db():
    cands = reference_candidates(TRAJ2_ANGLES_DEG, (RP1, RP3))
    survivors = match_measurement(cands, MeasurementRecord("t2", 21.5, 1.0))
    picks = {(c.assignment[0][1], c.assignment[1][1]) for c in survivors}
    assert picks == {("wood", "plaster"), ("glass", "wood")}


def test_match_exact_with_zero_uncertainty():
    cands = reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2))
    survivors = match_measurement(cands, MeasurementRecord("t1", 32.79, 0.0))
    assert len(survivors) == 1
    assert survivors[0].assignment == ((RP1, "wood"), (RP2, "wood"))


def test_match_no_hypothesis_is_empty_not_fatal():
    cands = reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2))
    assert match_measurement(cands, MeasurementRecord("t1", 5.0, 0.5)) == []


def test_merge_resolves_all_three_reference_points():
    t1 = match_measurement(
        reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2)),
        MeasurementRecord("t1", 19.0, 1.0),
    )
    t2 = match_measurement(
        reference_candidates(TRAJ2_ANGLES_DEG, (RP1, RP3)),
        MeasurementRecord("t2", 21.5, 1.0),
    )
    belief = merge_candidates([("t1", t1), ("t2", t2)])
    assert belief.consistent
    assert belief.rp_domains[RP1] == {"glass"}
    assert belief.rp_domains[RP2] == {"plaster"}
    assert belief.rp_domains[RP3] == {"wood"}
    assert len(belief.survivors["t1"]) == 1
    assert len(belief.survivors["t2"]) == 1


def test_merge_single_trajectory_unchanged():
    t1 = match_measurement(
        reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2)),
        MeasurementRecord("t1", 19.0, 1.0),
    )
    belief = merge_candidates([("t1", t1)])
    assert belief.consistent
    assert belief.survivors["t1"] == t1
    assert belief.rp_domains[RP1] == {"plaster", "glass"}
    assert belief.rp_domains[RP2] == {"plaster", "glass"}


def test_merge_disjoint_sets_contradict():
    a = SequenceCandidate(((RP1, "wood"),), (16.39,), 16.39)
    b = SequenceCandidate(((RP1, "glass"),), (7.34,), 7.34)
    belief = merge_candidates([("t1", [a]), ("t2", [b])])
    assert not belief.consistent
    assert RP1 in belief.contradictions
    assert belief.rp_domains[RP1] == set()


def test_merge_monotone_under_added_measurements():
    t1 = match_measurement(
        reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2)),
        MeasurementRecord("t1", 19.0, 1.0),
    )
    t2 = match_measurement(
        reference_candidates(TRAJ2_ANGLES_DEG, (RP1, RP3)),
        MeasurementRecord("t2", 21.5, 1.0),
    )
    before = merge_candidates([("t1", t1)]).rp_domains
    after = merge_candidates([("t1", t1), ("t2", t2)]).rp_domains
    for key, dom in before.items():
        assert after[key] <= dom


def propagate(var, entries) -> Propagator:
    engine = Propagator(var)
    for tid, cands in entries:
        engine.add(tid, cands)
    return engine


@pytest.mark.parametrize(
    "var", [lambda key: key, lambda key: key.facet_id], ids=["rpkey", "facet"]
)
def test_merge_is_order_insensitive(var):
    t1 = match_measurement(
        reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2)),
        MeasurementRecord("t1", 19.0, 1.0),
    )
    t2 = match_measurement(
        reference_candidates(TRAJ2_ANGLES_DEG, (RP1, RP3)),
        MeasurementRecord("t2", 21.5, 1.0),
    )
    # a second point on RP2's facet: a separate variable per key, the same
    # one per facet
    rp4 = RPKey.from_point(RP2.facet_id, [3.0, -7.5, 3.02])
    t3 = [
        SequenceCandidate(((rp4, name),), (rl,), rl)
        for name, rl in (("plaster", 10.0), ("glass", 11.0))
    ]
    entries = [("t1", t1), ("t2", t2), ("t3", t3)]
    beliefs = [propagate(var, order).belief() for order in permutations(entries)]
    for belief in beliefs[1:]:
        assert belief.rp_domains == beliefs[0].rp_domains
        assert belief.contradictions == beliefs[0].contradictions
        assert belief.survivors == beliefs[0].survivors
    assert beliefs[0].rp_domains[RP1] == {"glass"}


def test_merge_agrees_with_joint_enumeration_on_reference_instance():
    t1 = match_measurement(
        reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2)),
        MeasurementRecord("t1", 19.0, 1.0),
    )
    t2 = match_measurement(
        reference_candidates(TRAJ2_ANGLES_DEG, (RP1, RP3)),
        MeasurementRecord("t2", 21.5, 1.0),
    )
    entries = [("t1", t1), ("t2", t2)]
    belief = merge_candidates(entries)
    oracle = joint_enumeration_domains(entries)
    assert belief.rp_domains == oracle


def test_merge_agrees_with_joint_enumeration_on_star_instances(db100):
    # star-sharing instances with one global ground truth: several
    # double-bounce trajectories through one common key, measurements taken
    # from the same underlying assignment (the situation the pipeline creates)
    rng = random.Random(99)
    shared_point = [1.0, 2.0, 1.0]
    nontrivial = 0
    for trial in range(30):
        entries = []
        n_traj = rng.randint(2, 3)
        shared_material = rng.choice(PALETTE).name
        for t in range(n_traj):
            angles = (rng.uniform(5, 70), rng.uniform(5, 70))
            traj = synthetic_trajectory(
                angles,
                facet_ids=["shared", f"other{t}"],
                points=[shared_point, [3.0 + t, 0.0, 1.0]],
            )
            cands = enumerate_sequences(traj, PALETTE, db100, 100.0)
            other_material = rng.choice(PALETTE).name
            truth = next(
                c
                for c in cands
                if [m for _, m in c.assignment] == [shared_material, other_material]
            )
            u = rng.uniform(0.5, 2.0)
            survivors = match_measurement(
                cands, MeasurementRecord(f"t{t}", truth.total_rl_db, u)
            )
            entries.append((f"t{t}", survivors))
        belief = merge_candidates(entries)
        oracle = joint_enumeration_domains(entries)
        assert belief.rp_domains == oracle, f"trial {trial}"
        assert belief.consistent
        # fixpoint invariant: a material survives at a key iff every covering
        # trajectory keeps at least one candidate using it there
        for key, dom in belief.rp_domains.items():
            recomputed = None
            for _tid, cands in belief.survivors.items():
                at_key = {
                    name
                    for c in cands
                    for k, name in c.assignment
                    if k == key
                }
                if any(k == key for c in cands for k, _ in c.assignment):
                    recomputed = at_key if recomputed is None else recomputed & at_key
            assert recomputed == dom
        if any(len(dom) > 1 for dom in belief.rp_domains.values()):
            nontrivial += 1
    assert nontrivial > 5  # the instances must actually exercise ambiguity


# --- simulate_measurement ---------------------------------------------------------


def simple_scene():
    floor = np.array([(-1, -2, 0), (5, -2, 0), (5, 2, 0), (-1, 2, 0)], float)
    from raymat.scene import Facet, Scene

    return Scene(facets=(Facet("floor", floor, "glass", 0.1),))


def test_simulate_noise_free_all_glass_reference_total():
    traj = synthetic_trajectory(TRAJ1_ANGLES_DEG, facet_ids=["floor", "floor"])
    record = simulate_measurement(
        simple_scene(),
        traj,
        {"floor": GLASS},
        p_tx_dbm=30.0,
        f_ghz=100.0,
        noise_sigma_db=0.0,
        seed=1,
    )
    assert record.measured_total_rl_db == pytest.approx(14.68, abs=0.02)


def test_simulate_same_seed_same_record():
    traj = synthetic_trajectory([20.0], facet_ids=["floor"])
    kwargs = dict(
        p_tx_dbm=30.0, f_ghz=100.0, noise_sigma_db=0.5, trajectory_id="t0"
    )
    a = simulate_measurement(simple_scene(), traj, {"floor": GLASS}, seed=7, **kwargs)
    b = simulate_measurement(simple_scene(), traj, {"floor": GLASS}, seed=7, **kwargs)
    assert a == b


def test_simulate_noise_statistics():
    traj = synthetic_trajectory([20.0], facet_ids=["floor"])
    scene = simple_scene()
    true_rl = em.reflection_loss(GLASS, 100.0, math.radians(20.0))
    rng = random.Random(123)
    values = [
        simulate_measurement(
            scene, traj, {"floor": GLASS}, 30.0, 100.0, 0.3, rng=rng
        ).measured_total_rl_db
        for _ in range(1000)
    ]
    assert abs(np.mean(values) - true_rl) < 0.05


def test_simulate_requires_ground_truth():
    traj = synthetic_trajectory([20.0], facet_ids=["floor"])
    with pytest.raises(ValueError, match="ground-truth"):
        simulate_measurement(simple_scene(), traj, {}, 30.0, 100.0, 0.0, seed=1)
    with pytest.raises(ValueError, match="noise_sigma"):
        simulate_measurement(
            simple_scene(), traj, {"floor": GLASS}, 30.0, 100.0, -0.1, seed=1
        )


# --- identify_loop -----------------------------------------------------------------


def test_demo_shared_rp_two_trajectory_merge(db100):
    scene = demo_building()
    (tx1, tx2), (rx,) = demo_positions(scene)
    traj1 = next(
        t
        for t in trace(scene, tx1, rx, max_bounces=2)
        if t.facet_ids == ("rail_s", "wall_n")
    )
    traj2 = next(
        t
        for t in trace(scene, tx2, rx, max_bounces=2)
        if t.facet_ids == ("rail_s", "floor")
    )
    # both trajectories hit the same point on the glass railing
    k1 = trajectory_keys(traj1)[0]
    k2 = trajectory_keys(traj2)[0]
    assert k1 == k2

    truth = {f.facet_id: PRESETS[f.material_label] for f in scene.facets}
    entries = []
    for tid, traj in (("t1", traj1), ("t2", traj2)):
        record = simulate_measurement(
            scene, traj, truth, 30.0, 100.0, 0.0, seed=0, uncertainty_db=1.0,
            trajectory_id=tid,
        )
        cands = enumerate_sequences(traj, PALETTE, db100, 100.0)
        entries.append((tid, match_measurement(cands, record)))

    # trajectory-1 alone is ambiguous (symmetric hop angles)
    solo = merge_candidates([entries[0]])
    assert solo.rp_domains[k1] == {"plaster", "glass"}

    merged = merge_candidates(entries)
    assert merged.consistent
    assert merged.rp_domains[k1] == {"glass"}
    rp2 = trajectory_keys(traj1)[1]
    rp3 = trajectory_keys(traj2)[1]
    assert merged.rp_domains[rp2] == {"plaster"}
    assert merged.rp_domains[rp3] == {"wood"}


def test_identify_loop_demo_resolves_materials(db100):
    scene = demo_building()
    txs, rxs = demo_positions(scene)
    truth = {f.facet_id: f.material_label for f in scene.facets}
    measure = make_measure_fn(scene, truth, 100.0, u_db=1.0)
    belief, report = identify_loop(
        scene, txs, rxs, PALETTE, db100, 100.0, 1.0, 2, measure
    )
    assert belief.consistent
    assert not report.contradictions
    assert not report.no_hypothesis
    for fid in report.resolved:
        assert report.resolved[fid] == truth[fid]
    assert report.resolved.get("floor") == "wood"
    assert "door" in report.uncovered  # tucked inside the cubicle, never hit


def test_identify_loop_single_trajectory_keeps_ambiguity(db100):
    scene = demo_building()
    txs, rxs = demo_positions(scene)
    truth = {f.facet_id: PRESETS[f.material_label] for f in scene.facets}

    def only_rail_wall(tid, traj):
        if traj.facet_ids != ("rail_s", "wall_n"):
            return None
        return simulate_measurement(
            scene, traj, truth, 30.0, 100.0, 0.0, seed=0, uncertainty_db=1.0,
            trajectory_id=tid,
        )

    belief, report = identify_loop(
        scene, [txs[0]], rxs, PALETTE, db100, 100.0, 1.0, 2, only_rail_wall
    )
    assert belief.consistent
    assert report.ambiguous.get("rail_s") == ("glass", "plaster")
    assert report.ambiguous.get("wall_n") == ("glass", "plaster")
    assert len(report.skipped) > 0
    # ambiguity is surfaced as a per-facet loss spread between the survivors
    assert set(report.rl_spread_db) == set(report.ambiguous)
    for spread in report.rl_spread_db.values():
        assert spread > 1.0  # glass vs plaster near 11 deg differ by ~4 dB


@pytest.mark.parametrize("tx_order", [1, -1])
def test_identify_loop_spreads_equal_table_lookups_at_every_hop(db100, tx_order):
    # each ambiguous facet's spread, recomputed from the table at every hop
    # angle that landed on it; both TX orders, so that the hops on each facet
    # are recorded in both orders
    scene = demo_building()
    txs, rxs = demo_positions(scene)
    truth = {f.facet_id: f.material_label for f in scene.facets}
    log = []
    measure = make_measure_fn(scene, truth, 100.0, u_db=6.0, log=log)
    _, report = identify_loop(
        scene, txs[::tx_order], rxs, PALETTE, db100, 100.0, 6.0, 2, measure
    )
    assert report.ambiguous and not report.skipped
    angles = {}
    for _tid, traj, _record, _true in log:
        for hop in traj.hops:
            angles.setdefault(hop.facet_id, []).append(np.degrees(hop.theta_i))
    assert any(len(set(angles[fid])) > 1 for fid in report.ambiguous)
    expected = {}
    for fid, mats in report.ambiguous.items():
        spread = 0.0
        for angle in angles[fid]:
            losses = [db100.lookup(name, 100.0, angle) for name in mats]
            spread = max(spread, max(losses) - min(losses))
        expected[fid] = spread
    assert report.rl_spread_db == expected
    assert max(expected.values()) > 1.0


def test_identify_loop_report_ignores_reflection_point_cells(db100):
    # two 1-bounce pairs off one floor, hops 2 mm apart: at x = 1.004 and
    # 1.002 they share a 1 cm cell, at 1.004 and 1.006 they straddle the
    # boundary at 1.005; the facet-level report must not tell them apart
    scene = scene_from_dict({"units": "m", "facets": [
        {"id": "floor", "vertices": [[-3, -3, 0], [6, -3, 0], [6, 3, 0], [-3, 3, 0]],
         "material": "wood"},
    ]})

    def measure(tid, traj):
        # the first pair leaves wood or plaster, the second pins wood
        loss = db100.lookup("wood", 100.0, np.degrees(traj.hops[0].theta_i))
        return MeasurementRecord(tid, loss, 4.0 if tid == "p0t0" else 0.5)

    texts = []
    for second_hop_x in (1.002, 1.006):
        rxs = [np.array([2.008, 0, 1]), np.array([2 * second_hop_x, 0, 1])]
        _, report = identify_loop(
            scene, [np.array([0.0, 0, 1])], rxs, PALETTE, db100, 100.0, None, 1, measure
        )
        assert report.pairs_traced == 2
        assert report.resolved == {"floor": "wood"}
        texts.append(report.to_text())
    assert texts[0] == texts[1]


def test_identify_loop_rejects_zero_uncertainty_without_a_fallback(db100):
    scene = scene_from_dict({"units": "m", "facets": [
        {"id": "floor", "vertices": [[-3, -3, 0], [6, -3, 0], [6, 3, 0], [-3, 3, 0]]},
    ]})

    def measure(tid, traj):
        loss = db100.lookup("wood", 100.0, np.degrees(traj.hops[0].theta_i))
        return MeasurementRecord(tid, loss, 0.0)

    with pytest.raises(ValueError, match="p0t0 has zero uncertainty"):
        identify_loop(
            scene, [np.array([0.0, 0, 1])], [np.array([2.0, 0, 1])], PALETTE, db100, 100.0, None, 1, measure
        )


def test_report_section_headers_in_order():
    # perfbench's cli_chain workload parses the first two sections (resolved
    # and ambiguous facets) by their exact header text
    report = IdentificationReport(
        resolved={"a": "wood"},
        ambiguous={"b": ("glass", "plaster")},
        uncovered=("c",),
        contradictions=("facet d: reflection-point material sets have empty intersection",),
        no_hypothesis=("p1t0",),
        skipped=("p2t0",),
        rl_spread_db={"b": 3.14159265},
        pairs_traced=3,
    )
    lines = report.to_text().splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        "# identification report",
        "# resolved facets (facet_id,material)",
        "# ambiguous facets (facet_id,materials)",
        "# uncovered facets",
        "# rl spread of ambiguous facets (facet_id,rl_spread_db)",
        "# contradictions",
        "# trajectories without surviving hypothesis",
        "# trajectories skipped (no measurement or out of database range)",
    ]
    assert lines[lines.index("# rl spread of ambiguous facets (facet_id,rl_spread_db)") + 1] == "b,3.14159"


def test_identify_loop_counts_pairs_up_to_the_early_stop(db100):
    scene = scene_from_dict({"units": "m", "facets": [
        {"id": "floor", "vertices": [[-3, -3, 0], [6, -3, 0], [6, 3, 0], [-3, 3, 0]],
         "material": "wood"},
    ]})
    txs = [np.array([0.0, 0, 1]), np.array([1.0, 0, 1])]
    rxs = [np.array([2.0, 0, 1])]
    measure = make_measure_fn(scene, {"floor": "wood"}, 100.0, u_db=0.3)
    _, settled = identify_loop(scene, txs, rxs, PALETTE, db100, 100.0, 0.3, 1, measure)
    assert settled.resolved == {"floor": "wood"}
    assert settled.pairs_traced == 1
    _, unmeasured = identify_loop(
        scene, txs, rxs, PALETTE, db100, 100.0, 0.3, 1, lambda *_: None
    )
    assert unmeasured.pairs_traced == 2


def test_identify_loop_reports_uncovered(db100):
    scene, truth = random_scene(3)
    measure = make_measure_fn(scene, truth, 100.0, u_db=1.0)

    def never(tid, traj):
        return None

    belief, report = identify_loop(
        scene, [np.array([-2.0, -2.0, 1.0])], [np.array([0.5, 0.5, 1.0])],
        PALETTE, db100, 100.0, 1.0, 1, never,
    )
    assert set(report.uncovered) == {f.facet_id for f in scene.facets}
    assert not report.resolved
    del measure, belief


def test_identify_loop_requires_positions(db100):
    scene, _ = random_scene(0)
    with pytest.raises(ValueError, match="position"):
        identify_loop(scene, [], [np.zeros(3)], PALETTE, db100, 100.0, 1.0, 1, lambda *_: None)


def test_identify_loop_soundness_random_scenes(db100):
    resolved_total = 0
    for seed in range(15):
        scene, truth = random_scene(seed)
        rng = np.random.default_rng(5000 + seed)
        txs = random_endpoints(rng, 3)
        rxs = random_endpoints(rng, 1)
        measure = make_measure_fn(
            scene, truth, 100.0, u_db=1.0, noise_sigma_db=0.0, master_seed=seed,
            db=db100, min_rl_separation_db=2.6,
        )
        belief, report = identify_loop(
            scene, txs, rxs, PALETTE, db100, 100.0, 1.0, 2, measure
        )
        assert not report.contradictions
        for fid, name in report.resolved.items():
            assert name == truth[fid], f"seed {seed}: {fid}"
        # with exact measurements the all-truth candidate survives in every
        # trajectory, and the truth is in every covered key's domain
        for tid, cands in belief.survivors.items():
            assert any(
                all(name == truth[key.facet_id] for key, name in c.assignment)
                for c in cands
            ), f"seed {seed}: {tid}"
        for key, dom in belief.rp_domains.items():
            assert truth[key.facet_id] in dom
        resolved_total += len(report.resolved)
    assert resolved_total > 10


def corridor_scene():
    from raymat.scene import Facet, Scene

    floor = np.array([(-1, -2, 0), (7, -2, 0), (7, 2, 0), (-1, 2, 0)], float)
    ceiling = np.array([(-1, -2, 2), (-1, 2, 2), (7, 2, 2), (7, -2, 2)], float)
    return Scene(
        facets=(
            Facet("floor", floor, "wood", 0.3),
            Facet("ceiling", ceiling, "plaster", 0.3),
        )
    )


def test_identify_triple_bounce_corridor(db100):
    # 27 candidates per 3-bounce trajectory; truth survives matching
    scene = corridor_scene()
    traj = next(
        t
        for t in trace(scene, [0, 0, 1], [6, 0, 1], max_bounces=3)
        if t.facet_ids == ("floor", "ceiling", "floor")
    )
    cands = enumerate_sequences(traj, PALETTE, db100, 100.0)
    assert len(cands) == 27
    truth_params = {"floor": PRESETS["wood"], "ceiling": PRESETS["plaster"]}
    record = simulate_measurement(
        scene, traj, truth_params, 30.0, 100.0, 0.0, seed=0, uncertainty_db=1.0
    )
    survivors = match_measurement(cands, record)
    assert any(
        [m for _, m in c.assignment] == ["wood", "plaster", "wood"]
        for c in survivors
    )
    # the same reflection point key is reused for the two floor hops only if
    # the hops actually coincide; here they are distinct points
    keys = trajectory_keys(traj)
    assert keys[0] != keys[2]


def test_identify_loop_one_material_per_facet(db100):
    # floor -> ceiling -> floor with every hop at 45 deg: (wood, wood, plaster)
    # and (plaster, wood, wood) match the measured total exactly like the
    # truth (wood, plaster, wood), but they put two materials on the floor
    scene = corridor_scene()
    truth = {"floor": PRESETS["wood"], "ceiling": PRESETS["plaster"]}

    def only_floor_ceiling_floor(tid, traj):
        if traj.facet_ids != ("floor", "ceiling", "floor"):
            return None
        return simulate_measurement(
            scene, traj, truth, 30.0, 100.0, 0.0, seed=0, uncertainty_db=1.0,
            trajectory_id=tid,
        )

    belief, report = identify_loop(
        scene, [[0, 0, 1]], [[6, 0, 1]], PALETTE, db100, 100.0, 1.0, 3,
        only_floor_ceiling_floor,
    )
    (survivors,) = belief.survivors.values()
    assert survivors
    for c in survivors:
        assert len({name for key, name in c.assignment if key.facet_id == "floor"}) == 1
    assert report.resolved == {"floor": "wood", "ceiling": "plaster"}


def test_facet_consistency_strengthens_merge(db100):
    # one trajectory pins the shared facet via a second, single-hop trajectory
    # at a *different* point of the same facet; per-key merge alone cannot
    # transfer that, facet-level consistency can
    t_double = synthetic_trajectory(
        (12.0, 12.0), facet_ids=["shared", "other"], points=[[0, 0, 1], [2, 0, 1]]
    )
    t_single = synthetic_trajectory(
        (30.0,), facet_ids=["shared"], points=[[1, 1, 1]]
    )
    c_double = enumerate_sequences(t_double, PALETTE, db100, 100.0)
    c_single = enumerate_sequences(t_single, PALETTE, db100, 100.0)
    glass_plaster = next(
        c
        for c in c_double
        if [m for _, m in c.assignment] == ["glass", "plaster"]
    )
    glass_single = next(
        c for c in c_single if c.assignment[0][1] == "glass"
    )
    entries = [
        ("td", match_measurement(c_double, MeasurementRecord("td", glass_plaster.total_rl_db, 1.0))),
        ("ts", match_measurement(c_single, MeasurementRecord("ts", glass_single.total_rl_db, 1.0))),
    ]
    plain = merge_candidates(entries)
    keyed = {k.facet_id: dom for k, dom in plain.rp_domains.items() if k.facet_id == "other"}
    assert keyed["other"] == {"glass", "plaster"}  # symmetric totals stay ambiguous
    engine = propagate(lambda key: key.facet_id, entries)
    assert engine.domains["shared"] == {"glass"}
    assert engine.domains["other"] == {"plaster"}
    assert engine.belief().consistent
