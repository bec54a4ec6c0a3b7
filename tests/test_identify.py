import math
import os
import random
import re
import subprocess
import sys
from itertools import permutations, product

import numpy as np
import pytest

import raymat
from raymat import em, rldb
from raymat.demo import demo_building, demo_positions
from raymat.identify import (
    IdentificationReport,
    MeasurementRecord,
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


def bits(candidates) -> list:
    """Each candidate with every loss as its float's hex digits."""
    return [(c.assignment, [x.hex() for x in c.per_hop_rl_db], c.total_rl_db.hex()) for c in candidates]


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


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_enumerate_is_every_product_of_scalar_table_lookups(db100, k):
    """Each candidate, in lexicographic palette order, has the bits of db.lookup at its
    hops' angles, and its total those losses added in hop order from 0.0."""
    rng = random.Random(k)
    for _ in range(20):
        traj = synthetic_trajectory([rng.uniform(0.0, 85.0) for _ in range(k)])
        want = []
        for combo in product(PALETTE, repeat=k):
            losses = [db100.lookup(m.name, 100.0, math.degrees(h.theta_i)) for m, h in zip(combo, traj.hops)]
            total = 0.0
            for loss in losses:
                total += loss
            keys = tuple(zip(trajectory_keys(traj), [m.name for m in combo]))
            want.append(SequenceCandidate(keys, tuple(losses), total))
        assert bits(enumerate_sequences(traj, PALETTE, db100, 100.0)) == bits(want)


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
    assert belief.contradicted_facets == {RP1.facet_id}
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


def test_merge_is_order_insensitive():
    t1 = match_measurement(
        reference_candidates(TRAJ1_ANGLES_DEG, (RP1, RP2)),
        MeasurementRecord("t1", 19.0, 1.0),
    )
    t2 = match_measurement(
        reference_candidates(TRAJ2_ANGLES_DEG, (RP1, RP3)),
        MeasurementRecord("t2", 21.5, 1.0),
    )
    # a second point on RP2's facet, which shares RP2's variable
    rp4 = RPKey.from_point(RP2.facet_id, [3.0, -7.5, 3.02])
    t3 = [
        SequenceCandidate(((rp4, name),), (rl,), rl)
        for name, rl in (("plaster", 10.0), ("glass", 11.0))
    ]
    entries = [("t1", t1), ("t2", t2), ("t3", t3)]
    beliefs = [merge_candidates(order) for order in permutations(entries)]
    for belief in beliefs[1:]:
        assert belief.rp_domains == beliefs[0].rp_domains
        assert belief.contradicted_facets == beliefs[0].contradicted_facets
        assert belief.survivors == beliefs[0].survivors
    assert beliefs[0].rp_domains[RP1] == {"glass"}


def single_hop(facet_id, point, material):
    """One trajectory's lone survivor: a hop at point with the given material."""
    return [SequenceCandidate(((RPKey.from_point(facet_id, point), material),), (5.0,), 5.0)]


def test_two_materials_far_apart_on_one_facet_contradict():
    # one facet, two points 2 m apart: the map allows the facet one material
    glass = single_hop("wall", [1.0, 0.0, 1.0], "glass")
    plaster = single_hop("wall", [3.0, 0.0, 1.0], "plaster")
    belief = merge_candidates([("t1", glass), ("t2", plaster)])
    assert not belief.consistent
    assert belief.contradicted_facets == {"wall"}
    assert belief.rp_domains == {glass[0].assignment[0][0]: set(), plaster[0].assignment[0][0]: set()}


def test_two_materials_on_one_facet_do_not_depend_on_the_cell_edge():
    # 2 mm apart across the 1 cm cell edge at x = 1.005, and 3 mm apart inside
    # one cell: the same facet, so the same contradiction
    outcomes = []
    for x_glass, x_plaster, same_cell in ((1.004, 1.006, False), (1.001, 1.004, True)):
        glass = single_hop("wall", [x_glass, 0.0, 1.0], "glass")
        plaster = single_hop("wall", [x_plaster, 0.0, 1.0], "plaster")
        keys = [glass[0].assignment[0][0], plaster[0].assignment[0][0]]
        assert (keys[0] == keys[1]) == same_cell
        belief = merge_candidates([("t1", glass), ("t2", plaster)])
        contradicted = belief.contradicted_facets
        by_facet = {key.facet_id: dom for key, dom in belief.rp_domains.items()}
        outcomes.append((belief.consistent, contradicted, by_facet))
    assert outcomes == [(False, {"wall"}, {"wall": set()})] * 2


@pytest.mark.parametrize("k", [2, 3])
def test_identify_loop_belief_is_merge_candidates_of_its_survivors(db100, k):
    # the loop's belief is the one merge over the (tid, survivors) it matched,
    # in trace order, so the report and merge_candidates never disagree
    scene = demo_building()
    txs, rxs = demo_positions()
    truth = {f.facet_id: f.material_label for f in scene.facets}
    log = []
    measure = make_measure_fn(scene, truth, 100.0, u_db=1.0, log=log)
    belief, _ = identify_loop(scene, txs, rxs, PALETTE, db100, 100.0, 1.0, k, measure)
    entries = []
    for tid, traj, record, _true in log:
        survivors = match_measurement(enumerate_sequences(traj, PALETTE, db100, 100.0), record)
        if survivors:
            entries.append((tid, survivors))
    merged = merge_candidates(entries)
    assert len({key.facet_id for key in merged.rp_domains}) < len(merged.rp_domains)
    assert belief.rp_domains == merged.rp_domains
    assert belief.survivors == merged.survivors


@pytest.mark.parametrize("sigma, seed", [(0.0, 0), (2.0, 4)], ids=["consistent", "contradicting"])
def test_identify_loop_reports_without_building_reflection_points(db100, monkeypatch, sigma, seed):
    """identify_loop and its report build no RPKey and no SequenceCandidate: the belief
    is keyed by facet. Its reflection-point views, built on first read afterwards, are
    merge_candidates' over the same survivors, bit for bit."""
    scene = demo_building()
    txs, rxs = demo_positions()
    truth = {f.facet_id: f.material_label for f in scene.facets}
    log = []
    measure = make_measure_fn(scene, truth, 100.0, u_db=1.0, noise_sigma_db=sigma, master_seed=seed, log=log)

    def refuse(*args, **kwargs):
        raise AssertionError("the report path built a reflection-point object")

    monkeypatch.setattr(RPKey, "from_point", refuse)
    monkeypatch.setattr(SequenceCandidate, "__init__", refuse)
    belief, report = identify_loop(scene, txs, rxs, PALETTE, db100, 100.0, None, 3, measure)
    text = report.to_text()
    monkeypatch.undo()
    entries = []
    for tid, traj, record, _true in log:
        survivors = match_measurement(enumerate_sequences(traj, PALETTE, db100, 100.0), record)
        if survivors:
            entries.append((tid, survivors))
    merged = merge_candidates(entries)
    assert belief.rp_domains == merged.rp_domains
    survivors = {tid: bits(c) for tid, c in belief.survivors.items()}
    assert survivors == {tid: bits(c) for tid, c in merged.survivors.items()}
    assert belief.contradicted_facets == merged.contradicted_facets
    assert belief.consistent == merged.consistent == (sigma == 0.0)
    assert ("# contradictions\n# trajectories" in text) == (sigma == 0.0)


@pytest.mark.parametrize("u_db", [1.0, None])
@pytest.mark.parametrize("table", ["db100", "to-60-deg", "freq-outside"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_identify_loop_scores_each_trajectory_as_enumerate_and_match_do(db100, monkeypatch, k, table, u_db):
    """The rows identify_loop hands its propagation engine are, trajectory by trajectory
    and bit for bit (material per hop, per-hop losses, total),
    match_measurement(enumerate_sequences(...)) of its record (with u_db as its
    uncertainty when given), in trace order; a trajectory without survivors is
    listed as having no hypothesis. The trajectories left unmeasured and those with a hop
    outside the table (one that stops at 60 deg) are skipped in one list, in trace
    order, with enumerate_sequences' error text. A frequency the table lacks is no
    hop's: identify_loop raises lookup's error before measuring, and
    enumerate_sequences raises it for every trajectory."""
    scene = demo_building()
    txs, rxs = demo_positions()
    truth = {f.facet_id: f.material_label for f in scene.facets}
    db, f_ghz = db100, 100.0
    if table == "to-60-deg":
        db = rldb.build(PALETTE, [100.0], np.arange(0.0, 61.0))
    if table == "freq-outside":
        calls = []
        with pytest.raises(OutOfRangeError) as err:
            identify_loop(scene, txs, rxs, PALETTE, db, 140.0, u_db, k, lambda tid, traj: calls.append(tid))
        with pytest.raises(OutOfRangeError) as scalar:
            db.lookup("wood", 140.0, 10.0)
        assert str(err.value) == str(scalar.value) == "frequency 140 outside grid hull [100, 100]"
        assert calls == []
        for _, traj in raymat.identify.traced_pairs(scene, txs, rxs, k):
            with pytest.raises(OutOfRangeError) as one:
                enumerate_sequences(traj, PALETTE, db, 140.0)
            assert str(one.value) == str(scalar.value)
        return
    log = []
    simulate = make_measure_fn(scene, truth, 100.0, u_db=1.5, noise_sigma_db=0.5, master_seed=k, max_angle_deg=90.0, log=log)

    def measure(tid, traj):
        return None if tid.endswith("t1") else simulate(tid, traj)

    handed = []
    propagate = raymat.identify._propagate

    def spy(tables, names):
        tables = list(tables)
        handed.extend(
            (tid, [
                ([names[c] for c in row], [x.hex() for x in hop_rl], total.hex())
                for row, hop_rl, total in zip(table.rows, table.per_hop, table.totals)
            ])
            for tid, table in tables
        )
        return propagate(tables, names)

    monkeypatch.setattr(raymat.identify, "_propagate", spy)
    belief, report = identify_loop(scene, txs, rxs, PALETTE, db, f_ghz, u_db, k, measure)
    measured = {tid: (traj, record) for tid, traj, record, _ in log}
    entries, no_hypothesis, skipped = [], [], []
    for tid, _ in raymat.identify.traced_pairs(scene, txs, rxs, k):
        if tid not in measured:
            skipped.append(tid)
            continue
        traj, record = measured[tid]
        if u_db is not None:
            record = MeasurementRecord(tid, record.measured_total_rl_db, u_db)
        try:
            survivors = match_measurement(enumerate_sequences(traj, PALETTE, db, f_ghz), record)
        except OutOfRangeError as err:
            skipped.append(f"{tid} ({err})")
            continue
        (entries if survivors else no_hypothesis).append((tid, survivors))
    assert handed == [
        (tid, [([name for _, name in a], hop_rl, total) for a, hop_rl, total in bits(c)]) for tid, c in entries
    ]
    assert belief.survivors == merge_candidates(entries).survivors
    assert report.no_hypothesis == tuple(tid for tid, _ in no_hypothesis)
    assert report.skipped == tuple(skipped)
    hull = [line for line in skipped if " (hop " in line]
    assert all(re.fullmatch(r"p\d+t\d+ \(hop \d \(facet '\w+', theta=[\d.e+]+ deg\): .*\)", line) for line in hull)
    assert len(skipped) > len(hull) > 0 or table == "db100"
    assert entries


@pytest.mark.parametrize("cells", [1, 40])
def test_identify_loop_is_the_same_in_chunks_of_any_size(db100, monkeypatch, cells):
    """Scoring at most SCORE_CELLS candidate totals at once changes no survivor bit and
    no report byte: at 1, one trajectory per chunk; at 40, 1 to 13 by hop count."""
    scene = demo_building()
    txs, rxs = demo_positions()
    truth = {f.facet_id: f.material_label for f in scene.facets}

    def run():
        measure = make_measure_fn(scene, truth, 100.0, u_db=6.0, noise_sigma_db=0.5, master_seed=3)
        belief, report = identify_loop(scene, txs, rxs, PALETTE, db100, 100.0, None, 3, measure)
        return [(tid, bits(c)) for tid, c in belief.survivors.items()], report.to_text()

    expected = run()
    assert sum(len(c) for _, c in expected[0]) > 20
    monkeypatch.setattr(raymat.identify, "SCORE_CELLS", cells)
    assert run() == expected


def test_identify_loop_names_a_palette_material_the_table_lacks(db100):
    """A palette material the table lacks is lookup's KeyError, raised before any
    trajectory is measured."""
    scene = demo_building()
    txs, rxs = demo_positions()
    db = rldb.build([WOOD, GLASS], [100.0], np.arange(0.0, 86.0))
    calls = []

    def measure(tid, traj):
        calls.append(tid)
        return MeasurementRecord(tid, 10.0, 1.0)

    with pytest.raises(KeyError) as err:
        identify_loop(scene, txs, rxs, PALETTE, db, 100.0, None, 2, measure)
    with pytest.raises(KeyError) as scalar:
        db.lookup("plaster", 100.0, 10.0)
    assert str(err.value) == str(scalar.value) == "\"material 'plaster' not in database (wood, glass)\""
    assert calls == []
    traj = synthetic_trajectory([30.0])
    with pytest.raises(KeyError) as one:
        enumerate_sequences(traj, PALETTE, db, 100.0)
    assert str(one.value) == str(scalar.value)


@pytest.mark.parametrize("lacks", ["material", "frequency"])
def test_a_table_that_does_not_cover_the_run_fails_before_tracing(monkeypatch, lacks):
    """identify_loop asks the table, before tracing, whether it holds every palette
    material at f: a table that does not is lookup's own error, and neither
    trace_pairs nor measure is called."""
    scene = demo_building()
    txs, rxs = demo_positions()
    if lacks == "material":
        db, f_ghz = rldb.build([WOOD, GLASS], [100.0], np.arange(0.0, 86.0)), 100.0
        error, text = KeyError, "\"material 'plaster' not in database (wood, glass)\""
    else:
        db, f_ghz = rldb.build(PALETTE, [100.0], np.arange(0.0, 86.0)), 28.0
        error, text = OutOfRangeError, "frequency 28 outside grid hull [100, 100]"
    calls = []
    trace_pairs = raymat.identify.trace_pairs
    monkeypatch.setattr(raymat.identify, "trace_pairs", lambda *a: calls.append("trace_pairs") or trace_pairs(*a))

    def measure(tid, traj):
        calls.append(tid)
        return MeasurementRecord(tid, 10.0, 1.0)

    with pytest.raises(error) as err:
        identify_loop(scene, txs, rxs, PALETTE, db, f_ghz, 1.0, 2, measure)
    assert str(err.value) == text
    assert calls == []


def test_enumerate_names_no_hop_for_a_frequency_outside_the_table(db100):
    """A frequency is no hop's: enumerate_sequences raises lookup's own text for it,
    before the hop whose angle is outside the table too."""
    traj = synthetic_trajectory([30.0, 88.0])
    with pytest.raises(OutOfRangeError) as err:
        enumerate_sequences(traj, PALETTE, db100, 28.0)
    assert str(err.value) == "frequency 28 outside grid hull [100, 100]"


# three 2-hop trajectories on a cycle of facets (w wood, p plaster, g glass):
# every order of revision ends in a contradiction, and which facets it names
# depends on the order the worklist revises t0 and t1 in
CYCLE = {
    "t0": (("f4", "f3"), ("ww", "pw", "pp")),
    "t1": (("f3", "f5"), ("wg", "pw", "pp")),
    "t2": (("f5", "f4"), ("ww", "wg", "pg", "gg")),
}


def cycle_outcomes() -> tuple:
    """(domains, contradicted facets, dead trajectories) of the cycle instance."""
    names = {"w": "wood", "p": "plaster", "g": "glass"}
    keys = {fid: RPKey(fid, (i, 0, 0)) for i, fid in enumerate(("f3", "f4", "f5"))}
    entries = [
        (tid, [
            SequenceCandidate(
                tuple((keys[fid], names[m]) for fid, m in zip(facets, row)), (0.0, 0.0), 0.0
            )
            for row in rows
        ])
        for tid, (facets, rows) in CYCLE.items()
    ]
    belief = merge_candidates(entries)
    return (
        sorted((key.facet_id, sorted(dom)) for key, dom in belief.rp_domains.items()),
        sorted(belief.contradicted_facets),
        sorted(tid for tid, cands in belief.survivors.items() if not cands),
    )


def test_contradicting_instance_has_one_outcome_under_every_hash_seed():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(raymat.__file__))
    code = "from tests.test_identify import cycle_outcomes; print(repr(cycle_outcomes()))"
    outputs = set()
    children = [  # all eight run at once, and are collected in seed order
        subprocess.Popen(
            [sys.executable, "-c", code], cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join([src, root])),
        )
        for seed in range(8)
    ]
    finished = [(child, *child.communicate()) for child in children]
    for child, stdout, stderr in finished:
        assert child.returncode == 0, stderr
        outputs.add(stdout)
    expected = cycle_outcomes()
    assert outputs == {repr(expected) + "\n"}
    _domains, contradicted, dead = expected
    assert contradicted == ["f3", "f4"]
    assert dead == ["t0"]


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
        rng=random.Random(1),
    )
    assert record.measured_total_rl_db == pytest.approx(14.68, abs=0.02)


def test_simulate_same_seed_same_record():
    traj = synthetic_trajectory([20.0], facet_ids=["floor"])
    kwargs = dict(
        p_tx_dbm=30.0, f_ghz=100.0, noise_sigma_db=0.5, trajectory_id="t0"
    )
    a = simulate_measurement(simple_scene(), traj, {"floor": GLASS}, rng=random.Random(7), **kwargs)
    b = simulate_measurement(simple_scene(), traj, {"floor": GLASS}, rng=random.Random(7), **kwargs)
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
        simulate_measurement(simple_scene(), traj, {}, 30.0, 100.0, 0.0, rng=random.Random(1))
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma_db must be finite and >= 0"):
            simulate_measurement(
                simple_scene(), traj, {"floor": GLASS}, 30.0, 100.0, sigma, rng=random.Random(1)
            )
    with pytest.raises(ValueError, match="needs an rng"):
        simulate_measurement(simple_scene(), traj, {"floor": GLASS}, 30.0, 100.0, 0.5)


# --- identify_loop -----------------------------------------------------------------


def test_demo_shared_rp_two_trajectory_merge(db100):
    scene = demo_building()
    (tx1, tx2), (rx,) = demo_positions()
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
            scene, traj, truth, 30.0, 100.0, 0.0, rng=random.Random(0), uncertainty_db=1.0,
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
    txs, rxs = demo_positions()
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
    txs, rxs = demo_positions()
    truth = {f.facet_id: PRESETS[f.material_label] for f in scene.facets}

    def only_rail_wall(tid, traj):
        if traj.facet_ids != ("rail_s", "wall_n"):
            return None
        return simulate_measurement(
            scene, traj, truth, 30.0, 100.0, 0.0, rng=random.Random(0), uncertainty_db=1.0,
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
    txs, rxs = demo_positions()
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
        assert report.resolved == {"floor": "wood"}
        texts.append(report.to_text())
    assert texts[0] == texts[1]


def test_identify_loop_u_db_is_every_uncertainty_else_each_record_keeps_its_own(db100):
    # one pass over a lone floor at 45 deg, where wood and plaster lie 3.2 dB
    # apart and glass 7 dB below wood
    scene = scene_from_dict({"units": "m", "facets": [
        {"id": "floor", "vertices": [[-3, -3, 0], [6, -3, 0], [6, 3, 0], [-3, 3, 0]]},
    ]})

    def survivors(loss_of, u, u_db):
        def measure(tid, traj):
            losses = {m.name: db100.lookup(m.name, 100.0, np.degrees(traj.hops[0].theta_i))
                      for m in PALETTE}
            return MeasurementRecord(tid, loss_of(losses), u)

        belief, _ = identify_loop(
            scene, [np.array([0.0, 0, 1])], [np.array([2.0, 0, 1])], PALETTE, db100,
            100.0, u_db, 1, measure,
        )
        return sorted(c.assignment[0][1] for c in belief.survivors.get("p0t0", []))

    def between(losses):
        return (losses["wood"] + losses["plaster"]) / 2

    # the loop-wide 2 dB replaces the record's 0.1 dB, which would keep nothing
    assert survivors(between, 0.1, None) == []
    assert survivors(between, 0.1, 2.0) == ["plaster", "wood"]
    # with no loop-wide u, a record at 0 is exact
    assert survivors(lambda losses: losses["wood"], 0.0, None) == ["wood"]
    assert survivors(lambda losses: losses["wood"] + 1e-9, 0.0, None) == []


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


# 2x2 TX/RX lattice through the demo building
DEMO_LATTICE = (
    [np.array([4.0, 2.5, 5.6]), np.array([15.0, 2.5, 5.6])],
    [np.array([7.0, 7.5, 1.4]), np.array([16.5, 7.5, 1.4])],
)


@pytest.mark.parametrize("positions, k", [("demo", 3), ("lattice", 1), ("lattice", 2)])
def test_identify_loop_never_identifies_less_from_tighter_data(db100, positions, k):
    # noise-free totals summed from the table, so the true sequence always
    # survives; tightening u can only shrink each facet's material set, so it
    # never covers or resolves fewer facets and never resolves one wrongly
    scene = demo_building()
    truth = {f.facet_id: f.material_label for f in scene.facets}
    txs, rxs = demo_positions() if positions == "demo" else DEMO_LATTICE

    def measure_at(u):
        def measure(tid, traj):
            angles = [np.degrees(h.theta_i) for h in traj.hops]
            if max(angles) > 85.0:
                return None
            total = sum(db100.lookup(truth[h.facet_id], 100.0, a) for h, a in zip(traj.hops, angles))
            return MeasurementRecord(tid, total, u)
        return measure

    previous = None
    for u in (4.0, 1.0, 0.3):
        _, report = identify_loop(scene, txs, rxs, PALETTE, db100, 100.0, None, k, measure_at(u))
        assert not report.contradictions and not report.no_hypothesis
        assert all(truth[fid] == name for fid, name in report.resolved.items())
        domains = {fid: {name} for fid, name in report.resolved.items()}
        domains.update((fid, set(names)) for fid, names in report.ambiguous.items())
        if previous is not None:
            assert set(domains) >= set(previous)
            assert all(domains[fid] <= previous[fid] for fid in previous)
        previous = domains
    assert len(previous) == len(report.resolved)  # on these inputs, u=0.3 resolves all it covers


def test_measurement_record_rejects_non_finite_values():
    for total, u in [(math.nan, 1.0), (math.inf, 1.0), (10.0, math.nan), (10.0, math.inf)]:
        with pytest.raises(ValueError, match="must be finite"):
            MeasurementRecord("t1", total, u)


def test_measurement_record_rejects_a_negative_uncertainty():
    with pytest.raises(ValueError, match="uncertainty must be >= 0"):
        MeasurementRecord("t1", 10.0, -0.5)


def test_propagator_rejects_a_trajectory_added_twice():
    key = RPKey("floor", (0, 0, 0))
    wood = [SequenceCandidate(((key, "wood"),), (5.0,), 5.0)]
    glass = [SequenceCandidate(((key, "glass"),), (3.0,), 3.0)]
    with pytest.raises(ValueError, match="'t1' was already added"):
        merge_candidates([("t1", wood), ("t1", glass)])
    # the same candidates under two ids merge: the rejection is by id alone
    assert merge_candidates([("t1", wood), ("t2", wood)]).rp_domains == {key: {"wood"}}


def test_a_table_pruned_to_nothing_narrows_by_the_rows_it_kept_before():
    # t1's second row gives facet A two materials and is dropped on entry; t0 then
    # prunes its first row, so no row is left. Its facets narrow by the rows it kept
    # before that revise, (wood, wood, wood), never by the dropped row: B loses
    # plaster, and t2, over B and C, is pruned to nothing after it.
    a0, a1 = RPKey("A", (0, 0, 0)), RPKey("A", (100, 0, 0))
    b0, b1, c = RPKey("B", (0, 0, 0)), RPKey("B", (100, 0, 0)), RPKey("C", (0, 0, 0))

    def row(*assignment):
        return SequenceCandidate(assignment, tuple(1.0 for _ in assignment), float(len(assignment)))

    belief = merge_candidates([
        ("t0", [row((b0, "plaster"))]),
        ("t1", [row((a0, "wood"), (b1, "wood"), (a1, "wood")), row((a0, "wood"), (b1, "plaster"), (a1, "glass"))]),
        ("t2", [row((b0, "plaster"), (c, "glass"))]),
    ])
    assert belief.facet_domains == {"A": {"wood"}, "B": set(), "C": {"glass"}}
    assert belief.contradicted_facets == {"A", "B", "C"}


@pytest.mark.parametrize("other", [RP2, RPKey(RP1.facet_id, (0, 0, 0))], ids=["other-facet", "same-facet"])
def test_a_trajectory_whose_candidates_name_different_points_is_rejected(other):
    # a trajectory's table is over its reflection points, so every row must name them all
    a = SequenceCandidate(((RP1, "wood"),), (16.39,), 16.39)
    b = SequenceCandidate(((other, "glass"),), (7.34,), 7.34)
    message = "'t1': candidates name different reflection points"
    with pytest.raises(ValueError, match=message):
        merge_candidates([("t1", [a, b])])
    # also when the trajectory comes after one that merged cleanly
    with pytest.raises(ValueError, match=message):
        merge_candidates([("t0", [a]), ("t1", (c for c in [a, b]))])


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


def test_identify_loop_takes_positions_as_numpy_arrays(db100):
    # traced_pairs takes arrays of positions; the emptiness check must too
    scene = demo_building()
    txs, rxs = demo_positions()
    truth = {f.facet_id: f.material_label for f in scene.facets}
    reports = [
        identify_loop(scene, a, b, PALETTE, db100, 100.0, 1.0, 2, make_measure_fn(scene, truth, 100.0, 1.0))[1]
        for a, b in ((txs, rxs), (np.array(txs), np.array(rxs)))
    ]
    assert reports[1].to_text() == reports[0].to_text()
    assert reports[0].resolved.get("floor") == "wood"
    with pytest.raises(ValueError, match="position"):
        identify_loop(scene, np.empty((0, 3)), np.array(rxs), PALETTE, db100, 100.0, 1.0, 1, lambda *_: None)


@pytest.mark.parametrize(
    "palette, u_db, message",
    [
        ([], 1.0, "^palette must be non-empty$"),
        ([WOOD, WOOD], 1.0, "^material 'wood' is listed twice$"),
        ([WOOD, PLASTER, GLASS, PLASTER], None, "^material 'plaster' is listed twice$"),
        (PALETTE, -1.0, r"^u_db must be finite and >= 0, got -1\.0$"),
        (PALETTE, math.nan, "^u_db must be finite and >= 0, got nan$"),
        (PALETTE, math.inf, "^u_db must be finite and >= 0, got inf$"),
    ],
    ids=["empty-palette", "wood-twice", "plaster-twice", "negative-u", "nan-u", "inf-u"],
)
def test_identify_loop_checks_its_arguments_before_tracing(db100, monkeypatch, palette, u_db, message):
    # with nothing measured, a bad palette or u_db never reaches the code that
    # would trip over it; the loop has to refuse it up front
    def no_trace(*args):
        raise AssertionError("traced before the arguments were checked")

    monkeypatch.setattr(raymat.identify, "trace_pairs", no_trace)
    txs, rxs = demo_positions()
    with pytest.raises(ValueError, match=message):
        identify_loop(demo_building(), txs, rxs, palette, db100, 100.0, u_db, 2, lambda *_: None)


def test_enumerate_rejects_a_material_named_twice(db100):
    traj = synthetic_trajectory([30.0])
    with pytest.raises(ValueError, match="^material 'wood' is listed twice$"):
        enumerate_sequences(traj, [WOOD, WOOD], db100, 100.0)


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
        scene, traj, truth_params, 30.0, 100.0, 0.0, rng=random.Random(0), uncertainty_db=1.0
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
            scene, traj, truth, 30.0, 100.0, 0.0, rng=random.Random(0), uncertainty_db=1.0,
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
    # a single-hop trajectory pins the shared facet at a *different* point of
    # it than the double-hop trajectory's; facet-level consistency transfers
    # that to the double hop, which then pins the other facet
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
    merged = merge_candidates(entries)
    by_facet = {k.facet_id: dom for k, dom in merged.rp_domains.items()}
    assert by_facet == {"shared": {"glass"}, "other": {"plaster"}}
    assert len(merged.rp_domains) == 3  # two points on the shared facet
    assert merged.consistent
