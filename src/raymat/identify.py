"""Material identification from total reflection-loss measurements.

Pipeline: enumerate every material sequence a multi-bounce trajectory could
have (with its summed reflection loss from the database), keep the sequences
compatible with a measured total within its uncertainty, and intersect the
survivors across trajectories that share a facet until nothing changes. The
facet is the only variable (the map constraint: one facet, one material);
reflection points (facet plus a 1 cm cell) only label the result.

``identify_loop`` fails before tracing on a table that lacks a palette material
or the run's frequency. It scores all of a run's measured trajectories in one
array pass: one ``RLDatabase.lookup_many`` reads every hop's loss for every
palette material, each trajectory's totals are broadcast sums in hop order, and
one closed ±u mask keeps its survivors as rows of palette indices. One propagation
engine keys the belief by facet; the report reads the facet sets, with
``contradicted_facets`` as the contradiction record (the RL spread reads the
same loss rows). The reflection-point views, ``rp_domains`` and ``survivors``,
are built only when read. ``enumerate_sequences`` is that scoring for one
trajectory, keeping all, and ``merge_candidates`` the engine over candidate lists.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import em
from .materials import MaterialParams
from .rldb import OutOfRangeError, RLDatabase
from .scene import Scene
# trace has no caller here, but the benchmark's span hooks (perfbench/spans.py) wrap identify.trace by name
from .tracer import Trajectory, trace, trace_pairs  # noqa: F401

RP_TOLERANCE_M = 0.01


@dataclass(frozen=True)
class RPKey:
    """Label of a reflection point: facet plus position quantized to 1 cm."""

    facet_id: str
    cell: tuple[int, int, int]

    @classmethod
    def from_point(cls, facet_id: str, point) -> "RPKey":
        p = np.asarray(point, dtype=float).tolist()
        return cls(facet_id, tuple(round(x / RP_TOLERANCE_M) for x in p))


@dataclass(frozen=True)
class SequenceCandidate:
    """One material-per-reflection-point hypothesis with its loss breakdown."""

    assignment: tuple[tuple[RPKey, str], ...]
    per_hop_rl_db: tuple[float, ...]
    total_rl_db: float


@dataclass(frozen=True)
class MeasurementRecord:
    """Measured total reflection loss of one trajectory, +/- uncertainty."""

    trajectory_id: str
    measured_total_rl_db: float
    uncertainty_db: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.measured_total_rl_db) and math.isfinite(self.uncertainty_db)):
            raise ValueError(
                f"measurement {self.trajectory_id!r}: total and uncertainty must be "
                f"finite, got {self.measured_total_rl_db} +/- {self.uncertainty_db}"
            )
        if self.uncertainty_db < 0:
            raise ValueError("uncertainty must be >= 0")


@dataclass(eq=False)
class _Table:
    """One trajectory's candidates as rows of per-hop palette indices, with their
    per-hop losses and totals; ``points`` (the trajectory, or the candidates'
    reflection points) labels the hops, ``kept`` indexes the rows still allowed."""

    points: Trajectory | tuple[RPKey, ...]
    facets: tuple[str, ...]  # per hop
    rows: list[Sequence[int]]
    per_hop: list[Sequence[float]]
    totals: list[float]
    kept: list[int] = field(default_factory=list)

    def candidates(self, keys: tuple[RPKey, ...], names: list[str], indices: Iterable[int]) -> list[SequenceCandidate]:
        return [
            SequenceCandidate(tuple(zip(keys, [names[c] for c in self.rows[i]])), tuple(self.per_hop[i]), self.totals[i])
            for i in indices
        ]


@dataclass
class BeliefState:
    """Material set of each facet, and each trajectory's table (rows over ``names``)
    as the propagation left it. ``contradicted_facets`` is the one contradiction record:
    a facet whose set is empty, or that a trajectory with no row left passes over. The
    two reflection-point views are built on first read: ``rp_domains`` (each point
    carries its facet's set) and ``survivors``."""

    facet_domains: dict[str, set[str]]
    tables: dict[str, _Table]
    names: list[str]

    @cached_property
    def contradicted_facets(self) -> set[str]:
        dead = {f for table in self.tables.values() if not table.kept for f in table.facets}
        return dead.union(f for f, dom in self.facet_domains.items() if not dom)

    @property
    def consistent(self) -> bool:
        return not self.contradicted_facets

    @cached_property
    def _points(self) -> dict[str, tuple[RPKey, ...]]:
        return {
            tid: t.points if isinstance(t.points, tuple) else trajectory_keys(t.points)
            for tid, t in self.tables.items()
        }

    @cached_property
    def rp_domains(self) -> dict[RPKey, set[str]]:
        keys = sorted(set().union(*self._points.values()), key=attrgetter("facet_id", "cell"))
        return {key: set(self.facet_domains[key.facet_id]) for key in keys}

    @cached_property
    def survivors(self) -> dict[str, list[SequenceCandidate]]:
        return {tid: t.candidates(self._points[tid], self.names, t.kept) for tid, t in self.tables.items()}


@dataclass
class IdentificationReport:
    """Facet-level outcome of an identification run plus diagnostics."""

    resolved: dict[str, str]
    ambiguous: dict[str, tuple[str, ...]]
    uncovered: tuple[str, ...]
    contradictions: tuple[str, ...]
    no_hypothesis: tuple[str, ...]
    skipped: tuple[str, ...]
    # per ambiguous facet: the widest gap between its materials' table losses
    # at any hop on it
    rl_spread_db: dict[str, float]

    def to_text(self) -> str:
        # perfbench's cli_chain finds the first two section headers by exact text
        lines = ["# identification report"]
        lines.append("# resolved facets (facet_id,material)")
        for fid in sorted(self.resolved):
            lines.append(f"{fid},{self.resolved[fid]}")
        lines.append("# ambiguous facets (facet_id,materials)")
        for fid in sorted(self.ambiguous):
            lines.append(f"{fid},{'|'.join(self.ambiguous[fid])}")
        lines.append("# uncovered facets")
        lines.extend(sorted(self.uncovered))
        lines.append("# rl spread of ambiguous facets (facet_id,rl_spread_db)")
        for fid in sorted(self.rl_spread_db):
            lines.append(f"{fid},{self.rl_spread_db[fid]:.6g}")
        lines.append("# contradictions")
        lines.extend(self.contradictions)
        lines.append("# trajectories without surviving hypothesis")
        lines.extend(self.no_hypothesis)
        lines.append("# trajectories skipped (no measurement or out of database range)")
        lines.extend(self.skipped)
        return "\n".join(lines) + "\n"


def trajectory_keys(traj: Trajectory) -> tuple[RPKey, ...]:
    """RPKey of every hop, in hop order."""
    return tuple(RPKey.from_point(h.facet_id, h.point) for h in traj.hops)


def _check_palette(palette: list[MaterialParams]) -> None:
    if not palette:
        raise ValueError("palette must be non-empty")
    for i, mat in enumerate(palette):
        if mat.name in [m.name for m in palette[:i]]:
            raise ValueError(f"material {mat.name!r} is listed twice")


def enumerate_sequences(
    traj: Trajectory,
    palette: list[MaterialParams],
    db: RLDatabase,
    f_ghz: float,
) -> list[SequenceCandidate]:
    """All |palette|^k material sequences for a k-bounce trajectory.

    Per-hop losses come from the database at (material, f, hop angle); order
    is lexicographic in palette order. The one-trajectory case of the scoring
    that :func:`identify_loop` runs, with a band that keeps every candidate.

    Raises:
        ValueError: if the palette is empty or names a material twice.
        KeyError: if the database lacks a palette material.
        OutOfRangeError: naming the hop whose incident angle is outside the grid;
            a frequency outside it is lookup's own error, as it is no hop's.
    """
    _check_palette(palette)
    (table,), _ = _score([traj], palette, db, f_ghz, [(0.0, math.inf)])  # a band that keeps all
    if isinstance(table, OutOfRangeError):
        raise table
    return table.candidates(trajectory_keys(traj), [m.name for m in palette], range(len(table.rows)))


SCORE_CELLS = 1 << 16  # most candidate totals, trajectories times |palette|^k, held at once


def _score(
    trajs: list[Trajectory],
    palette: list[MaterialParams],
    db: RLDatabase,
    f_ghz: float,
    bands: list[tuple[float, float]],
) -> tuple[list[_Table | OutOfRangeError], dict[str, np.ndarray]]:
    """Score trajectories in one array pass.

    Returns, per trajectory in order, the table of candidates whose total lies
    within its (measured, u) band or the OutOfRangeError naming its first hop
    outside the table; and, per facet, the (hops, palette) table losses of the
    scored trajectories' hops on it. One :meth:`RLDatabase.lookup_many` reads
    every loss. Per hop count k, each trajectory's |palette|^k totals are k
    broadcast adds from 0.0 in hop order, lexicographic in palette order, and
    one closed-band mask ``abs(total - measured) <= u`` picks the rows.
    """
    names = [m.name for m in palette]
    angles = [math.degrees(h.theta_i) for t in trajs for h in t.hops]  # the bits of np.degrees
    losses, outside = db.lookup_many(names, f_ghz, angles)
    flags = outside.tolist()
    scored: list[_Table | OutOfRangeError] = []
    groups: dict[int, list[tuple[int, int]]] = {}  # hop count -> (trajectory, first hop row)
    hop_rows: dict[str, list[int]] = {}  # per facet: the loss row of each scored hop on it
    start = 0
    for i, traj in enumerate(trajs):
        k = traj.bounces
        if True in flags[start:start + k]:
            scored.append(_hull_error(traj, flags.index(True, start) - start, db, names[0], f_ghz))
        else:
            scored.append(_Table(traj, tuple(h.facet_id for h in traj.hops), [], [], []))
            groups.setdefault(k, []).append((i, start))
            for r, hop in enumerate(traj.hops, start):
                hop_rows.setdefault(hop.facet_id, []).append(r)
        start += k
    for k, members in groups.items():
        step = max(1, SCORE_CELLS // len(names) ** k)
        for chunk in (members[c:c + step] for c in range(0, len(members), step)):
            n = len(chunk)
            hop_losses = losses[np.array([first for _, first in chunk])[:, None] + np.arange(k)]  # (n, k, P)
            totals = np.zeros(n)
            for j in range(k):  # a new axis per hop: (n, P, ..., P)
                totals = totals[..., None] + hop_losses[:, j].reshape((n,) + (1,) * j + (len(names),))
            m, u = np.array([bands[i] for i, _ in chunk]).T.reshape((2, n) + (1,) * k)
            hits = np.nonzero(np.abs(totals - m) <= u)
            combos = np.array(hits[1:], dtype=int).T.reshape(len(hits[0]), k)
            per_hop = hop_losses[hits[0][:, None], np.arange(k), combos]
            rows, hop_rl, picked = combos.tolist(), per_hop.tolist(), totals[hits].tolist()
            ends = np.searchsorted(hits[0], np.arange(1, n + 1)).tolist()  # hits come trajectory by trajectory
            for (i, _), a, b in zip(chunk, [0, *ends], ends):
                scored[i].rows, scored[i].per_hop, scored[i].totals = rows[a:b], hop_rl[a:b], picked[a:b]
    return scored, {f: losses[rows] for f, rows in hop_rows.items()}


def _hull_error(traj: Trajectory, i: int, db: RLDatabase, name: str, f_ghz: float) -> OutOfRangeError:
    """Hop i's OutOfRangeError, in the words of the scalar lookup it fails."""
    hop = traj.hops[i]
    angle = math.degrees(hop.theta_i)
    try:
        db.lookup(name, f_ghz, angle)
    except OutOfRangeError as err:
        return OutOfRangeError(f"hop {i} (facet {hop.facet_id!r}, theta={angle:.3g} deg): {err}")
    raise AssertionError(f"hop {i}: lookup_many and lookup disagree on the hull")


def match_measurement(
    candidates: list[SequenceCandidate], record: MeasurementRecord
) -> list[SequenceCandidate]:
    """Candidates whose total lies within measured +/- uncertainty (closed band)."""
    u = record.uncertainty_db
    m = record.measured_total_rl_db
    return [c for c in candidates if abs(c.total_rl_db - m) <= u]


def merge_candidates(states: Iterable[tuple[str, Iterable[SequenceCandidate]]]) -> BeliefState:
    """:func:`identify_loop`'s propagation over candidate lists, materials
    numbered as they first appear. The result depends only on the states; unless
    they contradict each other, not even on their order. A trajectory whose
    candidates name different reflection points is a ValueError."""
    index: dict[str, int] = {}  # material -> its number in the rows
    tables = []
    for tid, candidates in states:
        candidates = list(candidates)
        keys = tuple(key for key, _ in candidates[0].assignment) if candidates else ()
        if any(tuple(key for key, _ in cand.assignment) != keys for cand in candidates):
            raise ValueError(f"trajectory {tid!r}: candidates name different reflection points")
        rows = [[index.setdefault(name, len(index)) for _, name in cand.assignment] for cand in candidates]
        hop_rl, totals = [c.per_hop_rl_db for c in candidates], [c.total_rl_db for c in candidates]
        tables.append((tid, _Table(keys, tuple(key.facet_id for key in keys), rows, hop_rl, totals)))
    return _propagate(tables, list(index))


def _propagate(tables: Iterable[tuple[str, _Table]], names: list[str]) -> BeliefState:
    """Worklist constraint propagation over facets (AC-3, Mackworth 1977).

    Each facet is one variable, its domain the materials it may be made of;
    each trajectory is one table over its facets, and a row that gives a facet
    two materials breaks the map constraint and is dropped on entry. Tables are
    added in order, each propagated to the fixpoint before the next. A revise
    prunes a table's rows to the domains, narrows its facets to what the kept
    rows use (if none is left, the rows it kept before this revise, never a row
    dropped on entry; a first support becomes the domain), and queues the
    tables watching each facet that shrank, in the order added.
    A trajectory pruned to nothing relaxes nothing; it and an empty domain are
    contradictions. A trajectory added twice is a ValueError.
    """
    domains: dict[str, set[int]] = {}
    added: dict[str, _Table] = {}
    spots: dict[str, dict[str, int]] = {}  # each table's facets, with the first hop on each
    watchers: dict[str, list[str]] = {}
    for tid, table in tables:
        if tid in added:
            raise ValueError(f"trajectory {tid!r} was already added")
        added[tid] = table
        first = spots[tid] = {f: table.facets.index(f) for f in table.facets}
        repeats = [(j, first[f]) for j, f in enumerate(table.facets) if first[f] != j]
        table.kept = [i for i, row in enumerate(table.rows) if all(row[j] == row[h] for j, h in repeats)]
        for f in first:
            watchers.setdefault(f, []).append(tid)
        queue, queued = deque([tid]), {tid}
        while queue:
            t = queue.popleft()
            queued.discard(t)
            revised, rows = added[t], added[t].rows
            before = revised.kept
            for f, j in spots[t].items():  # a facet without a domain yet allows every material
                if f in domains:
                    revised.kept = [i for i in revised.kept if rows[i][j] in domains[f]]
            support = revised.kept or before
            for f, j in spots[t].items() if support else ():
                allowed = {rows[i][j] for i in support}
                current = domains.setdefault(f, allowed)
                if not current <= allowed:
                    current &= allowed
                    for w in watchers[f]:
                        if w != t and w not in queued:
                            queue.append(w)
                            queued.add(w)
    facet_domains = {f: {names[i] for i in domains.get(f, ())} for f in watchers}
    return BeliefState(facet_domains, added, names)


def simulate_measurement(
    scene: Scene,
    traj: Trajectory,
    ground_truth: Mapping[str, MaterialParams],
    p_tx_dbm: float,
    f_ghz: float,
    noise_sigma_db: float = 0.0,
    rng: random.Random | None = None,
    kappa: float = 0.0,
    uncertainty_db: float = 0.0,
    trajectory_id: str = "",
) -> MeasurementRecord:
    """Synthesize the total-RL measurement a receiver would extract.

    Computes the true per-hop losses from the ground-truth materials, builds
    the received power over the full trajectory length, adds seeded gaussian
    noise drawn from ``rng``, and runs the link-budget extraction in reverse.
    Same rng state, same record.

    Raises:
        ValueError: if a hop's facet has no ground-truth material,
            noise_sigma_db is not a finite number >= 0, or noise is asked for
            without an rng.
        em.InconsistentMeasurementError: if the noise drawn is below minus the
            true total, so the receiver's check finds PL below FSPL. The draw
            is still taken from the rng.
    """
    if not 0 <= noise_sigma_db < math.inf:
        raise ValueError(f"noise_sigma_db must be finite and >= 0, got {noise_sigma_db}")
    if noise_sigma_db > 0 and rng is None:
        raise ValueError("noise_sigma_db > 0 needs an rng to draw the noise from")
    true_total = 0.0
    for hop in traj.hops:
        scene.facet(hop.facet_id)  # trajectory must belong to this scene
        mat = ground_truth.get(hop.facet_id)
        if mat is None:
            raise ValueError(
                f"facet {hop.facet_id!r} has no ground-truth material"
            )
        true_total += em.reflection_loss(mat, f_ghz, hop.theta_i, kappa=kappa)
    noise = rng.gauss(0.0, noise_sigma_db) if noise_sigma_db > 0 else 0.0
    p_rx = p_tx_dbm - em.fspl(f_ghz, traj.total_length) - true_total - noise
    return MeasurementRecord(
        trajectory_id=trajectory_id,
        measured_total_rl_db=em.extract_total_rl(p_tx_dbm, p_rx, f_ghz, traj.total_length),
        uncertainty_db=uncertainty_db,
    )


MeasureFn = Callable[[str, Trajectory], "MeasurementRecord | None"]


def traced_pairs(
    scene: Scene, tx_positions: list, rx_positions: list, max_bounces: int
) -> list[tuple[str, Trajectory]]:
    """Every TX-RX pair's ``(trajectory id, trajectory)``, TX-major, in one list.

    Trajectory ids are ``p<pair>t<index>``: the pair's place in the TX-major
    walk over the Cartesian product of positions, then the trajectory's place
    in its trace order. One :func:`trace_pairs` call traces every pair over one
    image forest. A pair that :func:`trace` would refuse raises the error of
    the first such pair in the walk.
    """
    pairs = trace_pairs(scene, tx_positions, rx_positions, max_bounces)
    return [(f"p{pair}t{ti}", traj) for pair, found in enumerate(pairs) for ti, traj in enumerate(found)]


def identify_loop(
    scene: Scene,
    tx_positions: list,
    rx_positions: list,
    palette: list[MaterialParams],
    db: RLDatabase,
    f_ghz: float,
    u_db: float | None,
    max_bounces: int,
    measure: MeasureFn,
) -> tuple[BeliefState, IdentificationReport]:
    """Trace, score and propagate over every TX-RX pair in order.

    Pairs and trajectory ids come from :func:`traced_pairs`. ``measure``
    returns the measurement for a trajectory or None to leave it out. A given
    ``u_db`` is the uncertainty of every measurement; with None each record's
    own is used as is, so a record at 0 matches only an exact total (see
    :func:`match_measurement`). The trajectories with survivors go, in trace
    order, to the one propagation of :func:`merge_candidates`, so the map
    constraint (one facet, one material) holds within and across trajectories;
    the belief is keyed by facet. Every pair is traced: each added trajectory
    can only shrink domains, so more (or more precise) data never covers or
    resolves fewer facets. The report is per facet, and builds no reflection
    point: resolved, ambiguous (with the RL spread of its materials: the widest
    gap between their table losses at any scored hop on it), uncovered or
    contradicted. A trajectory with no measurement, or with a hop outside the
    table, is skipped. No TX or RX, an empty palette or one naming a material
    twice, or a ``u_db`` that is not a finite number >= 0 is a ValueError; a
    palette material or a frequency the table lacks fails before anything is
    traced or measured, with the table's own KeyError or OutOfRangeError.
    """
    if len(tx_positions) == 0 or len(rx_positions) == 0:
        raise ValueError("need at least one TX and one RX position")
    _check_palette(palette)
    if u_db is not None and not 0 <= u_db < math.inf:
        raise ValueError(f"u_db must be finite and >= 0, got {u_db}")
    names = [m.name for m in palette]
    db.lookup_many(names, f_ghz, [])  # the coverage check: lookup's errors, no hop read
    traced = traced_pairs(scene, tx_positions, rx_positions, max_bounces)
    walk = [(tid, traj, measure(tid, traj)) for tid, traj in traced]
    measured = [(traj, record) for _, traj, record in walk if record is not None]
    bands = [(r.measured_total_rl_db, r.uncertainty_db if u_db is None else u_db) for _, r in measured]
    outcomes, hop_losses = _score([traj for traj, _ in measured], palette, db, f_ghz, bands)
    tables: list[tuple[str, _Table]] = []
    no_hypothesis: list[str] = []
    skipped: list[str] = []
    scored = iter(outcomes)
    for tid, _, record in walk:
        table = None if record is None else next(scored)
        if table is None:
            skipped.append(tid)
        elif isinstance(table, OutOfRangeError):
            skipped.append(f"{tid} ({table})")
        elif not table.rows:
            no_hypothesis.append(tid)
        else:
            tables.append((tid, table))
    belief = _propagate(tables, names)
    report = _build_report(scene, belief, hop_losses, no_hypothesis, skipped)
    return belief, report


def _build_report(
    scene: Scene,
    belief: BeliefState,
    hop_losses: dict[str, np.ndarray],
    no_hypothesis: list[str],
    skipped: list[str],
) -> IdentificationReport:
    resolved: dict[str, str] = {}
    ambiguous: dict[str, tuple[str, ...]] = {}
    for fid, dom in sorted(belief.facet_domains.items()):
        if fid in belief.contradicted_facets:
            continue  # summarized below
        if len(dom) == 1:
            resolved[fid] = next(iter(dom))
        else:
            ambiguous[fid] = tuple(sorted(dom))
    contradictions = tuple(
        f"facet {fid}: reflection-point material sets have empty intersection"
        for fid in sorted(belief.contradicted_facets)
    )
    uncovered = tuple(f.facet_id for f in scene.facets if f.facet_id not in belief.facet_domains)
    rl_spread_db: dict[str, float] = {}
    for fid, mats in ambiguous.items():
        rows = hop_losses[fid][:, [belief.names.index(name) for name in mats]]
        rl_spread_db[fid] = float(np.ptp(rows, axis=1).max())
    return IdentificationReport(
        resolved=resolved,
        ambiguous=ambiguous,
        uncovered=uncovered,
        contradictions=contradictions,
        no_hypothesis=tuple(no_hypothesis),
        skipped=tuple(skipped),
        rl_spread_db=rl_spread_db,
    )
