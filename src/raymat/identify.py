"""Material identification from total reflection-loss measurements.

Pipeline: enumerate every material sequence a multi-bounce trajectory could
have (with its summed reflection loss from the database), keep the sequences
compatible with a measured total within its uncertainty, and intersect the
survivors across trajectories that share a facet until nothing changes. The
facet is the only variable (the map constraint: one facet, one material);
reflection points (facet plus a 1 cm cell) only label the result.
``identify_loop`` runs ``merge_candidates`` and reports per facet.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import em
from .materials import MaterialParams
from .rldb import OutOfRangeError, RLDatabase
from .scene import Scene
# trace has no caller here, but the benchmark's span hooks (perfbench/spans.py) wrap identify.trace by name
from .tracer import Trajectory, trace, trace_many  # noqa: F401

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


@dataclass
class BeliefState:
    """Material set of each reflection point (each point carries its facet's
    set) plus per-trajectory survivors."""

    rp_domains: dict[RPKey, set[str]]
    survivors: dict[str, list[SequenceCandidate]]
    contradictions: list[RPKey] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.contradictions


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


def enumerate_sequences(
    traj: Trajectory,
    palette: list[MaterialParams],
    db: RLDatabase,
    f_ghz: float,
) -> list[SequenceCandidate]:
    """All |palette|^k material sequences for a k-bounce trajectory.

    Per-hop losses come from the database at (material, f, hop angle); order
    is lexicographic in palette order.

    Raises:
        OutOfRangeError: naming the hop whose incident angle (or f) is outside
            the database grid.
    """
    if not palette:
        raise ValueError("palette must be non-empty")
    per_hop = []  # per hop: ((key, material name), table loss) of each palette material
    for i, (hop, key) in enumerate(zip(traj.hops, trajectory_keys(traj))):
        angle = math.degrees(hop.theta_i)  # the bits of np.degrees
        try:
            per_hop.append([((key, mat.name), db.lookup(mat.name, f_ghz, angle)) for mat in palette])
        except OutOfRangeError as err:
            raise OutOfRangeError(
                f"hop {i} (facet {hop.facet_id!r}, theta={angle:.3g} deg): {err}"
            ) from None
    candidates = []
    for combo in product(*per_hop):
        assignment, losses = zip(*combo) if combo else ((), ())  # no hops: one empty candidate
        candidates.append(SequenceCandidate(assignment, losses, float(sum(losses))))
    return candidates


def match_measurement(
    candidates: list[SequenceCandidate], record: MeasurementRecord
) -> list[SequenceCandidate]:
    """Candidates whose total lies within measured +/- uncertainty (closed band)."""
    u = record.uncertainty_db
    m = record.measured_total_rl_db
    return [c for c in candidates if abs(c.total_rl_db - m) <= u]


def merge_candidates(
    states: Iterable[tuple[str, Iterable[SequenceCandidate]]],
) -> BeliefState:
    """Worklist constraint propagation over facets (AC-3, Mackworth 1977).

    Each facet is one variable, its domain the materials it may be made of, so
    every reflection point on a facet carries the facet's set, however far
    apart the points lie. Each trajectory is one table over its facets: a row
    per survivor, with its ``facet -> material`` map; a candidate that gives
    one facet two materials breaks the map constraint and is dropped. The
    trajectories are taken in order, each propagated to the fixpoint before
    the next. A revise prunes a table's rows to the domains, narrows its
    facets to what the kept rows use (all rows, if none is kept), and queues
    the trajectories watching a facet that shrank, in the order the table
    names them. Domains only shrink, so a trajectory pruned to nothing relaxes
    nothing. The result depends only on the states; unless they contradict
    each other, not even on their order. A trajectory whose candidates name
    different reflection points, or one named twice, is a ValueError.

    An empty domain is a contradiction (bad measurement or wrong map), and so
    is every reflection point of a trajectory whose hypotheses were all
    eliminated.
    """
    domains: dict[str, set[str]] = {}
    tables: dict[str, list[tuple[SequenceCandidate, dict[str, str]]]] = {}
    points: dict[str, list[RPKey]] = {}  # each trajectory's reflection points
    watchers: dict[str, list[str]] = {}
    for tid, candidates in states:
        if tid in tables:
            raise ValueError(f"trajectory {tid!r} was already added")
        candidates = list(candidates)
        points[tid] = [key for key, _ in candidates[0].assignment] if candidates else []
        if any([key for key, _ in cand.assignment] != points[tid] for cand in candidates):
            raise ValueError(f"trajectory {tid!r}: candidates name different reflection points")
        facets = [key.facet_id for key in points[tid]]
        tables[tid] = []
        for cand in candidates:
            row: dict[str, str] = {}
            if all(row.setdefault(f, m) == m for f, (_, m) in zip(facets, cand.assignment)):
                tables[tid].append((cand, row))
        for f in dict.fromkeys(facets):
            watchers.setdefault(f, []).append(tid)
        queue, queued = deque([tid]), {tid}
        while queue:
            t = queue.popleft()
            queued.discard(t)
            table = tables[t]
            # a facet without a domain yet allows every material
            tables[t] = kept = [
                (cand, row) for cand, row in table
                if all(name in domains.get(f, (name,)) for f, name in row.items())
            ]
            support: dict[str, set[str]] = {}
            for _, row in kept or table:
                for f, name in row.items():
                    support.setdefault(f, set()).add(name)
            for f, allowed in support.items():
                current = domains.setdefault(f, allowed)
                if not current <= allowed:
                    current &= allowed
                    for w in watchers[f]:
                        if w != t and w not in queued:
                            queue.append(w)
                            queued.add(w)

    by_point = attrgetter("facet_id", "cell")
    keys = sorted(set().union(*points.values()), key=by_point)
    rp_domains = {k: set(domains.get(k.facet_id, ())) for k in keys}
    contradictions = {key for key, dom in rp_domains.items() if not dom}
    for tid, table in tables.items():
        if not table:
            contradictions.update(points[tid])
    return BeliefState(
        rp_domains=rp_domains,
        survivors={tid: [cand for cand, _ in table] for tid, table in tables.items()},
        contradictions=sorted(contradictions, key=by_point),
    )


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
    budget = em.extract_total_rl(p_tx_dbm, p_rx, f_ghz, traj.total_length)
    return MeasurementRecord(
        trajectory_id=trajectory_id,
        measured_total_rl_db=budget.rl_total_db,
        uncertainty_db=uncertainty_db,
    )


MeasureFn = Callable[[str, Trajectory], "MeasurementRecord | None"]


def traced_pairs(
    scene: Scene, tx_positions: list, rx_positions: list, max_bounces: int
) -> Iterator[list[tuple[str, Trajectory]]]:
    """Each TX-RX pair's ``[(trajectory id, trajectory), ...]``, TX-major.

    Trajectory ids are ``p<pair>t<index>``: the pair's place in the TX-major
    walk over the Cartesian product of positions, then the trajectory's place
    in its trace order. Lazy per transmitter: when the caller reaches a
    transmitter's first pair, one :func:`trace_many` call traces all of its
    receivers over one image tree, so a loop over the pairs holds one
    transmitter's trajectories at a time. A receiver that :func:`trace` would
    refuse raises its error before that transmitter's first pair is yielded.
    """
    per_tx = (trace_many(scene, tx, rx_positions, max_bounces) for tx in tx_positions)
    for pair, trajectories in enumerate(chain.from_iterable(per_tx)):
        yield [(f"p{pair}t{ti}", traj) for ti, traj in enumerate(trajectories)]


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
    """Trace, enumerate, match, and propagate over every TX-RX pair in order.

    Pairs and trajectory ids come from :func:`traced_pairs`. ``measure``
    returns the measurement for a trajectory or None to leave it out. A given
    ``u_db`` is the uncertainty of every measurement; with None each record's
    own is used as is, so a record at 0 matches only an exact total (see
    :func:`match_measurement`). The trajectories with survivors go, in trace
    order, to one :func:`merge_candidates`, so the map constraint (one facet,
    one material) holds within and across trajectories. Every pair is traced:
    each added trajectory can only shrink domains, so more (or more precise)
    data never covers or resolves fewer facets. The report is per facet: resolved, ambiguous (with the RL spread
    of its materials over every hop on it), uncovered or contradicted.
    """
    if not tx_positions or not rx_positions:
        raise ValueError("need at least one TX and one RX position")
    entries: list[tuple[str, list[SequenceCandidate]]] = []
    no_hypothesis: list[str] = []
    skipped: list[str] = []
    # per facet: each hop's table loss of every palette material
    hop_losses: dict[str, list[dict[str, float]]] = {}

    pairs = traced_pairs(scene, tx_positions, rx_positions, max_bounces)
    for labelled in pairs:
        for tid, traj in labelled:
            record = measure(tid, traj)
            if record is None:
                skipped.append(tid)
                continue
            try:
                candidates = enumerate_sequences(traj, palette, db, f_ghz)
            except OutOfRangeError as err:
                skipped.append(f"{tid} ({err})")
                continue
            if u_db is not None:
                record = MeasurementRecord(tid, record.measured_total_rl_db, u_db)
            survivors = match_measurement(candidates, record)
            for i, hop in enumerate(traj.hops):
                hop_losses.setdefault(hop.facet_id, []).append(
                    {c.assignment[i][1]: c.per_hop_rl_db[i] for c in candidates}
                )
            if not survivors:
                no_hypothesis.append(tid)
                continue
            entries.append((tid, survivors))

    belief = merge_candidates(entries)
    report = _build_report(scene, belief, hop_losses, no_hypothesis, skipped)
    return belief, report


def _build_report(
    scene: Scene,
    belief: BeliefState,
    hop_losses: dict[str, list[dict[str, float]]],
    no_hypothesis: list[str],
    skipped: list[str],
) -> IdentificationReport:
    # every reflection point on a facet carries the facet's set
    facet_domains = {key.facet_id: dom for key, dom in belief.rp_domains.items()}
    conflicted_facets = {key.facet_id for key in belief.contradictions}
    resolved: dict[str, str] = {}
    ambiguous: dict[str, tuple[str, ...]] = {}
    for fid, dom in sorted(facet_domains.items()):
        if fid in conflicted_facets:
            continue  # summarized below
        if len(dom) == 1:
            resolved[fid] = next(iter(dom))
        else:
            ambiguous[fid] = tuple(sorted(dom))
    contradictions = tuple(
        f"facet {fid}: reflection-point material sets have empty intersection"
        for fid in sorted(conflicted_facets)
    )
    uncovered = tuple(
        f.facet_id for f in scene.facets if f.facet_id not in facet_domains
    )
    rl_spread_db: dict[str, float] = {}
    for fid, mats in ambiguous.items():
        spread = 0.0
        for losses in hop_losses[fid]:
            row = [losses[name] for name in mats]
            spread = max(spread, max(row) - min(row))
        rl_spread_db[fid] = spread
    return IdentificationReport(
        resolved=resolved,
        ambiguous=ambiguous,
        uncovered=uncovered,
        contradictions=contradictions,
        no_hypothesis=tuple(no_hypothesis),
        skipped=tuple(skipped),
        rl_spread_db=rl_spread_db,
    )
