"""Material identification from total reflection-loss measurements.

Pipeline: enumerate every material sequence a multi-bounce trajectory could
have (with its summed reflection loss from the database), keep the sequences
compatible with a measured total within its uncertainty, and intersect the
survivors across trajectories that share a map variable until nothing changes.
``identify_loop`` uses one variable per facet (the map constraint: one facet,
one material); ``merge_candidates`` uses one per reflection point, matched by
facet id plus a quantized position (cell 1 cm).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from . import em
from .materials import MaterialParams
from .rldb import OutOfRangeError, RLDatabase
from .scene import Scene
from .tracer import Trajectory, trace

DEFAULT_RP_TOLERANCE_M = 0.01


@dataclass(frozen=True, order=True)
class RPKey:
    """Identity of a reflection point: facet plus position quantized to delta."""

    facet_id: str
    cell: tuple[int, int, int]

    @classmethod
    def from_point(
        cls, facet_id: str, point, delta_m: float = DEFAULT_RP_TOLERANCE_M
    ) -> "RPKey":
        if delta_m <= 0:
            raise ValueError("spatial tolerance delta must be > 0")
        p = np.asarray(point, dtype=float)
        return cls(facet_id, tuple(int(round(x / delta_m)) for x in p))


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
        if self.uncertainty_db < 0:
            raise ValueError("uncertainty must be >= 0")


@dataclass
class BeliefState:
    """Per-reflection-point material sets plus per-trajectory survivors."""

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
    rp_rows: tuple[tuple[RPKey, tuple[float, ...], tuple[str, ...], float], ...]
    # rp_rows: (key, representative point, sorted surviving materials, RL spread dB)

    def to_text(self) -> str:
        lines = ["# identification report"]
        lines.append("# resolved facets (facet_id,material)")
        for fid in sorted(self.resolved):
            lines.append(f"{fid},{self.resolved[fid]}")
        lines.append("# ambiguous facets (facet_id,materials)")
        for fid in sorted(self.ambiguous):
            lines.append(f"{fid},{'|'.join(self.ambiguous[fid])}")
        lines.append("# uncovered facets")
        lines.extend(sorted(self.uncovered))
        lines.append("# reflection points (facet_id,x,y,z,materials,rl_spread_db)")
        for key, point, mats, spread in self.rp_rows:
            coords = ",".join(f"{x:.6g}" for x in point)
            lines.append(f"{key.facet_id},{coords},{'|'.join(mats)},{spread:.6g}")
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
    keys = trajectory_keys(traj)
    angles_deg = [np.degrees(h.theta_i) for h in traj.hops]
    per_hop: list[dict[str, float]] = []
    for i, angle in enumerate(angles_deg):
        row = {}
        for mat in palette:
            try:
                row[mat.name] = db.lookup(mat.name, f_ghz, angle)
            except OutOfRangeError as err:
                raise OutOfRangeError(
                    f"hop {i} (facet {traj.hops[i].facet_id!r}, "
                    f"theta={angle:.3g} deg): {err}"
                ) from None
        per_hop.append(row)
    candidates = []
    for combo in product(palette, repeat=len(traj.hops)):
        losses = tuple(per_hop[i][mat.name] for i, mat in enumerate(combo))
        candidates.append(
            SequenceCandidate(
                assignment=tuple(
                    (key, mat.name) for key, mat in zip(keys, combo)
                ),
                per_hop_rl_db=losses,
                total_rl_db=float(sum(losses)),
            )
        )
    return candidates


def match_measurement(
    candidates: list[SequenceCandidate], record: MeasurementRecord
) -> list[SequenceCandidate]:
    """Candidates whose total lies within measured +/- uncertainty (closed band)."""
    u = record.uncertainty_db
    m = record.measured_total_rl_db
    return [c for c in candidates if abs(c.total_rl_db - m) <= u]


class Propagator:
    """Worklist constraint propagation over map variables (AC-3, Mackworth 1977).

    ``var(key)`` maps a reflection point to the variable that carries its
    material. Each trajectory's survivors form one table constraint over its
    variables; a candidate that gives one variable two materials breaks the
    map constraint and is dropped on entry. Adding a trajectory intersects
    the domains of its variables with the materials its survivors use there,
    prunes its survivors to the domains, and re-queues only the trajectories
    that watch a variable whose domain shrank. Domains only ever shrink, so a
    trajectory pruned to nothing cannot relax constraints it already imposed.
    While no trajectory is pruned to nothing, the fixpoint does not depend on
    the order of the adds; once one is (a contradiction), which domains end
    empty can.
    """

    def __init__(self, var: Callable[[RPKey], Hashable]):
        self.var = var
        self.domains: dict[Hashable, set[str]] = {}
        self.survivors: dict[str, list[SequenceCandidate]] = {}
        self._coverage: dict[str, set[RPKey]] = {}
        self._watchers: dict[Hashable, list[str]] = {}

    def add(self, tid: str, candidates: Iterable[SequenceCandidate]) -> None:
        """Add one trajectory's survivors and propagate to the fixpoint."""
        if tid in self.survivors:
            raise ValueError(f"trajectory {tid!r} was already added")
        candidates = list(candidates)
        self._coverage[tid] = {key for c in candidates for key, _ in c.assignment}
        self.survivors[tid] = [c for c in candidates if self._map_consistent(c)]
        for v in {self.var(key) for key in self._coverage[tid]}:
            self._watchers.setdefault(v, []).append(tid)
        queue, queued = deque([tid]), {tid}
        while queue:
            t = queue.popleft()
            queued.discard(t)
            for v in self._revise(t):
                for w in self._watchers[v]:
                    if w != t and w not in queued:
                        queue.append(w)
                        queued.add(w)

    def settled(self) -> bool:
        """Every covered variable is down to a single material."""
        return bool(self._watchers) and all(
            len(self.domains.get(v, ())) == 1 for v in self._watchers
        )

    def belief(self) -> BeliefState:
        """Per-RPKey snapshot: an empty set at a key is a contradiction (bad
        measurement or wrong map), and so is every key of a trajectory whose
        hypotheses were all eliminated."""
        keys = sorted(set().union(*self._coverage.values()))
        rp_domains = {k: set(self.domains.get(self.var(k), ())) for k in keys}
        contradictions = {k for k, dom in rp_domains.items() if not dom}
        for tid, cands in self.survivors.items():
            if not cands:
                contradictions |= self._coverage[tid]
        return BeliefState(
            rp_domains=rp_domains,
            survivors={tid: list(c) for tid, c in self.survivors.items()},
            contradictions=sorted(contradictions),
        )

    def _map_consistent(self, cand: SequenceCandidate) -> bool:
        seen: dict[Hashable, str] = {}
        return all(
            seen.setdefault(self.var(key), name) == name
            for key, name in cand.assignment
        )

    def _revise(self, tid: str) -> set[Hashable]:
        """Constrain domains by tid's survivors, then prune them, until stable;
        returns the variables whose domains shrank."""
        changed: set[Hashable] = set()
        while True:
            cands = self.survivors[tid]
            support: dict[Hashable, set[str]] = {}
            for c in cands:
                for key, name in c.assignment:
                    support.setdefault(self.var(key), set()).add(name)
            for v, allowed in support.items():
                current = self.domains.get(v)
                if current is None:
                    self.domains[v] = allowed
                elif not current <= allowed:
                    current &= allowed
                    changed.add(v)
            kept = [
                c
                for c in cands
                if all(name in self.domains[self.var(k)] for k, name in c.assignment)
            ]
            if len(kept) == len(cands):
                return changed
            self.survivors[tid] = kept


def merge_candidates(
    states: Iterable[tuple[str, list[SequenceCandidate]]],
) -> BeliefState:
    """Fixpoint constraint propagation across trajectories sharing RPKeys.

    Runs the :class:`Propagator` with every RPKey as its own variable. Unless
    the states contradict each other, the result does not depend on their
    order.
    """
    engine = Propagator(lambda key: key)
    for tid, cands in states:
        engine.add(tid, cands)
    return engine.belief()


def simulate_measurement(
    scene: Scene,
    traj: Trajectory,
    ground_truth: Mapping[str, MaterialParams],
    p_tx_dbm: float,
    f_ghz: float,
    noise_sigma_db: float = 0.0,
    seed: int | None = None,
    rng: random.Random | None = None,
    kappa: float = 0.0,
    uncertainty_db: float = 0.0,
    trajectory_id: str = "",
) -> MeasurementRecord:
    """Synthesize the total-RL measurement a receiver would extract.

    Computes the true per-hop losses from the ground-truth materials, builds
    the received power over the full trajectory length, adds seeded gaussian
    noise, and runs the link-budget extraction in reverse. Same seed (or rng
    state), same record.

    Raises:
        ValueError: if a hop's facet has no ground-truth material or
            noise_sigma_db < 0.
    """
    if noise_sigma_db < 0:
        raise ValueError("noise_sigma_db must be >= 0")
    true_total = 0.0
    for hop in traj.hops:
        scene.facet(hop.facet_id)  # trajectory must belong to this scene
        mat = ground_truth.get(hop.facet_id)
        if mat is None:
            raise ValueError(
                f"facet {hop.facet_id!r} has no ground-truth material"
            )
        true_total += em.reflection_loss(mat, f_ghz, hop.theta_i, kappa=kappa)
    generator = rng if rng is not None else random.Random(seed)
    noise = generator.gauss(0.0, noise_sigma_db) if noise_sigma_db > 0 else 0.0
    p_rx = p_tx_dbm - em.fspl(f_ghz, traj.total_length) - true_total - noise
    budget = em.extract_total_rl(p_tx_dbm, p_rx, f_ghz, traj.total_length)
    return MeasurementRecord(
        trajectory_id=trajectory_id,
        measured_total_rl_db=budget.rl_total_db,
        uncertainty_db=uncertainty_db,
    )


MeasureFn = Callable[[str, Trajectory], "MeasurementRecord | None"]


def identify_loop(
    scene: Scene,
    tx_positions: list,
    rx_positions: list,
    palette: list[MaterialParams],
    db: RLDatabase,
    f_ghz: float,
    u_db: float,
    max_bounces: int,
    measure: MeasureFn,
) -> tuple[BeliefState, IdentificationReport]:
    """Trace, enumerate, match, and propagate over every TX-RX pair in order.

    Trajectory ids are ``p<pair>t<index>`` with pairs enumerated TX-major over
    the Cartesian product of positions. ``measure`` returns the measurement
    for a trajectory or None to leave it out; records with zero uncertainty
    fall back to the loop-wide ``u_db``. Each trajectory with survivors is
    added to one :class:`Propagator` with a variable per facet, so the map
    constraint (one facet, one material) holds within and across
    trajectories. Stops early once every covered facet is down to a single
    material.
    """
    if not tx_positions or not rx_positions:
        raise ValueError("need at least one TX and one RX position")
    engine = Propagator(lambda key: key.facet_id)
    no_hypothesis: list[str] = []
    skipped: list[str] = []
    hop_angles: dict[RPKey, list[float]] = {}
    rp_points: dict[RPKey, tuple[float, ...]] = {}

    pair_index = 0
    done = False
    for tx in tx_positions:
        if done:
            break
        for rx in rx_positions:
            if done:
                break
            trajectories = trace(scene, tx, rx, max_bounces=max_bounces)
            for ti, traj in enumerate(trajectories):
                tid = f"p{pair_index}t{ti}"
                record = measure(tid, traj)
                if record is None:
                    skipped.append(tid)
                    continue
                try:
                    candidates = enumerate_sequences(traj, palette, db, f_ghz)
                except OutOfRangeError as err:
                    skipped.append(f"{tid} ({err})")
                    continue
                u = record.uncertainty_db if record.uncertainty_db > 0 else u_db
                survivors = match_measurement(
                    candidates,
                    MeasurementRecord(tid, record.measured_total_rl_db, u),
                )
                # the palette is non-empty, so every candidate carries the keys
                for (key, _), hop in zip(candidates[0].assignment, traj.hops):
                    hop_angles.setdefault(key, []).append(np.degrees(hop.theta_i))
                    rp_points.setdefault(key, tuple(float(x) for x in hop.point))
                if not survivors:
                    no_hypothesis.append(tid)
                    continue
                engine.add(tid, survivors)
            pair_index += 1
            done = engine.settled()

    belief = engine.belief()
    report = _build_report(
        scene, belief, db, f_ghz, hop_angles, rp_points, no_hypothesis, skipped
    )
    return belief, report


def _build_report(
    scene: Scene,
    belief: BeliefState,
    db: RLDatabase,
    f_ghz: float,
    hop_angles: dict[RPKey, list[float]],
    rp_points: dict[RPKey, tuple[float, ...]],
    no_hypothesis: list[str],
    skipped: list[str],
) -> IdentificationReport:
    # the engine has one variable per facet, so every key on a facet carries
    # the facet's domain
    facet_domains = {key.facet_id: dom for key, dom in belief.rp_domains.items()}
    resolved: dict[str, str] = {}
    ambiguous: dict[str, tuple[str, ...]] = {}
    contradictions = [
        f"empty material set at {key.facet_id} cell {key.cell}"
        for key in belief.contradictions
    ]
    conflicted_facets = {key.facet_id for key in belief.contradictions}
    for fid, dom in sorted(facet_domains.items()):
        if fid in conflicted_facets:
            continue  # summarized below
        if len(dom) == 1:
            resolved[fid] = next(iter(dom))
        else:
            ambiguous[fid] = tuple(sorted(dom))
    contradictions.extend(
        f"facet {fid}: reflection-point material sets have empty intersection"
        for fid in sorted(conflicted_facets)
    )
    uncovered = tuple(
        f.facet_id for f in scene.facets if f.facet_id not in facet_domains
    )

    rp_rows = []
    for key in sorted(belief.rp_domains):
        dom = sorted(belief.rp_domains[key])
        spread = 0.0
        for angle in hop_angles.get(key, []):
            losses = []
            for name in dom:
                try:
                    losses.append(db.lookup(name, f_ghz, angle))
                except (OutOfRangeError, KeyError):
                    pass
            if len(losses) > 1:
                spread = max(spread, max(losses) - min(losses))
        rp_rows.append(
            (key, rp_points.get(key, ()), tuple(dom), spread)
        )
    return IdentificationReport(
        resolved=resolved,
        ambiguous=ambiguous,
        uncovered=uncovered,
        contradictions=tuple(contradictions),
        no_hypothesis=tuple(no_hypothesis),
        skipped=tuple(skipped),
        rp_rows=tuple(rp_rows),
    )
