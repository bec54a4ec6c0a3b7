"""Seeded input generators for the raymat benchmark.

Everything the program under test receives is built here from the workload
seed: TX/RX placements inside the demo building, the RL-database lookup
stream, and the measurement provider used by ``identify_loop``. The same seed
gives the same inputs.

Placements are fixed lattices per workload, visited in a fixed order; the
seed moves every node by up to JITTER_M along each axis. Measurement noise is
keyed by the physical path (TX node, RX node, facet sequence), so every seed
does about the same tracing and merging work and reaches the same
identification, while the exact geometry, and so every float the program
computes, changes with the seed.
"""

from __future__ import annotations

import math
import random

# demo building (raymat.demo.demo_building): 20 x 15 x 7 m, second-storey slab
# at z = 3.5 m, glass cubicle with beveled door in x 2..5, y 9.2..13, z 0..2.5
SLAB_Z = 3.5
SLAB_CLEARANCE = 0.4
CUBICLE = ((1.6, 5.4), (8.8, 13.4), (0.0, 2.9))  # cubicle box plus margin
WALL_CLEARANCE = 0.5
BUILDING = (20.0, 15.0, 7.0)
JITTER_M = 0.005

P_TX_DBM = 30.0
NOISE_LIMIT_SIGMA = 3.0
MAX_ANGLE = math.radians(85.0)  # top of the RL database angle grid

# lattices as (x values, y values, z values), TX and RX offset from each other
LATTICES = {
    "demo_k3": (
        ((4.0, 15.0), (2.5,), (5.6,)),
        ((7.0, 16.5), (7.5,), (1.4,)),
    ),
    "demo_k1_grid": (
        ((1.5, 4.5, 8.0, 11.5, 15.0, 18.5), (4.0,), (1.3, 5.4)),
        ((6.5, 9.0, 11.5, 14.0, 16.5, 18.5), (11.0,), (2.0, 6.2)),
    ),
}


def allowed(point) -> bool:
    """True if a placement is inside the building, off the slab, out of the cubicle."""
    x, y, z = point
    for value, size in zip(point, BUILDING):
        if not WALL_CLEARANCE <= value <= size - WALL_CLEARANCE:
            return False
    if abs(z - SLAB_Z) < SLAB_CLEARANCE:
        return False
    (x0, x1), (y0, y1), (z0, z1) = CUBICLE
    return not (x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1)


def lattice(xs, ys, zs) -> list[tuple[float, float, float]]:
    nodes = [(x, y, z) for z in zs for y in ys for x in xs]
    bad = [
        p for p in nodes
        if not all(allowed((p[0] + dx, p[1] + dy, p[2] + dz))
                   for dx in (-JITTER_M, JITTER_M)
                   for dy in (-JITTER_M, JITTER_M)
                   for dz in (-JITTER_M, JITTER_M))
    ]
    if bad:
        raise ValueError(f"lattice nodes outside the allowed region: {bad}")
    return nodes


def placements(workload: str, seed: int):
    """TX list, RX list, and the (tx node, rx node) label of every pair index.

    identify_loop numbers pairs TX-major over the lists it is given, which
    here is lattice order.
    """
    rng = random.Random(f"{workload}:{seed}")
    tx_nodes, rx_nodes = (lattice(*spec) for spec in LATTICES[workload])

    def jitter(nodes):
        return [tuple(v + rng.uniform(-JITTER_M, JITTER_M) for v in p) for p in nodes]

    labels = [(i, j) for i in range(len(tx_nodes)) for j in range(len(rx_nodes))]
    return jitter(tx_nodes), jitter(rx_nodes), labels


def lookup_stream(names: list[str], n: int, seed: int, f_lo: float, f_hi: float, a_hi: float):
    """n (material, f_ghz, angle_deg) queries, log-uniform in f, inside the grid hull."""
    rng = random.Random(f"lookups:{seed}")
    lf0, lf1 = math.log(f_lo), math.log(f_hi)
    return [
        (rng.choice(names), math.exp(rng.uniform(lf0, lf1)), rng.uniform(0.0, a_hi))
        for _ in range(n)
    ]


class BoundedGauss(random.Random):
    """Gaussian noise redrawn until it lies within ``limit`` standard deviations.

    A measurement error larger than the identification uncertainty u makes the
    true material sequence fail the match, which is bad input rather than work
    for the program; bounding the noise below u keeps every seed valid.
    """

    def __init__(self, seed, limit: float):
        super().__init__(seed)
        self.limit = limit

    def gauss(self, mu=0.0, sigma=1.0):
        while True:
            x = super().gauss(0.0, 1.0)
            if abs(x) <= self.limit:
                return mu + sigma * x


class MeasurementProvider:
    """The ``measure`` callback of ``identify_loop``, built on simulate_measurement.

    Noise for a trajectory is drawn from a generator seeded by its physical
    path (lattice nodes of its pair and its facet sequence), so every pass
    measures a path alike. Trajectories with a hop steeper than 85 deg
    (outside the RL database hull) are left out. Counts the calls it serves.
    """

    def __init__(self, identify_mod, scene, ground_truth, pair_labels,
                 f_ghz: float, sigma_db: float, u_db: float):
        if NOISE_LIMIT_SIGMA * sigma_db >= u_db:
            raise ValueError("noise bound must stay below the uncertainty u")
        self._identify = identify_mod
        self.scene = scene
        self.ground_truth = ground_truth
        self.pair_labels = pair_labels
        self.f_ghz = f_ghz
        self.sigma_db = sigma_db
        self.u_db = u_db
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.skipped = 0
        self.pairs = set()

    def __call__(self, tid, traj):
        self.calls += 1
        pair = int(tid[1:].split("t", 1)[0])
        self.pairs.add(pair)
        if any(h.theta_i > MAX_ANGLE for h in traj.hops):
            self.skipped += 1
            return None
        return self._identify.simulate_measurement(
            self.scene,
            traj,
            self.ground_truth,
            p_tx_dbm=P_TX_DBM,
            f_ghz=self.f_ghz,
            noise_sigma_db=self.sigma_db,
            rng=BoundedGauss(f"noise:{self.pair_labels[pair]}:{traj.facet_ids}", NOISE_LIMIT_SIGMA),
            uncertainty_db=self.u_db,
            trajectory_id=tid,
        )
