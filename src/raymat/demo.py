"""Bundled example: a 20 x 15 x 7 m two-storey building and TX/RX placements.

The building has a wood floor and beveled door, plaster walls and ceiling, and
glass railings and cubicle; the second storey is an open slab with an 8 x 8 m
aperture fenced by 1 m glass railings. Surface thicknesses exceed the 100 GHz
settling thickness of their materials, so every reflection is steady.

``demo_positions`` returns fixed placements of one RX and two TX at which two
double-bounce trajectories share their first reflection point on a glass
railing (second hops: plaster wall and wood floor), which lets a merged
identification run pin all three materials.
"""

from __future__ import annotations

import numpy as np

from .scene import Facet, Scene


def _rect(p0, p1, p2, p3) -> np.ndarray:
    return np.array([p0, p1, p2, p3], dtype=float)


def demo_building() -> Scene:
    width, depth, height = 20.0, 15.0, 7.0
    ax0, ax1, ay0, ay1 = 6.0, 14.0, 3.5, 11.5  # aperture in the z=3.5 slab
    facets = (
        Facet("floor", _rect((0, 0, 0), (width, 0, 0), (width, depth, 0), (0, depth, 0)), "wood", 0.30),
        Facet("ceiling", _rect((0, 0, height), (0, depth, height), (width, depth, height), (width, 0, height)), "plaster", 0.30),
        Facet("wall_w", _rect((0, 0, 0), (0, depth, 0), (0, depth, height), (0, 0, height)), "plaster", 0.20),
        Facet("wall_e", _rect((width, 0, 0), (width, 0, height), (width, depth, height), (width, depth, 0)), "plaster", 0.20),
        Facet("wall_s", _rect((0, 0, 0), (0, 0, height), (width, 0, height), (width, 0, 0)), "plaster", 0.20),
        Facet("wall_n", _rect((0, depth, 0), (width, depth, 0), (width, depth, height), (0, depth, height)), "plaster", 0.20),
        # second-storey slab around the aperture
        Facet("slab_w", _rect((0, 0, 3.5), (ax0, 0, 3.5), (ax0, depth, 3.5), (0, depth, 3.5)), "wood", 0.30),
        Facet("slab_e", _rect((ax1, 0, 3.5), (width, 0, 3.5), (width, depth, 3.5), (ax1, depth, 3.5)), "wood", 0.30),
        Facet("slab_s", _rect((ax0, 0, 3.5), (ax1, 0, 3.5), (ax1, ay0, 3.5), (ax0, ay0, 3.5)), "wood", 0.30),
        Facet("slab_n", _rect((ax0, ay1, 3.5), (ax1, ay1, 3.5), (ax1, depth, 3.5), (ax0, depth, 3.5)), "wood", 0.30),
        # glass railings, 1 m high, fencing the aperture
        Facet("rail_w", _rect((ax0, ay0, 3.5), (ax0, ay1, 3.5), (ax0, ay1, 4.5), (ax0, ay0, 4.5)), "glass", 0.03),
        Facet("rail_e", _rect((ax1, ay0, 3.5), (ax1, ay0, 4.5), (ax1, ay1, 4.5), (ax1, ay1, 3.5)), "glass", 0.03),
        Facet("rail_s", _rect((ax0, ay0, 3.5), (ax0, ay0, 4.5), (ax1, ay0, 4.5), (ax1, ay0, 3.5)), "glass", 0.03),
        Facet("rail_n", _rect((ax0, ay1, 3.5), (ax1, ay1, 3.5), (ax1, ay1, 4.5), (ax0, ay1, 4.5)), "glass", 0.03),
        # first-floor glass cubicle with a beveled wood door
        Facet("cub_w", _rect((2, 10, 0), (2, 13, 0), (2, 13, 2.5), (2, 10, 2.5)), "glass", 0.03),
        Facet("cub_e", _rect((5, 10, 0), (5, 10, 2.5), (5, 13, 2.5), (5, 13, 0)), "glass", 0.03),
        Facet("cub_n", _rect((2, 13, 0), (5, 13, 0), (5, 13, 2.5), (2, 13, 2.5)), "glass", 0.03),
        Facet("door", _rect((2.2, 10, 0), (4.6, 9.2, 0), (4.6, 9.2, 2.2), (2.2, 10, 2.2)), "wood", 0.04),
    )
    return Scene(facets=facets)


def demo_positions() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Two TX positions and one RX position with a shared glass reflection point."""
    tx1 = np.array([6.7, 10.9, 5.7])
    # TX2: 2 m back along the ray that the railing mirrors toward RX's floor image at TX1's glass->plaster hop
    tx2 = np.array([6.803347480195275, 5.0639527709865995, 5.480020572234589])
    rx = np.array([7.4, 10.1, 1.0])
    return [tx1, tx2], [rx]
