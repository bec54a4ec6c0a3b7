"""3D scene model: convex facets with material labels and thicknesses.

Scene files are UTF-8 JSON:

    {"units": "m",
     "facets": [{"id": "floor",
                 "vertices": [[0,0,0], [20,0,0], [20,15,0], [0,15,0]],
                 "material": "wood",
                 "thickness_m": 0.3}, ...]}

The loader validates every invariant and reports the first violation with the
offending facet id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import COPLANARITY_TOL, validate_convex_polygon

UNKNOWN_MATERIAL = "unknown"


class SceneValidationError(ValueError):
    """Scene invariant violation; names the offending facet when known."""

    def __init__(self, message: str, facet_id: str | None = None):
        self.facet_id = facet_id
        where = f"facet {facet_id!r}: " if facet_id is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True, eq=False)
class Facet:
    """Convex planar polygon with an outward normal defined by its winding."""

    facet_id: str
    vertices: np.ndarray
    material_label: str = UNKNOWN_MATERIAL
    thickness_m: float = 0.0
    normal: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.facet_id:
            raise SceneValidationError("facet id must be non-empty")
        verts = np.asarray(self.vertices, dtype=float)
        try:
            normal, _ = validate_convex_polygon(verts)
        except ValueError as err:
            raise SceneValidationError(str(err), facet_id=self.facet_id) from None
        if not 0 <= self.thickness_m < math.inf:  # NaN fails both
            raise SceneValidationError(
                f"thickness must be >= 0 and finite, got {self.thickness_m}", facet_id=self.facet_id
            )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "normal", normal)


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable collection of facets with an axis-aligned bounding box.

    The facet geometry is stacked once, for batched tests across facets: unit
    ``normals`` (N, 3), ``plane_points`` (N, 3), each facet's first vertex, and each
    facet's half-planes, one row per edge: p is inside when ``inward @ p - offsets >=
    -slack`` on every row, within 1e-9 * max(|edge|, 1) of the edge line, and a padded
    row, all zeros, passes every point. For the tracer's reflection-cone cut,
    ``vertices`` (N, V, 3) pads each facet's vertices with copies of its last one, and
    two lengths per facet bound where a point that passes the facet's half-plane test
    can lie: ``spill``, beyond any edge line, and ``reach``, off the hull of the
    vertices. ``spill`` adds 8 and ``reach`` 4 times ``rounding``, a bound on one
    rounding error of the tracer's arithmetic (tracer._blocks has the proof).
    """

    facets: tuple[Facet, ...]
    normals: np.ndarray = field(init=False, repr=False)
    plane_points: np.ndarray = field(init=False, repr=False)
    inward: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    slack: np.ndarray = field(init=False, repr=False)
    vertices: np.ndarray = field(init=False, repr=False)
    spill: np.ndarray = field(init=False, repr=False)
    reach: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        facets = tuple(self.facets)
        if not facets:
            raise SceneValidationError("scene has no facets")
        seen: set[str] = set()
        for f in facets:
            if f.facet_id in seen:
                raise SceneValidationError("duplicate facet id", facet_id=f.facet_id)
            seen.add(f.facet_id)
        object.__setattr__(self, "facets", facets)
        stacked = np.vstack([f.vertices for f in facets])
        lower = stacked.min(axis=0)
        upper = stacked.max(axis=0)
        # pad the facet hull by its largest extent, and by at least a room
        # height (3 m), so endpoints off a wall or above a lone floor still
        # count as in-scene; the box is a sanity guard, not a hull
        pad = max(3.0, float((upper - lower).max()))
        object.__setattr__(self, "_box", tuple(zip((lower - pad - 1e-9).tolist(), (upper + pad + 1e-9).tolist())))
        object.__setattr__(self, "_by_id", {f.facet_id: f for f in facets})
        object.__setattr__(self, "normals", np.array([f.normal for f in facets]))
        count = np.array([len(f.vertices) for f in facets])
        width, first = count.max(), np.cumsum(count) - count  # first: each facet's first row in stacked
        real = np.arange(width) < count[:, None]  # (facets, width): a facet's own edges and vertices
        object.__setattr__(self, "plane_points", stacked[first])  # each facet's first vertex
        object.__setattr__(self, "vertices", stacked[first[:, None] + np.minimum(np.arange(width), count[:, None] - 1)])
        edges = stacked[first[:, None] + (np.arange(width) + 1) % count[:, None]] - self.vertices
        inward = np.cross(self.normals[:, None], edges)  # normal x edge points inward (CCW)
        object.__setattr__(self, "inward", np.where(real[..., None], inward, 0.0))
        object.__setattr__(self, "offsets", np.where(real, np.sum(inward * self.vertices, axis=2), 0.0))
        object.__setattr__(self, "slack", np.where(real, 1e-9 * np.maximum(np.linalg.norm(edges, axis=2), 1), 0.0))
        # every coordinate the tracer meets is below 9 * far: endpoints and hops lie in
        # the box, and an image mirrored k <= 4 times is within (2k + 1) * far of the origin
        far = max(abs(x) for bounds in self._box for x in bounds)
        rounding = 2.0**-36 * far  # 2**16 ulps of far: over 100 times the 64 ulps of 9 * far that bound one error
        length = np.sqrt((self.inward**2).sum(axis=2))  # |normal x edge|, the edge's length
        centre = (self.vertices * real[..., None]).sum(axis=1) / count[:, None]
        inside = np.matmul(self.inward, centre[..., None])[..., 0] - self.offsets  # centre's depth times length
        with np.errstate(divide="ignore", invalid="ignore"):  # padded edges are masked out
            spill = np.where(real, self.slack / length, 0.0).max(axis=1) + 8 * rounding
            inradius = np.where(real, inside / length, np.inf).min(axis=1) - rounding
            spread = np.sqrt(((self.vertices - centre[:, None]) ** 2).sum(axis=2)).max(axis=1) + rounding
            # a point within spill of every edge line is within spill * spread / inradius
            # of the polygon: shrink it towards the centre by 1 + spill / inradius
            grown = np.where(inradius > 0, spill * spread / inradius, np.inf)
        object.__setattr__(self, "spill", spill)
        object.__setattr__(self, "reach", grown + COPLANARITY_TOL + 4 * rounding)

    def facet(self, facet_id: str) -> Facet:
        try:
            return self._by_id[facet_id]
        except KeyError:
            raise KeyError(f"no facet with id {facet_id!r}") from None

    def contains(self, point) -> bool:
        """Whether the 3 coordinates of point lie in the padded box, within 1e-9 m."""
        return all(lo <= x <= hi for x, (lo, hi) in zip(point, self._box))


def scene_from_dict(data: dict) -> Scene:
    """Build and validate a Scene from parsed JSON data."""
    if not isinstance(data, dict):
        raise SceneValidationError(f"scene must be a JSON object, got {type(data).__name__}")
    if data.get("units") != "m":
        raise SceneValidationError(f"units must be 'm', got {data.get('units')!r}")
    raw_facets = data.get("facets")
    if not isinstance(raw_facets, list) or not raw_facets:
        raise SceneValidationError("scene needs a non-empty 'facets' list")
    facets = []
    for i, entry in enumerate(raw_facets):
        if not isinstance(entry, dict):
            raise SceneValidationError(f"facet #{i} must be a JSON object")
        facet_id = entry.get("id")
        if not isinstance(facet_id, str) or not facet_id:
            raise SceneValidationError(f"facet #{i} is missing a string 'id'")
        try:
            vertices = np.asarray(entry["vertices"], dtype=float)
        except (KeyError, ValueError, OverflowError) as err:  # an int past float's range overflows
            raise SceneValidationError(
                f"bad or missing 'vertices': {err}", facet_id=facet_id
            ) from None
        thickness = entry.get("thickness_m", 0.0)
        if type(thickness) not in (int, float):  # not a string, a list, a bool or null
            raise SceneValidationError(f"'thickness_m' must be a number, got {thickness!r}", facet_id=facet_id)
        try:
            thickness = float(thickness)
        except OverflowError as err:
            raise SceneValidationError(f"bad 'thickness_m': {err}", facet_id=facet_id) from None
        material = entry.get("material", UNKNOWN_MATERIAL)
        if not isinstance(material, str):
            raise SceneValidationError(f"'material' must be a string, got {material!r}", facet_id=facet_id)
        facets.append(Facet(facet_id, vertices, material, thickness))
    return Scene(facets=tuple(facets))


def scene_to_dict(scene: Scene) -> dict:
    return {
        "units": "m",
        "facets": [
            {
                "id": f.facet_id,
                "vertices": [[float(x) for x in v] for v in f.vertices],
                "material": f.material_label,
                "thickness_m": float(f.thickness_m),
            }
            for f in scene.facets
        ],
    }


def load_scene(path) -> Scene:
    """Load and validate a scene JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:  # bad syntax, bytes that are not UTF-8, or an integer past the int-parsing limit
            raise SceneValidationError(f"invalid JSON in {path}: {err}") from None
    return scene_from_dict(data)


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)
        fh.write("\n")
