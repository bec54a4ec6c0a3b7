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
from dataclasses import dataclass, field

import numpy as np

from .geometry import validate_convex_polygon

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
    area: float = field(init=False)
    # half-planes, one row per edge: inward @ p - offsets >= -slack inside
    inward: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    slack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.facet_id:
            raise SceneValidationError("facet id must be non-empty")
        verts = np.asarray(self.vertices, dtype=float)
        try:
            normal, area = validate_convex_polygon(verts)
        except ValueError as err:
            raise SceneValidationError(str(err), facet_id=self.facet_id) from None
        if self.thickness_m < 0:
            raise SceneValidationError(
                "thickness must be >= 0", facet_id=self.facet_id
            )
        edges = np.roll(verts, -1, axis=0) - verts
        inward = np.cross(normal, edges)  # normal x edge points inward (CCW)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "inward", inward)
        object.__setattr__(self, "offsets", np.sum(inward * verts, axis=1))
        object.__setattr__(self, "slack", 1e-9 * np.maximum(np.linalg.norm(edges, axis=1), 1))

    @property
    def plane_point(self) -> np.ndarray:
        return self.vertices[0]

    def contains(self, point: np.ndarray) -> bool:
        """Half-plane test against every edge; within ``slack`` of the boundary counts as inside."""
        return bool(np.all(self.inward @ point - self.offsets >= -self.slack))


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable collection of facets with an axis-aligned bounding box.

    The facet geometry is also stacked once, for batched tests across facets:
    unit ``normals`` (N, 3) and ``plane_offsets`` (N), with normal @ p ==
    offset on a facet's plane, and each facet's half-planes (``inward``,
    ``offsets``, ``slack``, as on Facet) padded to the largest edge count with
    zero rows, which every point passes.
    """

    facets: tuple[Facet, ...]
    normals: np.ndarray = field(init=False, repr=False)
    plane_offsets: np.ndarray = field(init=False, repr=False)
    inward: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    slack: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "_lower", lower - pad)
        object.__setattr__(self, "_upper", upper + pad)
        object.__setattr__(self, "_by_id", {f.facet_id: f for f in facets})
        normals = np.array([f.normal for f in facets])
        plane_points = np.array([f.plane_point for f in facets])
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "plane_offsets", np.einsum("ij,ij->i", normals, plane_points))
        width = max(len(f.vertices) for f in facets)
        for name in ("inward", "offsets", "slack"):
            padded = np.zeros((len(facets), width, *getattr(facets[0], name).shape[1:]))
            for row, f in zip(padded, facets):
                row[: len(f.vertices)] = getattr(f, name)
            object.__setattr__(self, name, padded)

    def facet(self, facet_id: str) -> Facet:
        try:
            return self._by_id[facet_id]
        except KeyError:
            raise KeyError(f"no facet with id {facet_id!r}") from None

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self._lower - 1e-9) and np.all(p <= self._upper + 1e-9))


def scene_from_dict(data: dict) -> Scene:
    """Build and validate a Scene from parsed JSON data."""
    if data.get("units") != "m":
        raise SceneValidationError(
            f"units must be 'm', got {data.get('units')!r}"
        )
    raw_facets = data.get("facets")
    if not isinstance(raw_facets, list) or not raw_facets:
        raise SceneValidationError("scene needs a non-empty 'facets' list")
    facets = []
    for i, entry in enumerate(raw_facets):
        facet_id = entry.get("id")
        if not isinstance(facet_id, str) or not facet_id:
            raise SceneValidationError(f"facet #{i} is missing a string 'id'")
        try:
            vertices = np.asarray(entry["vertices"], dtype=float)
        except (KeyError, ValueError) as err:
            raise SceneValidationError(
                f"bad or missing 'vertices': {err}", facet_id=facet_id
            ) from None
        facets.append(
            Facet(
                facet_id=facet_id,
                vertices=vertices,
                material_label=str(entry.get("material", UNKNOWN_MATERIAL)),
                thickness_m=float(entry.get("thickness_m", 0.0)),
            )
        )
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
        except json.JSONDecodeError as err:
            raise SceneValidationError(f"invalid JSON in {path}: {err}") from None
    return scene_from_dict(data)


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)
        fh.write("\n")
