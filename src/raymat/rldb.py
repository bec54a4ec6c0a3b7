"""Reflection-loss database over (material, frequency, incident angle).

A dense grid of precomputed reflection losses with bilinear interpolation in
(log-frequency, angle). Persisted as UTF-8 CSV with ``#`` metadata headers;
values are printed with 6 significant digits, so a database loaded from disk
round-trips bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import em
from .materials import PRESETS, MaterialParams, parse_material_line

FORMAT_VERSION = 1
_COLUMNS = "material,f_ghz,angle_deg,rl_db"


class DatabaseFormatError(ValueError):
    """Malformed database file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class DatabaseVersionError(DatabaseFormatError):
    """Database file declares an unsupported format version."""


class OutOfRangeError(ValueError):
    """Lookup outside the database grid hull; no extrapolation is performed."""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


@dataclass
class RLDatabase:
    """Gridded reflection-loss values in dB, indexed (material, freq, angle)."""

    materials: list[MaterialParams]
    freqs_ghz: np.ndarray
    angles_deg: np.ndarray
    rl_db: np.ndarray
    kappa: float = 0.0

    def __post_init__(self) -> None:
        self.freqs_ghz = np.asarray(self.freqs_ghz, dtype=float)
        self.angles_deg = np.asarray(self.angles_deg, dtype=float)
        self.rl_db = np.asarray(self.rl_db, dtype=float)
        expected = (len(self.materials), self.freqs_ghz.size, self.angles_deg.size)
        if self.rl_db.shape != expected:
            raise ValueError(
                f"rl_db shape {self.rl_db.shape} does not match grids {expected}"
            )
        for grid, label in ((self.freqs_ghz, "frequency"), (self.angles_deg, "angle")):
            if grid.size == 0:
                raise ValueError(f"{label} grid must be non-empty")
            if np.any(np.diff(grid) <= 0):
                raise ValueError(f"{label} grid must be strictly ascending")
        if not np.all(np.isfinite(self.rl_db)) or np.any(self.rl_db < 0):
            raise ValueError("rl values must be finite and >= 0")
        names = [m.name for m in self.materials]
        if len(set(names)) != len(names):
            raise ValueError("material names must be unique")
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def material_names(self) -> list[str]:
        return [m.name for m in self.materials]

    def material_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"material {name!r} not in database ({', '.join(self._index)})"
            ) from None

    def lookup(self, material: str, f_ghz: float, angle_deg: float) -> float:
        """Bilinear interpolation in (log-frequency, angle); exact at grid nodes.

        Raises:
            OutOfRangeError: if f or angle falls outside the grid hull.
        """
        mi = self.material_index(material)
        fi0, fi1, wf = _bracket(self.freqs_ghz, f_ghz, "frequency", log_axis=True)
        ai0, ai1, wa = _bracket(self.angles_deg, angle_deg, "angle")
        v00 = self.rl_db[mi, fi0, ai0]
        v01 = self.rl_db[mi, fi0, ai1]
        v10 = self.rl_db[mi, fi1, ai0]
        v11 = self.rl_db[mi, fi1, ai1]
        return float(
            (1 - wf) * ((1 - wa) * v00 + wa * v01) + wf * ((1 - wa) * v10 + wa * v11)
        )

    def save(self, path) -> None:
        """Write the database as versioned CSV (6 significant digits)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"#version={FORMAT_VERSION}\n")
            fh.write(f"#kappa={_fmt(self.kappa)}\n")
            for m in self.materials:
                fh.write(
                    f"#material={m.name},{_fmt(m.a)},{_fmt(m.b)},{_fmt(m.c)},"
                    f"{_fmt(m.d)},{_fmt(m.roughness_sigma)}\n"
                )
            fh.write(_COLUMNS + "\n")
            for mi, m in enumerate(self.materials):
                for fi, f_ghz in enumerate(self.freqs_ghz):
                    for ai, angle in enumerate(self.angles_deg):
                        fh.write(
                            f"{m.name},{_fmt(f_ghz)},{_fmt(angle)},"
                            f"{_fmt(self.rl_db[mi, fi, ai])}\n"
                        )


def _bracket(
    grid: np.ndarray, value: float, label: str, log_axis: bool = False
) -> tuple[int, int, float]:
    """Neighbouring grid indices and interpolation weight for a query value."""
    lo, hi = grid[0], grid[-1]
    if not lo <= value <= hi:
        raise OutOfRangeError(
            f"{label} {value:.6g} outside grid hull [{lo:.6g}, {hi:.6g}]"
        )
    i = int(np.searchsorted(grid, value, side="right")) - 1
    if i >= grid.size - 1:  # value == last node
        return grid.size - 1, grid.size - 1, 0.0
    x0, x1 = grid[i], grid[i + 1]
    if value == x0:
        return i, i, 0.0
    if log_axis:
        w = (math.log(value) - math.log(x0)) / (math.log(x1) - math.log(x0))
    else:
        w = (value - x0) / (x1 - x0)
    return i, i + 1, float(w)


def build(
    materials: list[MaterialParams],
    freqs_ghz,
    angles_deg,
    kappa: float = 0.0,
) -> RLDatabase:
    """Compute every grid cell with em.reflection_loss; deterministic.

    Angles must lie within [0, 89] degrees (grazing incidence excluded).
    """
    freqs = np.asarray(freqs_ghz, dtype=float)
    angles = np.asarray(angles_deg, dtype=float)
    if not materials:
        raise ValueError("need at least one material")
    if angles.size and (angles[0] < 0 or angles[-1] > 89):
        raise ValueError("angle grid must lie within [0, 89] degrees")
    rl = np.empty((len(materials), freqs.size, angles.size))
    for mi, mat in enumerate(materials):
        for fi, f in enumerate(freqs):
            for ai, angle in enumerate(angles):
                rl[mi, fi, ai] = em.reflection_loss(
                    mat, float(f), math.radians(float(angle)), kappa=kappa
                )
    return RLDatabase(
        materials=list(materials),
        freqs_ghz=freqs,
        angles_deg=angles,
        rl_db=rl,
        kappa=kappa,
    )


def load(path) -> RLDatabase:
    """Parse a database CSV written by :meth:`RLDatabase.save`.

    Raises:
        DatabaseVersionError: on a version header other than the supported one.
        DatabaseFormatError: on any other malformed content, with line number.
    """
    kappa: float | None = None
    version: int | None = None
    header_materials: dict[str, MaterialParams] = {}
    cells: dict[tuple[str, float, float], float] = {}
    names_in_order: list[str] = []
    freq_values: list[float] = []
    angle_values: list[float] = []
    saw_columns = False

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    key, _, value = line[1:].partition("=")
                    if key == "version":
                        version = int(value)
                        if version != FORMAT_VERSION:
                            raise DatabaseVersionError(
                                f"unsupported version {version} "
                                f"(supported: {FORMAT_VERSION})",
                                line=lineno,
                            )
                    elif key == "kappa":
                        kappa = float(value)
                    elif key == "material":
                        mat = parse_material_line(value)
                        header_materials[mat.name] = mat
                except DatabaseVersionError:
                    raise
                except ValueError as err:
                    raise DatabaseFormatError(str(err), line=lineno) from None
                continue
            if line == _COLUMNS:
                saw_columns = True
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise DatabaseFormatError(
                    f"expected 4 fields ({_COLUMNS}), got {len(fields)}", line=lineno
                )
            name = fields[0]
            try:
                f_ghz, angle, rl = (float(x) for x in fields[1:])
            except ValueError:
                raise DatabaseFormatError(
                    f"non-numeric value in row {line!r}", line=lineno
                ) from None
            if name not in names_in_order:
                names_in_order.append(name)
            if f_ghz not in freq_values:
                freq_values.append(f_ghz)
            if angle not in angle_values:
                angle_values.append(angle)
            cells[(name, f_ghz, angle)] = rl

    if version is None:
        raise DatabaseFormatError("missing #version header")
    if kappa is None:
        raise DatabaseFormatError("missing #kappa header")
    if not saw_columns or not cells:
        raise DatabaseFormatError("no data rows found (truncated file?)")

    freqs = np.array(sorted(freq_values))
    angles = np.array(sorted(angle_values))
    materials = []
    for name in names_in_order:
        if name in header_materials:
            materials.append(header_materials[name])
        elif name in PRESETS:
            materials.append(PRESETS[name])
        else:
            raise DatabaseFormatError(
                f"material {name!r} has no #material header and is not a preset"
            )
    rl = np.empty((len(materials), freqs.size, angles.size))
    for mi, name in enumerate(names_in_order):
        for fi, f_ghz in enumerate(freqs):
            for ai, angle in enumerate(angles):
                try:
                    rl[mi, fi, ai] = cells[(name, float(f_ghz), float(angle))]
                except KeyError:
                    raise DatabaseFormatError(
                        f"missing cell ({name}, {f_ghz:.6g} GHz, {angle:.6g} deg); "
                        "grid is incomplete (truncated file?)"
                    ) from None
    try:
        return RLDatabase(
            materials=materials,
            freqs_ghz=freqs,
            angles_deg=angles,
            rl_db=rl,
            kappa=kappa,
        )
    except ValueError as err:
        raise DatabaseFormatError(str(err)) from None
