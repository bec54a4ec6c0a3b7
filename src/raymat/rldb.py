"""Reflection-loss database over (material, frequency, incident angle).

A dense grid of precomputed reflection losses with bilinear interpolation in
(log-frequency, angle). Persisted as UTF-8 CSV with ``#`` metadata headers;
values are printed with 6 significant digits, so a database loaded from disk
round-trips bit-exactly.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import em
from .materials import PRESETS, MaterialParams, parse_material_line

FORMAT_VERSION = 1
_COLUMNS = "material,f_ghz,angle_deg,rl_db"


class DatabaseFormatError(ValueError):
    """Malformed database file; carries the message and the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.message, self.line = message, line
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
    """Gridded reflection-loss values in dB, indexed (material, freq, angle).

    Lookup grids are derived once, at construction, and lookup reads ``rl_db``
    through a view of its buffer: do not mutate the arrays.
    """

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
            if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
                raise ValueError(f"{label} grid must be finite and strictly ascending")
        em.check_kappa(self.kappa)
        if not self.freqs_ghz[0] > 0:  # interpolation runs in log f
            raise ValueError("frequency grid must be > 0 GHz")
        if not np.all(np.isfinite(self.rl_db)) or np.any(self.rl_db < 0):
            raise ValueError("rl values must be finite and >= 0")
        names = [m.name for m in self.materials]
        if len(set(names)) != len(names):
            raise ValueError("material names must be unique")
        self._index = {name: i for i, name in enumerate(names)}
        self._freqs = self.freqs_ghz.tolist()
        self._log_freqs = [math.log(f) for f in self._freqs]
        self._log_steps = _steps(self._log_freqs)
        self._angles = self.angles_deg.tolist()
        self._angle_steps = _steps(self._angles)
        self._cells = memoryview(self.rl_db)  # shares the array's buffer, any strides

    def __reduce__(self):  # a memoryview does not pickle; rebuild from the fields
        return type(self), (
            self.materials, self.freqs_ghz, self.angles_deg, self.rl_db, self.kappa
        )

    @property
    def material_names(self) -> list[str]:
        return [m.name for m in self.materials]

    def lookup(self, material: str, f_ghz: float, angle_deg: float) -> float:
        """Bilinear interpolation in (log-frequency, angle); exact at grid nodes.

        Raises:
            KeyError: if the material is not in the database, naming the known ones.
            OutOfRangeError: if f or angle falls outside the grid hull.
        """
        mi = self._index.get(material)
        if mi is None:
            raise self._unknown(material)
        fi0, fi1, wf = _bracket(
            self._freqs, f_ghz, "frequency", self._log_steps, self._log_freqs
        )
        ai0, ai1, wa = _bracket(self._angles, angle_deg, "angle", self._angle_steps)
        v, ua = self._cells, 1 - wa
        return (1 - wf) * (ua * v[mi, fi0, ai0] + wa * v[mi, fi0, ai1]) + wf * (
            ua * v[mi, fi1, ai0] + wa * v[mi, fi1, ai1]
        )

    def lookup_many(self, names, f_ghz: float, angles_deg) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup` of every name at f_ghz and at each angle, in one array pass.

        Returns the (angles, names) losses, each with the bits of its lookup, and
        the mask of the angles outside the grid hull, NaN included: their rows are
        NaN, not interpolated. The angles are bracketed as ``_bracket`` does, so a
        node, the last one included, has weight 0.0, and every corner product and
        sum is one numpy operation in lookup's order.

        Raises:
            KeyError: naming the first name not in the database, as lookup does.
            OutOfRangeError: if f is outside the frequency grid hull.
        """
        mi = [self._index.get(name) for name in names]
        if None in mi:
            raise self._unknown(names[mi.index(None)])
        fi0, fi1, wf = _bracket(
            self._freqs, f_ghz, "frequency", self._log_steps, self._log_freqs
        )
        grid, angles = self.angles_deg, np.asarray(angles_deg, dtype=float).reshape(-1)
        ai0 = np.searchsorted(grid, angles, side="right") - 1
        x0 = grid[ai0]  # below the hull ai0 is -1, and x0 the last node
        node = angles == x0
        inside = ~node & (ai0 >= 0) & (ai0 < grid.size - 1)
        outside = ~(node | inside)
        ai0[outside] = 0
        ai1 = ai0 + inside
        wa = np.zeros(angles.size)
        wa[inside] = (angles[inside] - x0[inside]) / (grid[ai1[inside]] - x0[inside])
        wa, ua = wa[:, None], 1 - wa[:, None]
        v0, v1 = self.rl_db[mi, fi0].T, self.rl_db[mi, fi1].T  # (angle nodes, names)
        rl = (1 - wf) * (ua * v0[ai0] + wa * v0[ai1]) + wf * (ua * v1[ai0] + wa * v1[ai1])
        rl[outside] = np.nan
        return rl, outside

    def _unknown(self, material: str) -> KeyError:
        return KeyError(f"material {material!r} not in database ({', '.join(self._index)})")

    def save(self, path) -> None:
        """Write the database as versioned CSV (6 significant digits)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"#version={FORMAT_VERSION}\n")
            fh.write(f"#kappa={_fmt(self.kappa)}\n")
            for m in self.materials:
                fh.write(f"#material={material_header(m)}\n")
            fh.write(_COLUMNS + "\n")
            f_labels = [_fmt(f) for f in self._freqs]
            # one % per row: prefix + prefix.join(tails) is one line, prefix +
            # tail, per angle, and "%.6g" % v is the text of _fmt(v) for any float
            tails = [f"{_fmt(a)},%.6g\n" for a in self._angles]
            for mi, m in enumerate(self.materials):
                for f_label, row in zip(f_labels, self.rl_db[mi].tolist()):
                    prefix = f"{m.name},{f_label},".replace("%", "%%")
                    fh.write((prefix + prefix.join(tails)) % tuple(row))


def material_header(m: MaterialParams) -> str:
    """The material as a table's #material header stores it: name,a,b,c,d,sigma (6 digits)."""
    return ",".join([m.name, *(_fmt(v) for v in (m.a, m.b, m.c, m.d, m.roughness_sigma))])


def _steps(nodes: list[float]) -> list[float]:
    """Differences of neighbouring grid nodes, one per interval."""
    return [b - a for a, b in zip(nodes, nodes[1:])]


def _bracket(
    grid: list[float],
    value: float,
    label: str,
    steps: list[float],
    logs: list[float] | None = None,
) -> tuple[int, int, float]:
    """Neighbouring grid indices and interpolation weight for a query value;
    the weight is linear in log(value) when ``logs`` (log of each node, with
    ``steps`` their differences) is given."""
    i = bisect_right(grid, value) - 1
    x0 = grid[i]
    if value == x0:  # a node, the last one included (below the hull x0 is the last)
        return i, i, 0.0
    if not 0 <= i < len(steps):  # below or above the hull, or NaN
        raise OutOfRangeError(
            f"{label} {value:.6g} outside grid hull [{grid[0]:.6g}, {grid[-1]:.6g}]"
        )
    if logs is None:
        return i, i + 1, float((value - x0) / steps[i])
    return i, i + 1, (math.log(value) - logs[i]) / steps[i]


def build(
    materials: list[MaterialParams],
    freqs_ghz,
    angles_deg,
    kappa: float = 0.0,
) -> RLDatabase:
    """Compute every grid cell with em.reflection_loss, one call per (material,
    frequency) row; deterministic.

    Angles must lie within [0, 89] degrees (grazing incidence excluded).
    """
    freqs = np.asarray(freqs_ghz, dtype=float)
    angles = np.asarray(angles_deg, dtype=float)
    if not materials:
        raise ValueError("need at least one material")
    if angles.size and (angles[0] < 0 or angles[-1] > 89):
        raise ValueError("angle grid must lie within [0, 89] degrees")
    thetas = np.array([math.radians(a) for a in angles.tolist()])
    rl = np.empty((len(materials), freqs.size, angles.size))
    for mi, mat in enumerate(materials):
        for fi, f in enumerate(freqs.tolist()):
            rl[mi, fi] = em.reflection_loss(mat, f, thetas, kappa=kappa)
    return RLDatabase(list(materials), freqs, angles, rl, kappa)


def load(path) -> RLDatabase:
    """Parse a database CSV written by :meth:`RLDatabase.save`.

    Data rows may come in any order: one pass appends each row's fields to
    flat columns, and numpy then places every row in the grid by value.

    Raises:
        DatabaseVersionError: on a version header other than the supported one.
        DatabaseFormatError: on any other malformed content, with line number.
    """
    kappa: float | None = None
    version: int | None = None
    header_materials: dict[str, MaterialParams] = {}
    names: dict[str, int] = {}  # material -> index, in order of first appearance
    mat_col, line_col = array("q"), array("q")
    freq_col, angle_col, rl_col = array("d"), array("d"), array("d")
    add_mat, add_line = mat_col.append, line_col.append
    add_freq, add_angle, add_rl = freq_col.append, angle_col.append, rl_col.append
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
                        em.check_kappa(kappa)
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
            try:
                name, f_ghz, angle, rl = line.split(",")
            except ValueError:
                raise DatabaseFormatError(
                    f"expected 4 fields ({_COLUMNS}), got {line.count(',') + 1}",
                    line=lineno,
                ) from None
            try:
                f_ghz, angle, rl = float(f_ghz), float(angle), float(rl)
            except ValueError:
                raise DatabaseFormatError(
                    f"non-numeric value in row {line!r}", line=lineno
                ) from None
            if not math.isfinite(f_ghz + angle + rl):  # a nan or inf in any field
                raise DatabaseFormatError(
                    f"non-finite value in row {line!r}", line=lineno
                )
            mi = names.get(name)
            if mi is None:
                mi = names[name] = len(names)
            add_mat(mi)
            add_freq(f_ghz)
            add_angle(angle)
            add_rl(rl)
            add_line(lineno)

    if version is None:
        raise DatabaseFormatError("missing #version header")
    if kappa is None:
        raise DatabaseFormatError("missing #kappa header")
    if not saw_columns or not rl_col:
        raise DatabaseFormatError("no data rows found (truncated file?)")

    row_f, row_a = np.frombuffer(freq_col), np.frombuffer(angle_col)
    # return_index sorts stably: of equal values (0.0, -0.0) the grid keeps the first
    freqs = np.unique(row_f, return_index=True)[0]
    angles = np.unique(row_a, return_index=True)[0]
    shape = (len(names), freqs.size, angles.size)
    cell = np.frombuffer(mat_col, dtype=np.int64) * shape[1] + np.searchsorted(freqs, row_f)
    cell = cell * shape[2] + np.searchsorted(angles, row_a)  # flat index into rl_db
    first = np.unique(cell, return_index=True)[1]
    if first.size < cell.size:  # the earliest row whose cell an earlier row holds
        repeat = np.ones(cell.size, dtype=bool)
        repeat[first] = False
        k = int(np.argmax(repeat))
        raise DatabaseFormatError(
            f"duplicate cell ({list(names)[mat_col[k]]}, {freq_col[k]:.6g} GHz, "
            f"{angle_col[k]:.6g} deg)",
            line=line_col[k],
        )
    known = {**PRESETS, **header_materials}
    for name in names:
        if name not in known:
            raise DatabaseFormatError(
                f"material {name!r} has no #material header and is not a preset"
            )
    materials = [known[name] for name in names]
    if cell.size < math.prod(shape):
        filled = np.zeros(math.prod(shape), dtype=bool)
        filled[cell] = True
        mi, fi, ai = np.unravel_index(int(np.argmin(filled)), shape)
        raise DatabaseFormatError(
            f"missing cell ({materials[mi].name}, {freqs[fi]:.6g} GHz, "
            f"{angles[ai]:.6g} deg); grid is incomplete (truncated file?)"
        )
    rl = np.empty(cell.size)
    rl[cell] = np.frombuffer(rl_col)
    try:
        return RLDatabase(materials, freqs, angles, rl.reshape(shape), kappa)
    except ValueError as err:
        raise DatabaseFormatError(str(err)) from None
