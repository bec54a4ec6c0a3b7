"""Building-material electrical parameters (ITU-R P.2040 coefficient model).

Each material is described by the four ITU coefficients that set its
frequency-dependent permittivity and conductivity, plus an RMS surface
roughness used by the optional specular attenuation factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MaterialParams:
    """ITU-R P.2040 coefficients a, b, c, d plus surface roughness.

    Relative permittivity (real part) is a*f^b and conductivity is c*f^d
    with f in GHz. ``roughness_sigma`` is the RMS surface roughness in
    meters; 0 means optically smooth. Every coefficient must be finite. The
    name is one token: no whitespace, no comma, no leading ``#`` and no lone
    surrogate (tables are UTF-8).
    """

    name: str
    a: float
    b: float
    c: float
    d: float
    roughness_sigma: float = 0.0

    def __post_init__(self) -> None:
        # one token: a table line and an RL-database header split on commas
        # and whitespace, and a database treats a line opening with # as a header;
        # tables are UTF-8, which cannot carry a lone surrogate
        name = self.name
        if name.split() != [name] or "," in name or name.startswith("#") or any(
            "\ud800" <= ch <= "\udfff" for ch in name
        ):
            raise ValueError(
                f"material name {name!r} must be one non-empty token with no "
                "whitespace, no comma, no leading '#' and no lone surrogate"
            )
        for field in ("a", "b", "c", "d", "roughness_sigma"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ValueError(f"material {self.name!r}: {field} must be finite, got {value}")
        if self.a <= 0:
            raise ValueError(f"material {self.name!r}: coefficient a must be > 0")
        if self.roughness_sigma < 0:
            raise ValueError(f"material {self.name!r}: roughness_sigma must be >= 0")


# ITU-R P.2040-1 coefficients; roughness values for typical indoor finishes.
WOOD = MaterialParams("wood", 1.99, 0.0, 0.0047, 1.0718, roughness_sigma=0.4e-3)
PLASTER = MaterialParams("plaster", 2.94, 0.0, 0.0116, 0.7076, roughness_sigma=0.2e-3)
GLASS = MaterialParams("glass", 6.27, 0.0, 0.0043, 1.1925, roughness_sigma=0.0)

PRESETS: dict[str, MaterialParams] = {m.name: m for m in (WOOD, PLASTER, GLASS)}


def parse_material_line(line: str) -> MaterialParams:
    """Parse one table line ``name, a, b, c, d, sigma_m``.

    Fields may be separated by commas, whitespace, or both.
    """
    fields = line.replace(",", " ").split()
    if len(fields) != 6:
        raise ValueError(
            f"expected 6 fields (name, a, b, c, d, sigma_m), got {len(fields)}: {line!r}"
        )
    name = fields[0]
    try:
        a, b, c, d, sigma = (float(x) for x in fields[1:])
    except ValueError as err:
        raise ValueError(f"non-numeric field in material line {line!r}") from err
    return MaterialParams(name, a, b, c, d, roughness_sigma=sigma)


def load_material_table(path) -> list[MaterialParams]:
    """Load materials from a plain-text table, one material per line.

    Blank lines and lines starting with ``#`` are ignored; a name may appear
    on one line only.
    """
    first_line: dict[str, int] = {}
    materials = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                mat = parse_material_line(line)
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
            if mat.name in first_line:
                raise ValueError(
                    f"{path}:{lineno}: material {mat.name!r} is already defined "
                    f"at line {first_line[mat.name]}"
                )
            first_line[mat.name] = lineno
            materials.append(mat)
    return materials
