import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raymat import rldb
from raymat.materials import (
    GLASS,
    PLASTER,
    PRESETS,
    WOOD,
    MaterialParams,
    load_material_table,
    parse_material_line,
)


def test_presets_match_itu_table_exactly():
    assert (WOOD.a, WOOD.b, WOOD.c, WOOD.d) == (1.99, 0.0, 0.0047, 1.0718)
    assert (PLASTER.a, PLASTER.b, PLASTER.c, PLASTER.d) == (2.94, 0.0, 0.0116, 0.7076)
    assert (GLASS.a, GLASS.b, GLASS.c, GLASS.d) == (6.27, 0.0, 0.0043, 1.1925)
    assert WOOD.roughness_sigma == 0.4e-3
    assert PLASTER.roughness_sigma == 0.2e-3
    assert GLASS.roughness_sigma == 0.0
    assert set(PRESETS) == {"wood", "plaster", "glass"}


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="", a=1.0, b=0.0, c=0.0, d=0.0),
        dict(name="x", a=0.0, b=0.0, c=0.0, d=0.0),
        dict(name="x", a=-2.0, b=0.0, c=0.0, d=0.0),
        dict(name="x", a=1.0, b=0.0, c=0.0, d=0.0, roughness_sigma=-1e-4),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        MaterialParams(**kwargs)


@pytest.mark.parametrize("field", ["a", "b", "c", "d", "roughness_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_rejected(field, value):
    kwargs = dict(name="x", a=4.0, b=0.0, c=0.01, d=1.0, roughness_sigma=0.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"'x': {field} must be finite"):
        MaterialParams(**kwargs)


def test_parse_material_line_comma_and_whitespace():
    a = parse_material_line("brick, 3.91, 0, 0.0238, 0.16, 0.0005")
    b = parse_material_line("brick 3.91 0 0.0238 0.16 0.0005")
    assert a == b
    assert a.name == "brick"
    assert a.roughness_sigma == 0.0005


def test_parse_material_line_errors():
    with pytest.raises(ValueError, match="expected 6 fields"):
        parse_material_line("brick,3.91,0")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_material_line("brick,a,b,c,d,e")


def test_load_material_table(tmp_path):
    path = tmp_path / "mats.txt"
    path.write_text(
        "# custom materials\n"
        "\n"
        "brick, 3.91, 0, 0.0238, 0.16, 0.0005\n"
        "concrete 5.24 0 0.0462 0.7822 0.001\n",
        encoding="utf-8",
    )
    mats = load_material_table(path)
    assert [m.name for m in mats] == ["brick", "concrete"]
    assert mats[1].a == 5.24


def test_load_material_table_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("brick, 3.91\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        load_material_table(path)


@pytest.mark.parametrize(
    "name", ["oak board", "a,b", "x\ny", "x\r", "#x", "wood ", " pad", "x\u2028y", "\ud800", "x\udfffy"]
)
def test_a_name_must_be_one_token_a_database_reads_back(name):
    # an RL database header splits on commas and whitespace, a line that opens
    # with # is a header, and UTF-8 has no lone surrogate: each of these names
    # would not load, or not save, as written
    with pytest.raises(ValueError, match=re.escape(f"material name {name!r} must be one")):
        MaterialParams(name, 4.0, 0.0, 0.01, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.text(
        st.one_of(st.characters(), st.sampled_from("#,=% \t\r\n\x0b\x1c\x85")),
        min_size=1,
        max_size=8,
    )
)
def test_every_accepted_name_survives_a_database_round_trip(tmp_path_factory, name):
    try:
        mat = MaterialParams(name, 4.0, 0.0, 0.01, 1.0)
    except ValueError:
        assume(False)
    path = tmp_path_factory.getbasetemp() / "names.csv"
    rldb.build([mat], [100.0], [0.0]).save(path)
    assert rldb.load(path).materials == [mat]
