import math

import numpy as np
import pytest

from cvqelab.constants import ANGSTROM_PER_BOHR
from cvqelab.geometry import (
    Geometry,
    GeometryError,
    GeometryParseError,
    UnsupportedElementError,
    load_geometry,
    nuclear_repulsion,
    parse_geometry,
)

REACTANT_TABLE = """\
H 0.000000000000 8.528398637950 0.000000000000
H 0.000000000000 7.471601362050 0.000000000000
H -0.370880024809 -1.000000000000 0.000000000000
H 0.370880024809 -1.000000000000 0.000000000000
"""


def test_parse_reactant_table():
    geom = parse_geometry(REACTANT_TABLE)
    assert geom.n_atoms == 4
    assert geom.positions[0, 1] == pytest.approx(8.528398637950, abs=0)
    lower_pair = np.linalg.norm(geom.positions[2] - geom.positions[3])
    assert lower_pair == pytest.approx(2 * 0.370880024809, abs=1e-12)


def test_parse_single_atom():
    geom = parse_geometry("H 0 0 0")
    assert geom.n_atoms == 1
    assert nuclear_repulsion(geom) == 0.0


def test_well_first_second_distance():
    # independent Euclidean evaluation of the published coordinates
    geom = load_geometry("well")
    a, b = geom.positions[0], geom.positions[1]
    dist = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    assert dist == pytest.approx(1.403206, abs=5e-7)


def test_parse_xyz_header():
    text = "2\ncomment line\nH 0 0 0\nH 0 0 1\n"
    geom = parse_geometry(text)
    assert geom.n_atoms == 2
    assert geom.comment == "comment line"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GeometryParseError) as err:
        parse_geometry("H 0 0 0\nH 0 zero 0")
    assert err.value.line_number == 2

    with pytest.raises(GeometryParseError):
        parse_geometry("H 0 0")

    with pytest.raises(UnsupportedElementError):
        parse_geometry("He 0 0 0")


def test_geometry_invariants():
    with pytest.raises(GeometryError):
        parse_geometry("H 0 0 0\nH 0 0 1e-8")
    with pytest.raises(GeometryError):
        parse_geometry("H 0 0 nan")


def test_nuclear_repulsion_h2_oracle():
    # oracle: 1/r for one unit-charge pair, r converted to bohr
    r_angstrom = 2 * 0.370880024809
    expected = ANGSTROM_PER_BOHR / r_angstrom
    geom = parse_geometry(f"H 0 0 0\nH 0 0 {r_angstrom}")
    assert nuclear_repulsion(geom) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.713408, abs=5e-7)


def test_nuclear_repulsion_well_brute_force():
    geom = load_geometry("well")
    pos = geom.positions / ANGSTROM_PER_BOHR
    brute = sum(
        1.0 / np.linalg.norm(pos[a] - pos[b])
        for a in range(4)
        for b in range(a + 1, 4)
    )
    assert nuclear_repulsion(geom) == pytest.approx(brute, rel=1e-12)


def test_builtin_labels():
    for label in ("reactant", "well", "product"):
        geom = load_geometry(label)
        assert geom.n_atoms == 4
        assert geom.label == label
    with pytest.raises(GeometryError):
        load_geometry("no-such-geometry")
