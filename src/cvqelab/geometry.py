"""Hydrogen-cluster geometries: XYZ parsing, built-in structures, nuclear repulsion."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import BOHR_PER_ANGSTROM


class GeometryError(ValueError):
    """Malformed or unsupported geometry input."""


class GeometryParseError(GeometryError):
    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {reason}: {line!r}")


class UnsupportedElementError(GeometryError):
    def __init__(self, element: str):
        self.element = element
        super().__init__(f"element {element!r} not supported (hydrogen clusters only)")


MIN_SEPARATION_ANGSTROM = 1e-6


@dataclass(frozen=True, eq=False)
class Geometry:
    """Hydrogen nuclei in Angstrom.  Every atom is a unit-charge proton
    carrying one STO-6G 1s function, so positions are all an atom has."""

    positions: np.ndarray  # (n_atoms, 3), Angstrom
    comment: str = ""
    label: str = ""

    def __post_init__(self):
        pos = self.positions
        finite = np.isfinite(pos).all(axis=1)
        if not finite.all():
            raise GeometryError(f"non-finite coordinates for atom {np.argmin(finite)}")
        a, b = np.triu_indices(len(pos), 1)
        close = np.linalg.norm(pos[a] - pos[b], axis=-1) < MIN_SEPARATION_ANGSTROM
        if close.any():
            i = np.argmax(close)
            raise GeometryError(
                f"atoms {a[i]} and {b[i]} closer than {MIN_SEPARATION_ANGSTROM} Angstrom"
            )

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def positions_bohr(self) -> np.ndarray:
        return self.positions * BOHR_PER_ANGSTROM


def parse_geometry(text: str, label: str = "") -> Geometry:
    """Parse an XYZ-format string (with or without the count/comment header).

    Coordinates are taken verbatim in Angstrom.  Raises GeometryParseError
    with the offending line number, or UnsupportedElementError for anything
    that is not hydrogen.
    """
    raw_lines = text.splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw_lines)]
    body = [(n, ln) for n, ln in lines if ln]

    comment = ""
    if body:
        first_fields = body[0][1].split()
        if len(first_fields) == 1 and first_fields[0].isdigit():
            declared = int(first_fields[0])
            # standard XYZ: count line, comment line, then atom records
            if len(body) >= 2 and not _looks_like_atom_line(body[1][1]):
                comment = body[1][1]
                body = body[2:]
            else:
                body = body[1:]
            if len(body) != declared:
                raise GeometryParseError(
                    body[0][0] if body else lines[-1][0] if lines else 1,
                    text.splitlines()[0] if raw_lines else "",
                    f"declared {declared} atoms but found {len(body)}",
                )

    rows = []
    for line_number, line in body:
        fields = line.split()
        if len(fields) != 4:
            raise GeometryParseError(line_number, line, "expected 'element x y z'")
        if fields[0].capitalize() != "H":
            raise UnsupportedElementError(fields[0])
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise GeometryParseError(line_number, line, "non-numeric coordinate") from None

    if not rows:
        raise GeometryError("no atoms found")
    return Geometry(np.array(rows), comment=comment, label=label)


def _looks_like_atom_line(line: str) -> bool:
    fields = line.split()
    if len(fields) != 4 or fields[0].capitalize() != "H":
        return False
    try:
        [float(v) for v in fields[1:]]
    except ValueError:
        return False
    return True


BUILTIN_GEOMETRY_LABELS = ("reactant", "well", "product")


def load_geometry(source: str | Path) -> Geometry:
    """Load a geometry from a built-in label (reactant/well/product) or an XYZ file."""
    if isinstance(source, str) and source in BUILTIN_GEOMETRY_LABELS:
        data = resources.files("cvqelab.data").joinpath(f"{source}.xyz").read_text()
        return parse_geometry(data, label=source)
    path = Path(source)
    if not path.exists():
        raise GeometryError(
            f"geometry source {source!r} is neither a built-in label "
            f"{BUILTIN_GEOMETRY_LABELS} nor an existing file"
        )
    return parse_geometry(path.read_text(), label=path.stem)


def nuclear_repulsion(geometry: Geometry) -> float:
    """Nuclear repulsion energy in Hartree: sum over pairs of 1 / r_ab (unit charges, r in Bohr)."""
    pos = geometry.positions_bohr()
    energy = 0.0
    for a in range(geometry.n_atoms):
        for b in range(a + 1, geometry.n_atoms):
            energy += 1.0 / np.linalg.norm(pos[a] - pos[b])
    return energy
