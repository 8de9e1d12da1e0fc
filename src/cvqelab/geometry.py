"""Hydrogen-cluster geometries: XYZ parsing, built-in structures, nuclear repulsion."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import BOHR_PER_ANGSTROM, NUCLEAR_CHARGE


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


@dataclass(frozen=True)
class Atom:
    element: str
    charge: float
    position: np.ndarray  # Angstrom, shape (3,)


@dataclass(frozen=True)
class Geometry:
    """An ordered collection of atoms with positions in Angstrom."""

    atoms: tuple[Atom, ...]
    comment: str = ""
    label: str = field(default="", compare=False)

    def __post_init__(self):
        for atom in self.atoms:
            if atom.element != "H":
                raise UnsupportedElementError(atom.element)
            if not np.all(np.isfinite(atom.position)):
                raise GeometryError(f"non-finite coordinates for atom {atom}")
        pos = self.positions_angstrom()
        for a in range(len(self.atoms)):
            for b in range(a + 1, len(self.atoms)):
                if np.linalg.norm(pos[a] - pos[b]) < MIN_SEPARATION_ANGSTROM:
                    raise GeometryError(
                        f"atoms {a} and {b} closer than {MIN_SEPARATION_ANGSTROM} Angstrom"
                    )

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def positions_angstrom(self) -> np.ndarray:
        return np.array([a.position for a in self.atoms], dtype=float)

    def positions_bohr(self) -> np.ndarray:
        return self.positions_angstrom() * BOHR_PER_ANGSTROM

    def charges(self) -> np.ndarray:
        return np.array([a.charge for a in self.atoms], dtype=float)


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

    atoms = []
    for line_number, line in body:
        fields = line.split()
        if len(fields) != 4:
            raise GeometryParseError(line_number, line, "expected 'element x y z'")
        element = fields[0].capitalize()
        if element not in NUCLEAR_CHARGE:
            raise UnsupportedElementError(fields[0])
        try:
            xyz = np.array([float(v) for v in fields[1:]], dtype=float)
        except ValueError:
            raise GeometryParseError(line_number, line, "non-numeric coordinate") from None
        atoms.append(Atom(element, NUCLEAR_CHARGE[element], xyz))

    if not atoms:
        raise GeometryError("no atoms found")
    return Geometry(tuple(atoms), comment=comment, label=label)


def _looks_like_atom_line(line: str) -> bool:
    fields = line.split()
    if len(fields) != 4 or fields[0].capitalize() not in NUCLEAR_CHARGE:
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
    """Nuclear repulsion energy in Hartree: sum over pairs Z_a Z_b / r_ab (r in Bohr)."""
    pos = geometry.positions_bohr()
    z = geometry.charges()
    energy = 0.0
    for a in range(geometry.n_atoms):
        for b in range(a + 1, geometry.n_atoms):
            r = np.linalg.norm(pos[a] - pos[b])
            if r < MIN_SEPARATION_ANGSTROM * BOHR_PER_ANGSTROM:
                raise GeometryError(f"coincident nuclei {a}, {b}")
            energy += z[a] * z[b] / r
    return energy
