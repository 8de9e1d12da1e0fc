"""FCIDUMP interchange: namelist header plus index-value records.

Conventions: chemists' notation (pq|rs), 1-based orbital indices, the
trailing all-zero-index record carrying the nuclear repulsion constant.
Each two-electron value is written once, as (pq|rs) with p >= q, r >= s and
pair {p, q} at or after pair {r, s} in `integrals.pair_index` order; the
reader stores records in a pair matrix and expands it with
`integrals.from_pair_matrix`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .integrals import from_pair_matrix, pair_index
from .scf import MOIntegrals


class FCIDumpFormatError(ValueError):
    """Structurally invalid FCIDUMP content."""


@dataclass(frozen=True)
class FCIDumpMetadata:
    n_orb: int
    n_elec: int
    ms2: int


def write_fcidump(mo: MOIntegrals, n_elec: int, ms2: int = 0) -> str:
    """Serialize MO integrals; values below 1e-16 are skipped."""
    n = mo.n_mo
    lines = [
        f"&FCI NORB={n},NELEC={n_elec},MS2={ms2},",
        "  ORBSYM=" + ",".join(["1"] * n) + ",",
        "  ISYM=1,",
        "&END",
    ]
    pairs = [(p, q) for p in range(n) for q in range(p + 1)]
    for k, (r, s) in enumerate(pairs):
        for p, q in pairs[k:]:
            val = mo.g_mo[p, q, r, s]
            if abs(val) > 1e-16:
                lines.append(f"{val:23.16e} {p+1:3d} {q+1:3d} {r+1:3d} {s+1:3d}")
    for p in range(n):
        for q in range(p + 1):
            val = mo.h_mo[p, q]
            if abs(val) > 1e-16:
                lines.append(f"{val:23.16e} {p+1:3d} {q+1:3d}   0   0")
    lines.append(f"{mo.e_nuc:23.16e}   0   0   0   0")
    return "\n".join(lines) + "\n"


def read_fcidump(text: str) -> tuple[MOIntegrals, FCIDumpMetadata]:
    """Parse FCIDUMP text; redundant permutations must agree within 1e-10."""
    header_match = re.search(r"&FCI(.*?)(?:&END|/)", text, re.IGNORECASE | re.DOTALL)
    if not header_match:
        raise FCIDumpFormatError("missing &FCI ... &END namelist header")
    header = header_match.group(1)

    def field(name: str, default=None, scalar: bool = True):
        """Namelist field `name` as one integer, or as a tuple of integers when
        not scalar; `default` when the field is absent or lists none."""
        m = re.search(rf"{name}\s*=\s*([0-9,\s-]+?)(?=[A-Za-z&/]|$)", header, re.IGNORECASE)
        raw = m.group(1).strip() if m else ""
        try:
            values = tuple(int(v) for v in raw.split(",") if v.strip())
        except ValueError:
            raise FCIDumpFormatError(
                f"namelist field {name} = {raw!r} is not a list of integers"
            ) from None
        if not values:
            if default is None:
                raise FCIDumpFormatError(f"namelist field {name} missing")
            return default
        if not scalar:
            return values
        if len(values) > 1:
            raise FCIDumpFormatError(f"namelist field {name} = {raw!r} is not one integer")
        return values[0]

    n_orb = field("NORB")
    n_elec = field("NELEC")
    ms2 = field("MS2", 0)
    orbsym = field("ORBSYM", (1,) * n_orb, scalar=False)
    field("ISYM", 1)  # must parse; unused

    if n_orb < 1:
        raise FCIDumpFormatError(f"NORB = {n_orb} invalid")
    if len(orbsym) != n_orb:
        raise FCIDumpFormatError(f"ORBSYM lists {len(orbsym)} orbitals, NORB = {n_orb}")
    if n_elec < 0 or n_elec > 2 * n_orb:
        raise FCIDumpFormatError(f"NELEC = {n_elec} inconsistent with NORB = {n_orb}")
    if (n_elec - ms2) % 2 or abs(ms2) > n_elec or n_elec + abs(ms2) > 2 * n_orb:
        raise FCIDumpFormatError(
            f"MS2 = {ms2} inconsistent with NELEC = {n_elec} and NORB = {n_orb}"
        )

    body = text[header_match.end():]
    h = np.zeros((n_orb, n_orb))
    index = pair_index(n_orb)
    g_pairs = np.zeros((n_orb * (n_orb + 1) // 2,) * 2)
    e_nuc = 0.0
    seen: dict[tuple, float] = {}   # h (p, q, 0, 0) or g (pair, pair) keys
    for line_no, line in enumerate(body.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FCIDumpFormatError(f"record {line_no}: expected 'value i j k l'")
        try:
            val = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(v) for v in parts[1:])
        except ValueError as exc:
            raise FCIDumpFormatError(f"record {line_no}: {exc}") from None
        if max(i, j, k, l) > n_orb or min(i, j, k, l) < 0:
            raise FCIDumpFormatError(f"record {line_no}: index outside 1..{n_orb}")
        if i == 0 and j == 0 and k == 0 and l == 0:
            e_nuc = val
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FCIDumpFormatError(f"record {line_no}: partial zero indices")
            key = (max(i, j), min(i, j), 0, 0)
            if key in seen and abs(seen[key] - val) > 1e-10:
                raise FCIDumpFormatError(
                    f"record {line_no}: conflicting duplicate for h[{i},{j}]"
                )
            seen[key] = val
            h[i - 1, j - 1] = h[j - 1, i - 1] = val
        else:
            if 0 in (i, j, k, l):
                raise FCIDumpFormatError(f"record {line_no}: partial zero indices")
            pq, rs = index[i - 1, j - 1], index[k - 1, l - 1]
            key = (max(pq, rs), min(pq, rs))
            if key in seen and abs(seen[key] - val) > 1e-10:
                raise FCIDumpFormatError(
                    f"record {line_no}: conflicting duplicate for ({i}{j}|{k}{l})"
                )
            seen[key] = val
            g_pairs[pq, rs] = g_pairs[rs, pq] = val

    g = from_pair_matrix(g_pairs, n_orb)
    mo = MOIntegrals(h_mo=h, g_mo=g, e_nuc=e_nuc, n_mo=n_orb)
    meta = FCIDumpMetadata(n_orb=n_orb, n_elec=n_elec, ms2=ms2)
    return mo, meta
