"""STO-6G one- and two-electron integrals for hydrogen clusters.

Only s-type contracted Gaussians appear, so every integral reduces to closed
forms involving the zeroth Boys function

    F0(T) = (1/2) sqrt(pi/T) erf(sqrt(T)),    F0(0) = 1.

All quantities are in Hartree/Bohr.  Two-electron integrals are stored as the
full rank-4 tensor in chemists' notation (pq|rs).  Its 8-fold permutational
symmetry is encoded once, here: `pair_index` numbers the orbital pairs and
`from_pair_matrix` expands a symmetric pair-by-pair matrix into (pq|rs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .constants import STO6G_H_COEFFS, STO6G_H_EXPONENTS
from .geometry import Geometry, nuclear_repulsion

OVERLAP_CONDITION_FLOOR = 1e-10


class IllConditionedBasisError(ValueError):
    """Overlap matrix is numerically singular (near-linear dependence)."""


@dataclass(frozen=True)
class IntegralSet:
    """AO-basis integrals: overlap, core Hamiltonian (T + V_ne), ERIs, nuclear repulsion."""

    n_ao: int
    overlap: np.ndarray   # (n_ao, n_ao)
    core: np.ndarray      # (n_ao, n_ao), Hartree
    eri: np.ndarray       # (n_ao,)*4, chemists' (pq|rs), Hartree
    e_nuc: float          # Hartree


def boys0(t: np.ndarray | float) -> np.ndarray:
    """F0(T), elementwise; series branch near T=0 avoids 0/0."""
    t = np.asarray(t, dtype=float)
    small = t < 1e-12
    safe = np.where(small, 1.0, t)
    with np.errstate(invalid="ignore"):
        val = 0.5 * np.sqrt(np.pi / safe) * erf(np.sqrt(safe))
    return np.where(small, 1.0 - t / 3.0, val)


def _contracted_basis() -> tuple[np.ndarray, np.ndarray]:
    """The STO-6G 1s every atom carries: exponents (6,), normalized coefficients (6,)."""
    alpha = np.array(STO6G_H_EXPONENTS)
    d = np.array(STO6G_H_COEFFS)
    # unit-normalize primitives, then renormalize the contraction to <chi|chi> = 1
    c = d * (2.0 * alpha / np.pi) ** 0.75
    ab = alpha[:, None] + alpha[None, :]
    s_prim = (np.pi / ab) ** 1.5
    norm = np.einsum("i,j,ij->", c, c, s_prim)
    return alpha, c / np.sqrt(norm)


def compute_integrals(geometry: Geometry) -> IntegralSet:
    """All STO-6G integral blocks for a hydrogen-cluster geometry (deterministic)."""
    alpha, coef = _contracted_basis()
    centers = geometry.positions_bohr()
    n_ao = geometry.n_atoms

    # every AO is the same contraction, so these primitive-pair arrays are
    # shared by all AO pairs; only the centres differ
    a = alpha[:, None]
    b = alpha[None, :]
    cc = coef[:, None] * coef[None, :]
    ab = a + b
    mu = a * b / ab
    s_norm = (np.pi / ab) ** 1.5
    v_norm = 2.0 * np.pi / ab

    overlap = np.empty((n_ao, n_ao))
    kinetic = np.empty((n_ao, n_ao))
    nuclear = np.empty((n_ao, n_ao))
    # per AO pair, in pair_index order: contraction weights with the Gaussian
    # prefactor and product centres, one entry per primitive pair
    pair_data = []

    for p in range(n_ao):
        for q in range(p + 1):
            r2 = float(np.dot(centers[p] - centers[q], centers[p] - centers[q]))
            pref = np.exp(-mu * r2)
            s_prim = s_norm * pref
            t_prim = mu * (3.0 - 2.0 * mu * r2) * s_prim

            # Gaussian product center, one per primitive pair
            pc = (a[..., None] * centers[p] + b[..., None] * centers[q]) / ab[..., None]
            v_prim = np.zeros_like(s_prim)
            for nuc in centers:
                t_arg = ab * np.sum((pc - nuc) ** 2, axis=-1)
                v_prim -= v_norm * pref * boys0(t_arg)

            overlap[p, q] = overlap[q, p] = float(np.sum(cc * s_prim))
            kinetic[p, q] = kinetic[q, p] = float(np.sum(cc * t_prim))
            nuclear[p, q] = nuclear[q, p] = float(np.sum(cc * v_prim))
            pair_data.append(((cc * pref).ravel(), pc.reshape(-1, 3)))

    eig_min = float(np.linalg.eigvalsh(overlap)[0])
    if eig_min < OVERLAP_CONDITION_FLOOR:
        raise IllConditionedBasisError(
            f"overlap matrix min eigenvalue {eig_min:.3e} below {OVERLAP_CONDITION_FLOOR}"
        )

    eri = _electron_repulsion(pair_data, ab.ravel(), n_ao)
    return IntegralSet(
        n_ao=n_ao,
        overlap=overlap,
        core=kinetic + nuclear,
        eri=eri,
        e_nuc=nuclear_repulsion(geometry),
    )


def pair_index(n: int) -> np.ndarray:
    """(n, n) position of the orbital pair {p, q} in the order (0,0), (1,0),
    (1,1), (2,0), ...: max * (max + 1) / 2 + min."""
    i = np.arange(n)
    hi = np.maximum.outer(i, i)
    return hi * (hi + 1) // 2 + np.minimum.outer(i, i)


def from_pair_matrix(m: np.ndarray, n: int) -> np.ndarray:
    """(pq|rs) tensor m[index[p, q], index[r, s]] of a symmetric pair matrix.

    This gather is the one place the 8-fold permutational symmetry of real
    (pq|rs) is written down."""
    index = pair_index(n)
    return m[index[:, :, None, None], index[None, None, :, :]]


def _electron_repulsion(pair_data: list, zeta: np.ndarray, n_ao: int) -> np.ndarray:
    """Full (pq|rs) tensor via the s-Gaussian closed form, one value per pair of
    AO pairs; zeta holds the primitive-pair exponent sums every AO pair shares."""
    zsum = zeta[:, None] + zeta[None, :]
    rho = zeta[:, None] * zeta[None, :] / zsum
    kern_norm = 2.0 * np.pi ** 2.5 / (zeta[:, None] * zeta[None, :] * np.sqrt(zsum))
    m = np.zeros((len(pair_data), len(pair_data)))
    for i, (cp, rp) in enumerate(pair_data):
        for j, (cq, rq) in enumerate(pair_data[: i + 1]):
            d2 = np.sum((rp[:, None, :] - rq[None, :, :]) ** 2, axis=-1)
            kern = kern_norm * boys0(rho * d2)
            m[i, j] = m[j, i] = float(np.einsum("i,j,ij->", cp, cq, kern))
    return from_pair_matrix(m, n_ao)
