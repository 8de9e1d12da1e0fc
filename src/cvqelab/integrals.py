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
    p, q = np.tril_indices(n_ao)  # AO pairs in pair_index order

    # every AO is the same contraction, so these primitive-pair arrays are
    # shared by all AO pairs; only the centres differ
    a = alpha[:, None]
    b = alpha[None, :]
    cc = coef[:, None] * coef[None, :]
    ab = a + b
    mu = a * b / ab
    s_norm = (np.pi / ab) ** 1.5
    v_norm = 2.0 * np.pi / ab

    # below, every primitive-pair array carries a leading AO-pair axis
    r2 = np.array([np.dot(d, d) for d in centers[p] - centers[q]])[:, None, None]
    pref = np.exp(-mu * r2)
    s_prim = s_norm * pref
    t_prim = mu * (3.0 - 2.0 * mu * r2) * s_prim

    # Gaussian product centres, (n_pairs, 6, 6, 3)
    pc = (a[..., None] * centers[p][:, None, None, :]
          + b[..., None] * centers[q][:, None, None, :]) / ab[..., None]
    # squared distance of every product centre to every nucleus
    s = pc[:, None] - centers[None, :, None, None, :]
    s *= s
    f0 = boys0(ab * (s[..., 0] + s[..., 1] + s[..., 2]))  # (n_pairs, n_atoms, 6, 6)
    v_prim = np.zeros_like(s_prim)
    for k in range(n_ao):  # atom by atom: a sum over the atom axis rounds differently
        v_prim -= v_norm * pref * f0[:, k]

    # each block's {p, q} entry sums the AO pair's 36 weighted primitive pairs
    blocks = np.empty((3, n_ao, n_ao))
    prims = cc * np.stack((s_prim, t_prim, v_prim))
    blocks[:, p, q] = blocks[:, q, p] = prims.reshape(3, len(p), 36).sum(axis=2)
    overlap, kinetic, nuclear = blocks

    eig_min = float(np.linalg.eigvalsh(overlap)[0])
    if eig_min < OVERLAP_CONDITION_FLOOR:
        raise IllConditionedBasisError(
            f"overlap matrix min eigenvalue {eig_min:.3e} below {OVERLAP_CONDITION_FLOOR}"
        )

    eri = _electron_repulsion(cc * pref, pc, ab, n_ao)
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


def _electron_repulsion(cp: np.ndarray, rp: np.ndarray, zeta: np.ndarray, n_ao: int) -> np.ndarray:
    """Full (pq|rs) tensor via the s-Gaussian closed form, one pass per AO pair i
    over every pair j <= i; cp[i] and rp[i] hold pair i's (6, 6) primitive-pair
    weights and product centres, zeta the exponent sums every pair shares."""
    cp, rp, zeta = cp.reshape(len(cp), 36), rp.reshape(len(rp), 36, 3), zeta.ravel()
    zsum = zeta[:, None] + zeta[None, :]
    rho = zeta[:, None] * zeta[None, :] / zsum
    kern_norm = 2.0 * np.pi ** 2.5 / (zeta[:, None] * zeta[None, :] * np.sqrt(zsum))
    m = np.empty((len(cp), len(cp)))
    for i in range(len(cp)):
        s = rp[i][None, :, None, :] - rp[: i + 1, None, :, :]
        s *= s  # squared coordinate differences
        kern = kern_norm * boys0(rho * (s[..., 0] + s[..., 1] + s[..., 2]))
        m[i, : i + 1] = m[: i + 1, i] = np.einsum("i,nj,nij->n", cp[i], cp[: i + 1], kern)
    return from_pair_matrix(m, n_ao)
