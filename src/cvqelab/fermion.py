"""Second quantization, the Jordan-Wigner fermion-to-qubit mapping and the
diagonal HF model H0 with its sector gap omega0.

Spin-orbital indexing is interleaved: spin orbital q = 2*(i-1) + s for
spatial MO i (1-based) and spin s (0 = up, 1 = down).  Qubit q is the
q-th least-significant bit of a Fock index, so the Hartree-Fock determinant
for (n_alpha, n_beta) = (2, 1) occupies qubits {0, 1, 2} = index 7.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, mask_phases, symplectic_product
from .scf import MOIntegrals, SCFResult

# one- and two-body entries below this magnitude are skipped, Hartree
_ENTRY_FLOOR = 1e-15

# coefficients of the two monomials of a+_m and of a_m (see _ladder_monomials)
_CREATE = np.array([0.5, 0.5])
_ANNIHILATE = np.array([0.5, -0.5])


@dataclass(frozen=True)
class SecondQuantizedHamiltonian:
    """H = constant + sum h1[P,Q] a+_P a_Q + (1/4) sum h2[P,Q,R,S] a+_P a+_Q a_S a_R.

    h2 is the antisymmetrized spin-orbital tensor <PQ||RS>; spin-forbidden
    entries are exact zeros.
    """

    one_body: np.ndarray   # (Q, Q), Hartree
    two_body: np.ndarray   # (Q, Q, Q, Q), antisymmetrized, Hartree
    constant: float        # Hartree (nuclear repulsion)
    n_spin_orbitals: int


class DegenerateGapWarning(UserWarning):
    """Frontier orbitals are degenerate; the model gap is ill-defined."""


def second_quantize(mo: MOIntegrals) -> SecondQuantizedHamiltonian:
    """Expand spatial-MO integrals over interleaved spin orbitals."""
    n = mo.n_mo
    q = 2 * n
    h1 = np.zeros((q, q))
    for s in range(2):
        h1[s::2, s::2] = mo.h_mo

    # <PQ|RS> = (pr|qs) delta(sP,sR) delta(sQ,sS), then antisymmetrize; spin
    # orbital P = 2 i + s is axis pair (i, s) of the (n, 2, ...) view
    pqrs = mo.g_mo.transpose(0, 2, 1, 3)
    pqrs = np.where(np.abs(pqrs) < _ENTRY_FLOOR, 0.0, pqrs)
    coulomb = np.zeros((n, 2, n, 2, n, 2, n, 2))
    for s1 in range(2):
        for s2 in range(2):
            coulomb[:, s1, :, s2, :, s1, :, s2] = pqrs
    coulomb = coulomb.reshape(q, q, q, q)
    h2 = coulomb - coulomb.transpose(0, 1, 3, 2)
    return SecondQuantizedHamiltonian(
        one_body=h1, two_body=h2, constant=mo.e_nuc, n_spin_orbitals=q
    )


def _ladder_monomials(
    modes: tuple[np.ndarray, ...], daggers: tuple[bool, ...], coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand coeffs[k] * prod_j a(+)_{modes[j][k]} into X^x Z^z monomials.

    a+_m = Z_{<m} X_m (1 + Z_m) / 2 and a_m = Z_{<m} X_m (1 - Z_m) / 2, so each
    ladder operator is two monomials with x = 2^m, z = 2^m - 1 or 2^(m+1) - 1.
    Returns flat (x, z, coeff) arrays, 2^len(modes) monomials per entry.
    """
    n = len(coeffs)
    x = np.zeros((n, 1), dtype=np.int64)
    z = np.zeros((n, 1), dtype=np.int64)
    c = coeffs.reshape(n, 1)
    for j, (m, dagger) in enumerate(zip(modes, daggers)):
        bit = (np.int64(1) << m)[:, None, None]
        z_m = np.concatenate([bit - 1, 2 * bit - 1], axis=2)
        x, z, sign = symplectic_product(x[:, :, None], z[:, :, None], bit, z_m)
        c = c[:, :, None] * sign * (_CREATE if dagger else _ANNIHILATE)
        x, z, c = x.reshape(n, 1), z.reshape(n, 2 << j), c.reshape(n, 2 << j)
    return np.broadcast_to(x, z.shape).ravel(), z.ravel(), c.ravel()


def _monomial_chunks(sq: SecondQuantizedHamiltonian):
    """X^x Z^z expansion of H's ladder products: the one-body terms, then the
    two-body terms of one creation mode p at a time, so temporaries stay small."""
    p, r = np.nonzero(np.abs(sq.one_body) >= _ENTRY_FLOOR)
    yield _ladder_monomials((p, r), (True, False), sq.one_body[p, r])
    for p in range(sq.n_spin_orbitals):
        # coefficient of a+_p a+_r a_s a_t, indexed [r, s, t]
        block = 0.25 * sq.two_body[p].transpose(0, 2, 1)
        r, s, t = np.nonzero(np.abs(block) >= _ENTRY_FLOOR)
        modes = (np.full(len(r), p), r, s, t)
        yield _ladder_monomials(modes, (True, True, False, False), block[r, s, t])


def jordan_wigner(sq: SecondQuantizedHamiltonian) -> PauliSum:
    """Map the second-quantized Hamiltonian to a real-coefficient PauliSum.

    Ladder products are built in binary symplectic form over whole coefficient
    arrays; each chunk's monomials are merged into the running sum by key.
    """
    q = sq.n_spin_orbitals
    keys = np.zeros(1, dtype=np.int64)  # X^0 Z^0 = identity
    values = np.array([sq.constant], dtype=complex)
    for x, z, c in _monomial_chunks(sq):
        keys, inverse = np.unique(np.concatenate([keys, (x << q) | z]), return_inverse=True)
        merged = np.concatenate([values, c])
        values = np.bincount(inverse, merged.real) + 1j * np.bincount(inverse, merged.imag)

    x, z = keys >> q, keys & ((1 << q) - 1)
    coeffs = values * mask_phases(x, z)
    bad = np.flatnonzero(np.abs(coeffs.imag) > 1e-9)
    if len(bad):
        (label,) = PauliSum.from_masks(x[bad[:1]], z[bad[:1]], np.ones(1), q).labels()
        raise ValueError(f"non-Hermitian JW coefficient {coeffs[bad[0]]} for {label}")
    return PauliSum.from_masks(x, z, coeffs.real, q)


def model_pauli(scf: SCFResult) -> PauliSum:
    """Diagonal HF model H0 = sum_q eps_q n_q + shift as a PauliSum.

    eps_q is the orbital energy of spin orbital q's spatial MO; the shift
    gives the aufbau HF determinant the energy e_hf.
    """
    eps = scf.orbital_energies
    eps_spin = np.repeat(eps, 2)
    occupied_sum = float(np.sum(eps[: scf.n_alpha]) + np.sum(eps[: scf.n_beta]))
    shift = scf.e_hf - occupied_sum
    q = len(eps_spin)
    z = np.concatenate([[0], np.int64(1) << np.arange(q)])
    identity = shift + 0.5 * float(np.sum(eps_spin))
    coeffs = np.concatenate([[identity], -0.5 * eps_spin])
    return PauliSum.from_masks(np.zeros_like(z), z, coeffs, q)


def model_gap(scf: SCFResult, determinants: tuple[int, ...]) -> float:
    """omega0: the gap of H0 between its two lowest levels over the given
    determinants (Fock indices), the reference (N_alpha, N_beta) sector."""
    eps = scf.orbital_energies
    occupied = (np.asarray(determinants)[:, None] >> np.arange(2 * len(eps))) & 1
    # alpha (even) and beta (odd) spin orbitals each summed one add at a time
    # in index order (cumsum), so a level's bits do not depend on how a dot
    # product groups its terms
    levels = np.sort(
        np.cumsum(occupied[:, 0::2] * eps, axis=1)[:, -1]
        + np.cumsum(occupied[:, 1::2] * eps, axis=1)[:, -1]
    )
    if len(levels) < 2:
        raise ValueError("sector holds a single determinant; no excitation exists")
    gap = float(levels[1] - levels[0])
    if gap < 1e-8:
        warnings.warn(
            f"model gap {gap:.3e} Ha: frontier orbitals are degenerate",
            DegenerateGapWarning,
            stacklevel=2,
        )
    return gap
