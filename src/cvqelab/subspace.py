"""Classical subspace cascade: threshold sampled outcomes, keep those in the
reference (n_alpha, n_beta) sector, assemble the sampled-basis Hamiltonian
from determinant matrix elements, diagonalize, and embed the optimized state
back on the register.

Matrix elements between Fock occupation bitstrings follow the standard
two-difference excitation rules with fermionic parity consistent with the
Jordan-Wigner bit ordering (parity = popcount of occupied modes below the
acted index), so the subspace matrix equals the dense qubit Hamiltonian
restricted to the sampled rows/columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fermion import SecondQuantizedHamiltonian
from .statevector import SampleCounts, StateVector, init_fock

if TYPE_CHECKING:
    from .fci import SectorBasis


class EmptySubspaceError(ValueError):
    """No outcomes survive the count threshold or the sector filter."""


@dataclass(frozen=True)
class OutcomeSet:
    members: tuple[int, ...]          # ascending Fock indices

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be deduplicated and ascending")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SubspaceHamiltonian:
    basis: OutcomeSet
    matrix: np.ndarray  # Hermitian, Hartree


@dataclass(frozen=True)
class OptimizedState:
    energy: float          # E*, Hartree
    theta: np.ndarray      # coefficients over basis members, unit norm
    basis: OutcomeSet


def collect_outcomes(counts: SampleCounts, threshold: int = 1) -> OutcomeSet:
    """Fock indices with at least max(threshold, 1) counts, ascending."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    floor = max(threshold, 1)
    members = tuple(sorted(n for n, c in counts.counts.items() if c >= floor))
    if not members:
        raise EmptySubspaceError(
            f"no outcome reaches the count threshold {floor} "
            f"(max observed count {max(counts.counts.values(), default=0)})"
        )
    return OutcomeSet(members=members)


def restrict_to_sector(outcomes: OutcomeSet, sector: SectorBasis) -> OutcomeSet:
    """Members that are determinants of the reference sector.

    Noise and Trotter leakage put counts on determinants of other particle-
    number and spin sectors; the sector Hamiltonian's ground energy bounds
    E* from below only once those are gone.
    """
    allowed = set(sector.determinants)
    members = tuple(n for n in outcomes.members if n in allowed)
    if not members:
        raise EmptySubspaceError(
            f"none of the {len(outcomes)} outcomes lies in the "
            f"(n_alpha, n_beta) = ({sector.n_alpha}, {sector.n_beta}) sector"
        )
    return OutcomeSet(members=members)


def _occupied(n: int, q: int) -> list[int]:
    return [p for p in range(q) if (n >> p) & 1]


def _parity_below(n: int, p: int) -> int:
    return bin(n & ((1 << p) - 1)).count("1") & 1


def _annihilate(n: int, p: int) -> tuple[int, int] | None:
    if not (n >> p) & 1:
        return None
    sign = -1 if _parity_below(n, p) else 1
    return sign, n ^ (1 << p)


def _create(n: int, p: int) -> tuple[int, int] | None:
    if (n >> p) & 1:
        return None
    sign = -1 if _parity_below(n, p) else 1
    return sign, n | (1 << p)


def slater_condon(n: int, n_prime: int, sq: SecondQuantizedHamiltonian) -> float:
    """<n|H|n'> between Fock occupation bitstrings (Hartree)."""
    q = sq.n_spin_orbitals
    h1, h2 = sq.one_body, sq.two_body
    if n == n_prime:
        occ = _occupied(n, q)
        e = sq.constant + sum(h1[p, p] for p in occ)
        for a_i, p in enumerate(occ):
            for r in occ[a_i + 1:]:
                e += h2[p, r, p, r]
        return float(e)

    diff = n ^ n_prime
    removed = [p for p in range(q) if (diff >> p) & 1 and (n_prime >> p) & 1]
    added = [p for p in range(q) if (diff >> p) & 1 and (n >> p) & 1]
    if len(removed) != len(added) or len(removed) > 2:
        return 0.0

    if len(removed) == 1:
        p_from, p_to = removed[0], added[0]
        sign, interm = _annihilate(n_prime, p_from)
        step = _create(interm, p_to)
        if step is None:
            return 0.0
        sign *= step[0]
        common = _occupied(n_prime & n, q)
        val = h1[p_to, p_from] + sum(h2[p_to, r, p_from, r] for r in common)
        return float(sign * val)

    # two differing spin orbitals: <n| a+_c1 a+_c2 a_r2 a_r1 |n'> * <c1 c2||r1 r2>
    r1, r2 = removed
    c1, c2 = added
    sign1, s1 = _annihilate(n_prime, r1)
    step = _annihilate(s1, r2)
    sign2, s2 = step
    step = _create(s2, c2)
    if step is None:
        return 0.0
    sign3, s3 = step
    step = _create(s3, c1)
    if step is None or step[1] != n:
        return 0.0
    sign = sign1 * sign2 * sign3 * step[0]
    return float(sign * h2[c1, c2, r1, r2])


def build_subspace(outcomes: OutcomeSet, sq: SecondQuantizedHamiltonian) -> SubspaceHamiltonian:
    if len(outcomes) == 0:
        raise EmptySubspaceError("outcome set is empty")
    members = outcomes.members
    m = len(members)
    mat = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            val = slater_condon(members[i], members[j], sq)
            mat[i, j] = val
            mat[j, i] = val
    return SubspaceHamiltonian(basis=outcomes, matrix=mat)


def optimize(subspace: SubspaceHamiltonian) -> OptimizedState:
    """Lowest eigenpair with a deterministic phase gauge (first significant
    component real-positive)."""
    if subspace.matrix.shape[0] == 0:
        raise EmptySubspaceError("cannot optimize over an empty subspace")
    evals, evecs = np.linalg.eigh(subspace.matrix)
    theta = evecs[:, 0].astype(complex)
    for v in theta:
        if abs(v) > 1e-12:
            theta = theta * (abs(v) / v)
            break
    theta = theta / np.linalg.norm(theta)
    return OptimizedState(energy=float(evals[0]), theta=theta, basis=subspace.basis)


def embed_optimized(theta: np.ndarray, outcomes: OutcomeSet, n_qubits: int) -> StateVector:
    """Full-register state with amplitudes theta on the outcome members."""
    theta = np.asarray(theta, dtype=complex)
    if abs(np.linalg.norm(theta) - 1.0) > 1e-9:
        raise ValueError("theta must be unit norm")
    state = init_fock(0, n_qubits)
    state.amplitudes[0] = 0.0
    for val, n in zip(theta, outcomes.members):
        state.amplitudes[n] = val
    return state
