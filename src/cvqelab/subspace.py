"""Classical subspace cascade: threshold sampled outcomes, keep those in the
reference (n_alpha, n_beta) sector, assemble the sampled-basis Hamiltonian
from determinant matrix elements, diagonalize, and embed the optimized state
back on the register.

Matrix elements between Fock occupation bitstrings follow the standard
two-difference excitation rules with fermionic parity consistent with the
Jordan-Wigner bit ordering (parity = popcount of occupied modes below the
acted index), so the subspace matrix equals the dense qubit Hamiltonian
restricted to the sampled rows/columns.  The rules are evaluated as bit-mask
array operations over all determinant pairs at once, and each entry is
computed from its own pair alone: a sampled matrix is exactly a principal
sub-matrix of the sector matrix, so E* >= E_g is Cauchy interlacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fermion import SecondQuantizedHamiltonian
from .pauli import _popcount
from .statevector import SampleCounts, StateVector

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


def build_subspace(outcomes: OutcomeSet, sq: SecondQuantizedHamiltonian) -> SubspaceHamiltonian:
    """<a|H|b> over the outcome members by the determinant rules, for every
    upper-triangle pair at once; each entry reads its own pair only."""
    if len(outcomes) == 0:
        raise EmptySubspaceError("outcome set is empty")
    h1, h2 = sq.one_body, sq.two_body
    modes = np.arange(sq.n_spin_orbitals)
    members = np.array(outcomes.members, dtype=np.int64)
    m = len(members)
    index = np.arange(m)
    rows, cols = np.nonzero(index[:, None] < index)
    a, b = members[rows], members[cols]

    # <a| a+_c1 a+_c2 a_r2 a_r1 |b>: the lost modes r1 < r2 are in b only, the
    # gained modes c1 < c2 in a only, and a single excitation has no r2, c2.
    # Unequal counts, or more than two each way, leave an exact zero.
    moved = (a ^ b) & np.array([b, a])
    low = moved & -moved
    high = moved ^ low
    one_or_two = low.all(axis=0) & ((high & (high - 1)) == 0).all(axis=0)
    kept = np.flatnonzero(one_or_two & ((high[0] == 0) == (high[1] == 0)))
    a, b, rows, cols = a[kept], b[kept], rows[kept], cols[kept]
    (r1, c1), (r2, c2) = low[:, kept], high[:, kept]
    # bits below each of r1, c1, r2, c2 (none where absent): their popcounts
    # are the mode indices, and the ladder parities of annihilating r1, r2
    # from b and then creating c2, c1 sum to the parity of one XOR
    below = np.maximum(np.array([r1, c1, r2, c2]) - 1, 0)
    order = (
        (b & below[0])
        ^ ((b ^ r1) & below[2])
        ^ ((b ^ r1 ^ r2) & below[3])
        ^ ((b ^ r1 ^ r2 ^ c2) & below[1])
    )
    i_r1, i_c1, i_r2, i_c2, odd = _popcount(np.concatenate([below, order[None]]))
    values = 1.0 - 2.0 * (odd & 1)

    single = np.flatnonzero(r2 == 0)
    p, c = i_r1[single], i_c1[single]
    spectators = ((a[single] & b[single])[:, None] >> modes) & 1
    coulomb = h2[c[:, None], modes, p[:, None], modes] * spectators
    values[single] *= h1[c, p] + coulomb.sum(axis=1)
    double = np.flatnonzero(r2)
    values[double] *= h2[i_c1[double], i_c2[double], i_r1[double], i_r2[double]]

    mat = np.zeros((m, m))
    mat[rows, cols] = values
    mat[cols, rows] = values
    # diagonal: constant + sum_p h1[p,p] + sum_{p<r} h2[p,r,p,r] over occupied p, r
    occ = ((members[:, None] >> modes) & 1).astype(float)
    weight = np.triu(h2[modes[:, None], modes, modes[:, None], modes], 1) + np.diag(np.diag(h1))
    pairs = (occ[:, :, None] * occ[:, None, :] * weight).reshape(m, -1)
    mat[index, index] = sq.constant + pairs.sum(axis=1)
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
    amplitudes = np.zeros(1 << n_qubits, dtype=complex)
    amplitudes[list(outcomes.members)] = theta
    return StateVector(amplitudes, n_qubits)
