"""Sector-restricted full CI: the exact ground-truth oracle.

Determinants are enumerated within a fixed (n_alpha, n_beta) sector of the
interleaved spin layout (even bits up, odd bits down).  The exact ground
state is the classical subspace solve over the whole sector, gathered from
the sector Hamiltonian like every sampled subspace, so E* >= E_g is Cauchy
interlacing on one Hamiltonian matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fermion import SecondQuantizedHamiltonian
from .subspace import (
    OptimizedState,
    OutcomeSet,
    SubspaceHamiltonian,
    build_subspace,
    determinant_hamiltonian,
    optimize,
)

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SectorBasis:
    determinants: tuple[int, ...]  # ascending Fock indices
    n_qubits: int
    n_alpha: int
    n_beta: int


def enumerate_sector(n_qubits: int, n_alpha: int, n_beta: int) -> SectorBasis:
    """Every determinant with the given up/down occupation counts."""
    n_mo = n_qubits // 2
    if n_alpha < 0 or n_beta < 0 or n_alpha > n_mo or n_beta > n_mo:
        raise ValueError(f"counts ({n_alpha}, {n_beta}) infeasible for {n_mo} spatial MOs")
    dets = []
    for occ_a in itertools.combinations(range(n_mo), n_alpha):
        bits_a = sum(1 << (2 * i) for i in occ_a)
        for occ_b in itertools.combinations(range(n_mo), n_beta):
            dets.append(bits_a + sum(1 << (2 * i + 1) for i in occ_b))
    return SectorBasis(
        determinants=tuple(sorted(dets)),
        n_qubits=n_qubits,
        n_alpha=n_alpha,
        n_beta=n_beta,
    )


def solve_fci(basis: SectorBasis, sq: SecondQuantizedHamiltonian) -> OptimizedState:
    """Lowest eigenpair of the Hamiltonian over the whole sector (E_g, theta)."""
    return solve_sector(determinant_hamiltonian(OutcomeSet(members=basis.determinants), sq))


def solve_sector(sector: SubspaceHamiltonian) -> OptimizedState:
    """Lowest eigenpair of the subspace on every member of the sector
    Hamiltonian, gathered as the sampled subspaces are."""
    sub = build_subspace(sector.basis, sector)
    ground = optimize(sub)
    residual = float(np.linalg.norm(sub.matrix @ ground.theta - ground.energy * ground.theta))
    if residual > RESIDUAL_TOL:
        raise RuntimeError(f"eigenpair residual {residual:.2e} above {RESIDUAL_TOL}")
    return ground
