"""Sector-restricted full CI: the exact ground-truth oracle.

Determinants are enumerated within a fixed (n_alpha, n_beta) sector of the
interleaved spin layout (even bits up, odd bits down) and the Hamiltonian is
assembled from determinant matrix elements, then diagonalized densely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fermion import SecondQuantizedHamiltonian
from .statevector import Distribution
from .subspace import OutcomeSet, _annihilate, _create, build_subspace

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SectorBasis:
    determinants: tuple[int, ...]  # ascending Fock indices
    n_qubits: int
    n_alpha: int
    n_beta: int


@dataclass(frozen=True)
class FCISolution:
    energy: float            # E_g, Hartree, includes nuclear repulsion
    vector: np.ndarray       # amplitudes over basis.determinants
    basis: SectorBasis
    s_squared: float
    s_z: float


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


def solve_fci(basis: SectorBasis, sq: SecondQuantizedHamiltonian) -> FCISolution:
    """Lowest eigenpair of the Hamiltonian over the sector."""
    if not basis.determinants:
        raise ValueError("empty sector basis")
    outcomes = OutcomeSet(members=basis.determinants)
    sub = build_subspace(outcomes, sq)
    evals, evecs = np.linalg.eigh(sub.matrix)
    energy = float(evals[0])
    vector = evecs[:, 0]
    # deterministic sign gauge
    pivot = int(np.argmax(np.abs(vector)))
    if vector[pivot] < 0:
        vector = -vector
    residual = float(np.linalg.norm(sub.matrix @ vector - energy * vector))
    if residual > RESIDUAL_TOL:
        raise RuntimeError(f"eigenpair residual {residual:.2e} above {RESIDUAL_TOL}")
    s2, sz = _spin_expectations(vector, basis)
    return FCISolution(
        energy=energy, vector=vector, basis=basis, s_squared=s2, s_z=sz
    )


def ground_distribution(solution: FCISolution) -> Distribution:
    """Born probabilities of the ground state over full Fock indices (pGndD)."""
    probs = {
        int(n): float(a) ** 2
        for n, a in zip(solution.basis.determinants, solution.vector)
        if a**2 > 1e-16
    }
    return Distribution(probs=probs, label="pGndD")


def _spin_expectations(vector: np.ndarray, basis: SectorBasis) -> tuple[float, float]:
    """<S^2> and <Sz> via S^2 = S- S+ + Sz(Sz + 1) applied to determinants."""
    sz = 0.5 * (basis.n_alpha - basis.n_beta)
    index = {det: i for i, det in enumerate(basis.determinants)}
    n_mo = basis.n_qubits // 2

    # S+ = sum_i a+_{i up} a_{i down}; image lives in the (na+1, nb-1) sector
    image: dict[int, float] = {}
    for det, coeff in zip(basis.determinants, vector):
        if coeff == 0.0:
            continue
        for i in range(n_mo):
            down, up = 2 * i + 1, 2 * i
            step = _annihilate(det, down)
            if step is None:
                continue
            sign1, interm = step
            step = _create(interm, up)
            if step is None:
                continue
            sign2, out = step
            image[out] = image.get(out, 0.0) + float(coeff) * sign1 * sign2
    s_minus_s_plus = sum(v * v for v in image.values())
    s2 = s_minus_s_plus + sz * (sz + 1.0)
    return float(s2), float(sz)
