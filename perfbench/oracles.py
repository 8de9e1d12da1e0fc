"""Output checks applied to every benchmark op, outside the timed section.

Each check returns the names of the checks that failed; an op fails when any
check fails or when it raises.  The checks:

- fci_dense: the solve_fci energy equals the lowest sector eigenvalue of to_dense(h)
- variational_bound: E* >= E_g - 1e-10 Ha
- distribution_norm: each of pTD, pGD, sGD, pOD and pGndD sums to 1
- fcidump_roundtrip: FCI on the re-read FCIDUMP reproduces E_g

The reference ground energy comes from a different code path than the
pipeline's: the dense Jordan-Wigner matrix restricted to the sector, with the
sector's Fock indices enumerated here by bit counting rather than by
`cvqelab.fci.enumerate_sector`.
"""

from __future__ import annotations

import numpy as np

# run.py pauses the tracer around the checks, so none of their calls is traced
from cvqelab.fci import enumerate_sector, solve_fci
from cvqelab.fermion import second_quantize
from cvqelab.pauli import to_dense

FCI_TOL_HA = 1e-9
BOUND_TOL_HA = 1e-10
NORM_TOL = 1e-9


def sector_indices(n_qubits: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """Fock indices with n_alpha even (up) bits and n_beta odd (down) bits set."""
    idx = np.arange(1 << n_qubits)
    up = np.zeros_like(idx)
    down = np.zeros_like(idx)
    for q in range(n_qubits):
        bit = (idx >> q) & 1
        if q % 2 == 0:
            up += bit
        else:
            down += bit
    return idx[(up == n_alpha) & (down == n_beta)]


def dense_sector_energy(h_pauli, n_alpha: int, n_beta: int) -> float:
    """Lowest eigenvalue of the dense qubit Hamiltonian on the (n_alpha, n_beta) sector."""
    sel = sector_indices(h_pauli.n_qubits, n_alpha, n_beta)
    block = to_dense(h_pauli)[np.ix_(sel, sel)]
    return float(np.linalg.eigvalsh(block)[0])


def check_fci(e_fci: float, e_dense: float) -> list[str]:
    return [] if abs(e_fci - e_dense) <= FCI_TOL_HA else ["fci_dense"]


def check_report(report, e_dense: float) -> list[str]:
    """Variational bound against the dense reference and normalised distributions."""
    failed = []
    if not report.e_optimized >= e_dense - BOUND_TOL_HA:
        failed.append("variational_bound")
    for dist in report.distributions.values():
        if not abs(sum(dist.probs.values()) - 1.0) <= NORM_TOL:
            failed.append("distribution_norm")
            break
    return failed


def check_fcidump_roundtrip(mo_read, n_alpha: int, n_beta: int, e_g: float) -> list[str]:
    """Sector FCI recomputed from integrals re-read from the FCIDUMP text."""
    sq = second_quantize(mo_read)
    e = solve_fci(enumerate_sector(sq.n_spin_orbitals, n_alpha, n_beta), sq).energy
    return [] if abs(e - e_g) <= FCI_TOL_HA else ["fcidump_roundtrip"]
