import numpy as np
import pytest

from cvqelab.fci import enumerate_sector, ground_distribution, solve_fci
from cvqelab.fermion import jordan_wigner, model_pauli, second_quantize
from cvqelab.geometry import load_geometry, parse_geometry
from cvqelab.integrals import compute_integrals
from cvqelab.pauli import PauliString, PauliSum, compile_pauli_action
from cvqelab.scf import model_hamiltonian, run_scf, transform_to_mo
from cvqelab.statevector import StateVector, rotate_amplitudes

TABLE_STATES = (7, 13, 19, 22, 25, 28, 37, 49, 52, 193, 196, 208)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(string: PauliString) -> np.ndarray:
    """Independent dense build: qubit 0 least significant -> rightmost factor."""
    out = np.eye(1, dtype=complex)
    for op in string.ops:
        out = np.kron(PAULI_MATRICES[op], out)
    return out


def kron_dense(h: PauliSum) -> np.ndarray:
    """Independent dense build of a sum, term by term through kron_oracle."""
    out = np.zeros((1 << h.n_qubits,) * 2, dtype=complex)
    for string, coeff in h.items():
        out += coeff * kron_oracle(string)
    return out


def number_operator(n_qubits: int) -> PauliSum:
    """Total particle number: sum_q (I - Z_q)/2."""
    terms = {PauliString.identity(n_qubits): n_qubits / 2.0}
    for q in range(n_qubits):
        terms[PauliString.single(n_qubits, q, "Z")] = -0.5
    return PauliSum.from_terms(terms, n_qubits)


def sz_operator(n_qubits: int) -> PauliSum:
    """Total Sz for interleaved spin ordering (even qubits up, odd down)."""
    terms: dict[PauliString, float] = {}
    n_even = (n_qubits + 1) // 2
    n_odd = n_qubits // 2
    if n_even != n_odd:
        terms[PauliString.identity(n_qubits)] = 0.25 * (n_even - n_odd)
    for q in range(n_qubits):
        sign = 1.0 if q % 2 == 0 else -1.0
        terms[PauliString.single(n_qubits, q, "Z")] = -0.25 * sign
    return PauliSum.from_terms(terms, n_qubits)


def apply_pauli_rotation(state: StateVector, string: PauliString, angle: float) -> StateVector:
    """exp(-i * angle * P) |psi> = cos(angle)|psi> - i sin(angle) P|psi>."""
    if string.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch")
    amp = rotate_amplitudes(state.amplitudes, compile_pauli_action(string), angle)
    return StateVector(amp, state.n_qubits)


def ordered_terms(h: PauliSum, order: str) -> list[tuple[PauliString, float]]:
    """One Trotter step's terms in the given order; the per-step reference
    loop that prep.prepare_guiding is tested against."""
    items = list(h.items())
    if order == "magnitude_desc":
        items.sort(key=lambda kv: (-abs(kv[1]), kv[0].ops))
    elif order == "magnitude_asc":
        items.sort(key=lambda kv: (abs(kv[1]), kv[0].ops))
    elif order == "canonical":
        items.sort(key=lambda kv: kv[0].ops)
    elif order == "canonical_reversed":
        items.sort(key=lambda kv: kv[0].ops, reverse=True)
    else:
        raise ValueError(f"unknown term order {order!r}")
    return items


class WellSystem:
    """Everything downstream tests need for the four-hydrogen well geometry."""

    def __init__(self):
        self.geometry = load_geometry("well")
        self.integrals = compute_integrals(self.geometry)
        self.scf = run_scf(self.integrals, 2, 1)
        self.mo = transform_to_mo(self.integrals, self.scf)
        self.sq = second_quantize(self.mo)
        self.h_pauli = jordan_wigner(self.sq)
        self.model = model_hamiltonian(self.scf)
        self.h0_pauli = model_pauli(self.model)
        self.fci = solve_fci(enumerate_sector(8, 2, 1), self.sq)
        self.ground = ground_distribution(self.fci)
        self.phi0 = 7


@pytest.fixture(scope="session")
def well():
    return WellSystem()


@pytest.fixture(scope="session")
def h2_system():
    geometry = parse_geometry("H 0 0 0\nH 0 0 0.741760049618", label="h2")
    integrals = compute_integrals(geometry)
    scf = run_scf(integrals, 1, 1)
    return geometry, integrals, scf


def random_cluster(rng: np.random.Generator, n_atoms: int) -> str:
    """Well-separated random hydrogen cluster in XYZ text (Angstrom)."""
    while True:
        pos = rng.uniform(-1.6, 1.6, size=(n_atoms, 3))
        ok = all(
            np.linalg.norm(pos[i] - pos[j]) > 0.55
            for i in range(n_atoms)
            for j in range(i + 1, n_atoms)
        )
        if ok:
            break
    return "\n".join(f"H {x:.10f} {y:.10f} {z:.10f}" for x, y, z in pos)
