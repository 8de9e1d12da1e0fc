import numpy as np
import pytest
import scipy.linalg

from cvqelab import scf as scf_module
from cvqelab.fci import SectorBasis, enumerate_sector, solve_fci
from cvqelab.fermion import (
    SecondQuantizedHamiltonian,
    hf_fock_index,
    jordan_wigner,
    model_pauli,
    second_quantize,
)
from cvqelab.geometry import load_geometry, parse_geometry
from cvqelab.integrals import compute_integrals
from cvqelab.pauli import COEFF_FLOOR, PauliSum, compile_pauli_action
from cvqelab.scf import ConvergenceError, SCFResult, model_hamiltonian, run_scf, transform_to_mo
from cvqelab.statevector import StateVector, init_fock, probabilities, rotate_amplitudes
from cvqelab.subspace import embed_optimized, slater_condon

TABLE_STATES = (7, 13, 19, 22, 25, 28, 37, 49, 52, 193, 196, 208)
COUPLING_FLOOR = 1e-6  # Hartree; model_coupled_gaps ignores weaker couplings

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def label_masks(label: str) -> tuple[int, int]:
    """Binary symplectic masks (x, z) of a letter label, qubit 0 first:
    X and Y flip their qubit, Y and Z give it a phase."""
    x = sum(1 << q for q, op in enumerate(label) if op in "XY")
    z = sum(1 << q for q, op in enumerate(label) if op in "YZ")
    return x, z


def from_labels(terms: dict[str, float], n_qubits: int | None = None) -> PauliSum:
    """PauliSum from {letter label: coefficient}; 'XZI' = X on qubit 0, Z on qubit 1."""
    if n_qubits is None:
        (n_qubits,) = {len(label) for label in terms}
    if any(len(label) != n_qubits or set(label) - set("IXYZ") for label in terms):
        raise ValueError(f"labels {list(terms)} are not {n_qubits}-qubit Pauli strings")
    masks = [label_masks(label) for label in terms]
    x = np.array([m[0] for m in masks], dtype=np.int64)
    z = np.array([m[1] for m in masks], dtype=np.int64)
    return PauliSum.from_masks(x, z, np.array(list(terms.values()), dtype=float), n_qubits)


def label_terms(h: PauliSum) -> list[tuple[str, float]]:
    """(letter label, coefficient) of each term, in the sum's order."""
    return list(zip(h.labels(), h.coeffs.tolist()))


def random_sum(rng, n_qubits: int, n_terms: int) -> PauliSum:
    """Up to n_terms random strings with normal coefficients; a repeated
    string keeps its last draw."""
    terms = {}
    for _ in range(n_terms):
        terms["".join(rng.choice(("I", "X", "Y", "Z"), size=n_qubits))] = float(rng.normal())
    return from_labels(terms, n_qubits)


def kron_oracle(label: str) -> np.ndarray:
    """Independent dense build: qubit 0 least significant -> rightmost factor."""
    out = np.eye(1, dtype=complex)
    for op in label:
        out = np.kron(PAULI_MATRICES[op], out)
    return out


def kron_dense(h: PauliSum) -> np.ndarray:
    """Independent dense build of a sum, term by term through kron_oracle."""
    out = np.zeros((1 << h.n_qubits,) * 2, dtype=complex)
    for label, coeff in label_terms(h):
        out += coeff * kron_oracle(label)
    return out


def number_operator(n_qubits: int) -> PauliSum:
    """Total particle number: sum_q (I - Z_q)/2."""
    terms = {"I" * n_qubits: n_qubits / 2.0}
    for q in range(n_qubits):
        terms["I" * q + "Z" + "I" * (n_qubits - q - 1)] = -0.5
    return from_labels(terms)


def sz_operator(n_qubits: int) -> PauliSum:
    """Total Sz for interleaved spin ordering (even qubits up, odd down)."""
    terms: dict[str, float] = {}
    n_even = (n_qubits + 1) // 2
    n_odd = n_qubits // 2
    if n_even != n_odd:
        terms["I" * n_qubits] = 0.25 * (n_even - n_odd)
    for q in range(n_qubits):
        sign = 1.0 if q % 2 == 0 else -1.0
        terms["I" * q + "Z" + "I" * (n_qubits - q - 1)] = -0.25 * sign
    return from_labels(terms)


def apply_pauli_rotation(state: StateVector, label: str, angle: float) -> StateVector:
    """exp(-i * angle * P) |psi> = cos(angle)|psi> - i sin(angle) P|psi>."""
    if len(label) != state.n_qubits:
        raise ValueError("qubit count mismatch")
    action = compile_pauli_action(*label_masks(label), state.n_qubits)
    return StateVector(rotate_amplitudes(state.amplitudes, action, angle), state.n_qubits)


def ordered_terms(h: PauliSum, order: str) -> list[tuple[str, float]]:
    """One Trotter step's terms in the given order; the per-step reference
    loop that prep.prepare_guiding is tested against."""
    items = label_terms(h)
    if order == "magnitude_desc":
        items.sort(key=lambda kv: (-abs(kv[1]), kv[0]))
    elif order == "magnitude_asc":
        items.sort(key=lambda kv: (abs(kv[1]), kv[0]))
    elif order == "canonical":
        items.sort(key=lambda kv: kv[0])
    elif order == "canonical_reversed":
        items.sort(key=lambda kv: kv[0], reverse=True)
    else:
        raise ValueError(f"unknown term order {order!r}")
    return items


def _floored(terms: dict[str, float]) -> dict[str, float]:
    return {label: c for label, c in terms.items() if abs(c) >= COEFF_FLOOR}


def reference_interpolate(h0: PauliSum, h: PauliSum, eta: float) -> PauliSum:
    """(1 - eta) * h0 + eta * h over label dicts: floor each scaled operand at
    COEFF_FLOOR, merge h's terms into h0's, then floor the sum.  The reference
    that pauli.interpolate must match byte for byte."""
    if h0.n_qubits != h.n_qubits or not 0.0 <= eta <= 1.0:
        raise ValueError("qubit count mismatch or eta outside [0, 1]")
    merged = _floored({label: c * (1.0 - eta) for label, c in label_terms(h0)})
    for label, c in _floored({label: c * eta for label, c in label_terms(h)}).items():
        merged[label] = merged.get(label, 0.0) + c
    return from_labels(_floored(merged), h.n_qubits)


def reference_prune(h: PauliSum, threshold: float, drop_diagonal: bool = False) -> PauliSum:
    """Terms with |coefficient| >= threshold, without the {I, Z}-only strings
    when drop_diagonal is set: the reference for pauli.prune."""
    kept = {
        label: c
        for label, c in label_terms(h)
        if abs(c) >= threshold and not (drop_diagonal and set(label) <= set("IZ"))
    }
    return from_labels(kept, h.n_qubits)


def reference_to_dense(h: PauliSum) -> np.ndarray:
    """Dense matrix scattered one string at a time: the reference that
    pauli.to_dense (built from flip-mask groups) must match byte for byte."""
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for label, coeff in label_terms(h):
        source, phase = compile_pauli_action(*label_masks(label), h.n_qubits)
        out[idx, source] += coeff * phase
    return out


def reference_prepare_trapezoidal(h0: PauliSum, h: PauliSum, schedule, phi0: int) -> np.ndarray:
    """Trapezoidal staircase on the indices reachable from phi0, found by a
    fixed-point search over the dense 2^Q x 2^Q coupling matrix: the
    reference that prep.prepare_trapezoidal must match byte for byte."""
    start = init_fock(phi0, h.n_qubits)
    h0_dense = reference_to_dense(h0)
    h_dense = reference_to_dense(h)
    coupled = (np.abs(h0_dense) >= COEFF_FLOOR) | (np.abs(h_dense) >= COEFF_FLOOR)
    reached = start.amplitudes != 0
    while True:
        grown = reached | coupled[:, reached].any(axis=1)
        if np.array_equal(grown, reached):
            break
        reached = grown
    sector = np.flatnonzero(reached)
    block = np.ix_(sector, sector)
    h0_block = h0_dense[block]
    h_block = h_dense[block]
    amp = start.amplitudes[sector]
    for eta, scale in schedule.steps:
        evals, evecs = np.linalg.eigh((1.0 - eta) * h0_block + eta * h_block)
        amp = evecs @ (np.exp(-1j * scale * evals) * (evecs.conj().T @ amp))
    full = np.zeros_like(start.amplitudes)
    full[sector] = amp
    return full


def model_coupled_gaps(
    sq: SecondQuantizedHamiltonian, eps_spin: np.ndarray, phi0: int
) -> list[tuple[float, float]]:
    """Diagnostic spectrum of model-gap / coupling pairs.

    The interpolation drive connects the starting determinant only to
    determinants with a nonzero full-Hamiltonian matrix element (single
    promotions decouple at a converged mean-field reference up to the SCF
    residual, hence the floor), so the gap governing adiabaticity in
    practice belongs to the coupled excitations, not to the bare lowest
    promotion.  Returns (model gap, |coupling|) for every coupled
    determinant in the starting sector, sorted by gap.
    """
    q = sq.n_spin_orbitals
    n_alpha = sum(1 for i in range(0, q, 2) if (phi0 >> i) & 1)
    n_beta = sum(1 for i in range(1, q, 2) if (phi0 >> i) & 1)
    basis = enumerate_sector(q, n_alpha, n_beta)

    def model_energy(det: int) -> float:
        return float(sum(eps_spin[p] for p in range(q) if (det >> p) & 1))

    e0 = model_energy(phi0)
    out = []
    for det in basis.determinants:
        if det == phi0:
            continue
        coupling = abs(slater_condon(det, phi0, sq))
        if coupling > COUPLING_FLOOR:
            out.append((model_energy(det) - e0, coupling))
    out.sort()
    return out


def _ladder_sign(n: int, p: int) -> int:
    """Jordan-Wigner sign of a ladder operator on mode p: the parity of the
    occupied modes below p."""
    return -1 if bin(n & ((1 << p) - 1)).count("1") & 1 else 1


def spin_expectations(theta: np.ndarray, basis: SectorBasis) -> tuple[float, float]:
    """<S^2> and <Sz> of the state with amplitudes theta over the sector's
    determinants, via S^2 = S- S+ + Sz(Sz + 1) applied to determinants."""
    sz = 0.5 * (basis.n_alpha - basis.n_beta)
    # S+ = sum_i a+_{i up} a_{i down}; image lives in the (na+1, nb-1) sector
    image: dict[int, complex] = {}
    for det, coeff in zip(basis.determinants, theta):
        if coeff == 0.0:
            continue
        for i in range(basis.n_qubits // 2):
            down, up = 2 * i + 1, 2 * i
            if not (det >> down) & 1 or (det >> up) & 1:
                continue
            interm = det ^ (1 << down)
            sign = _ladder_sign(det, down) * _ladder_sign(interm, up)
            out = interm | (1 << up)
            image[out] = image.get(out, 0.0) + complex(coeff) * sign
    s_minus_s_plus = sum(abs(v) ** 2 for v in image.values())
    return float(s_minus_s_plus + sz * (sz + 1.0)), float(sz)


# single-qubit products: (a, b) -> (phase, c) with sigma_a sigma_b = phase * sigma_c
LETTER_PRODUCTS = {}
for _a in "IXYZ":
    LETTER_PRODUCTS[("I", _a)] = (1.0, _a)
    LETTER_PRODUCTS[(_a, "I")] = (1.0, _a)
    LETTER_PRODUCTS[(_a, _a)] = (1.0, "I")
LETTER_PRODUCTS[("X", "Y")] = (1j, "Z")
LETTER_PRODUCTS[("Y", "X")] = (-1j, "Z")
LETTER_PRODUCTS[("Y", "Z")] = (1j, "X")
LETTER_PRODUCTS[("Z", "Y")] = (-1j, "X")
LETTER_PRODUCTS[("Z", "X")] = (1j, "Y")
LETTER_PRODUCTS[("X", "Z")] = (-1j, "Y")


def string_product(a: str, b: str) -> tuple[complex, str]:
    """a b = phase * c, letter by letter."""
    phase = 1.0 + 0.0j
    out = []
    for x, y in zip(a, b):
        ph, c = LETTER_PRODUCTS[(x, y)]
        phase *= ph
        out.append(c)
    return phase, "".join(out)


def _jw_ladder(q_tot: int, mode: int, dagger: bool) -> dict[str, complex]:
    """a_mode or a+_mode as a two-string Pauli sum with the Z parity tail."""
    tail = "I" * (q_tot - mode - 1)
    sign = -1j if dagger else 1j
    return {"Z" * mode + "X" + tail: 0.5, "Z" * mode + "Y" + tail: 0.5 * sign}


def _multiply_sums(a: dict[str, complex], b: dict[str, complex]) -> dict[str, complex]:
    out: dict[str, complex] = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            phase, s = string_product(sa, sb)
            out[s] = out.get(s, 0.0) + ca * cb * phase
    return out


def reference_jordan_wigner(sq: SecondQuantizedHamiltonian) -> PauliSum:
    """Jordan-Wigner one ladder-operator product at a time, letter by letter:
    the reference that fermion.jordan_wigner is tested against."""
    q = sq.n_spin_orbitals
    acc: dict[str, complex] = {"I" * q: sq.constant}

    ladders_dag = [_jw_ladder(q, m, True) for m in range(q)]
    ladders = [_jw_ladder(q, m, False) for m in range(q)]

    for p in range(q):
        for r in range(q):
            coeff = sq.one_body[p, r]
            if abs(coeff) < 1e-15:
                continue
            for s, c in _multiply_sums(ladders_dag[p], ladders[r]).items():
                acc[s] = acc.get(s, 0.0) + coeff * c

    for p in range(q):
        for r in range(q):
            pair_pr = _multiply_sums(ladders_dag[p], ladders_dag[r])
            for s_, t in ((s_, t) for s_ in range(q) for t in range(q)):
                coeff = 0.25 * sq.two_body[p, r, t, s_]
                if abs(coeff) < 1e-15:
                    continue
                prod = _multiply_sums(pair_pr, _multiply_sums(ladders[s_], ladders[t]))
                for s, c in prod.items():
                    acc[s] = acc.get(s, 0.0) + coeff * c

    terms: dict[str, float] = {}
    for s, c in acc.items():
        if abs(c.imag) > 1e-9:
            raise ValueError(f"non-Hermitian JW coefficient {c} for {s}")
        terms[s] = c.real
    return from_labels(terms, q)


def reference_run_scf(integrals, n_alpha: int, n_beta: int) -> SCFResult:
    """scf.run_scf with every pattern paying for its own orthogonalizer and
    core guess, and the whole DIIS B matrix rebuilt each iteration: the
    reference that run_scf is tested against for bit-identical output."""
    n_docc, n_socc = n_beta, n_alpha - n_beta
    best = None
    last_error = None
    patterns = scf_module._candidate_patterns(
        integrals.n_ao, n_docc, n_socc, scf_module.OCCUPATION_WINDOW
    )
    for docc, socc in patterns:
        try:
            result = _reference_converge_pattern(integrals, n_alpha, n_beta, docc, socc)
        except ConvergenceError as err:
            last_error = err
            continue
        if best is None or result.e_hf < best[0] - 1e-12:
            best = (result.e_hf, result)
    if best is None:
        raise last_error if last_error is not None else ConvergenceError(0, np.inf)
    return best[1]


def _reference_coulomb_exchange(eri, density):
    j = np.einsum("pqrs,rs->pq", eri, density)
    k = np.einsum("prqs,rs->pq", eri, density)
    return j, k


def _reference_converge_pattern(integrals, n_alpha, n_beta, docc_seed, socc_seed):
    s, h, eri = integrals.overlap, integrals.core, integrals.eri
    n_ao = integrals.n_ao
    n_docc, n_socc = n_beta, n_alpha - n_beta
    x = scipy.linalg.fractional_matrix_power(s, -0.5).real

    _, c0 = scipy.linalg.eigh(h, s)
    docc_c = c0[:, list(docc_seed)]
    socc_c = c0[:, list(socc_seed)]
    virt_c = c0[:, [i for i in range(n_ao) if i not in docc_seed and i not in socc_seed]]

    energy = 0.0
    delta = np.inf
    focks = []
    errors = []
    for iteration in range(1, scf_module.MAX_ITERATIONS + 1):
        c_occ_a = np.hstack([docc_c, socc_c]) if n_socc else docc_c
        d_a = c_occ_a @ c_occ_a.T
        d_b = docc_c @ docc_c.T if n_docc else np.zeros_like(s)
        d_t = d_a + d_b
        j_t, _ = _reference_coulomb_exchange(eri, d_t)
        _, k_a = _reference_coulomb_exchange(eri, d_a)
        _, k_b = _reference_coulomb_exchange(eri, d_b)
        f_a = h + j_t - k_a
        f_b = h + j_t - k_b
        new_energy = 0.5 * (
            np.sum(d_t * h) + np.sum(d_a * f_a) + np.sum(d_b * f_b)
        ) + integrals.e_nuc

        c_all = np.hstack([docc_c, socc_c, virt_c])
        f_eff = scf_module._roothaan_fock(f_a, f_b, c_all, s, n_docc, n_socc)
        error = x.T @ (f_eff @ d_t @ s - s @ d_t @ f_eff) @ x
        comm_norm = float(np.linalg.norm(error))
        delta = abs(new_energy - energy)
        energy = new_energy
        if (
            iteration > 1
            and delta < scf_module.ENERGY_TOL
            and comm_norm < scf_module.COMMUTATOR_TOL
        ):
            return scf_module._finalize(
                integrals, f_a, f_b, docc_c, socc_c, virt_c,
                float(energy), n_alpha, n_beta, iteration,
            )

        focks.append(f_eff)
        errors.append(error)
        if len(focks) > scf_module.DIIS_SIZE:
            focks.pop(0)
            errors.pop(0)
        f_use = f_eff
        if len(focks) > 1:
            f_use = _reference_diis_extrapolate(focks, errors)

        eps_new, c_new = scipy.linalg.eigh(f_use, s)
        docc_c, socc_c, virt_c = scf_module._assign_by_overlap(
            c_new, eps_new, s, docc_c, socc_c, n_docc, n_socc
        )
    raise ConvergenceError(scf_module.MAX_ITERATIONS, delta)


def _reference_diis_extrapolate(focks, errors):
    n = len(focks)
    b = -np.ones((n + 1, n + 1))
    b[n, n] = 0.0
    for i in range(n):
        for j in range(n):
            b[i, j] = np.sum(errors[i] * errors[j])
    rhs = np.zeros(n + 1)
    rhs[n] = -1.0
    try:
        weights = np.linalg.solve(b, rhs)[:n]
    except np.linalg.LinAlgError:
        return focks[-1]
    return sum(w * f for w, f in zip(weights, focks))


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
        self.ground = probabilities(
            embed_optimized(self.fci.theta, self.fci.basis, 8), label="pGndD"
        )
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


@pytest.fixture(scope="session")
def h4_hamiltonians(well):
    """(h0, h, phi0) of the three built-in geometries and two random H4+
    clusters, keyed by label."""
    rng = np.random.default_rng(8)
    geometries = {label: load_geometry(label) for label in ("reactant", "product")}
    for i in range(2):
        geometries[f"cluster{i}"] = parse_geometry(random_cluster(rng, 4))
    out = {"well": (well.h0_pauli, well.h_pauli, well.phi0)}
    for label, geometry in geometries.items():
        integrals = compute_integrals(geometry)
        scf = run_scf(integrals, 2, 1)
        h = jordan_wigner(second_quantize(transform_to_mo(integrals, scf)))
        out[label] = (model_pauli(model_hamiltonian(scf)), h, hf_fock_index(2, 1))
    return out


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
