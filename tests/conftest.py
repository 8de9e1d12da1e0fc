import functools
import itertools

import numpy as np
import pytest
import scipy.linalg

from cvqelab import scf as scf_module
from cvqelab.constants import STO6G_H_COEFFS, STO6G_H_EXPONENTS
from cvqelab.fci import SectorBasis, enumerate_sector, solve_fci
from cvqelab.fermion import (
    SecondQuantizedHamiltonian,
    jordan_wigner,
    model_gap,
    model_pauli,
    second_quantize,
)
from cvqelab.geometry import load_geometry, parse_geometry
from cvqelab.integrals import IntegralSet, boys0, compute_integrals, from_pair_matrix
from cvqelab.pauli import _I_POWERS, COEFF_FLOOR, PauliSum
from cvqelab.scf import ConvergenceError, SCFResult, run_scf, transform_to_mo
from cvqelab.statevector import (
    SampleCounts,
    StateVector,
    init_fock,
    probabilities,
    sample_distribution,
)
from cvqelab.subspace import OutcomeSet, build_subspace, embed_optimized

TABLE_STATES = (7, 13, 19, 22, 25, 28, 37, 49, 52, 193, 196, 208)
COUPLING_FLOOR = 1e-6  # Hartree; model_coupled_gaps ignores weaker couplings

# six hydrogens on a line 0.9 Angstrom apart: H6+ doublet, 12 qubits
H6_CHAIN = """\
H 0 0 0.0
H 0 0 0.9
H 0 0 1.8
H 0 0 2.7
H 0 0 3.6
H 0 0 4.5"""

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


def compile_pauli_action(x_mask: int, z_mask: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase arrays so (P psi)[m] = phase[m] * psi[source[m]].

    P flips the X/Y qubits (x_mask) and contributes
    i^{n_Y} (-1)^{parity(source & z_mask)} from its Y/Z qubits (z_mask).
    The one-string action that the per-string references are built from.
    """
    n_y = (x_mask & z_mask).bit_count()
    source = np.arange(1 << n_qubits) ^ x_mask
    return source, _I_POWERS[(n_y + 2 * _bit_parity(n_qubits)[source & z_mask]) & 3]


@functools.cache
def _bit_parity(n_qubits: int) -> np.ndarray:
    """popcount(m) & 1 for every Fock index m of the register, from Python's
    int.bit_count, so the oracle shares no popcount with the code it checks."""
    parity = np.array([m.bit_count() & 1 for m in range(1 << n_qubits)])
    parity.flags.writeable = False
    return parity


def reference_flip_groups(h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Flip-mask groups summed one compiled string at a time, in term order:
    the reference that PauliSum.flip_groups must match byte for byte."""
    masks = np.unique(np.concatenate([np.zeros(1, dtype=np.int64), h.x]))
    rows = np.zeros((len(masks), 1 << h.n_qubits), dtype=complex)
    groups = np.searchsorted(masks, h.x).tolist()
    for x, z, coeff, k in zip(h.x.tolist(), h.z.tolist(), h.coeffs.tolist(), groups):
        _source, phase = compile_pauli_action(x, z, h.n_qubits)
        rows[k] += coeff * phase
    return masks, rows


def rotate_amplitudes(
    amplitudes: np.ndarray, compiled: tuple[np.ndarray, np.ndarray], angle: float
) -> np.ndarray:
    """exp(-i * angle * P) applied to a raw amplitude array, P given compiled."""
    source, phase = compiled
    return np.cos(angle) * amplitudes - 1j * np.sin(angle) * (phase * amplitudes[source])


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


def reference_expectation(state: StateVector, h: PauliSum) -> float:
    """<psi|H|psi> one compiled string at a time: the reference that
    statevector.expectation (summed over flip-mask groups) is tested against."""
    amp = state.amplitudes
    total = 0.0 + 0.0j
    for x, z, coeff in zip(h.x.tolist(), h.z.tolist(), h.coeffs.tolist()):
        source, phase = compile_pauli_action(x, z, h.n_qubits)
        total += coeff * np.vdot(amp, phase * amp[source])
    return float(total.real)


def sample(state: StateVector, shots: int, seed: int) -> SampleCounts:
    """Multinomial draw over the Born distribution; deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dist = probabilities(state)
    return sample_distribution(dist, shots, seed)


def reference_second_quantize(mo) -> SecondQuantizedHamiltonian:
    """Spatial-MO integrals expanded over interleaved spin orbitals one entry
    at a time: the reference that fermion.second_quantize must match byte for
    byte."""
    n = mo.n_mo
    q = 2 * n
    h1 = np.zeros((q, q))
    for i in range(n):
        for j in range(n):
            for s in range(2):
                h1[2 * i + s, 2 * j + s] = mo.h_mo[i, j]

    # <PQ|RS> = (pr|qs) delta(sP,sR) delta(sQ,sS), then antisymmetrize
    coulomb = np.zeros((q, q, q, q))
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    v = mo.g_mo[i, k, j, l]
                    if abs(v) < 1e-15:
                        continue
                    for s1 in range(2):
                        for s2 in range(2):
                            coulomb[2*i+s1, 2*j+s2, 2*k+s1, 2*l+s2] = v
    h2 = coulomb - coulomb.transpose(0, 1, 3, 2)
    return SecondQuantizedHamiltonian(
        one_body=h1, two_body=h2, constant=mo.e_nuc, n_spin_orbitals=q
    )


def reference_write_fcidump(mo, n_elec: int, ms2: int = 0) -> str:
    """FCIDUMP text from a walk over every (pq, rs) pair of pairs that maps
    each to its canonical 1-based key (p >= q, r >= s, (p, q) >= (r, s)) and
    writes a key the first time it is seen: the reference that
    fcidump.write_fcidump must match byte for byte."""
    n = mo.n_mo
    lines = [
        f"&FCI NORB={n},NELEC={n_elec},MS2={ms2},",
        "  ORBSYM=" + ",".join(["1"] * n) + ",",
        "  ISYM=1,",
        "&END",
    ]
    written = set()
    for p in range(1, n + 1):
        for q in range(1, p + 1):
            for r in range(1, n + 1):
                for s in range(1, r + 1):
                    key = max((p, q, r, s), (r, s, p, q))
                    if key in written:
                        continue
                    written.add(key)
                    val = mo.g_mo[key[0] - 1, key[1] - 1, key[2] - 1, key[3] - 1]
                    if abs(val) > 1e-16:
                        lines.append(f"{val:23.16e} {key[0]:3d} {key[1]:3d} {key[2]:3d} {key[3]:3d}")
    for p in range(n):
        for q in range(p + 1):
            val = mo.h_mo[p, q]
            if abs(val) > 1e-16:
                lines.append(f"{val:23.16e} {p+1:3d} {q+1:3d}   0   0")
    lines.append(f"{mo.e_nuc:23.16e}   0   0   0   0")
    return "\n".join(lines) + "\n"


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


# The determinant rules one pair at a time, with explicit ladder steps: the
# reference for subspace.build_subspace, which evaluates every pair at once.
# Kept verbatim as the per-pair build it replaced, unreachable branches
# included: a gained mode is never occupied in n', so `_create` never
# returns None and the final `step[1] != n` never fires.


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


def rule_entry(n: int, m: int, sq: SecondQuantizedHamiltonian) -> float:
    """<n|H|m> as build_subspace assembles it, read from the matrix over {n, m}."""
    members = sorted({int(n), int(m)})
    mat = build_subspace(OutcomeSet(members=tuple(members)), sq).matrix
    return float(mat[members.index(int(n)), members.index(int(m))])


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


def reference_compute_integrals(geometry) -> IntegralSet:
    """integrals.compute_integrals built per atom: the STO-6G contraction
    tiled once per AO with a nuclear charge per atom, and every primitive-pair
    array recomputed per AO pair and per pair of pairs.  compute_integrals
    shares these arrays across pairs and must give the same bytes."""
    alpha = np.array(STO6G_H_EXPONENTS)
    c = np.array(STO6G_H_COEFFS) * (2.0 * alpha / np.pi) ** 0.75
    s_prim = (np.pi / (alpha[:, None] + alpha[None, :])) ** 1.5
    c = c / np.sqrt(np.einsum("i,j,ij->", c, c, s_prim))
    n_ao = geometry.n_atoms
    centers = geometry.positions_bohr()
    alpha, coef, charges = np.tile(alpha, (n_ao, 1)), np.tile(c, (n_ao, 1)), np.ones(n_ao)

    overlap, kinetic, nuclear = (np.empty((n_ao, n_ao)) for _ in range(3))
    pair_data = []
    for p in range(n_ao):
        for q in range(p + 1):
            a = alpha[p][:, None]
            b = alpha[q][None, :]
            cc = coef[p][:, None] * coef[q][None, :]
            ab = a + b
            mu = a * b / ab
            r2 = float(np.dot(centers[p] - centers[q], centers[p] - centers[q]))
            pref = np.exp(-mu * r2)
            s_prim = (np.pi / ab) ** 1.5 * pref
            t_prim = mu * (3.0 - 2.0 * mu * r2) * s_prim
            pc = (a[..., None] * centers[p] + b[..., None] * centers[q]) / ab[..., None]
            v_prim = np.zeros_like(s_prim)
            for k, nuc in enumerate(centers):
                t_arg = ab * np.sum((pc - nuc) ** 2, axis=-1)
                v_prim -= charges[k] * (2.0 * np.pi / ab) * pref * boys0(t_arg)
            overlap[p, q] = overlap[q, p] = float(np.sum(cc * s_prim))
            kinetic[p, q] = kinetic[q, p] = float(np.sum(cc * t_prim))
            nuclear[p, q] = nuclear[q, p] = float(np.sum(cc * v_prim))
            pair_data.append(((cc * pref).ravel(), ab.ravel(), pc.reshape(-1, 3)))

    m = np.zeros((len(pair_data), len(pair_data)))
    for i, (cp, zp, rp) in enumerate(pair_data):
        for j, (cq, zq, rq) in enumerate(pair_data[: i + 1]):
            zsum = zp[:, None] + zq[None, :]
            rho = zp[:, None] * zq[None, :] / zsum
            d2 = np.sum((rp[:, None, :] - rq[None, :, :]) ** 2, axis=-1)
            kern = (
                2.0 * np.pi ** 2.5
                / (zp[:, None] * zq[None, :] * np.sqrt(zsum))
                * boys0(rho * d2)
            )
            m[i, j] = m[j, i] = float(np.einsum("i,j,ij->", cp, cq, kern))

    e_nuc = 0.0
    for a in range(n_ao):
        for b in range(a + 1, n_ao):
            e_nuc += charges[a] * charges[b] / np.linalg.norm(centers[a] - centers[b])
    return IntegralSet(
        n_ao=n_ao,
        overlap=overlap,
        core=kinetic + nuclear,
        eri=from_pair_matrix(m, n_ao),
        e_nuc=e_nuc,
    )


def reference_run_scf(integrals, n_alpha: int, n_beta: int) -> SCFResult:
    """scf.run_scf with every pattern converged on its own, paying for its own
    orthogonalizer and core guess, and the whole DIIS B matrix rebuilt each
    iteration: the reference that run_scf is tested against for bit-identical
    output.  It shares no stacked code with run_scf."""
    best = None
    last_error = None
    for outcome in reference_pattern_outcomes(integrals, n_alpha, n_beta):
        if isinstance(outcome, ConvergenceError):
            last_error = outcome
        elif best is None or outcome.e_hf < best[0] - 1e-12:
            best = (outcome.e_hf, outcome)
    if best is None:
        raise last_error if last_error is not None else ConvergenceError(0, np.inf)
    return best[1]


def reference_pattern_outcomes(integrals, n_alpha: int, n_beta: int) -> list:
    """SCFResult or ConvergenceError of each occupation pattern, in pattern order."""
    n_docc, n_socc = n_beta, n_alpha - n_beta
    patterns = scf_module._candidate_patterns(
        integrals.n_ao, n_docc, n_socc, scf_module.OCCUPATION_WINDOW
    )
    outcomes = []
    for docc, socc in patterns:
        try:
            outcomes.append(
                _reference_converge_pattern(integrals, n_alpha, n_beta, docc, socc)
            )
        except ConvergenceError as err:
            outcomes.append(err)
    return outcomes


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
        f_eff = _reference_roothaan_fock(f_a, f_b, c_all, s, n_docc, n_socc)
        error = x.T @ (f_eff @ d_t @ s - s @ d_t @ f_eff) @ x
        comm_norm = float(np.linalg.norm(error))
        delta = abs(new_energy - energy)
        energy = new_energy
        if (
            iteration > 1
            and delta < scf_module.ENERGY_TOL
            and comm_norm < scf_module.COMMUTATOR_TOL
        ):
            return _reference_finalize(
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
        docc_c, socc_c, virt_c = _reference_assign_by_overlap(
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


# Single-pattern forms of scf's stacked helpers, so that reference_run_scf
# shares no code with what it checks.


def _reference_assign_by_overlap(
    c_new: np.ndarray,
    eps_new: np.ndarray,
    s: np.ndarray,
    docc_prev: np.ndarray,
    socc_prev: np.ndarray,
    n_docc: int,
    n_socc: int,
):
    """Lock occupation character: classify new orbitals by projection onto the
    previous doubly- and singly-occupied spaces."""
    n_mo = c_new.shape[1]
    w_docc = (
        np.linalg.norm(docc_prev.T @ s @ c_new, axis=0) if n_docc else np.zeros(n_mo)
    )
    w_socc = (
        np.linalg.norm(socc_prev.T @ s @ c_new, axis=0) if n_socc else np.zeros(n_mo)
    )
    order_d = np.argsort(-w_docc, kind="stable")
    docc_pick = sorted(order_d[:n_docc], key=lambda i: eps_new[i])
    remaining = [i for i in range(n_mo) if i not in set(order_d[:n_docc])]
    remaining.sort(key=lambda i: (-w_socc[i], eps_new[i]))
    socc_pick = sorted(remaining[:n_socc], key=lambda i: eps_new[i])
    taken = set(docc_pick) | set(socc_pick)
    virt_pick = [i for i in range(n_mo) if i not in taken]
    return c_new[:, docc_pick], c_new[:, socc_pick], c_new[:, virt_pick]


def _reference_roothaan_fock(
    f_a: np.ndarray,
    f_b: np.ndarray,
    c: np.ndarray,
    s: np.ndarray,
    n_docc: int,
    n_socc: int,
) -> np.ndarray:
    fa_mo = c.T @ f_a @ c
    fb_mo = c.T @ f_b @ c
    f_mo = 0.5 * (fa_mo + fb_mo)
    n_occ = n_docc + n_socc
    cl = slice(0, n_docc)
    op = slice(n_docc, n_occ)
    vi = slice(n_occ, None)
    f_mo[cl, op] = fb_mo[cl, op]
    f_mo[op, cl] = fb_mo[op, cl]
    f_mo[op, vi] = fa_mo[op, vi]
    f_mo[vi, op] = fa_mo[vi, op]
    sc = s @ c
    return sc @ f_mo @ sc.T


def _reference_finalize(
    integrals: IntegralSet,
    f_a: np.ndarray,
    f_b: np.ndarray,
    docc_c: np.ndarray,
    socc_c: np.ndarray,
    virt_c: np.ndarray,
    energy: float,
    n_alpha: int,
    n_beta: int,
    iterations: int,
) -> SCFResult:
    """Canonicalize within occupation blocks and fix deterministic column signs."""
    s = integrals.overlap
    n_docc, n_socc = n_beta, n_alpha - n_beta
    c_all = np.hstack([docc_c, socc_c, virt_c])
    f_eff = _reference_roothaan_fock(f_a, f_b, c_all, s, n_docc, n_socc)

    blocks = []
    eps_blocks = []
    for block in (docc_c, socc_c, virt_c):
        if block.shape[1] == 0:
            continue
        f_block = block.T @ f_eff @ block
        w, u = np.linalg.eigh(f_block)
        blocks.append(block @ u)
        eps_blocks.append(w)
    c = np.hstack(blocks)
    eps = np.concatenate(eps_blocks)

    for j in range(c.shape[1]):
        pivot = int(np.argmax(np.abs(c[:, j])))
        if c[pivot, j] < 0:
            c[:, j] = -c[:, j]

    return SCFResult(
        mo_coeffs=c,
        orbital_energies=eps,
        e_hf=float(energy),
        n_alpha=n_alpha,
        n_beta=n_beta,
        iterations=iterations,
    )


def reference_model_gap(eps_spatial: np.ndarray, n_alpha: int, n_beta: int) -> float:
    """Gap of the diagonal model between its ground and first excited determinant,
    enumerated over the full (N, Sz) sector; oracle for fermion.model_gap."""
    n_mo = len(eps_spatial)
    energies = sorted(
        sum(eps_spatial[i] for i in occ_a) + sum(eps_spatial[i] for i in occ_b)
        for occ_a in itertools.combinations(range(n_mo), n_alpha)
        for occ_b in itertools.combinations(range(n_mo), n_beta)
    )
    if len(energies) < 2:
        raise ValueError("sector holds a single determinant; no excitation exists")
    return float(energies[1] - energies[0])


def reference_hf_fock_index(n_alpha: int, n_beta: int) -> int:
    """Fock index of the aufbau HF determinant in the interleaved layout."""
    index = 0
    for i in range(n_alpha):
        index |= 1 << (2 * i)
    for i in range(n_beta):
        index |= 1 << (2 * i + 1)
    return index


class WellSystem:
    """Everything downstream tests need for the four-hydrogen well geometry."""

    def __init__(self):
        self.geometry = load_geometry("well")
        self.integrals = compute_integrals(self.geometry)
        self.scf = run_scf(self.integrals, 2, 1)
        self.mo = transform_to_mo(self.integrals, self.scf)
        self.sq = second_quantize(self.mo)
        self.h_pauli = jordan_wigner(self.sq)
        self.h0_pauli = model_pauli(self.scf)
        self.omega0 = model_gap(self.scf, enumerate_sector(8, 2, 1).determinants)
        self.fci = solve_fci(enumerate_sector(8, 2, 1), self.sq)
        self.ground = probabilities(embed_optimized(self.fci.theta, self.fci.basis, 8))
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


def h4_geometries() -> dict:
    """The reactant and product geometries and two random H4+ clusters, by
    label; the well is the session `well` fixture."""
    rng = np.random.default_rng(8)
    geometries = {label: load_geometry(label) for label in ("reactant", "product")}
    for i in range(2):
        geometries[f"cluster{i}"] = parse_geometry(random_cluster(rng, 4))
    return geometries


@pytest.fixture(scope="session")
def h4_hamiltonians(well):
    """(h0, h, phi0) of the three built-in geometries and two random H4+
    clusters, keyed by label."""
    out = {"well": (well.h0_pauli, well.h_pauli, well.phi0)}
    for label, geometry in h4_geometries().items():
        integrals = compute_integrals(geometry)
        scf = run_scf(integrals, 2, 1)
        h = jordan_wigner(second_quantize(transform_to_mo(integrals, scf)))
        out[label] = (model_pauli(scf), h, enumerate_sector(8, 2, 1).determinants[0])
    return out


@pytest.fixture(scope="module")
def h6_chain():
    """(h0, h, phi0) of the H6+ chain; built per module, so a module's first
    flip_groups read of it pays the group build."""
    integrals = compute_integrals(parse_geometry(H6_CHAIN, label="h6_chain"))
    scf = run_scf(integrals, 3, 2)
    h = jordan_wigner(second_quantize(transform_to_mo(integrals, scf)))
    return model_pauli(scf), h, enumerate_sector(12, 3, 2).determinants[0]


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
