import itertools

import numpy as np
import pytest

from cvqelab.pauli import (
    PauliString,
    PauliSum,
    ResourceLimitError,
    compile_pauli_action,
    flip_groups,
    interpolate,
    mask_phases,
    prune,
    strings_from_masks,
    symplectic_product,
    to_dense,
)

from conftest import kron_dense, kron_oracle, number_operator, reference_to_dense, sz_operator


def random_sum(rng, n_qubits, n_terms) -> PauliSum:
    terms = {}
    for _ in range(n_terms):
        ops = tuple(rng.choice(("I", "X", "Y", "Z"), size=n_qubits))
        terms[PauliString(ops)] = float(rng.normal())
    return PauliSum.from_terms(terms, n_qubits)


def test_string_products_match_matrix_oracle():
    """Masks, symplectic product and phase bookkeeping against Kronecker matrices."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = PauliString(tuple(rng.choice(("I", "X", "Y", "Z"), size=3)))
        b = PauliString(tuple(rng.choice(("I", "X", "Y", "Z"), size=3)))
        (xa, za), (xb, zb) = a.masks(), b.masks()
        x, z, sign = symplectic_product(
            np.array([xa]), np.array([za]), np.array([xb]), np.array([zb])
        )
        (c,) = strings_from_masks(x, z, 3)
        # a = i^popcount(xa & za) X^xa Z^za, since Y = iXZ; likewise b
        phase = 1j ** (bin(xa & za).count("1") + bin(xb & zb).count("1"))
        phase *= sign[0] * mask_phases(x, z)[0]
        assert np.allclose(phase * kron_oracle(c), kron_oracle(a) @ kron_oracle(b))
        assert strings_from_masks(np.array([xa]), np.array([za]), 3) == [a]


def test_single_qubit_dense():
    z = PauliSum.from_terms({PauliString.from_label("Z"): 1.0}, 1)
    assert np.allclose(to_dense(z), np.diag([1.0, -1.0]))
    x = PauliSum.from_terms({PauliString.from_label("X"): 1.0}, 1)
    assert np.allclose(to_dense(x), np.array([[0, 1], [1, 0]]))


def test_dense_matches_kron_oracle():
    rng = np.random.default_rng(5)
    h = random_sum(rng, 3, 12)
    assert np.max(np.abs(to_dense(h) - kron_dense(h))) < 1e-14
    for ops in itertools.product("IXYZ", repeat=3):
        string = PauliString(ops)
        single = to_dense(PauliSum.from_terms({string: 1.0}, 3))
        assert np.array_equal(single, kron_oracle(string)), string.label()
    for n_qubits in (1, 2, 4):
        h = random_sum(rng, n_qubits, 3 * n_qubits)
        assert np.max(np.abs(to_dense(h) - kron_dense(h))) < 1e-14


def per_letter_action(string: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Reference kernel: one phase pass over the register per Y or Z letter."""
    dim = 1 << string.n_qubits
    flip = sum(1 << q for q, op in enumerate(string.ops) if op in ("X", "Y"))
    source = np.arange(dim) ^ flip
    phase = np.ones(dim, dtype=complex)
    for q, op in enumerate(string.ops):
        bits = (source >> q) & 1
        if op == "Y":
            phase = phase * np.where(bits == 0, 1j, -1j)
        elif op == "Z":
            phase = phase * np.where(bits == 0, 1.0, -1.0)
    return source, phase


def test_action_kernel_matches_per_letter_reference():
    """The byte-lookup parity needs a second pass past 8 qubits; 12 is the H6 register."""
    rng = np.random.default_rng(31)
    for n_qubits in (5, 9, 12):
        for _ in range(20):
            string = PauliString(tuple(rng.choice(("I", "X", "Y", "Z"), size=n_qubits)))
            source, phase = compile_pauli_action(string)
            ref_source, ref_phase = per_letter_action(string)
            assert np.array_equal(source, ref_source)
            assert np.array_equal(phase, ref_phase), string.label()


def test_hermiticity():
    rng = np.random.default_rng(9)
    for seed in range(5):
        h = random_sum(np.random.default_rng(seed), 4, 20)
        dense = to_dense(h)
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


def test_dense_cap():
    h = PauliSum.from_terms({PauliString.identity(15): 1.0}, 15)
    with pytest.raises(ResourceLimitError):
        to_dense(h)
    with pytest.raises(ResourceLimitError):
        flip_groups(h)


def test_flip_groups_rows_are_matrix_elements(well):
    xx_yy = PauliSum.from_terms(
        {PauliString.from_label("XXZ"): 0.5, PauliString.from_label("YYZ"): 0.5}, 3
    )
    for h in (well.h_pauli, well.h0_pauli, xx_yy, PauliSum.from_terms({}, 2)):
        masks, rows = flip_groups(h)
        assert masks.tolist() == sorted({s.masks()[0] for s in h.terms} | {0})
        assert rows.shape == (len(masks), 1 << h.n_qubits)
        dense = kron_dense(h)
        m = np.arange(1 << h.n_qubits)
        for mask, row in zip(masks.tolist(), rows):
            assert np.max(np.abs(row - dense[m, m ^ mask]), initial=0.0) < 1e-14


def test_to_dense_bit_identical_to_per_string_reference(h4_hamiltonians):
    """The flip-mask scatter gives the per-string build's bytes, -0.0 included."""
    rng = np.random.default_rng(44)
    cases = [
        PauliSum.from_terms({}, 3),
        PauliSum.from_terms({PauliString.identity(5): -0.7}, 5),
        PauliSum.from_terms(
            {PauliString.from_label("XXI"): 0.25, PauliString.from_label("YYI"): 0.25,
             PauliString.from_label("IXY"): -0.5, PauliString.from_label("IYX"): 0.5}, 3
        ),
    ]
    for n_qubits in range(3, 9):
        cases.append(random_sum(rng, n_qubits, 4 * n_qubits))
    for label in ("well", "product"):
        h0, h, _phi0 = h4_hamiltonians[label]
        cases += [h0, h]
    for h in cases:
        assert to_dense(h).tobytes() == reference_to_dense(h).tobytes()


def test_interpolate_endpoints_and_linearity():
    rng = np.random.default_rng(2)
    h0 = random_sum(rng, 2, 5)
    h1 = random_sum(rng, 2, 5)
    assert interpolate(h0, h1, 0.0).terms == h0.terms
    assert interpolate(h0, h1, 1.0).terms == h1.terms
    for eta in (0.25, 0.5, 0.9):
        mixed = to_dense(interpolate(h0, h1, eta))
        direct = (1 - eta) * to_dense(h0) + eta * to_dense(h1)
        assert np.max(np.abs(mixed - direct)) < 1e-12
    with pytest.raises(ValueError):
        interpolate(h0, h1, 1.5)


def test_interpolate_merges_terms():
    z = PauliSum.from_terms({PauliString.from_label("Z"): 1.0}, 1)
    x = PauliSum.from_terms({PauliString.from_label("X"): 2.0}, 1)
    mixed = interpolate(z, x, 0.5)
    assert mixed.coefficient(PauliString.from_label("Z")) == pytest.approx(0.5)
    assert mixed.coefficient(PauliString.from_label("X")) == pytest.approx(1.0)


def test_prune():
    h = PauliSum.from_terms(
        {
            PauliString.from_label("ZZ"): 0.01,
            PauliString.from_label("XI"): 0.5,
            PauliString.from_label("IZ"): 0.3,
            PauliString.from_label("II"): 2.0,
        },
        2,
    )
    assert prune(h, 0.0).terms == h.terms
    filtered = prune(h, 0.02)
    assert PauliString.from_label("ZZ") not in filtered.terms
    assert len(filtered) == 3
    no_diag = prune(h, 0.02, drop_diagonal=True)
    assert list(no_diag.terms) == [PauliString.from_label("XI")]


def test_coefficient_floor_cancellation():
    z = PauliSum.from_terms({PauliString.from_label("Z"): 1.0}, 1)
    cancelled = z + z.scaled(-1.0)
    assert len(cancelled) == 0


def test_deterministic_iteration_order():
    terms = {
        PauliString.from_label("ZI"): 1.0,
        PauliString.from_label("IX"): 2.0,
        PauliString.from_label("XX"): 3.0,
    }
    h1 = PauliSum.from_terms(dict(terms), 2)
    h2 = PauliSum.from_terms(dict(reversed(list(terms.items()))), 2)
    assert list(h1.terms) == list(h2.terms)


def test_number_and_sz_operators():
    n_op = to_dense(number_operator(4))
    sz_op = to_dense(sz_operator(4))
    for n in range(16):
        na = bin(n & 0b0101).count("1")
        nb = bin(n & 0b1010).count("1")
        assert n_op[n, n].real == pytest.approx(na + nb)
        assert sz_op[n, n].real == pytest.approx(0.5 * (na - nb))
