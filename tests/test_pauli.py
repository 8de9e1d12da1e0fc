import itertools

import numpy as np
import pytest

from cvqelab.pauli import (
    PauliSum,
    ResourceLimitError,
    compile_pauli_action,
    flip_groups,
    interpolate,
    mask_phases,
    prune,
    symplectic_product,
    to_dense,
)

from conftest import (
    from_labels,
    kron_dense,
    kron_oracle,
    label_masks,
    label_terms,
    number_operator,
    random_sum,
    reference_interpolate,
    reference_prune,
    reference_to_dense,
    sz_operator,
)


def random_label(rng, n_qubits) -> str:
    return "".join(rng.choice(("I", "X", "Y", "Z"), size=n_qubits))


def test_string_products_match_matrix_oracle():
    """Masks, symplectic product and phase bookkeeping against Kronecker matrices."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = random_label(rng, 3), random_label(rng, 3)
        (xa, za), (xb, zb) = label_masks(a), label_masks(b)
        x, z, sign = symplectic_product(
            np.array([xa]), np.array([za]), np.array([xb]), np.array([zb])
        )
        (c,) = PauliSum.from_masks(x, z, [1.0], 3).labels()
        # a = i^popcount(xa & za) X^xa Z^za, since Y = iXZ; likewise b
        phase = 1j ** (bin(xa & za).count("1") + bin(xb & zb).count("1"))
        phase *= sign[0] * mask_phases(x, z)[0]
        assert np.allclose(phase * kron_oracle(c), kron_oracle(a) @ kron_oracle(b))
        assert PauliSum.from_masks([xa], [za], [1.0], 3).labels() == [a]


def test_single_qubit_dense():
    z = from_labels({"Z": 1.0})
    assert np.allclose(to_dense(z), np.diag([1.0, -1.0]))
    x = from_labels({"X": 1.0})
    assert np.allclose(to_dense(x), np.array([[0, 1], [1, 0]]))


def test_dense_matches_kron_oracle():
    rng = np.random.default_rng(5)
    h = random_sum(rng, 3, 12)
    assert np.max(np.abs(to_dense(h) - kron_dense(h))) < 1e-14
    for ops in itertools.product("IXYZ", repeat=3):
        label = "".join(ops)
        single = to_dense(from_labels({label: 1.0}))
        assert np.array_equal(single, kron_oracle(label)), label
    for n_qubits in (1, 2, 4):
        h = random_sum(rng, n_qubits, 3 * n_qubits)
        assert np.max(np.abs(to_dense(h) - kron_dense(h))) < 1e-14


def per_letter_action(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Reference kernel: one phase pass over the register per Y or Z letter."""
    dim = 1 << len(label)
    flip = sum(1 << q for q, op in enumerate(label) if op in ("X", "Y"))
    source = np.arange(dim) ^ flip
    phase = np.ones(dim, dtype=complex)
    for q, op in enumerate(label):
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
            label = random_label(rng, n_qubits)
            source, phase = compile_pauli_action(*label_masks(label), n_qubits)
            ref_source, ref_phase = per_letter_action(label)
            assert np.array_equal(source, ref_source)
            assert np.array_equal(phase, ref_phase), label


def test_hermiticity():
    rng = np.random.default_rng(9)
    for seed in range(5):
        h = random_sum(np.random.default_rng(seed), 4, 20)
        dense = to_dense(h)
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


def test_dense_cap():
    h = from_labels({"I" * 15: 1.0})
    with pytest.raises(ResourceLimitError):
        to_dense(h)
    with pytest.raises(ResourceLimitError):
        flip_groups(h)


def test_flip_groups_rows_are_matrix_elements(well):
    xx_yy = from_labels({"XXZ": 0.5, "YYZ": 0.5})
    for h in (well.h_pauli, well.h0_pauli, xx_yy, from_labels({}, 2)):
        masks, rows = flip_groups(h)
        assert masks.tolist() == sorted({label_masks(label)[0] for label in h.labels()} | {0})
        assert rows.shape == (len(masks), 1 << h.n_qubits)
        dense = kron_dense(h)
        m = np.arange(1 << h.n_qubits)
        for mask, row in zip(masks.tolist(), rows):
            assert np.max(np.abs(row - dense[m, m ^ mask]), initial=0.0) < 1e-14


def test_to_dense_bit_identical_to_per_string_reference(h4_hamiltonians):
    """The flip-mask scatter gives the per-string build's bytes, -0.0 included."""
    rng = np.random.default_rng(44)
    cases = [
        from_labels({}, 3),
        from_labels({"IIIII": -0.7}),
        from_labels({"XXI": 0.25, "YYI": 0.25, "IXY": -0.5, "IYX": 0.5}),
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
    assert label_terms(interpolate(h0, h1, 0.0)) == label_terms(h0)
    assert label_terms(interpolate(h0, h1, 1.0)) == label_terms(h1)
    for eta in (0.25, 0.5, 0.9):
        mixed = to_dense(interpolate(h0, h1, eta))
        direct = (1 - eta) * to_dense(h0) + eta * to_dense(h1)
        assert np.max(np.abs(mixed - direct)) < 1e-12
    with pytest.raises(ValueError):
        interpolate(h0, h1, 1.5)


def test_interpolate_merges_terms():
    z = from_labels({"Z": 1.0})
    x = from_labels({"X": 2.0})
    mixed = dict(label_terms(interpolate(z, x, 0.5)))
    assert mixed == {"X": pytest.approx(1.0), "Z": pytest.approx(0.5)}


def test_prune():
    h = from_labels({"ZZ": 0.01, "XI": 0.5, "IZ": 0.3, "II": 2.0})
    assert label_terms(prune(h, 0.0)) == label_terms(h)
    filtered = prune(h, 0.02)
    assert "ZZ" not in filtered.labels()
    assert len(filtered) == 3
    no_diag = prune(h, 0.02, drop_diagonal=True)
    assert no_diag.labels() == ["XI"]


def test_coefficient_floor_cancellation():
    z = from_labels({"Z": 1.0})
    cancelled = interpolate(z, from_labels({"Z": -1.0}), 0.5)
    assert len(cancelled) == 0
    assert len(from_labels({"Z": 0.5e-12, "X": 1.0})) == 1


def test_interpolate_and_prune_match_dict_reference(well):
    """Array interpolate/prune give the label-dict merge's labels and bytes."""
    rng = np.random.default_rng(17)
    pairs = [(well.h0_pauli, well.h_pauli)]
    for n_qubits in (1, 3, 6):
        pairs.append((random_sum(rng, n_qubits, 4 * n_qubits), random_sum(rng, n_qubits, 4 * n_qubits)))
    # sub-floor products and exact cancellations
    pairs.append((from_labels({"II": 0.1, "ZI": 1.5e-12, "XY": 3.0e-12, "XX": -0.2}),
                  from_labels({"ZI": 0.3, "XX": 0.2, "XY": 1.0e-12})))
    for h0, h in pairs:
        for eta in (0.0, 0.3, 0.5, 1.0):
            got, ref = interpolate(h0, h, eta), reference_interpolate(h0, h, eta)
            assert got.labels() == ref.labels()
            assert got.coeffs.tobytes() == ref.coeffs.tobytes()
            for threshold, drop_diagonal in ((0.0, False), (0.02, False), (0.02, True)):
                got_p = prune(got, threshold, drop_diagonal)
                ref_p = reference_prune(ref, threshold, drop_diagonal)
                assert got_p.labels() == ref_p.labels()
                assert got_p.coeffs.tobytes() == ref_p.coeffs.tobytes()


def test_deterministic_iteration_order(well):
    terms = {"ZI": 1.0, "IX": 2.0, "XX": 3.0}
    h1 = from_labels(dict(terms))
    h2 = from_labels(dict(reversed(list(terms.items()))))
    assert h1.labels() == h2.labels()
    # canonical order is label order, qubit 0 first and I < X < Y < Z
    rng = np.random.default_rng(14)
    for n_qubits in range(1, 15):
        terms = {random_label(rng, n_qubits): float(rng.normal()) for _ in range(3 * n_qubits)}
        items = list(terms.items())
        for _ in range(3):
            shuffled = dict(items[i] for i in rng.permutation(len(items)))
            assert label_terms(from_labels(shuffled, n_qubits)) == sorted(items)
    # the benchmark's fermion.jordan_wigner.terms counter reads len()
    assert len(well.h_pauli) == 361
    assert len(well.h0_pauli) == 9


def test_from_masks_rejects_strings_outside_register_and_repeats():
    for x, z, n_qubits in (([4], [0], 2), ([0], [1 << 3], 3), ([-1], [0], 4)):
        with pytest.raises(ValueError, match="outside"):
            PauliSum.from_masks(x, z, [1.0], n_qubits)
    with pytest.raises(ValueError, match="repeated"):
        PauliSum.from_masks([1, 1], [2, 2], [1.0, 0.5], 2)
    # a string dropped at the floor is no repeat
    assert PauliSum.from_masks([1, 1], [2, 2], [1.0, 1e-13], 2).labels() == ["XZ"]


def test_number_and_sz_operators():
    n_op = to_dense(number_operator(4))
    sz_op = to_dense(sz_operator(4))
    for n in range(16):
        na = bin(n & 0b0101).count("1")
        nb = bin(n & 0b1010).count("1")
        assert n_op[n, n].real == pytest.approx(na + nb)
        assert sz_op[n, n].real == pytest.approx(0.5 * (na - nb))
