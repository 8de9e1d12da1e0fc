import tracemalloc

import numpy as np
import pytest

from cvqelab.fci import enumerate_sector
from cvqelab.fermion import (
    SecondQuantizedHamiltonian,
    jordan_wigner,
    model_gap,
    second_quantize,
)
from cvqelab.geometry import load_geometry, parse_geometry
from cvqelab.integrals import compute_integrals
from cvqelab.pauli import to_dense
from cvqelab.pipeline import RunConfig, build_system
from cvqelab.scf import MOIntegrals, run_scf, transform_to_mo

from conftest import (
    H6_CHAIN,
    h4_geometries,
    label_terms,
    number_operator,
    random_cluster,
    reference_hf_fock_index,
    reference_jordan_wigner,
    reference_model_gap,
    reference_second_quantize,
    rule_entry,
    sz_operator,
)


def random_mo_integrals(rng, n_mo) -> MOIntegrals:
    h = rng.normal(size=(n_mo, n_mo))
    h = 0.5 * (h + h.T)
    g = rng.normal(size=(n_mo,) * 4) * 0.3
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return MOIntegrals(h_mo=h, g_mo=g, e_nuc=float(rng.normal()), n_mo=n_mo)


def test_spin_orbital_layout():
    assert enumerate_sector(8, 2, 1).determinants[0] == 7
    assert enumerate_sector(8, 1, 1).determinants[0] == 3
    assert enumerate_sector(8, 1, 0).determinants[0] == 1


def test_one_orbital_spin_degeneracy():
    mo = MOIntegrals(
        h_mo=np.array([[0.37]]), g_mo=np.zeros((1, 1, 1, 1)), e_nuc=0.0, n_mo=1
    )
    sq = second_quantize(mo)
    assert sq.one_body[0, 0] == pytest.approx(0.37)
    assert sq.one_body[1, 1] == pytest.approx(0.37)
    assert sq.one_body[0, 1] == 0.0


def test_two_body_antisymmetry_and_spin_zeros():
    rng = np.random.default_rng(8)
    sq = second_quantize(random_mo_integrals(rng, 3))
    g = sq.two_body
    assert np.allclose(g, -g.transpose(1, 0, 2, 3), atol=1e-12)
    assert np.allclose(g, -g.transpose(0, 1, 3, 2), atol=1e-12)
    # spin orthogonality: one-body blocks connecting opposite spins vanish
    for p in range(6):
        for q in range(6):
            if (p - q) % 2:
                assert sq.one_body[p, q] == 0.0


def test_second_quantize_bit_identical_to_entry_loop(well):
    """The spin-block slice assignments give the per-entry loop's bytes, on
    the built-in geometries, the random H4+ clusters and random integrals
    with entries at and below the 1e-15 floor."""
    mos = [well.mo]
    for geometry in h4_geometries().values():
        integrals = compute_integrals(geometry)
        mos.append(transform_to_mo(integrals, run_scf(integrals, 2, 1)))
    rng = np.random.default_rng(15)
    for n_mo in (1, 3):
        mo = random_mo_integrals(rng, n_mo)
        g = mo.g_mo.copy()
        g[rng.random(g.shape) < 0.3] = 4e-16
        g[rng.random(g.shape) < 0.1] = -0.0
        mos.append(MOIntegrals(h_mo=mo.h_mo, g_mo=g, e_nuc=mo.e_nuc, n_mo=n_mo))
    for mo in mos:
        sq, ref = second_quantize(mo), reference_second_quantize(mo)
        assert sq.one_body.tobytes() == ref.one_body.tobytes()
        assert sq.two_body.tobytes() == ref.two_body.tobytes()
        assert (sq.constant, sq.n_spin_orbitals) == (ref.constant, ref.n_spin_orbitals)


def test_number_operator_map():
    # single mode occupation: a+_0 a_0 -> (I - Z_0)/2
    mo = MOIntegrals(
        h_mo=np.array([[1.0]]), g_mo=np.zeros((1, 1, 1, 1)), e_nuc=0.0, n_mo=1
    )
    sq = second_quantize(mo)
    h = jordan_wigner(sq)
    # h = n_0 + n_1 with unit coefficients
    terms = dict(label_terms(h))
    assert terms["II"] == pytest.approx(1.0)
    assert terms["ZI"] == pytest.approx(-0.5)
    assert terms["IZ"] == pytest.approx(-0.5)


def test_hopping_term_map():
    # h12 = h21 = t gives t*(X0X2 + Y0Y2)/2 per spin channel with Z parity inside
    mo = MOIntegrals(
        h_mo=np.array([[0.0, 0.7], [0.7, 0.0]]),
        g_mo=np.zeros((2, 2, 2, 2)),
        e_nuc=0.0,
        n_mo=2,
    )
    h = jordan_wigner(second_quantize(mo))
    terms = dict(label_terms(h))
    assert terms["XZXI"] == pytest.approx(0.35)
    assert terms["YZYI"] == pytest.approx(0.35)
    assert terms["IXZX"] == pytest.approx(0.35)
    assert terms["IYZY"] == pytest.approx(0.35)


def test_jw_matches_ladder_product_reference(h2_system, well):
    """Same strings as the letter-by-letter ladder products; coefficients differ
    only by summation order."""
    _, integrals, scf = h2_system
    systems = [second_quantize(transform_to_mo(integrals, scf)), well.sq]
    for label in ("reactant", "product"):
        integrals = compute_integrals(load_geometry(label))
        systems.append(second_quantize(transform_to_mo(integrals, run_scf(integrals, 2, 1))))
    rng = np.random.default_rng(2718)
    for _ in range(3):
        integrals = compute_integrals(parse_geometry(random_cluster(rng, 4)))
        systems.append(second_quantize(transform_to_mo(integrals, run_scf(integrals, 2, 1))))
    for sq in systems:
        h, ref = jordan_wigner(sq), reference_jordan_wigner(sq)
        assert h.labels() == ref.labels()
        assert np.max(np.abs(h.coeffs - ref.coeffs)) <= 1e-13


def test_jw_rejects_non_hermitian_input():
    one_body = np.array([[0.0, 0.3], [0.0, 0.0]])  # a+_0 a_1 without its conjugate
    sq = SecondQuantizedHamiltonian(
        one_body=one_body, two_body=np.zeros((2,) * 4), constant=0.0, n_spin_orbitals=2
    )
    with pytest.raises(ValueError, match="non-Hermitian .* for [XY][XY]$"):
        jordan_wigner(sq)


def test_jw_peak_allocation(well):
    """Two-body terms are expanded one creation mode at a time, so the well's
    build stays under 1 MB at peak (0.37 MB; 1.6 MB with every mode at once)."""
    tracemalloc.start()
    try:
        jordan_wigner(well.sq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_hf_expectation_matches_scf(h2_system, well):
    for system, (n_alpha, n_beta) in ((h2_system, (1, 1)), (None, (2, 1))):
        if system is None:
            sq, e_hf = well.sq, well.scf.e_hf
        else:
            _, integrals, scf = system
            sq = second_quantize(transform_to_mo(integrals, scf))
            e_hf = scf.e_hf
        phi0 = enumerate_sector(sq.n_spin_orbitals, n_alpha, n_beta).determinants[0]
        assert rule_entry(phi0, phi0, sq) == pytest.approx(e_hf, abs=1e-8)


def test_dual_construction_well_sector(well):
    """Jordan-Wigner dense matrix vs determinant matrix elements, elementwise."""
    dense = to_dense(well.h_pauli).real
    sector = enumerate_sector(8, 2, 1).determinants
    for i, n in enumerate(sector):
        for m in sector[i:]:
            assert dense[n, m] == pytest.approx(
                rule_entry(n, m, well.sq), abs=1e-10
            )


def test_dual_construction_random_fixtures():
    """Random 3- and 4-orbital chemistry: full dense equality on all sectors."""
    rng = np.random.default_rng(123)
    for n_atoms in (3, 4):
        geom = parse_geometry(random_cluster(rng, n_atoms))
        integrals = compute_integrals(geom)
        n_elec = n_atoms  # neutral cluster
        n_beta = n_elec // 2
        n_alpha = n_elec - n_beta
        scf = run_scf(integrals, n_alpha, n_beta)
        sq = second_quantize(transform_to_mo(integrals, scf))
        dense = to_dense(jordan_wigner(sq)).real
        dim = 1 << sq.n_spin_orbitals
        sample = rng.integers(0, dim, size=60)
        for n in sample:
            for m in rng.integers(0, dim, size=12):
                assert dense[n, m] == pytest.approx(
                    rule_entry(int(n), int(m), sq), abs=1e-10
                )


def test_symmetry_conservation(well):
    n_op = to_dense(number_operator(8))
    sz_op = to_dense(sz_operator(8))
    from cvqelab.pauli import interpolate

    for eta in (0.0, 0.3, 1.0):
        dense = to_dense(interpolate(well.h0_pauli, well.h_pauli, eta))
        assert np.linalg.norm(dense @ n_op - n_op @ dense) < 1e-10
        assert np.linalg.norm(dense @ sz_op - sz_op @ dense) < 1e-10


def test_jw_real_coefficients(well):
    assert well.h_pauli.coeffs.dtype == np.float64
    for coeff in well.h_pauli.coeffs.tolist():
        assert isinstance(coeff, float)


def test_model_pauli_is_diagonal_with_correct_spectrum(well):
    dense = to_dense(well.h0_pauli).real
    assert np.max(np.abs(dense - np.diag(np.diag(dense)))) < 1e-12
    # HF expectation pinned to e_hf
    assert dense[7, 7] == pytest.approx(well.scf.e_hf, abs=1e-10)
    # diagonal equals sum of occupied spin-orbital energies plus shift
    eps = np.repeat(well.scf.orbital_energies, 2)
    shift = well.scf.e_hf - np.sum(eps[:3])  # pins the HF determinant 7 to e_hf
    for n in (0, 7, 13, 255):
        expected = shift + sum(
            eps[q] for q in range(8) if (n >> q) & 1
        )
        assert dense[n, n] == pytest.approx(expected, abs=1e-10)


def test_model_gap_and_phi0_match_enumeration_reference():
    """omega0 read off the reference sector equals the itertools enumeration of
    the model's levels bit for bit, and phi0 is the aufbau HF determinant."""
    geometries = {"well": load_geometry("well"), **h4_geometries()}
    geometries["h6_chain"] = parse_geometry(H6_CHAIN, label="h6_chain")
    for label, geometry in geometries.items():
        system = build_system(RunConfig(geometry=label), geometry=geometry)
        scf = system.scf
        expected = reference_model_gap(scf.orbital_energies, scf.n_alpha, scf.n_beta)
        assert system.omega0 == expected, label
        assert model_gap(scf, system.sector.determinants) == expected, label
        assert system.phi0 == reference_hf_fock_index(scf.n_alpha, scf.n_beta), label


@pytest.mark.parametrize("label", ["reactant", "well", "product"])
def test_symmetry_and_dual_construction_all_builtin_geometries(label):
    from cvqelab.geometry import load_geometry

    integrals = compute_integrals(load_geometry(label))
    scf = run_scf(integrals, 2, 1)
    sq = second_quantize(transform_to_mo(integrals, scf))
    dense = to_dense(jordan_wigner(sq)).real
    n_op = to_dense(number_operator(8))
    sz_op = to_dense(sz_operator(8))
    assert np.linalg.norm(dense @ n_op - n_op @ dense) < 1e-10
    assert np.linalg.norm(dense @ sz_op - sz_op @ dense) < 1e-10
    rng = np.random.default_rng(hash(label) % (1 << 32))
    for n in rng.integers(0, 256, size=25):
        for m in rng.integers(0, 256, size=8):
            assert dense[n, m] == pytest.approx(rule_entry(int(n), int(m), sq), abs=1e-10)
