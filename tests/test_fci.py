import numpy as np
import pytest

from cvqelab.fci import enumerate_sector, solve_fci
from cvqelab.fermion import second_quantize
from cvqelab.geometry import parse_geometry
from cvqelab.integrals import compute_integrals
from cvqelab.pauli import to_dense
from cvqelab.scf import run_scf, transform_to_mo
from cvqelab.statevector import probabilities
from cvqelab.subspace import embed_optimized

from conftest import model_coupled_gaps, spin_expectations

TABLE_STATES = (7, 13, 19, 22, 25, 28, 37, 49, 52, 193, 196, 208)


def test_enumerate_sector_counts():
    basis = enumerate_sector(8, 2, 1)
    assert len(basis.determinants) == 24  # C(4,2) * C(4,1)
    assert set(TABLE_STATES) <= set(basis.determinants)
    for det in basis.determinants:
        assert bin(det & 0b01010101).count("1") == 2
        assert bin(det & 0b10101010).count("1") == 1
    assert list(basis.determinants) == sorted(basis.determinants)


def test_enumerate_sector_edges():
    assert enumerate_sector(2, 1, 0).determinants == (1,)
    with pytest.raises(ValueError):
        enumerate_sector(2, 2, 0)


def test_fci_below_hf_and_residual(well):
    assert well.fci.energy <= well.scf.e_hf
    sector = enumerate_sector(8, 2, 1)
    assert well.fci.basis.members == sector.determinants
    assert np.linalg.norm(well.fci.theta) == pytest.approx(1.0, abs=1e-12)


def test_one_electron_fci_equals_hf():
    integrals = compute_integrals(parse_geometry("H 0 0 0"))
    scf = run_scf(integrals, 1, 0)
    sq = second_quantize(transform_to_mo(integrals, scf))
    solution = solve_fci(enumerate_sector(2, 1, 0), sq)
    assert solution.energy == pytest.approx(scf.e_hf, abs=1e-12)
    assert solution.energy == pytest.approx(-0.471, abs=2e-4)


def test_sector_spectrum_matches_jw_dense(well):
    dense = to_dense(well.h_pauli).real
    sector = enumerate_sector(8, 2, 1).determinants
    block = dense[np.ix_(sector, sector)]
    jw_spectrum = np.linalg.eigvalsh(block)
    from cvqelab.subspace import OutcomeSet, determinant_hamiltonian

    sc_spectrum = np.linalg.eigvalsh(
        determinant_hamiltonian(OutcomeSet(members=sector), well.sq).matrix
    )
    assert np.max(np.abs(jw_spectrum - sc_spectrum)) < 1e-9


def test_ground_distribution_support(well):
    dist = well.ground
    assert sorted(dist.support(1e-10)) == sorted(TABLE_STATES)
    top = max(dist.probs, key=dist.probs.get)
    assert top == 7


def test_ground_distribution_point_mass():
    integrals = compute_integrals(parse_geometry("H 0 0 0"))
    scf = run_scf(integrals, 1, 0)
    sq = second_quantize(transform_to_mo(integrals, scf))
    solution = solve_fci(enumerate_sector(2, 1, 0), sq)
    dist = probabilities(embed_optimized(solution.theta, solution.basis, 2))
    assert dist.probs == {1: pytest.approx(1.0)}


def test_support_symmetry_split(well):
    """9 support states avoid the antisymmetric MO; 3 contain its full pair."""
    support = sorted(well.ground.support(1e-10))
    mo4_mask = (1 << 6) | (1 << 7)
    with_pair = [n for n in support if (n & mo4_mask) == mo4_mask]
    without = [n for n in support if (n & mo4_mask) == 0]
    assert len(with_pair) == 3
    assert len(without) == 9


def test_spin_expectations(well):
    s2, sz = spin_expectations(well.fci.theta, enumerate_sector(8, 2, 1))
    assert s2 == pytest.approx(0.75, abs=1e-8)
    assert sz == pytest.approx(0.5, abs=1e-8)


def test_spin_single_electron():
    integrals = compute_integrals(parse_geometry("H 0 0 0"))
    scf = run_scf(integrals, 1, 0)
    sq = second_quantize(transform_to_mo(integrals, scf))
    sector = enumerate_sector(2, 1, 0)
    s2, sz = spin_expectations(solve_fci(sector, sq).theta, sector)
    assert s2 == pytest.approx(0.75, abs=1e-12)
    assert sz == pytest.approx(0.5, abs=1e-12)


def test_spin_closed_shell_singlet(h2_system):
    _, integrals, scf = h2_system
    sq = second_quantize(transform_to_mo(integrals, scf))
    sector = enumerate_sector(4, 1, 1)
    s2, sz = spin_expectations(solve_fci(sector, sq).theta, sector)
    assert s2 == pytest.approx(0.0, abs=1e-10)
    assert sz == 0.0


def test_degenerate_sz_sector_identical_spectrum(well):
    """The mirrored (1, 2) sector must reproduce the (2, 1) spectrum."""
    from cvqelab.subspace import OutcomeSet, determinant_hamiltonian

    up = enumerate_sector(8, 2, 1).determinants
    down = enumerate_sector(8, 1, 2).determinants
    spec_up = np.linalg.eigvalsh(
        determinant_hamiltonian(OutcomeSet(members=up), well.sq).matrix
    )
    spec_down = np.linalg.eigvalsh(
        determinant_hamiltonian(OutcomeSet(members=down), well.sq).matrix
    )
    assert np.max(np.abs(spec_up - spec_down)) < 1e-9
    sector_down = enumerate_sector(8, 1, 2)
    solution_down = solve_fci(sector_down, well.sq)
    assert solution_down.energy == pytest.approx(well.fci.energy, abs=1e-9)
    assert spin_expectations(solution_down.theta, sector_down)[1] == pytest.approx(-0.5)
    # mirrored HF determinant from the appendix labeling
    assert 11 in enumerate_sector(8, 1, 2).determinants


def test_model_coupled_gaps_diagnostic(well):
    pairs = model_coupled_gaps(well.sq, np.repeat(well.scf.orbital_energies, 2), 7)
    assert pairs == sorted(pairs)
    # a converged mean-field reference decouples single promotions, so the
    # first coupled excitation sits above the bare lowest promotion
    assert pairs[0][0] > well.omega0
    # strongest drive couples to double promotions out of the lowest MO
    strongest_gap = max(pairs, key=lambda gc: gc[1])[0]
    assert strongest_gap > pairs[0][0]
