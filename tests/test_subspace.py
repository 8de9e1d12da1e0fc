import numpy as np
import pytest

from cvqelab.fci import enumerate_sector
from cvqelab.fermion import SecondQuantizedHamiltonian, second_quantize
from cvqelab.geometry import parse_geometry
from cvqelab.integrals import compute_integrals
from cvqelab.pauli import to_dense
from cvqelab.prep import TrotterConfig, build_schedule, prepare_guiding
from cvqelab.scf import run_scf, transform_to_mo
from cvqelab.statevector import SampleCounts, probabilities
from cvqelab.subspace import (
    EmptySubspaceError,
    OutcomeSet,
    SubspaceHamiltonian,
    build_subspace,
    collect_outcomes,
    determinant_hamiltonian,
    embed_optimized,
    optimize,
    restrict_to_sector,
)

from conftest import H6_CHAIN, h4_geometries, rule_entry, sample, slater_condon

TABLE_STATES = (7, 13, 19, 22, 25, 28, 37, 49, 52, 193, 196, 208)


def counts_of(d: dict, shots=None) -> SampleCounts:
    total = sum(d.values())
    return SampleCounts(counts=d, shots=shots or total)


def test_collect_outcomes_basics():
    assert collect_outcomes(counts_of({7: 1000}), 0).members == (7,)
    assert collect_outcomes(counts_of({7: 100, 13: 3}), 10).members == (7,)
    assert collect_outcomes(counts_of({13: 5, 7: 5}), 1).members == (7, 13)
    with pytest.raises(EmptySubspaceError):
        collect_outcomes(counts_of({7: 3}), 10)
    with pytest.raises(ValueError):
        collect_outcomes(counts_of({7: 3}), -1)


def test_restrict_to_sector():
    # 7 and 13 hold (2 up, 1 down); 11 holds (1, 2); 15 holds (2, 2)
    outcomes = collect_outcomes(counts_of({7: 5, 11: 5, 13: 5, 15: 5}), 1)
    sector = enumerate_sector(4, 2, 1)
    kept = restrict_to_sector(outcomes, sector)
    assert kept.members == (7, 13)
    with pytest.raises(EmptySubspaceError, match=r"\(2, 1\) sector"):
        restrict_to_sector(collect_outcomes(counts_of({11: 5, 15: 5}), 1), sector)


def test_outcome_set_ordering_invariant():
    with pytest.raises(ValueError):
        OutcomeSet(members=(13, 7))


def test_diagonal_is_hf_energy(well):
    assert rule_entry(7, 7, well.sq) == pytest.approx(well.scf.e_hf, abs=1e-8)


def test_three_orbital_difference_is_zero(well):
    # |00000111> vs |3,4,4> = |11010000>: three spin orbitals differ
    assert rule_entry(7, 208, well.sq) == 0.0
    # different particle number
    assert rule_entry(7, 15, well.sq) == 0.0


def test_sector_zeroing_random_pairs(well):
    rng = np.random.default_rng(6)
    def sector_of(n):
        return (bin(n & 0b01010101).count("1"), bin(n & 0b10101010).count("1"))
    checked = 0
    while checked < 300:
        n, m = rng.integers(0, 256, size=2)
        if sector_of(int(n)) != sector_of(int(m)):
            assert rule_entry(int(n), int(m), well.sq) == pytest.approx(0.0, abs=1e-12)
            checked += 1


@pytest.fixture(scope="module")
def h4_sq(well):
    """Second-quantized Hamiltonians of the h4_geometries and the well, by label."""
    out = {"well": well.sq}
    for label, geometry in h4_geometries().items():
        integrals = compute_integrals(geometry)
        out[label] = second_quantize(transform_to_mo(integrals, run_scf(integrals, 2, 1)))
    return out


def oracle_matrix(members, sq) -> np.ndarray:
    """The subspace matrix from conftest.slater_condon, one pair at a time."""
    mat = np.zeros((len(members), len(members)))
    for i, n in enumerate(members):
        for j in range(i, len(members)):
            mat[i, j] = mat[j, i] = slater_condon(int(n), int(members[j]), sq)
    return mat


def test_build_subspace_matches_pair_oracle(h4_sq):
    """Every entry within 1e-13 of the per-pair rules, with the same exact
    zeros: the (2, 1) sectors of the built-ins and two random H4+ clusters,
    the H6+ chain's 300-determinant (3, 2) sector, random well sets that mix
    particle number and S_z, and every pair of 8-mode determinants under
    unstructured tensors, where no entry vanishes by antisymmetry or spin."""
    integrals = compute_integrals(parse_geometry(H6_CHAIN, label="h6_chain"))
    h6 = second_quantize(transform_to_mo(integrals, run_scf(integrals, 3, 2)))
    cases = [(enumerate_sector(8, 2, 1).determinants, sq) for sq in h4_sq.values()]
    cases.append((enumerate_sector(12, 3, 2).determinants, h6))
    rng = np.random.default_rng(17)
    for size in range(1, 13):
        for _ in range(4):
            members = tuple(sorted(rng.choice(256, size=size, replace=False).tolist()))
            cases.append((members, h4_sq["well"]))
    unstructured = SecondQuantizedHamiltonian(
        one_body=rng.normal(size=(8, 8)),
        two_body=rng.normal(size=(8, 8, 8, 8)),
        constant=float(rng.normal()),
        n_spin_orbitals=8,
    )
    cases.append((tuple(range(256)), unstructured))
    for members, sq in cases:
        mat = determinant_hamiltonian(OutcomeSet(members=tuple(members)), sq).matrix
        ref = oracle_matrix(members, sq)
        assert np.max(np.abs(mat - ref)) <= 1e-13
        assert np.array_equal(mat == 0.0, ref == 0.0)


def test_build_subspace_is_exact_principal_submatrix(h4_sq):
    """A sampled matrix is bit for bit the sector matrix on its rows and
    columns, so E* >= E_g is Cauchy interlacing on one matrix."""
    sector = enumerate_sector(8, 2, 1).determinants
    rng = np.random.default_rng(29)
    for sq in (h4_sq["well"], h4_sq["cluster0"]):
        full = determinant_hamiltonian(OutcomeSet(members=sector), sq).matrix
        for _ in range(200):
            size = int(rng.integers(1, len(sector) + 1))
            idx = np.sort(rng.choice(len(sector), size=size, replace=False))
            sub = determinant_hamiltonian(OutcomeSet(members=tuple(sector[i] for i in idx)), sq)
            assert np.array_equal(sub.matrix, full[np.ix_(idx, idx)])


def test_build_subspace_names_an_outcome_outside_the_sector(well):
    """The gather reads sector positions only: an outcome outside the sector
    Hamiltonian's basis, below or past its last member, is named, the first
    one first."""
    sector_h = well.sector_hamiltonian
    with pytest.raises(ValueError, match=r"^outcome 15 is not a determinant of the 24-"):
        build_subspace(OutcomeSet(members=(7, 15)), sector_h)
    with pytest.raises(ValueError, match=r"^outcome 15 "):
        build_subspace(OutcomeSet(members=(15, 255)), sector_h)
    with pytest.raises(ValueError, match=r"^outcome 255 "):
        build_subspace(OutcomeSet(members=(7, 255)), sector_h)
    with pytest.raises(EmptySubspaceError):
        build_subspace(OutcomeSet(members=()), sector_h)


def test_full_sector_matches_jw_dense(well):
    sector = enumerate_sector(8, 2, 1).determinants
    outcomes = OutcomeSet(members=sector)
    sub = determinant_hamiltonian(outcomes, well.sq)
    dense = to_dense(well.h_pauli).real
    block = dense[np.ix_(sector, sector)]
    assert np.max(np.abs(sub.matrix - block)) < 1e-10


def test_singleton_subspace(well):
    outcomes = OutcomeSet(members=(7,))
    sub = build_subspace(outcomes, well.sector_hamiltonian)
    assert sub.matrix.shape == (1, 1)
    opt = optimize(sub)
    assert opt.energy == pytest.approx(well.scf.e_hf, abs=1e-8)


def test_table_vi_subspace_reaches_ground(well):
    outcomes = OutcomeSet(members=TABLE_STATES)
    opt = optimize(build_subspace(outcomes, well.sector_hamiltonian))
    assert opt.energy == pytest.approx(well.fci.energy, abs=1e-9)


def test_interlacing_bound_random_subsets(well):
    rng = np.random.default_rng(14)
    sector = enumerate_sector(8, 2, 1).determinants
    for _ in range(40):
        size = int(rng.integers(1, len(sector) + 1))
        members = tuple(sorted(rng.choice(sector, size=size, replace=False).tolist()))
        opt = optimize(build_subspace(OutcomeSet(members=members), well.sector_hamiltonian))
        assert opt.energy >= well.fci.energy - 1e-10


def test_monotone_under_subspace_growth(well):
    rng = np.random.default_rng(15)
    sector = list(enumerate_sector(8, 2, 1).determinants)
    rng.shuffle(sector)
    previous = np.inf
    for size in (1, 3, 6, 12, 18, 24):
        members = tuple(sorted(sector[:size]))
        opt = optimize(build_subspace(OutcomeSet(members=members), well.sector_hamiltonian))
        assert opt.energy <= previous + 1e-12
        previous = opt.energy


def test_optimize_diagonal_example():
    sub = SubspaceHamiltonian(
        basis=OutcomeSet(members=(1, 2, 3)),
        matrix=np.diag([2.0, 1.0, 3.0]),
    )
    opt = optimize(sub)
    assert opt.energy == 1.0
    assert np.allclose(opt.theta, [0, 1, 0])


def test_rayleigh_consistency_and_gauge(well):
    outcomes = OutcomeSet(members=TABLE_STATES)
    sub = build_subspace(outcomes, well.sector_hamiltonian)
    opt = optimize(sub)
    rayleigh = float(np.real(opt.theta.conj() @ sub.matrix @ opt.theta))
    assert rayleigh == pytest.approx(opt.energy, abs=1e-10)
    first = next(v for v in opt.theta if abs(v) > 1e-12)
    assert first.real > 0 and abs(first.imag) < 1e-12
    assert np.linalg.norm(opt.theta) == pytest.approx(1.0, abs=1e-12)


def test_optimize_empty_raises():
    sub = SubspaceHamiltonian(
        basis=OutcomeSet(members=()), matrix=np.zeros((0, 0))
    )
    with pytest.raises(EmptySubspaceError):
        optimize(sub)


def test_embed_examples():
    single = embed_optimized(np.array([1.0]), OutcomeSet(members=(7,)), 8)
    assert single.amplitudes[7] == 1.0
    pair = embed_optimized(
        np.array([1.0, 1.0]) / np.sqrt(2), OutcomeSet(members=(0, 3)), 2
    )
    assert pair.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert pair.amplitudes[3] == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        embed_optimized(np.array([1.0, 1.0]), OutcomeSet(members=(0, 3)), 2)


def test_optimized_state_close_to_ground_distribution(well):
    """Moderate staircase, plenty of shots: pOD recovers pGndD closely."""
    psi = prepare_guiding(
        well.h0_pauli, well.h_pauli, build_schedule(20, 2.0), 7, TrotterConfig()
    )
    counts = sample(psi, 10**5, seed=77)
    outcomes = collect_outcomes(counts, 1)
    opt = optimize(determinant_hamiltonian(outcomes, well.sq))
    p_od = probabilities(embed_optimized(opt.theta, outcomes, 8))
    keys = set(p_od.probs) | set(well.ground.probs)
    tv = 0.5 * sum(
        abs(p_od.probability(n) - well.ground.probability(n)) for n in keys
    )
    assert tv < 0.01
