import itertools

import numpy as np
import pytest
import scipy.linalg

from cvqelab import scf as scf_module
from cvqelab.fci import enumerate_sector
from cvqelab.fermion import DegenerateGapWarning, model_gap, model_pauli
from cvqelab.geometry import load_geometry, parse_geometry
from cvqelab.integrals import IntegralSet, compute_integrals
from cvqelab.pauli import to_dense
from cvqelab.scf import (
    ConvergenceError,
    MissingCorrectionError,
    MOIntegrals,
    SCFResult,
    load_hf_energy_table,
    lookup_external_hf,
    run_scf,
    transform_to_mo,
)

from conftest import (
    _reference_assign_by_overlap,
    _reference_diis_extrapolate,
    random_cluster,
    reference_model_gap,
    reference_pattern_outcomes,
    reference_run_scf,
)

# An H4+ cluster (Angstrom) on which one occupation pattern runs into
# MAX_ITERATIONS while the others converge after 10 to 144 iterations.
STALLING_CLUSTER = """\
H -0.0615768568 1.2494207625 0.0716348080
H -0.9399779923 1.5520459015 -0.0916898103
H -0.2005458413 -1.3655249698 -0.2228497862
H 1.5323421062 -0.2121344637 0.8885355300"""


def rohf_energy_expression(mo: MOIntegrals, n_alpha: int, n_beta: int) -> float:
    """Independent HF energy re-evaluation from MO integrals (oracle)."""
    occ_a = range(n_alpha)
    occ_b = range(n_beta)
    e = mo.e_nuc
    e += sum(mo.h_mo[i, i] for i in occ_a) + sum(mo.h_mo[i, i] for i in occ_b)
    for i, j in itertools.combinations(occ_a, 2):
        e += mo.g_mo[i, i, j, j] - mo.g_mo[i, j, j, i]
    for i, j in itertools.combinations(occ_b, 2):
        e += mo.g_mo[i, i, j, j] - mo.g_mo[i, j, j, i]
    for i in occ_a:
        for j in occ_b:
            e += mo.g_mo[i, i, j, j]
    return float(e)


def test_h2_rhf(h2_system):
    _, integrals, scf = h2_system
    assert scf.e_hf == pytest.approx(-1.125, abs=5e-3)
    # orthonormality C^T S C = 1
    gram = scf.mo_coeffs.T @ integrals.overlap @ scf.mo_coeffs
    assert np.allclose(gram, np.eye(2), atol=1e-8)
    assert np.all(np.diff(scf.orbital_energies) > -1e-12)


def test_h_atom_one_electron_exact():
    integrals = compute_integrals(parse_geometry("H 0 0 0"))
    scf = run_scf(integrals, 1, 0)
    assert scf.e_hf == pytest.approx(integrals.core[0, 0], abs=1e-12)
    assert scf.iterations <= 2
    assert scf.e_hf == pytest.approx(-0.471039, abs=2e-4)


def test_well_rohf_stationarity(well):
    scf = well.scf
    integrals = well.integrals
    # recompute the Roothaan commutator from the returned orbitals
    c = scf.mo_coeffs
    d_a = c[:, :2] @ c[:, :2].T
    d_b = c[:, :1] @ c[:, :1].T
    d_t = d_a + d_b
    j_t = np.einsum("pqrs,rs->pq", integrals.eri, d_t)
    k_a = np.einsum("prqs,rs->pq", integrals.eri, d_a)
    k_b = np.einsum("prqs,rs->pq", integrals.eri, d_b)
    f_a = integrals.core + j_t - k_a
    f_b = integrals.core + j_t - k_b
    fa_mo, fb_mo = c.T @ f_a @ c, c.T @ f_b @ c
    f_mo = 0.5 * (fa_mo + fb_mo)
    f_mo[0:1, 1:2] = fb_mo[0:1, 1:2]
    f_mo[1:2, 0:1] = fb_mo[1:2, 0:1]
    f_mo[1:2, 2:] = fa_mo[1:2, 2:]
    f_mo[2:, 1:2] = fa_mo[2:, 1:2]
    s = integrals.overlap
    sc = s @ c
    f_eff = sc @ f_mo @ sc.T
    comm = f_eff @ d_t @ s - s @ d_t @ f_eff
    assert np.linalg.norm(comm) < 1e-6


def test_reactant_finds_fragment_ground():
    """The separated H2 + H2+ complex: lowest solution matches fragment sum."""
    integrals = compute_integrals(load_geometry("reactant"))
    scf = run_scf(integrals, 2, 1)
    e_h2 = run_scf(
        compute_integrals(
            parse_geometry("H -0.370880024809 -1 0\nH 0.370880024809 -1 0")
        ),
        1, 1,
    ).e_hf
    e_h2p = run_scf(
        compute_integrals(
            parse_geometry("H 0 8.528398637950 0\nH 0 7.471601362050 0")
        ),
        1, 0,
    ).e_hf
    # fragments 7.5+ Angstrom apart: interaction is tiny but attractive
    assert scf.e_hf < e_h2 + e_h2p + 1e-8
    assert scf.e_hf == pytest.approx(e_h2 + e_h2p, abs=2e-4)


def test_scf_bit_identical_to_per_pattern_reference(well):
    """The lockstep pattern stack, the work shared across patterns and the
    DIIS B block rebuilt from the error window change no bit, also with no
    doubly occupied orbital (H and H2+ at (1, 0))."""
    stalling = compute_integrals(parse_geometry(STALLING_CLUSTER))
    cases = [(well.integrals, 2, 1), (stalling, 2, 1)]
    cases += [(compute_integrals(load_geometry(label)), 2, 1) for label in ("reactant", "product")]
    rng = np.random.default_rng(1618)
    cases += [(compute_integrals(parse_geometry(random_cluster(rng, 4))), 2, 1) for _ in range(4)]
    for text in ("H 0 0 0", "H 0 0 0\nH 0 0 1.06"):
        cases.append((compute_integrals(parse_geometry(text)), 1, 0))
    # the cases cover a shrinking stack and a pattern that never converges
    well_iterations = {o.iterations for o in reference_pattern_outcomes(well.integrals, 2, 1)}
    assert len(well_iterations) > 1
    stalling_outcomes = reference_pattern_outcomes(stalling, 2, 1)
    assert any(isinstance(o, ConvergenceError) for o in stalling_outcomes)
    assert not all(isinstance(o, ConvergenceError) for o in stalling_outcomes)
    for integrals, n_alpha, n_beta in cases:
        got = run_scf(integrals, n_alpha, n_beta)
        ref = reference_run_scf(integrals, n_alpha, n_beta)
        assert got.e_hf == ref.e_hf
        assert np.array_equal(got.mo_coeffs, ref.mo_coeffs)
        assert np.array_equal(got.orbital_energies, ref.orbital_energies)
        assert got.iterations == ref.iterations


def test_scf_all_patterns_fail_like_reference(well, monkeypatch):
    """When no pattern converges, the error is the last pattern's, as in the reference."""
    monkeypatch.setattr(scf_module, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError) as got:
        run_scf(well.integrals, 2, 1)
    with pytest.raises(ConvergenceError) as ref:
        reference_run_scf(well.integrals, 2, 1)
    assert got.value.iterations == ref.value.iterations == 2
    assert got.value.last_delta == ref.value.last_delta


def test_diis_singular_pattern_falls_back_alone():
    """A singular B matrix in one stacked pattern gives that pattern its latest
    Fock matrix; every other pattern is extrapolated as on its own."""
    rng = np.random.default_rng(5)
    focks = rng.normal(size=(4, 5, 3, 3))
    errors = rng.normal(size=(4, 5, 3, 3))
    errors[2] = errors[2, 0]  # equal error vectors: pattern 2's B matrix is singular
    got = scf_module._diis_extrapolate(focks, errors)
    for i in range(4):
        ref = _reference_diis_extrapolate(list(focks[i]), list(errors[i]))
        assert np.array_equal(got[i], ref)
    assert np.array_equal(got[2], focks[2, -1])
    assert not np.array_equal(got[1], focks[1, -1])


def test_generalized_eigh_is_scipy_eigh_per_pattern():
    """Same bits as scipy.linalg.eigh(f, s), which reads f's lower triangle,
    and the same errors for a non-finite f or an indefinite s."""
    rng = np.random.default_rng(2)
    f = rng.normal(size=(3, 4, 4))  # not symmetric: only the lower triangle counts
    b = rng.normal(size=(4, 4))
    s = b @ b.T + 4.0 * np.eye(4)
    eps, vecs = scf_module._generalized_eigh(f, s)
    for i in range(3):
        w, v = scipy.linalg.eigh(f[i], s)
        assert np.array_equal(eps[i], w)
        assert np.array_equal(vecs[i], v)
    with pytest.raises(np.linalg.LinAlgError):
        scf_module._generalized_eigh(f, np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        scf_module._generalized_eigh(np.full((1, 4, 4), np.nan), s)


@pytest.mark.parametrize("n_docc, n_socc", [(1, 1), (2, 1), (1, 2), (0, 1)])
def test_assign_by_overlap_matches_per_pattern_picks_on_ties(n_docc, n_socc):
    """The stacked occupation pick breaks ties in overlap weight and in orbital
    energy exactly as the single-pattern pick does."""
    rng = np.random.default_rng(11)
    n, n_occ, n_pat = 5, n_docc + n_socc, 64
    s = np.eye(n)
    # signed permutations against 0/1 columns: weights tie at 0, 1, sqrt(2), ...
    c_new = np.stack(
        [np.eye(n)[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n) for _ in range(n_pat)]
    )
    c_prev = rng.integers(0, 2, size=(n_pat, n, n)).astype(float)
    eps = np.sort(rng.choice([-1.0, -0.5, 0.0, 0.5], size=(n_pat, n)), axis=1)
    got = scf_module._assign_by_overlap(c_new, eps, s, c_prev, n_docc, n_socc)
    for i in range(n_pat):
        blocks = _reference_assign_by_overlap(
            c_new[i], eps[i], s, c_prev[i, :, :n_docc], c_prev[i, :, n_docc:n_occ],
            n_docc, n_socc,
        )
        assert np.array_equal(got[i], np.hstack(blocks))


def test_precondition_errors(h2_system):
    integrals = compute_integrals(parse_geometry("H 0 0 0"))
    with pytest.raises(ValueError):
        run_scf(integrals, 0, 1)
    with pytest.raises(ValueError):
        run_scf(integrals, 2, 1)  # 3 electrons in 2 spin orbitals
    _, h2_integrals, _ = h2_system
    with pytest.raises(ValueError, match="exceed 2 spatial orbitals"):
        run_scf(h2_integrals, 3, 0)  # 3 electrons fit 4 spin orbitals, not 2 alpha ones


def test_transform_identity_on_orthonormal_fixture():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 3))
    h = 0.5 * (h + h.T)
    g = rng.normal(size=(3, 3, 3, 3))
    # symmetrize to full 8-fold
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    integrals = IntegralSet(n_ao=3, overlap=np.eye(3), core=h, eri=g, e_nuc=0.5)
    from cvqelab.scf import SCFResult

    scf = SCFResult(
        mo_coeffs=np.eye(3),
        orbital_energies=np.zeros(3),
        e_hf=0.0,
        n_alpha=1,
        n_beta=1,
        iterations=1,
    )
    mo = transform_to_mo(integrals, scf)
    assert np.allclose(mo.h_mo, h, atol=1e-14)
    assert np.allclose(mo.g_mo, g, atol=1e-14)


def test_transform_hf_energy_oracle(h2_system):
    _, integrals, scf = h2_system
    mo = transform_to_mo(integrals, scf)
    assert rohf_energy_expression(mo, 1, 1) == pytest.approx(scf.e_hf, abs=1e-8)


def test_transform_well_hf_energy_oracle(well):
    mo = transform_to_mo(well.integrals, well.scf)
    assert rohf_energy_expression(mo, 2, 1) == pytest.approx(well.scf.e_hf, abs=1e-8)


def test_transform_preserves_eri_symmetry_random_orthogonal():
    rng = np.random.default_rng(7)
    geom = parse_geometry("H 0 0 0\nH 0 0 1.1")
    integrals = compute_integrals(geom)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    from cvqelab.scf import SCFResult

    # random orthogonal mixing of symmetrically orthogonalized AOs
    import scipy.linalg

    x = scipy.linalg.fractional_matrix_power(integrals.overlap, -0.5).real
    scf = SCFResult(
        mo_coeffs=x @ q,
        orbital_energies=np.zeros(2),
        e_hf=0.0,
        n_alpha=1,
        n_beta=1,
        iterations=1,
    )
    g = transform_to_mo(integrals, scf).g_mo
    for p, q_, r, s in itertools.product(range(2), repeat=4):
        base = g[p, q_, r, s]
        for a, b, c, d in (
            (q_, p, r, s), (p, q_, s, r), (q_, p, s, r),
            (r, s, p, q_), (s, r, p, q_), (r, s, q_, p), (s, r, q_, p),
        ):
            assert abs(g[a, b, c, d] - base) < 1e-10


def orbital_model(eps: np.ndarray, n_alpha: int, n_beta: int) -> SCFResult:
    """SCF result carrying only the orbital energies and electron counts."""
    n = len(eps)
    return SCFResult(np.eye(n), eps, -1.0, n_alpha, n_beta, 1)


def test_model_hamiltonian_shift_and_gap(well):
    # the shift is the model's vacuum energy
    shift = to_dense(well.h0_pauli)[0, 0].real
    occupied = 2 * well.scf.orbital_energies[0] + well.scf.orbital_energies[1]
    assert occupied + shift == pytest.approx(well.scf.e_hf, abs=1e-10)
    # gap equals the smallest sector-conserving promotion for aufbau fillings
    eps = well.scf.orbital_energies
    promotions = [eps[a] - eps[i] for i in (0, 1) for a in (2, 3)]
    promotions += [eps[a] - eps[0] for a in (1, 2, 3)]
    assert well.omega0 == pytest.approx(min(promotions), abs=1e-12)


def test_model_gap_synthetic_enumeration():
    eps = np.array([-1.0, -0.5, 0.3])
    for (n_alpha, n_beta), gap in (((2, 0), 0.8), ((1, 1), 0.5)):
        sector = enumerate_sector(6, n_alpha, n_beta).determinants
        assert model_gap(orbital_model(eps, n_alpha, n_beta), sector) == pytest.approx(gap, abs=1e-12)
        assert reference_model_gap(eps, n_alpha, n_beta) == pytest.approx(gap, abs=1e-12)


def test_model_gap_one_electron_exact():
    integrals = compute_integrals(parse_geometry("H 0 0 0\nH 0 0 1.0"))
    scf = run_scf(integrals, 1, 0)
    # spin orbital 0 alone occupied: eps_spin[0] + shift
    assert to_dense(model_pauli(scf))[1, 1].real == pytest.approx(scf.e_hf, abs=1e-12)


def test_degenerate_gap_warning():
    scf = orbital_model(np.array([-0.5, -0.5]), 1, 0)
    with pytest.warns(DegenerateGapWarning):
        model_gap(scf, enumerate_sector(4, 1, 0).determinants)


def test_hf_energy_table(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"well": -1.7456}')
    table = load_hf_energy_table(path)
    assert lookup_external_hf(table, "well") == -1.7456
    with pytest.raises(MissingCorrectionError):
        lookup_external_hf(table, "reactant")
