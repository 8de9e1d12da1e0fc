import dataclasses
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

from conftest import reference_model_gap, reference_run_scf, rohf_energy_expression

# cluster_scan corpus clusters (perfbench CORPUS_SEED 4; Angstrom).  On 9, 12,
# 14, 16, 18 and 31 the DIIS reference stops at a saddle point or a higher
# minimum, and its e_hf jumps under a 2e-16 relative nudge of the integrals;
# on 14 and 23 one of its patterns runs into MAX_ITERATIONS.
CORPUS_CLUSTERS = {
    9: """\
H -1.0144614207 -0.6885996723 -0.6657893685
H -0.2709822623 1.3027643178 1.0001268159
H 1.0291308376 0.4196795618 -1.5737157749
H -0.6843742276 0.0057580886 1.2750552006""",
    12: """\
H 1.0607141344 1.5601348148 0.6582307347
H 1.0711215350 -0.3462843822 0.8022937544
H -0.3691368536 1.3755087810 0.8752097050
H -0.3858963458 0.9095037411 -1.3871628895""",
    14: """\
H 1.3856591372 -1.5373360802 1.4884505955
H -1.0611801468 1.0864729549 -0.6454695653
H -0.3415960110 -1.1757868126 -1.4802162757
H 0.8070191660 0.7875445193 -1.2047836873""",
    16: """\
H 1.3127418349 0.0120224899 1.3297745614
H 0.6356923939 0.7490543255 1.4431222775
H -1.2615293989 1.1854576333 -0.6644378519
H 1.0280947150 -0.8833824142 -0.1004531212""",
    18: """\
H -0.5993378460 0.0963724981 1.4093287826
H 1.3585793478 -0.7980474208 -0.7808223545
H -0.7914555981 0.4015946359 -0.9777487673
H 0.6568488452 -0.5768462202 1.0810293148""",
    23: """\
H -0.0615768568 1.2494207625 0.0716348080
H -0.9399779923 1.5520459015 -0.0916898103
H -0.2005458413 -1.3655249698 -0.2228497862
H 1.5323421062 -0.2121344637 0.8885355300""",
    31: """\
H -0.4503315348 1.3597730324 1.4125834345
H -1.4099064619 0.2696613460 -0.9661248826
H 0.4865573081 1.5169908377 -1.1412066795
H -0.3643366774 -0.5070693967 0.6708310184""",
}


def corpus_integrals(index: int) -> IntegralSet:
    return compute_integrals(parse_geometry(CORPUS_CLUSTERS[index]))


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


def test_scf_never_above_per_pattern_reference(well):
    """run_scf reports no higher energy than the occupation-locked DIIS
    reference, and the same energy where the reference already finds the
    lowest minimum: the built-ins, H2 at (1, 1), and H and H2+ at (1, 0) with
    no doubly occupied orbital (H has no orbital pair to rotate at all)."""
    same = [(well.integrals, 2, 1)]
    same += [(compute_integrals(load_geometry(label)), 2, 1) for label in ("reactant", "product")]
    for text, n_alpha, n_beta in (
        ("H 0 0 0\nH 0 0 0.741760049618", 1, 1), ("H 0 0 0", 1, 0), ("H 0 0 0\nH 0 0 1.06", 1, 0),
    ):
        same.append((compute_integrals(parse_geometry(text)), n_alpha, n_beta))
    for integrals, n_alpha, n_beta in same:
        got = run_scf(integrals, n_alpha, n_beta).e_hf
        assert got == pytest.approx(reference_run_scf(integrals, n_alpha, n_beta).e_hf, abs=1e-12)
    for index in (9, 14, 23):
        integrals = corpus_integrals(index)
        assert run_scf(integrals, 2, 1).e_hf <= reference_run_scf(integrals, 2, 1).e_hf + 1e-12


def _energy_at(integrals: IntegralSet, c: np.ndarray, n_alpha: int, n_beta: int) -> float:
    """ROHF energy of the aufbau filling of orbitals c, from an MO transform
    of its own and conftest.rohf_energy_expression."""
    g_mo = np.einsum("pqrs,pi,qj,rk,sl->ijkl", integrals.eri, c, c, c, c, optimize=True)
    mo = MOIntegrals(c.T @ integrals.core @ c, g_mo, integrals.e_nuc, c.shape[1])
    return rohf_energy_expression(mo, n_alpha, n_beta)


@pytest.mark.parametrize("label", ["well", "reactant", "product", 9, 12, 14, 16, 18, 31])
def test_scf_reports_a_minimum(label):
    """Rotating the reported orbitals by +-1e-3 rad in any non-redundant pair
    (docc-socc, docc-virt, socc-virt), or along random mixtures of those
    pairs, raises the energy: the solution is a local minimum, also on the
    corpus clusters where the DIIS reference stops at a saddle point."""
    if isinstance(label, int):
        integrals = corpus_integrals(label)
    else:
        integrals = compute_integrals(load_geometry(label))
    scf = run_scf(integrals, 2, 1)
    c = scf.mo_coeffs
    e0 = _energy_at(integrals, c, 2, 1)
    assert e0 == pytest.approx(scf.e_hf, abs=1e-12)
    occupation = np.array([2, 1, 0, 0])
    pairs = [(p, q) for p in range(4) for q in range(4) if occupation[p] > occupation[q]]
    for p, q in pairs:
        for angle in (1e-3, -1e-3):
            rotated = c.copy()
            rotated[:, p] = np.cos(angle) * c[:, p] + np.sin(angle) * c[:, q]
            rotated[:, q] = np.cos(angle) * c[:, q] - np.sin(angle) * c[:, p]
            assert _energy_at(integrals, rotated, 2, 1) > e0, (label, p, q, angle)
    rng = np.random.default_rng(27)
    for _ in range(8):
        kappa = np.zeros((4, 4))
        kappa[tuple(zip(*pairs))] = rng.normal(size=len(pairs))
        kappa = 1e-3 * (kappa - kappa.T) / np.linalg.norm(kappa)
        assert _energy_at(integrals, c @ scipy.linalg.expm(kappa), 2, 1) > e0, label


def test_scf_minimum_does_not_hinge_on_rounding():
    """A 2e-16 relative nudge of core and eri moves e_hf by at most 1e-12 on
    the corpus clusters where it moved the DIIS reference's e_hf by
    0.017-0.27 Ha."""
    for index in (9, 12, 14, 16, 18, 31):
        integrals = corpus_integrals(index)
        nudged = dataclasses.replace(
            integrals, core=integrals.core * (1 + 2e-16), eri=integrals.eri * (1 - 2e-16)
        )
        assert abs(run_scf(nudged, 2, 1).e_hf - run_scf(integrals, 2, 1).e_hf) <= 1e-12, index


def test_scf_all_patterns_fail_like_reference(well, monkeypatch):
    """When no seed reaches a minimum within MAX_ITERATIONS, run_scf raises
    ConvergenceError after MAX_ITERATIONS steps, as the reference does."""
    monkeypatch.setattr(scf_module, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError) as got:
        run_scf(well.integrals, 2, 1)
    with pytest.raises(ConvergenceError) as ref:
        reference_run_scf(well.integrals, 2, 1)
    assert got.value.iterations == ref.value.iterations == 2


def test_trust_step_minimizes_the_model_on_the_ball():
    """The step minimizes gam.s + sum(curv s^2) / 2 over |s| <= radius: the
    Newton step inside the region, a boundary step otherwise, and a step
    along the negative-curvature axis from a zero gradient (a seed sitting
    on a saddle point)."""
    curv = np.array(
        [[0.5, 1.0, 2.0], [0.5, 1.0, 2.0], [-0.3, 0.4, 1.0], [-0.3, 0.4, 1.0], [-1.0, 2.0, 3.0]]
    )
    gam = np.array([[0.1, 0.1, 0.1], [2.0, -1.0, 1.0], [0.2, -0.5, 0.3], [1e-9, 0.1, 0.0], [0.0] * 3])
    radius = np.array([0.5, 0.5, 0.5, 1.0, 0.5])
    sig, pred, bounded = scf_module._trust_step(curv, gam, radius)
    assert bounded.tolist() == [False, True, True, True, True]
    assert np.array_equal(sig[0], -gam[0] / curv[0])
    rng = np.random.default_rng(3)
    ball = rng.normal(size=(200_000, 3))
    ball *= rng.uniform(size=(len(ball), 1)) ** (1 / 3) / np.linalg.norm(ball, axis=1, keepdims=True)
    for i in range(len(curv)):
        def model(s):
            return s @ gam[i] + 0.5 * (s**2) @ curv[i]

        assert np.linalg.norm(sig[i]) <= radius[i] * (1 + 1e-12)
        assert pred[i] == pytest.approx(-model(sig[i]), rel=1e-12)
        assert model(sig[i]) <= model(radius[i] * ball).min() + 1e-12
    assert abs(sig[4, 0]) == pytest.approx(radius[4], rel=1e-12)


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
