import tracemalloc

import numpy as np
import pytest

from cvqelab.fermion import hf_fock_index, jordan_wigner, model_pauli, second_quantize
from cvqelab.geometry import parse_geometry
from cvqelab.integrals import compute_integrals
from cvqelab.pauli import to_dense
from cvqelab.prep import (
    TERM_ORDERS,
    PrepSchedule,
    TrotterConfig,
    build_schedule,
    check_conditions,
    circuit_stats,
    prepare_guiding,
    prepare_trapezoidal,
)
from cvqelab.scf import model_hamiltonian, run_scf, transform_to_mo
from cvqelab.statevector import StateVector, expectation, init_fock, probabilities

from conftest import (
    apply_pauli_rotation,
    from_labels,
    ordered_terms,
    reference_interpolate,
    reference_prepare_trapezoidal,
    reference_prune,
)

# six hydrogens on a line 0.9 Angstrom apart: H6+ doublet, 12 qubits
H6_CHAIN = """\
H 0 0 0.0
H 0 0 0.9
H 0 0 1.8
H 0 0 2.7
H 0 0 3.6
H 0 0 4.5"""

TROTTER_CASES = ({}, {"prune_threshold": 0.02, "drop_diagonal": True})


def full_register_trapezoidal(h0, h, schedule, phi0):
    """Reference staircase: per-step eigh of the full 2^Q matrix."""
    h0_dense, h_dense = to_dense(h0), to_dense(h)
    amp = init_fock(phi0, h.n_qubits).amplitudes
    for eta, scale in schedule.steps:
        evals, evecs = np.linalg.eigh((1.0 - eta) * h0_dense + eta * h_dense)
        amp = evecs @ (np.exp(-1j * scale * evals) * (evecs.conj().T @ amp))
    return amp


def per_step_guiding(h0, h, schedule, phi0, trotter):
    """Reference staircase: rebuild, prune and order each step's PauliSum."""
    state = init_fock(phi0, h.n_qubits)
    identity = "I" * h.n_qubits
    for eta, scale in schedule.steps:
        step_h = reference_prune(
            reference_interpolate(h0, h, eta), trotter.prune_threshold, trotter.drop_diagonal
        )
        for string, coeff in ordered_terms(step_h, trotter.term_order):
            angle = coeff * scale
            if string == identity:
                state = StateVector(np.exp(-1j * angle) * state.amplitudes, state.n_qubits)
            else:
                state = apply_pauli_rotation(state, string, angle)
    return state.amplitudes


def per_step_circuit_stats(h0, h, schedule, trotter):
    """Reference count over each step's rebuilt, pruned PauliSum."""
    per_step, cnots = [], 0
    for eta, _scale in schedule.steps:
        step_h = reference_interpolate(h0, h, eta)
        step_h = reference_prune(step_h, trotter.prune_threshold, trotter.drop_diagonal)
        weights = [w for w in (len(s) - s.count("I") for s in step_h.labels()) if w > 0]
        per_step.append(len(weights))
        cnots += sum(2 * (w - 1) for w in weights)
    rotations = sum(per_step)
    return (tuple(per_step), rotations, cnots, rotations + cnots)


def test_schedule_single_step():
    sched = build_schedule(1, 2.0)
    assert sched.steps == ((1.0, 0.25),)


def test_schedule_two_steps():
    sched = build_schedule(2, 1.0)
    assert sched.steps == ((0.5, 1.0), (1.0, 0.5))


def test_schedule_five_step_staircase():
    sched = build_schedule(5, 4.0)
    etas = [eta for eta, _ in sched.steps]
    assert etas == [1 / 5, 2 / 5, 3 / 5, 4 / 5, 1.0]
    scales = [s for _, s in sched.steps]
    assert scales == [0.25, 0.25, 0.25, 0.25, 0.125]


def test_schedule_domain_errors():
    with pytest.raises(ValueError):
        build_schedule(0, 1.0)
    with pytest.raises(ValueError):
        build_schedule(3, -1.0)


def test_vanishing_evolution_returns_start(well):
    sched = build_schedule(3, 1e9)
    psi = prepare_trapezoidal(well.h0_pauli, well.h_pauli, sched, 7)
    target = init_fock(7, 8)
    overlap = abs(np.vdot(target.amplitudes, psi.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_commuting_hamiltonian_trotter_is_exact():
    # diagonal sums commute term by term, so the split product is exact
    h0 = from_labels({"ZI": 0.3, "II": 0.1})
    h1 = from_labels({"IZ": -0.8, "ZZ": 0.45, "II": -0.2})
    sched = build_schedule(4, 0.9)
    # superposition start exposes relative phases
    start = 0
    psi_t = prepare_trapezoidal(h0, h1, sched, start)
    psi_g = prepare_guiding(h0, h1, sched, start, TrotterConfig())
    assert np.max(np.abs(psi_t.amplitudes - psi_g.amplitudes)) < 1e-10


def test_small_staircase_behaves(well):
    sched = build_schedule(20, 2.0)
    psi_t = prepare_trapezoidal(well.h0_pauli, well.h_pauli, sched, 7)
    psi_g = prepare_guiding(well.h0_pauli, well.h_pauli, sched, 7, TrotterConfig())
    e_t = expectation(psi_t, well.h_pauli)
    e_g = expectation(psi_g, well.h_pauli)
    e_hf = well.scf.e_hf
    e_fci = well.fci.energy
    assert e_fci - 1e-10 <= e_t < e_hf
    assert e_fci - 1e-10 <= e_g < e_hf
    assert abs(e_t - e_fci) < abs(e_g - e_fci)


def test_trotter_error_quadratic_in_inverse_scale(well):
    """Guiding-vs-trapezoidal distance drops 4x when hbar_omega doubles."""
    distances = {}
    for omega in (4.0, 8.0):
        sched = build_schedule(1, omega)
        psi_t = prepare_trapezoidal(well.h0_pauli, well.h_pauli, sched, 7)
        psi_g = prepare_guiding(well.h0_pauli, well.h_pauli, sched, 7, TrotterConfig())
        distances[omega] = np.linalg.norm(psi_t.amplitudes - psi_g.amplitudes)
    ratio = distances[4.0] / distances[8.0]
    assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


def test_step_order_is_a_regression_canary(well):
    sched = build_schedule(3, 1.0)
    reversed_sched = PrepSchedule(steps=tuple(reversed(sched.steps)))
    psi = prepare_trapezoidal(well.h0_pauli, well.h_pauli, sched, 7)
    psi_rev = prepare_trapezoidal(well.h0_pauli, well.h_pauli, reversed_sched, 7)
    assert np.linalg.norm(psi.amplitudes - psi_rev.amplitudes) > 1e-6


def test_reinstating_model_half_step_is_global_phase(well):
    sched = build_schedule(3, 1.5)
    with_model_half = PrepSchedule(steps=((0.0, 1 / 3.0),) + sched.steps)
    p1 = probabilities(prepare_trapezoidal(well.h0_pauli, well.h_pauli, sched, 7))
    p2 = probabilities(
        prepare_trapezoidal(well.h0_pauli, well.h_pauli, with_model_half, 7)
    )
    keys = set(p1.probs) | set(p2.probs)
    tv = 0.5 * sum(abs(p1.probability(n) - p2.probability(n)) for n in keys)
    assert tv < 1e-12


def test_term_orders_all_run(well):
    sched = build_schedule(1, 1.0)
    for order in ("magnitude_desc", "magnitude_asc", "canonical", "canonical_reversed"):
        psi = prepare_guiding(
            well.h0_pauli, well.h_pauli, sched, 7, TrotterConfig(term_order=order)
        )
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-10
    with pytest.raises(ValueError):
        TrotterConfig(term_order="random")


def test_ordered_terms_magnitude_desc(well):
    items = ordered_terms(well.h_pauli, "magnitude_desc")
    mags = [abs(c) for _, c in items]
    assert mags == sorted(mags, reverse=True)


def test_check_conditions_regimes():
    # adiabatic regime: both ratios comfortably under the margin
    rep = check_conditions(500, 10.0, 2.387)
    assert rep.left_ratio == pytest.approx(0.02 / 2.387, rel=1e-12)
    assert rep.right_ratio == pytest.approx(0.2387, rel=1e-12)
    assert rep.left_satisfied and rep.right_satisfied

    # single step at unit scale: right condition clearly violated
    rep = check_conditions(1, 1.0, 2.387)
    assert rep.right_ratio > 1.0
    assert not rep.right_satisfied

    # deep staircase at unit scale: left fine, right above the margin
    rep = check_conditions(1000, 1.0, 2.387)
    assert rep.left_satisfied
    assert not rep.right_satisfied

    with pytest.raises(ValueError):
        check_conditions(0, 1.0, 1.0)


def test_check_conditions_never_blocks(well):
    rep = check_conditions(1, 0.01, well.model.omega0)
    assert rep.right_ratio > 1.0  # report only, no exception


def test_circuit_stats_empty_and_single_term():
    empty = from_labels({}, 2)
    sched = build_schedule(1, 1.0)
    stats = circuit_stats(empty, empty, sched, TrotterConfig())
    assert stats.total_rotations == 0 and stats.cnot_estimate == 0

    # at K = 1 the only step is eta = 1, where h0 drops out
    h0 = from_labels({"ZI": 0.3, "II": 0.1})
    two_qubit = from_labels({"XX": 0.5})
    stats = circuit_stats(h0, two_qubit, sched, TrotterConfig())
    assert stats.total_rotations == 1
    assert stats.cnot_estimate == 2
    assert stats.depth_proxy == 3


def test_circuit_stats_well_pruned(well):
    sched = build_schedule(1, 1.0)
    trotter = TrotterConfig(prune_threshold=0.02, drop_diagonal=True)
    stats = circuit_stats(well.h0_pauli, well.h_pauli, sched, trotter)
    full = circuit_stats(well.h0_pauli, well.h_pauli, sched, TrotterConfig())
    assert 0 < stats.total_rotations < full.total_rotations
    assert 0 < stats.cnot_estimate < full.cnot_estimate
    assert stats.term_count_per_step == (stats.total_rotations,)


def test_circuit_stats_interpolated_steps(well):
    sched = build_schedule(5, 1.0)
    stats = circuit_stats(well.h0_pauli, well.h_pauli, sched, TrotterConfig(prune_threshold=0.02))
    assert len(stats.term_count_per_step) == 5
    # early steps are closer to the diagonal model: fewer surviving terms
    assert stats.term_count_per_step[0] <= stats.term_count_per_step[-1]


@pytest.mark.parametrize("hbar_omega", [1.0, 10.0])
def test_trapezoidal_matches_full_register_reference(well, hbar_omega):
    sched = build_schedule(20, hbar_omega)
    psi = prepare_trapezoidal(well.h0_pauli, well.h_pauli, sched, 7)
    reference = full_register_trapezoidal(well.h0_pauli, well.h_pauli, sched, 7)
    assert np.max(np.abs(psi.amplitudes - reference)) <= 1e-12


@pytest.mark.parametrize("order", TERM_ORDERS)
@pytest.mark.parametrize("pruning", TROTTER_CASES)
def test_guiding_matches_per_step_reference(well, order, pruning):
    trotter = TrotterConfig(term_order=order, **pruning)
    sched = build_schedule(5, 1.0)
    psi = prepare_guiding(well.h0_pauli, well.h_pauli, sched, 7, trotter)
    reference = per_step_guiding(well.h0_pauli, well.h_pauli, sched, 7, trotter)
    assert np.array_equal(psi.amplitudes, reference)


@pytest.mark.parametrize("pruning", TROTTER_CASES)
def test_circuit_stats_matches_per_step_count(well, pruning):
    trotter = TrotterConfig(**pruning)
    sched = build_schedule(5, 1.0)
    stats = circuit_stats(well.h0_pauli, well.h_pauli, sched, trotter)
    got = (stats.term_count_per_step, stats.total_rotations, stats.cnot_estimate, stats.depth_proxy)
    assert got == per_step_circuit_stats(well.h0_pauli, well.h_pauli, sched, trotter)


def test_staircase_floors_each_interpolated_operand():
    """(1 - eta) h0 and eta h lose their sub-COEFF_FLOOR terms before the sum."""
    h0 = from_labels({"II": 0.1, "ZI": 1.5e-12, "XY": 3.0e-12})
    h = from_labels({"ZI": 0.3, "XX": 0.2, "XY": 1.0e-12})
    sched = build_schedule(2, 1.0)
    for order in TERM_ORDERS:
        trotter = TrotterConfig(term_order=order)
        psi = prepare_guiding(h0, h, sched, 1, trotter)
        assert np.array_equal(psi.amplitudes, per_step_guiding(h0, h, sched, 1, trotter))
    stats = circuit_stats(h0, h, sched, TrotterConfig())
    got = (stats.term_count_per_step, stats.total_rotations, stats.cnot_estimate, stats.depth_proxy)
    assert got == per_step_circuit_stats(h0, h, sched, TrotterConfig())


def test_trapezoidal_bit_identical_to_dense_reference(h4_hamiltonians):
    """The flip-mask walk finds the dense fixed point's sector and blocks."""
    cases = [(label, K, 1.0) for label in h4_hamiltonians for K in (1, 20)]
    cases.append(("well", 500, 10.0))
    for label, K, hbar_omega in cases:
        h0, h, phi0 = h4_hamiltonians[label]
        schedule = build_schedule(K, hbar_omega)
        psi = prepare_trapezoidal(h0, h, schedule, phi0)
        reference = reference_prepare_trapezoidal(h0, h, schedule, phi0)
        assert psi.amplitudes.tobytes() == reference.tobytes(), (label, K)


def test_trapezoidal_rejects_fock_index_outside_register(well):
    schedule = build_schedule(1, 1.0)
    for phi0 in (-1, 256):
        with pytest.raises(ValueError):
            prepare_trapezoidal(well.h0_pauli, well.h_pauli, schedule, phi0)


def test_trapezoidal_h6_chain_memory_guard():
    """The 12-qubit staircase holds flip-mask rows and 150 x 150 blocks, never
    a 4096 x 4096 matrix (a dense sector search peaks near 672 MB)."""
    integrals = compute_integrals(parse_geometry(H6_CHAIN, label="h6_chain"))
    scf = run_scf(integrals, 3, 2)
    h = jordan_wigner(second_quantize(transform_to_mo(integrals, scf)))
    h0 = model_pauli(model_hamiltonian(scf))
    tracemalloc.start()
    try:
        psi = prepare_trapezoidal(h0, h, build_schedule(2, 1.0), hf_fock_index(3, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 20
    support = np.flatnonzero(psi.amplitudes)
    assert len(support) == 150
    up = [bin(n & 0x555).count("1") for n in support.tolist()]
    down = [bin(n & 0xAAA).count("1") for n in support.tolist()]
    assert set(zip(up, down)) == {(3, 2)}
