import numpy as np
import pytest
import scipy.linalg

from cvqelab.pauli import to_dense
from cvqelab.prep import PrepSchedule, build_schedule, prepare_trapezoidal
from cvqelab.statevector import (
    Distribution,
    StateVector,
    expectation,
    init_fock,
    mix_noise,
    probabilities,
    rng_from_seed,
    sample,
    sample_distribution,
)

from conftest import (
    apply_pauli_rotation,
    from_labels,
    kron_dense,
    kron_oracle,
    random_sum,
    reference_prepare_trapezoidal,
)


def random_state(rng, n_qubits) -> StateVector:
    amp = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(amp / np.linalg.norm(amp), n_qubits)


def taylor_expm_apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """exp(mat) @ vec summed term by term to machine precision (oracle)."""
    out = vec.astype(complex).copy()
    term = vec.astype(complex).copy()
    for k in range(1, 200):
        term = mat @ term / k
        out = out + term
        if np.linalg.norm(term) < 1e-18:
            break
    return out


def test_init_fock():
    psi = init_fock(0, 8)
    assert psi.amplitudes[0] == 1.0 and np.linalg.norm(psi.amplitudes) == 1.0
    psi7 = init_fock(7, 8)
    assert psi7.amplitudes[7] == 1.0
    with pytest.raises(ValueError):
        init_fock(256, 8)


def test_rotation_z_is_global_phase_on_zero():
    psi = apply_pauli_rotation(init_fock(0, 1), "Z", 0.4)
    assert abs(psi.amplitudes[0] - np.exp(-1j * 0.4)) < 1e-14
    assert probabilities(psi).probability(0) == pytest.approx(1.0)


def test_rotation_x_quarter_turn():
    psi = apply_pauli_rotation(init_fock(0, 1), "X", np.pi / 2)
    assert abs(psi.amplitudes[1] + 1j) < 1e-14
    assert probabilities(psi).probability(1) == pytest.approx(1.0)


def test_rotation_matches_dense_exponential_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = random_state(rng, 3)
        string = "".join(rng.choice(("I", "X", "Y", "Z"), size=3))
        angle = float(rng.normal())
        rotated = apply_pauli_rotation(psi, string, angle)
        oracle = scipy.linalg.expm(-1j * angle * kron_oracle(string)) @ psi.amplitudes
        assert np.max(np.abs(rotated.amplitudes - oracle)) < 1e-12


def test_rotation_unitarity_and_norm():
    rng = np.random.default_rng(3)
    psi = random_state(rng, 4)
    current = psi
    strings = []
    angles = []
    for _ in range(30):
        s = "".join(rng.choice(("I", "X", "Y", "Z"), size=4))
        a = float(rng.normal())
        strings.append(s)
        angles.append(a)
        current = apply_pauli_rotation(current, s, a)
        assert abs(np.linalg.norm(current.amplitudes) - 1.0) < 1e-10
    for s, a in zip(reversed(strings), reversed(angles)):
        current = apply_pauli_rotation(current, s, -a)
    assert np.max(np.abs(current.amplitudes - psi.amplitudes)) < 1e-12


def test_exact_exponential_empty_and_diagonal():
    # K = 1 is a single half-step at eta = 1: exp(-i H / (2 hbar_omega))
    zero = from_labels({}, 1)
    psi = prepare_trapezoidal(zero, zero, build_schedule(1, 0.25), 1)
    assert np.array_equal(psi.amplitudes, init_fock(1, 1).amplitudes)
    z = from_labels({"Z": 1.0})
    rotated = prepare_trapezoidal(zero, z, build_schedule(1, 0.5 / np.pi), 1)
    assert abs(rotated.amplitudes[1] - np.exp(1j * np.pi)) < 1e-12
    assert rotated.amplitudes[0] == 0.0


def test_exact_exponential_taylor_oracle():
    """Non-conserving sums reach the whole register from a Fock start."""
    rng = np.random.default_rng(21)
    for n_qubits in (2, 3, 2, 3, 2):
        h0 = random_sum(rng, n_qubits, 4)
        h = random_sum(rng, n_qubits, 6)
        phi0 = int(rng.integers(1 << n_qubits))
        hbar_omega = float(rng.uniform(0.35, 5.0))
        moved = prepare_trapezoidal(h0, h, build_schedule(1, hbar_omega), phi0)
        reference = reference_prepare_trapezoidal(h0, h, build_schedule(1, hbar_omega), phi0)
        assert moved.amplitudes.tobytes() == reference.tobytes()
        oracle = taylor_expm_apply(
            -0.5j / hbar_omega * to_dense(h), init_fock(phi0, n_qubits).amplitudes
        )
        assert np.max(np.abs(moved.amplitudes - oracle)) < 1e-10


def test_probabilities():
    assert probabilities(init_fock(0, 2)).probs == {0: 1.0}
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1 / np.sqrt(2)
    dist = probabilities(StateVector(amp, 2))
    assert dist.probability(0) == pytest.approx(0.5)
    assert dist.probability(3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        probabilities(StateVector(np.array([0.5, 0.0]), 1))


def test_sample_point_mass_and_determinism():
    psi = init_fock(7, 8)
    counts = sample(psi, 1000, seed=42)
    assert counts.counts == {7: 1000}
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[1] = 1 / np.sqrt(2)
    psi = StateVector(amp, 2)
    c1 = sample(psi, 5000, seed=9)
    c2 = sample(psi, 5000, seed=9)
    c3 = sample(psi, 5000, seed=10)
    assert c1.counts == c2.counts
    assert c1.counts != c3.counts


def test_sample_binomial_moments():
    amp = np.zeros(2, dtype=complex)
    amp[:] = 1 / np.sqrt(2)
    counts = sample(StateVector(amp, 1), 10**6, seed=2718)
    sigma = 0.5 * np.sqrt(10**6)
    assert abs(counts.counts[0] - 5 * 10**5) < 5 * sigma
    assert abs(counts.counts[1] - 5 * 10**5) < 5 * sigma


def test_small_shot_budget_misses_rare_states(well):
    """States with probability below 1/shots are usually absent from samples."""
    from cvqelab.prep import TrotterConfig, build_schedule, prepare_guiding

    psi = prepare_guiding(
        well.h0_pauli, well.h_pauli, build_schedule(1, 1.0), 7, TrotterConfig()
    )
    counts = sample(psi, 1 << 10, seed=5)
    support = well.ground.support(1e-10)
    assert len(support - set(counts.counts)) > 0


def test_tv_scaling_with_shots(well):
    """Median TV distance over 20 seeds tracks shots^(-1/2) within 3x."""
    from cvqelab.prep import TrotterConfig, build_schedule, prepare_guiding

    psi = prepare_guiding(
        well.h0_pauli, well.h_pauli, build_schedule(1, 0.5), 7, TrotterConfig()
    )
    exact = probabilities(psi)
    medians = {}
    for shots in (10**3, 10**4, 10**5, 10**6):
        tvs = []
        for seed in range(20):
            emp = sample(psi, shots, seed=seed).empirical_distribution()
            keys = set(exact.probs) | set(emp.probs)
            tvs.append(
                0.5 * sum(abs(exact.probability(n) - emp.probability(n)) for n in keys)
            )
        medians[shots] = float(np.median(tvs))
    # normalize out the prefactor with the 10^3 anchor, then compare slopes
    anchor = medians[10**3] * np.sqrt(10**3)
    for shots, med in medians.items():
        predicted = anchor / np.sqrt(shots)
        assert predicted / 3 <= med <= predicted * 3


def test_mix_noise():
    point = Distribution(probs={7: 1.0}, label="pGD")
    assert mix_noise(point, 0.0, 8) is point
    uniform = mix_noise(point, 1.0, 8)
    assert uniform.probability(3) == pytest.approx(1 / 256)
    half = mix_noise(point, 0.5, 8)
    assert half.probability(7) == pytest.approx(0.5 + 1 / 512)
    assert half.probability(8) == pytest.approx(1 / 512)
    with pytest.raises(ValueError):
        mix_noise(point, 1.2, 8)


def test_sector_confinement(well):
    """Exponentials of number/Sz-conserving sums keep the HF sector exactly."""
    schedule = PrepSchedule(steps=((0.2, 0.35), (0.7, 0.35), (1.0, 0.35)))
    psi = prepare_trapezoidal(well.h0_pauli, well.h_pauli, schedule, 7)
    outside = 0.0
    for n in range(256):
        na = bin(n & 0b01010101).count("1")
        nb = bin(n & 0b10101010).count("1")
        if (na, nb) != (2, 1):
            outside += abs(psi.amplitudes[n]) ** 2
    assert outside < 1e-10
    # the (2,1) sector holds C(4,2) * C(4,1) = 24 determinants
    assert np.count_nonzero(psi.amplitudes) <= 24


def test_expectation_matches_dense(well):
    rng = np.random.default_rng(17)
    psi = random_state(rng, 8)
    dense = kron_dense(well.h_pauli)
    direct = float(np.real(np.vdot(psi.amplitudes, dense @ psi.amplitudes)))
    assert expectation(psi, well.h_pauli) == pytest.approx(direct, abs=1e-10)


def test_philox_generator_stable():
    # counter-based generator: fixed key -> fixed stream
    rng = rng_from_seed(123)
    first = rng.integers(0, 1 << 30, size=3)
    rng2 = rng_from_seed(123)
    assert np.array_equal(first, rng2.integers(0, 1 << 30, size=3))


def test_sample_distribution_validates():
    with pytest.raises(ValueError):
        sample_distribution(Distribution(probs={0: 1.0}), 0, seed=1)
    with pytest.raises(ValueError):
        Distribution(probs={0: 0.5})
