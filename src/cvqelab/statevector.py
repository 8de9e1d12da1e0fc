"""Dense statevector simulation: Fock states, Pauli rotations, Born
probabilities, shot sampling, and a distribution-level noise knob.

Amplitudes are stored contiguously indexed by the Fock integer; qubit 0 is
the least-significant bit.  All stochastic draws use the counter-based
Philox generator keyed by an explicit 64-bit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, compile_pauli_action

NORM_TOL = 1e-10


@dataclass
class StateVector:
    amplitudes: np.ndarray  # complex, length 2^Q
    n_qubits: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude array length must be 2^Q")


@dataclass(frozen=True)
class SampleCounts:
    counts: dict[int, int]
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to the shot total")

    def empirical_distribution(self, label: str = "sGD") -> "Distribution":
        return Distribution(
            probs={n: c / self.shots for n, c in self.counts.items()}, label=label
        )


@dataclass(frozen=True)
class Distribution:
    probs: dict[int, float]
    label: str = ""

    def __post_init__(self):
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < -1e-12 or p > 1 + 1e-12 for p in self.probs.values()):
            raise ValueError("probabilities outside [0, 1]")

    def probability(self, n: int) -> float:
        return self.probs.get(n, 0.0)

    def support(self, cutoff: float = 1e-12) -> set[int]:
        return {n for n, p in self.probs.items() if p > cutoff}


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based Philox generator with an explicit 64-bit key."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def init_fock(n: int, n_qubits: int) -> StateVector:
    """Computational-basis state |n>."""
    dim = 1 << n_qubits
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside [0, 2^{n_qubits})")
    amp = np.zeros(dim, dtype=complex)
    amp[n] = 1.0
    return StateVector(amp, n_qubits)


def rotate_amplitudes(
    amplitudes: np.ndarray, compiled: tuple[np.ndarray, np.ndarray], angle: float
) -> np.ndarray:
    """exp(-i * angle * P) applied to a raw amplitude array, P given compiled."""
    source, phase = compiled
    return np.cos(angle) * amplitudes - 1j * np.sin(angle) * (phase * amplitudes[source])


def expectation(state: StateVector, h: PauliSum) -> float:
    """<psi|H|psi> for Hermitian H (real by construction)."""
    amp = state.amplitudes
    total = 0.0 + 0.0j
    for x, z, coeff in zip(h.x.tolist(), h.z.tolist(), h.coeffs.tolist()):
        source, phase = compile_pauli_action(x, z, h.n_qubits)
        total += coeff * np.vdot(amp, phase * amp[source])
    return float(total.real)


def probabilities(state: StateVector, label: str = "") -> Distribution:
    """Born-rule distribution; entries below 1e-16 are omitted."""
    p = np.abs(state.amplitudes) ** 2
    total = p.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 = {total}, not normalized")
    p = p / total
    return Distribution(
        probs={int(n): float(p[n]) for n in np.nonzero(p > 1e-16)[0]}, label=label
    )


def sample(state: StateVector, shots: int, seed: int) -> SampleCounts:
    """Multinomial draw over the Born distribution; deterministic per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dist = probabilities(state)
    return sample_distribution(dist, shots, seed)


def sample_distribution(dist: Distribution, shots: int, seed: int) -> SampleCounts:
    if shots < 1:
        raise ValueError("shots must be >= 1")
    indices = np.array(sorted(dist.probs))
    p = np.array([dist.probs[n] for n in indices])
    p = p / p.sum()
    rng = rng_from_seed(seed)
    draws = rng.multinomial(shots, p)
    counts = {int(n): int(c) for n, c in zip(indices, draws) if c > 0}
    return SampleCounts(counts=counts, shots=shots)


def mix_noise(dist: Distribution, lam: float, n_qubits: int) -> Distribution:
    """Convex mix with the uniform distribution: p <- (1-lam) p + lam / 2^Q."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"noise weight {lam} outside [0, 1]")
    if lam == 0.0:
        return dist
    dim = 1 << n_qubits
    floor = lam / dim
    probs = {n: (1.0 - lam) * dist.probability(n) + floor for n in range(dim)}
    return Distribution(probs=probs, label=dist.label)
