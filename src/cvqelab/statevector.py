"""Dense statevector simulation: Fock states, expectations, Born
probabilities, shot sampling of a distribution, and a distribution-level
noise knob.

Amplitudes are stored contiguously indexed by the Fock integer; qubit 0 is
the least-significant bit.  Expectations read the operator's flip-mask
groups (PauliSum.flip_groups), which are built once per operator, not once
per call.  All stochastic draws use the counter-based
Philox generator keyed by an explicit 64-bit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum

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

    def empirical_distribution(self) -> "Distribution":
        return Distribution(probs={n: c / self.shots for n, c in self.counts.items()})


@dataclass(frozen=True)
class Distribution:
    probs: dict[int, float]

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


def expectation(state: StateVector, h: PauliSum) -> float:
    """<psi|H|psi> for Hermitian H (real by construction), summed over H's
    flip-mask groups: sum_k <psi| D_k X^{masks[k]} |psi>."""
    amp = state.amplitudes
    masks, rows = h.flip_groups
    idx = np.arange(len(amp))
    total = sum(np.vdot(amp, row * amp[idx ^ mask]) for mask, row in zip(masks.tolist(), rows))
    return float(total.real)


def probabilities(state: StateVector) -> Distribution:
    """Born-rule distribution; entries below 1e-16 are omitted."""
    p = np.abs(state.amplitudes) ** 2
    total = p.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 = {total}, not normalized")
    p = p / total
    return Distribution(probs={int(n): float(p[n]) for n in np.nonzero(p > 1e-16)[0]})


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
    return Distribution(probs=probs)
