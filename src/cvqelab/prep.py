"""Trapezoidal and guiding-state preparation.

The discretized adiabatic product applies, right to left on |phi0>:

    exp(-i H / 2 hbar_omega) * prod_{k=K-1..1} exp(-i H(k/K) / hbar_omega)

so the interpolation parameter eta climbs 1/K, 2/K, ..., (K-1)/K and ends
with the half-step at eta = 1.  The pure-model half-step is omitted (global
phase on the starting determinant).  The trapezoidal state uses exact
per-step exponentials; the guiding state replaces each exponential with an
ordered product of single-term Pauli rotations (first-order splitting, one
slice per step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import COEFF_FLOOR, PauliString, PauliSum, compile_pauli_action, flip_groups
from .statevector import StateVector, init_fock, rotate_amplitudes

TERM_ORDERS = ("magnitude_desc", "magnitude_asc", "canonical", "canonical_reversed")
CONDITION_MARGIN = 0.5


@dataclass(frozen=True)
class PrepSchedule:
    steps: tuple[tuple[float, float], ...]  # (eta, scale 1/Hartree), application order


@dataclass(frozen=True)
class TrotterConfig:
    term_order: str = "magnitude_desc"
    prune_threshold: float = 0.0   # Hartree
    drop_diagonal: bool = False

    def __post_init__(self):
        if self.term_order not in TERM_ORDERS:
            raise ValueError(f"term_order must be one of {TERM_ORDERS}")


@dataclass(frozen=True)
class ConditionReport:
    left_ratio: float       # (hbar_omega / K) / hbar_omega0
    right_ratio: float      # hbar_omega0 / hbar_omega
    left_satisfied: bool
    right_satisfied: bool
    margin: float = CONDITION_MARGIN


@dataclass(frozen=True)
class CircuitStats:
    term_count_per_step: tuple[int, ...]
    total_rotations: int
    cnot_estimate: int
    depth_proxy: int


def build_schedule(K: int, hbar_omega: float) -> PrepSchedule:
    """K-step schedule: K-1 full steps at eta = k/K plus the final half-step."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if hbar_omega <= 0:
        raise ValueError("hbar_omega must be positive")
    steps = [(k / K, 1.0 / hbar_omega) for k in range(1, K)]
    steps.append((1.0, 0.5 / hbar_omega))
    return PrepSchedule(steps=tuple(steps))


def prepare_trapezoidal(
    h0: PauliSum, h: PauliSum, schedule: PrepSchedule, phi0: int
) -> StateVector:
    """Exact-exponential staircase from |phi0>; the pTD source state.

    Every step propagates inside the Fock indices reachable from phi0 through
    matrix elements of h0 or h at or above COEFF_FLOOR: the (N_alpha, N_beta)
    sector for number- and Sz-conserving inputs, the whole register otherwise.
    The sector and its blocks are read from the flip-mask groups of h0 and h.
    """
    if h0.n_qubits != h.n_qubits:
        raise ValueError("qubit count mismatch")
    start = init_fock(phi0, h.n_qubits)
    groups = (flip_groups(h0), flip_groups(h))
    sector = _reachable(start.amplitudes != 0, groups)
    h0_block, h_block = (_sector_block(masks, rows, sector) for masks, rows in groups)
    amp = start.amplitudes[sector]
    for eta, scale in schedule.steps:
        evals, evecs = np.linalg.eigh((1.0 - eta) * h0_block + eta * h_block)
        amp = evecs @ (np.exp(-1j * scale * evals) * (evecs.conj().T @ amp))
    full = np.zeros_like(start.amplitudes)
    full[sector] = amp
    return StateVector(full, h.n_qubits)


def _reachable(reached: np.ndarray, groups) -> np.ndarray:
    """Ascending Fock indices reached breadth first from the marked ones: m
    joins when some reached n has |<m|H|n>| >= COEFF_FLOOR in any group set
    (masks, rows), with m = n ^ mask.  Thresholding the summed element keeps
    cancellations such as XX + YY between number-changing strings."""
    frontier = np.flatnonzero(reached)
    while frontier.size:
        found = []
        for masks, rows in groups:
            targets = masks[:, None] ^ frontier
            strong = np.abs(np.take_along_axis(rows, targets, axis=1)) >= COEFF_FLOOR
            found.append(targets[strong])
        found = np.unique(np.concatenate(found))
        frontier = found[~reached[found]]
        reached[frontier] = True
    return np.flatnonzero(reached)


def _sector_block(masks: np.ndarray, rows: np.ndarray, sector: np.ndarray) -> np.ndarray:
    """<sector[i]|H|sector[j]> from H's flip-mask groups; zero where no
    string flips sector[i] into sector[j]."""
    flips = sector[:, None] ^ sector
    k = np.minimum(np.searchsorted(masks, flips), len(masks) - 1)
    return np.where(masks[k] == flips, rows[k, sector[:, None]], 0)


def _staircase(
    h0: PauliSum | None, h: PauliSum, schedule: PrepSchedule, trotter: TrotterConfig
) -> tuple[list[PauliString], np.ndarray, np.ndarray]:
    """Strings in canonical order, the (K, T) per-step coefficients and the
    (K, T) mask of terms each step executes.

    Row k holds the coefficients of prune(interpolate(h0, h, eta_k)),
    including interpolate's COEFF_FLOOR drop of each scaled operand before
    the sum; without h0 every row holds h's coefficients.
    """
    if trotter.prune_threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if h0 is not None and h0.n_qubits != h.n_qubits:
        raise ValueError("qubit count mismatch")
    all_terms = set(h.terms) | set(h0.terms if h0 is not None else ())
    strings = sorted(all_terms, key=lambda s: s.ops)
    c1 = np.array([h.coefficient(s) for s in strings], dtype=float)
    if h0 is None:
        coeffs = np.tile(c1, (len(schedule.steps), 1))
    else:
        etas = np.array([eta for eta, _scale in schedule.steps], dtype=float)
        if not np.all((etas >= 0.0) & (etas <= 1.0)):
            raise ValueError("schedule eta outside [0, 1]")
        c0 = np.array([h0.coefficient(s) for s in strings], dtype=float)
        part0 = np.multiply.outer(1.0 - etas, c0)
        part0[np.abs(part0) < COEFF_FLOOR] = 0.0
        coeffs = np.multiply.outer(etas, c1)
        coeffs[np.abs(coeffs) < COEFF_FLOOR] = 0.0
        coeffs += part0
    magnitude = np.abs(coeffs)
    keep = (magnitude >= COEFF_FLOOR) & (magnitude >= trotter.prune_threshold)
    if trotter.drop_diagonal:
        keep &= ~np.array([s.is_diagonal() for s in strings], dtype=bool)
    return strings, coeffs, keep


def prepare_guiding(
    h0: PauliSum,
    h: PauliSum,
    schedule: PrepSchedule,
    phi0: int,
    trotter: TrotterConfig = TrotterConfig(),
) -> StateVector:
    """First-order-split staircase (one slice per step); the pGD source state.

    Each step rotates by the terms of prune(interpolate(h0, h, eta)) in the
    configured order; ties in magnitude fall back to canonical order.
    """
    strings, coeffs, keep = _staircase(h0, h, schedule, trotter)
    amp = init_fock(phi0, h.n_qubits).amplitudes
    identity = PauliString.identity(h.n_qubits)
    compiled = {
        j: compile_pauli_action(strings[j])
        for j in np.flatnonzero(keep.any(axis=0)).tolist()
        if strings[j] != identity
    }
    for (_eta, scale), row, kept in zip(schedule.steps, coeffs, keep):
        rank = np.flatnonzero(kept)
        if trotter.term_order == "magnitude_desc":
            rank = rank[np.lexsort((rank, -np.abs(row[rank])))]
        elif trotter.term_order == "magnitude_asc":
            rank = rank[np.lexsort((rank, np.abs(row[rank])))]
        elif trotter.term_order == "canonical_reversed":
            rank = rank[::-1]
        for j, coeff in zip(rank.tolist(), row[rank].tolist()):
            angle = coeff * scale
            action = compiled.get(j)
            if action is None:
                amp = np.exp(-1j * angle) * amp
            else:
                amp = rotate_amplitudes(amp, action, angle)
    return StateVector(amp, h.n_qubits)


def check_conditions(K: int, hbar_omega: float, omega0: float) -> ConditionReport:
    """Numeric report on the two discretized adiabatic ratios (never blocks)."""
    if K < 1 or hbar_omega <= 0 or omega0 <= 0:
        raise ValueError("K, hbar_omega and omega0 must be positive")
    left = (hbar_omega / K) / omega0
    right = omega0 / hbar_omega
    return ConditionReport(
        left_ratio=left,
        right_ratio=right,
        left_satisfied=left < CONDITION_MARGIN,
        right_satisfied=right < CONDITION_MARGIN,
    )


def circuit_stats(
    h: PauliSum,
    schedule: PrepSchedule,
    trotter: TrotterConfig = TrotterConfig(),
    h0: PauliSum | None = None,
) -> CircuitStats:
    """Rotation/CNOT ladder estimate over surviving terms.

    Each weight-w rotation costs 2*(w-1) CNOTs in the standard ladder
    decomposition; depth_proxy adds one rotation layer per term.  When h0 is
    given the per-step counts follow the interpolated Hamiltonians, otherwise
    every step reuses h.
    """
    strings, _coeffs, keep = _staircase(h0, h, schedule, trotter)
    weight = np.array([s.weight for s in strings], dtype=int)
    gates = keep & (weight > 0)  # identity strings are a global phase, no gate
    per_step = gates.sum(axis=1)
    rotations = int(per_step.sum())
    cnots = int((gates * (2 * np.maximum(weight - 1, 0))).sum())
    return CircuitStats(
        term_count_per_step=tuple(int(c) for c in per_step),
        total_rotations=rotations,
        cnot_estimate=cnots,
        depth_proxy=rotations + cnots,
    )
