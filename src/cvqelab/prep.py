"""Trapezoidal and guiding-state preparation.

The discretized adiabatic product applies, right to left on |phi0>:

    exp(-i H / 2 hbar_omega) * prod_{k=K-1..1} exp(-i H(k/K) / hbar_omega)

so the interpolation parameter eta climbs 1/K, 2/K, ..., (K-1)/K and ends
with the half-step at eta = 1.  The pure-model half-step is omitted (global
phase on the starting determinant).  The trapezoidal state uses exact
per-step exponentials; the guiding state replaces each exponential with an
ordered product of single-term Pauli rotations (first-order splitting, one
slice per step).  That order is never changed, but a run of consecutive
rotations whose strings flip the same qubits and commute pairwise equals
the one exact exponential of their sum, which is applied in one pass.  A
rotation maps |m> only to |m> and |m ^ x>, so the guiding state never
leaves the coset of phi0 under the span of the executed flip masks; the
passes run over that coset alone, and the steps are taken in slabs whose
angles, characters and trigonometry are computed in batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .pauli import (
    COEFF_FLOOR,
    PauliSum,
    _BLOCK_ENTRIES,
    _character_table,
    _popcount,
    align,
    interpolation_rows,
)
from .statevector import StateVector, init_fock

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
    if not (hbar_omega > 0 and np.isfinite(hbar_omega)):
        raise ValueError(f"hbar_omega {hbar_omega} must be positive and finite")
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
    groups = (h0.flip_groups, h.flip_groups)
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
    h0: PauliSum, h: PauliSum, schedule: PrepSchedule, trotter: TrotterConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Masks (x, z) of the strings in canonical order, the (K, T) per-step
    coefficients and the (K, T) mask of terms each step executes.

    Row k holds the coefficients of prune(interpolate(h0, h, eta_k)),
    including interpolate's COEFF_FLOOR drop of each scaled operand before
    the sum.
    """
    if not (trotter.prune_threshold >= 0 and np.isfinite(trotter.prune_threshold)):
        raise ValueError(f"threshold {trotter.prune_threshold} must be nonnegative and finite")
    x, z, (c0, c1) = align(h0, h)
    etas = np.array([eta for eta, _scale in schedule.steps], dtype=float)
    coeffs = interpolation_rows(c0, c1, etas)
    magnitude = np.abs(coeffs)
    keep = (magnitude >= COEFF_FLOOR) & (magnitude >= trotter.prune_threshold)
    if trotter.drop_diagonal:
        keep &= x != 0
    return x, z, coeffs, keep


def prepare_guiding(
    h0: PauliSum,
    h: PauliSum,
    schedule: PrepSchedule,
    phi0: int,
    trotter: TrotterConfig = TrotterConfig(),
) -> StateVector:
    """First-order-split staircase (one slice per step); the pGD source state.

    Each step rotates by the terms of prune(interpolate(h0, h, eta)) in the
    configured order; ties in magnitude fall back to canonical order.  The
    order is unchanged, but each maximal run of consecutive strings of one
    step with the same flip mask x and the same parity of popcount(x & z)
    commutes pairwise, so it is applied as the one exact exponential of its
    sum: with A = sum_j theta_j P_j = (-i)^parity diag(r) X^x and real
    r = sum_j theta_j sign_j chi_{z_j}, where chi_z(m) = (-1)^popcount(m & z)
    and sign_j = (-1)^(popcount(x & z_j) // 2), A^2 is the diagonal r^2 and

        exp(-iA) psi = cos(r) psi - i (-i)^parity sin(r) psi[m ^ x],

    one pass for every run, the x = 0 runs of diagonal strings included.
    Every rotation maps |m> only to |m> and |m ^ x>, so the state stays on
    the coset of phi0 under the span of the executed flip masks, and the
    passes run over that coset alone.  The steps are taken in slabs of about
    _BLOCK_ENTRIES / coset-size strings; each slab's r comes from one
    sparse product of its angles with the character rows, and its cos and
    sin from one batched call per block of runs.
    """
    start = init_fock(phi0, h.n_qubits).amplitudes
    x, z, coeffs, keep = _staircase(h0, h, schedule, trotter)
    n_y = _popcount(x & z)
    parity, sign = n_y & 1, 1.0 - 2.0 * ((n_y >> 1) & 1)
    used = keep.any(axis=0)
    flips, phases = np.unique(x[used]), np.unique(z[used])
    members = _flip_span_coset(phi0, flips)
    flip, phase = np.searchsorted(flips, x), np.searchsorted(phases, z)
    sources = [np.searchsorted(members, members ^ mask) for mask in flips.tolist()]
    characters = _character_table(phases, members)
    scales = np.array([scale for _eta, scale in schedule.steps])
    per_block = max(1, _BLOCK_ENTRIES // len(members))
    amp = start[members]
    # a slab of steps closes at the step that brings the string count to a
    # multiple of per_block
    filled = np.cumsum(keep.sum(axis=1)) // per_block
    for steps in np.split(np.arange(len(keep)), np.flatnonzero(np.diff(filled, prepend=0)) + 1):
        step, term = np.nonzero(keep[steps])  # canonical order within each step
        step = steps[step]
        rows = coeffs[step, term]
        if trotter.term_order == "magnitude_desc":
            order = np.lexsort((term, -np.abs(rows), step))
        elif trotter.term_order == "magnitude_asc":
            order = np.lexsort((term, np.abs(rows), step))
        elif trotter.term_order == "canonical_reversed":
            order = np.lexsort((-term, step))
        else:
            order = np.arange(len(term))
        step, term = step[order], term[order]
        key = 2 * x[term] + parity[term]
        starts = np.flatnonzero((np.diff(key, prepend=-1) != 0) | (np.diff(step, prepend=-1) != 0))
        weights = csr_array(
            (rows[order] * scales[step] * sign[term], phase[term],
             np.append(starts, len(term))),
            shape=(len(starts), len(phases)),
        )
        lead = term[starts]
        factors = np.where(parity[lead] == 1, -1.0 + 0j, -1j)  # -i (-i)^parity
        gathers = [sources[k] for k in flip[lead].tolist()]
        for b in range(0, len(starts), per_block):
            r = weights[b:b + per_block] @ characters
            # complex cos: numpy multiplies complex by complex faster than by real
            cos, sin = np.cos(r).astype(complex), factors[b:b + per_block, None] * np.sin(r)
            for c, s, source in zip(cos, sin, gathers[b:b + per_block]):
                amp = c * amp + s * amp[source]
    full = np.zeros_like(start)
    full[members] = amp
    return StateVector(full, h.n_qubits)


def _flip_span_coset(phi0: int, flips: np.ndarray) -> np.ndarray:
    """Ascending members of phi0 ^ span_F2(flips): every Fock index that a
    product of the flip masks reaches from phi0."""
    members = np.array([phi0])
    for mask in flips.tolist():
        if not (members == phi0 ^ mask).any():
            members = np.concatenate((members, members ^ mask))
    return np.sort(members)


def check_conditions(K: int, hbar_omega: float, omega0: float) -> ConditionReport:
    """Numeric report on the two discretized adiabatic ratios (never blocks)."""
    if K < 1 or not all(w > 0 and np.isfinite(w) for w in (hbar_omega, omega0)):
        raise ValueError("K must be >= 1, hbar_omega and omega0 positive and finite")
    left = (hbar_omega / K) / omega0
    right = omega0 / hbar_omega
    return ConditionReport(
        left_ratio=left,
        right_ratio=right,
        left_satisfied=left < CONDITION_MARGIN,
        right_satisfied=right < CONDITION_MARGIN,
    )


def circuit_stats(
    h0: PauliSum, h: PauliSum, schedule: PrepSchedule, trotter: TrotterConfig
) -> CircuitStats:
    """Rotation/CNOT ladder estimate over the terms each step executes.

    Each weight-w rotation costs 2*(w-1) CNOTs in the standard ladder
    decomposition; depth_proxy adds one rotation layer per term.  The
    per-step counts follow the interpolated Hamiltonians of the staircase.
    """
    x, z, _coeffs, keep = _staircase(h0, h, schedule, trotter)
    weight = _popcount(x | z)
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
