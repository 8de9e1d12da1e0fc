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
the one exact exponential of their sum, which is applied in one pass over
the register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .pauli import (
    COEFF_FLOOR,
    PauliSum,
    _popcount,
    align,
    flip_groups,
    interpolation_rows,
)
from .statevector import StateVector, init_fock

TERM_ORDERS = ("magnitude_desc", "magnitude_asc", "canonical", "canonical_reversed")
CONDITION_MARGIN = 0.5
# entries in each cos or sin row array of one block of runs; bounds the
# guiding staircase's working memory on large registers
_BLOCK_AMPLITUDES = 1 << 16


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
    h0: PauliSum, h: PauliSum, schedule: PrepSchedule, trotter: TrotterConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Masks (x, z) of the strings in canonical order, the (K, T) per-step
    coefficients and the (K, T) mask of terms each step executes.

    Row k holds the coefficients of prune(interpolate(h0, h, eta_k)),
    including interpolate's COEFF_FLOOR drop of each scaled operand before
    the sum.
    """
    if trotter.prune_threshold < 0:
        raise ValueError("threshold must be nonnegative")
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
    order is unchanged: each maximal run of consecutive strings with the same
    flip mask x and the same parity of popcount(x & z), so pairwise
    commuting, is applied as the one exact exponential of its sum, in one
    pass over the register.
    """
    x, z, coeffs, keep = _staircase(h0, h, schedule, trotter)
    strings = _FusedStrings(x, z, keep.any(axis=0), h.n_qubits)
    amp = init_fock(phi0, h.n_qubits).amplitudes
    plans: dict[bytes, list[_RunBlock]] = {}
    for (_eta, scale), row, kept in zip(schedule.steps, coeffs, keep):
        rank = np.flatnonzero(kept)
        if trotter.term_order == "magnitude_desc":
            rank = rank[np.lexsort((rank, -np.abs(row[rank])))]
        elif trotter.term_order == "magnitude_asc":
            rank = rank[np.lexsort((rank, np.abs(row[rank])))]
        elif trotter.term_order == "canonical_reversed":
            rank = rank[::-1]
        key = rank.tobytes()
        if key not in plans:
            plans[key] = strings.run_plan(rank)
        amp = strings.apply(amp, plans[key], row[rank] * scale)
    return StateVector(amp, h.n_qubits)


class _RunBlock(NamedTuple):
    """Consecutive runs of one step's ordered strings.  Positions index the
    step's angles; factors are -i (-i)^parity, the factor of sin(r)."""

    sources: list             # per run: gather index m ^ x, or None for x = 0
    order: list               # per run: its row among single runs, then fused ones
    single_at: np.ndarray     # runs of one string: position of the string,
    single_phase: np.ndarray  # its character row,
    single_factor: np.ndarray  # and the factor times its sign
    fused_at: np.ndarray      # runs of several strings: their positions,
    fused_sign: np.ndarray    # signs and character rows, grouped by run
    fused_phase: np.ndarray
    fused_indptr: np.ndarray  # CSR row pointer of the runs over fused_at
    fused_factor: np.ndarray


class _FusedStrings:
    """The strings a staircase executes, tabulated to be applied in runs.

    Consecutive strings with equal flip mask x and equal parity
    popcount(x & z) mod 2 commute, so a run of them is exp(-iA) with
    A = sum_j theta_j P_j.  Then (A psi)[m] = (-i)^parity r[m] psi[m ^ x]
    with real r = sum_j theta_j sign_j chi_{z_j}, where chi_z(m) =
    (-1)^popcount(m & z) and sign_j = (-1)^(popcount(x & z_j) // 2).  A^2 is
    the diagonal r^2, so exp(-iA) psi = cos(r) psi - i (-i)^parity sin(r)
    psi[m ^ x]; for x = 0 (diagonal strings and the identity) it is the
    phase exp(-i r).  The tables hold one gather index per distinct x and
    one character row chi_z per distinct z.
    """

    def __init__(self, x: np.ndarray, z: np.ndarray, used: np.ndarray, n_qubits: int):
        n_y = _popcount(x & z)
        self.x, self.parity = x, n_y & 1
        self.sign = 1.0 - 2.0 * ((n_y >> 1) & 1)
        index = np.arange(1 << n_qubits)
        flips = np.unique(x[used])
        self.flip = np.searchsorted(flips, x)
        self.sources = [index ^ flip for flip in flips.tolist()]
        phases = np.unique(z[used])
        self.phase = np.searchsorted(phases, z)
        odd = np.zeros((len(phases), len(index)), dtype=bool)
        for q in range(n_qubits):
            odd ^= np.logical_and.outer((phases >> q) & 1 == 1, (index >> q) & 1 == 1)
        self.characters = np.where(odd, -1.0, 1.0)
        self.runs_per_block = max(1, _BLOCK_AMPLITUDES >> n_qubits)

    def run_plan(self, rank: np.ndarray) -> list[_RunBlock]:
        """The maximal runs of the ordered strings rank, in blocks of at
        most runs_per_block runs."""
        key = 2 * self.x[rank] + self.parity[rank]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        lengths = np.diff(np.append(starts, len(rank)))
        first = rank[starts]
        sources = [
            self.sources[k] if flip else None
            for k, flip in zip(self.flip[first].tolist(), self.x[first].tolist())
        ]
        factors = np.where(self.parity[first] == 1, -1.0 + 0j, -1j)
        blocks = []
        for b in range(0, len(starts), self.runs_per_block):
            runs = slice(b, b + self.runs_per_block)
            single = lengths[runs] == 1
            single_at = starts[runs][single]
            fused_at = starts[b] + np.flatnonzero(np.repeat(~single, lengths[runs]))
            blocks.append(_RunBlock(
                sources=sources[runs],
                order=np.argsort(np.argsort(~single, kind="stable")).tolist(),
                single_at=single_at,
                single_phase=self.phase[rank[single_at]],
                single_factor=factors[runs][single] * self.sign[rank[single_at]],
                fused_at=fused_at,
                fused_sign=self.sign[rank[fused_at]],
                fused_phase=self.phase[rank[fused_at]],
                fused_indptr=np.append(0, np.cumsum(lengths[runs][~single])),
                fused_factor=factors[runs][~single, None],
            ))
        return blocks

    def apply(self, amp: np.ndarray, plan: list[_RunBlock], angles: np.ndarray) -> np.ndarray:
        """The runs of plan applied in order, the string at position j of the
        step turned by angles[j]."""
        for block in plan:
            # a run of one string has r = sign theta chi_z: cos(r) = cos(theta)
            # and sin(r) = sign sin(theta) chi_z need no trigonometry over the
            # register, which costs more than the pass that applies the run
            theta = angles[block.single_at]
            weights = csr_array(
                (angles[block.fused_at] * block.fused_sign, block.fused_phase,
                 block.fused_indptr),
                shape=(len(block.fused_factor), len(self.characters)),
            )
            r = weights @ self.characters
            cos = np.cos(theta).tolist() + list(np.cos(r))
            sin = list(
                (block.single_factor * np.sin(theta))[:, None]
                * self.characters[block.single_phase]
            ) + list(block.fused_factor * np.sin(r))
            for k, source in zip(block.order, block.sources):
                c, s = cos[k], sin[k]
                amp = (c + s) * amp if source is None else c * amp + s * amp[source]
        return amp


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
