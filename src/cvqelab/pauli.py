"""Pauli-string algebra: weighted sums of tensor products of I, X, Y, Z.

A PauliString is a length-Q tuple over {I, X, Y, Z}; qubit 0 is the leftmost
letter in the tuple and the least-significant bit of a Fock index.  PauliSums
keep real coefficients (Hermitian operators only) in a canonically sorted map
so iteration order is deterministic.  compile_pauli_action is the one
Pauli-action kernel: flip-mask groups, rotations and expectations all use it.
flip_groups sums H's strings by the qubits they flip; to_dense and the
trapezoidal staircase read their matrix elements from those groups.
Products are taken in binary symplectic form X^x Z^z over integer mask
arrays (symplectic_product), the form Jordan-Wigner builds in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COEFF_FLOOR = 1e-12
DENSE_QUBIT_CAP = 14

_LETTERS = ("I", "X", "Y", "Z")

# i^k for k = 0..3
_I_POWERS = np.array([1, 1j, -1, -1j])

# letter of one qubit of X^x Z^z, indexed by x_bit + 2 * z_bit (up to phase)
_MASK_LETTERS = ("I", "X", "Z", "Y")

_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)])


class ResourceLimitError(RuntimeError):
    """Dense construction requested beyond the configured qubit cap."""


@dataclass(frozen=True, order=True)
class PauliString:
    ops: tuple[str, ...]

    def __post_init__(self):
        if any(o not in _LETTERS for o in self.ops):
            raise ValueError(f"invalid Pauli letters in {self.ops}")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a letter string, qubit 0 first: 'XZI' = X on qubit 0, Z on qubit 1."""
        return cls(tuple(label.upper()))

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(("I",) * n_qubits)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, letter: str) -> "PauliString":
        ops = ["I"] * n_qubits
        ops[qubit] = letter
        return cls(tuple(ops))

    @property
    def n_qubits(self) -> int:
        return len(self.ops)

    @property
    def weight(self) -> int:
        return len(self.ops) - self.ops.count("I")

    def is_diagonal(self) -> bool:
        """True for strings over {I, Z} only (phase action on Fock states)."""
        return "X" not in self.ops and "Y" not in self.ops

    def label(self) -> str:
        return "".join(self.ops)

    def masks(self) -> tuple[int, int]:
        """Binary symplectic form (x_mask, z_mask): the string is
        i^{popcount(x & z)} X^x Z^z, since Y = iXZ on each qubit."""
        x_mask = z_mask = 0
        for q, op in enumerate(self.ops):
            if op in ("X", "Y"):
                x_mask |= 1 << q
            if op in ("Y", "Z"):
                z_mask |= 1 << q
        return x_mask, z_mask


@dataclass(frozen=True)
class PauliSum:
    """Hermitian operator: map from PauliString to real coefficient (Hartree)."""

    terms: dict[PauliString, float]
    n_qubits: int

    @classmethod
    def from_terms(cls, terms: dict[PauliString, float], n_qubits: int) -> "PauliSum":
        cleaned = {}
        for string, coeff in terms.items():
            if string.n_qubits != n_qubits:
                raise ValueError(f"{string} does not act on {n_qubits} qubits")
            c = float(coeff)
            if abs(c) >= COEFF_FLOOR:
                cleaned[string] = c
        ordered = dict(sorted(cleaned.items(), key=lambda kv: kv[0].ops))
        return cls(terms=ordered, n_qubits=n_qubits)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, string: PauliString) -> float:
        return self.terms.get(string, 0.0)

    def scaled(self, factor: float) -> "PauliSum":
        return PauliSum.from_terms(
            {s: c * factor for s, c in self.terms.items()}, self.n_qubits
        )

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        merged = dict(self.terms)
        for s, c in other.terms.items():
            merged[s] = merged.get(s, 0.0) + c
        return PauliSum.from_terms(merged, self.n_qubits)

    def items(self):
        return self.terms.items()


def interpolate(h0: PauliSum, h: PauliSum, eta: float) -> PauliSum:
    """(1 - eta) * h0 + eta * h, merged term by term."""
    if h0.n_qubits != h.n_qubits:
        raise ValueError("qubit count mismatch")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta = {eta} outside [0, 1]")
    return h0.scaled(1.0 - eta) + h.scaled(eta)


def prune(h: PauliSum, threshold: float, drop_diagonal: bool = False) -> PauliSum:
    """Remove weak interactions: terms with |coefficient| < threshold, and
    optionally every {I, Z}-only string (pure phases when executed first)."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    kept = {
        s: c
        for s, c in h.terms.items()
        if abs(c) >= threshold and not (drop_diagonal and s.is_diagonal())
    }
    return PauliSum.from_terms(kept, h.n_qubits)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Number of set bits of each nonnegative integer, by byte lookup
    (np.bitwise_count needs numpy >= 2.0)."""
    masks = np.asarray(masks)
    count = np.zeros(masks.shape, dtype=np.int64)
    while masks.any():
        count += _BYTE_POPCOUNT[masks & 0xFF]
        masks = masks >> 8
    return count


def symplectic_product(x1, z1, x2, z2):
    """(X^x1 Z^z1)(X^x2 Z^z2) = sign * X^(x1 ^ x2) Z^(z1 ^ z2), elementwise over
    integer mask arrays; moving Z^z1 past X^x2 gives sign (-1)^popcount(z1 & x2)."""
    return x1 ^ x2, z1 ^ z2, 1 - 2 * (_popcount(z1 & x2) & 1)


def mask_phases(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Phase with X^x Z^z = phase * string: XZ = -iY, so (-i)^popcount(x & z)."""
    return _I_POWERS[-_popcount(x & z) & 3]


def strings_from_masks(x: np.ndarray, z: np.ndarray, n_qubits: int) -> list[PauliString]:
    """The Pauli string of each X^x Z^z (up to mask_phases)."""
    qubits = np.arange(n_qubits)
    bits = ((x[:, None] >> qubits) & 1) + 2 * ((z[:, None] >> qubits) & 1)
    return [PauliString(tuple(map(_MASK_LETTERS.__getitem__, row))) for row in bits.tolist()]


def compile_pauli_action(string: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase arrays so (P psi)[m] = phase[m] * psi[source[m]].

    Binary symplectic form: P flips the X/Y qubits (x_mask) and contributes
    i^{n_Y} (-1)^{parity(source & z_mask)} from its Y/Z qubits (z_mask).
    """
    x_mask, z_mask = string.masks()
    n_y = bin(x_mask & z_mask).count("1")
    source = np.arange(1 << string.n_qubits) ^ x_mask
    return source, _I_POWERS[(n_y + 2 * (_popcount(source & z_mask) & 1)) & 3]


def flip_groups(h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """H grouped by flip mask, H = sum_k D_k X^{masks[k]}.

    Returns the distinct x masks of H's strings, ascending and always
    including 0, and rows with rows[k, m] = <m|H|m ^ masks[k]>.  Each row is
    summed from zeros in term order, so every matrix element gets the same
    additions in the same order as a per-string dense build.
    """
    if h.n_qubits > DENSE_QUBIT_CAP:
        raise ResourceLimitError(f"{h.n_qubits} qubits exceeds dense cap {DENSE_QUBIT_CAP}")
    x_masks = [string.masks()[0] for string in h.terms]
    masks = np.unique(np.array([0, *x_masks], dtype=np.int64))
    rows = np.zeros((len(masks), 1 << h.n_qubits), dtype=complex)
    for (string, coeff), k in zip(h.items(), np.searchsorted(masks, x_masks).tolist()):
        _source, phase = compile_pauli_action(string)
        rows[k] += coeff * phase
    return masks, rows


def to_dense(h: PauliSum) -> np.ndarray:
    """Dense 2^Q x 2^Q matrix; qubit 0 is the least-significant basis-index bit."""
    masks, rows = flip_groups(h)
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for mask, row in zip(masks.tolist(), rows):
        out[idx, idx ^ mask] = row
    return out
