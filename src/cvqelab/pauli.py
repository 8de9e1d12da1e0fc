"""Pauli-string algebra: weighted sums of tensor products of I, X, Y, Z.

A PauliSum holds its strings in binary symplectic form: string j is
i^{popcount(x[j] & z[j])} X^x[j] Z^z[j] (Y = iXZ on each qubit), with real
coefficients[j] (Hermitian operators only).  Bit q of a mask is qubit q, the
q-th least-significant bit of a Fock index.  Terms are kept in canonical
order, the lexicographic order of their letter labels (qubit 0 first,
I < X < Y < Z), so iteration order is deterministic.  PauliSum.flip_groups
sums H's strings by the qubits they flip, H = sum_k D_k X^{masks[k]}; it is
computed once per PauliSum, on first access, as one sparse product of the
strings' signed coefficients with a table of the Z2 characters
chi_z(m) = (-1)^popcount(m & z), and to_dense, the trapezoidal staircase and
statevector.expectation read their matrix elements from it.  Those
characters come only from _character_table, which the guiding staircase
shares.  Products are taken over whole mask arrays (symplectic_product),
the form Jordan-Wigner builds in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array

COEFF_FLOOR = 1e-12
DENSE_QUBIT_CAP = 14
# canonical keys hold two bits per qubit in an int64
MAX_QUBITS = 31

# i^k for k = 0..3
_I_POWERS = np.array([1, 1j, -1, -1j])

# letter of one qubit of X^x Z^z, indexed by x_bit + 2 * z_bit (up to phase)
_MASK_LETTERS = np.array(list("IXZY"))

# entries in one block of a character product (a column block of flip_groups'
# table; a block of runs' cos or sin, or about a slab's coset entries times its
# strings, in prep.prepare_guiding); bounds its working memory on large registers
_BLOCK_ENTRIES = 1 << 16


class ResourceLimitError(RuntimeError):
    """Dense construction requested beyond the configured qubit cap."""


@dataclass(frozen=True, eq=False)
class PauliSum:
    """Hermitian operator sum_j coeffs[j] * P_j (Hartree), P_j given by the
    masks (x[j], z[j]); build with from_masks for the canonical order."""

    x: np.ndarray       # int64 flip masks (X or Y qubits)
    z: np.ndarray       # int64 phase masks (Y or Z qubits)
    coeffs: np.ndarray  # float
    n_qubits: int

    @classmethod
    def from_masks(cls, x, z, coeffs, n_qubits: int) -> "PauliSum":
        """Drop |coefficient| < COEFF_FLOOR and sort into canonical order;
        each string may appear once."""
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=float)
        if n_qubits > MAX_QUBITS:
            raise ValueError(f"{n_qubits} qubits exceeds {MAX_QUBITS}")
        if np.any(((x | z) >> n_qubits) != 0):
            raise ValueError(f"Pauli mask outside a {n_qubits}-qubit register")
        keep = np.abs(coeffs) >= COEFF_FLOOR
        x, z, coeffs = x[keep], z[keep], coeffs[keep]
        key = _canonical_key(x, z, n_qubits)
        order = np.argsort(key, kind="stable")
        if np.any(np.diff(key[order]) == 0):
            raise ValueError("repeated Pauli string")
        return cls(x=x[order], z=z[order], coeffs=coeffs[order], n_qubits=n_qubits)

    def __len__(self) -> int:
        return len(self.coeffs)

    def labels(self) -> list[str]:
        """Letter label of each string, qubit 0 first: 'XZI' = X on qubit 0, Z on qubit 1."""
        qubits = np.arange(self.n_qubits)
        bits = ((self.x[:, None] >> qubits) & 1) + 2 * ((self.z[:, None] >> qubits) & 1)
        return ["".join(row) for row in _MASK_LETTERS[bits].tolist()]

    @cached_property
    def flip_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """H grouped by flip mask, H = sum_k D_k X^{masks[k]}; read-only.

        The distinct x masks of H's strings, ascending and always including
        0, and rows with rows[k, m] = <m|H|m ^ masks[k]>.  String j maps
        |m ^ x_j> to i^{3 n_y} chi_{z_j}(m) |m>, with n_y = popcount(x_j & z_j)
        and chi_z(m) = (-1)^popcount(m & z), so each row is one sparse
        product of its strings' signed coefficients (in the real part for
        even n_y, the imaginary part for odd) with a character table, taken
        in column blocks.  Every addend is exactly +-coefficient, and each
        row is summed from zeros in term order, so every matrix element gets
        the same additions in the same order as a per-string dense build.
        """
        n_qubits = self.n_qubits
        if n_qubits > DENSE_QUBIT_CAP:
            raise ResourceLimitError(f"{n_qubits} qubits exceeds dense cap {DENSE_QUBIT_CAP}")
        masks = np.unique(np.concatenate([np.zeros(1, dtype=np.int64), self.x]))
        phases, column = np.unique(self.z, return_inverse=True)
        power = mask_phases(self.x, self.z)  # i^{3 n_y}: +-1 or +-i
        # rows 0..K-1 of the product are the real parts, K..2K-1 the imaginary
        part_row = np.searchsorted(masks, self.x) + len(masks) * (power.imag != 0)
        order = np.argsort(part_row, kind="stable")
        signed = csr_array(
            ((self.coeffs * (power.real + power.imag))[order], column[order],
             np.searchsorted(part_row[order], np.arange(2 * len(masks) + 1))),
            shape=(2 * len(masks), len(phases)),
        )
        block_bits = min(n_qubits, (_BLOCK_ENTRIES // max(1, len(phases))).bit_length() - 1)
        low = _character_table(phases, np.arange(1 << block_bits))
        rows = np.zeros((len(masks), 1 << n_qubits), dtype=complex)
        for start in range(0, 1 << n_qubits, 1 << block_bits):
            sums = signed @ (_character_table(phases, start) * low)
            block = slice(start, start + (1 << block_bits))
            rows.real[:, block] = sums[:len(masks)]
            rows.imag[:, block] = sums[len(masks):]
        masks.flags.writeable = False
        rows.flags.writeable = False
        return masks, rows


def _character_table(phases: np.ndarray, indices) -> np.ndarray:
    """chi_z(m) = (-1)^popcount(m & z), the Z2 characters, with one row per z
    in phases and one column per Fock index m in indices (a scalar gives one
    column)."""
    return 1.0 - 2.0 * (np.bitwise_count(phases[:, None] & indices) & 1)


def _canonical_key(x: np.ndarray, z: np.ndarray, n_qubits: int) -> np.ndarray:
    """Base-4 label key, qubit 0 the most significant digit, with the digit
    2z + (x XOR z) of each qubit: I = 0, X = 1, Y = 2, Z = 3."""
    key = np.zeros(x.shape, dtype=np.int64)
    for q in range(n_qubits):
        xq, zq = (x >> q) & 1, (z >> q) & 1
        key = 4 * key + 2 * zq + (xq ^ zq)
    return key


def align(*sums: PauliSum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of the sums' strings in canonical order, as masks (x, z), and
    an (n_sums, T) array with each sum's coefficients on it (zero where absent)."""
    n_qubits = sums[0].n_qubits
    if any(h.n_qubits != n_qubits for h in sums):
        raise ValueError("qubit count mismatch")
    x = np.concatenate([h.x for h in sums])
    z = np.concatenate([h.z for h in sums])
    _keys, first, inverse = np.unique(
        _canonical_key(x, z, n_qubits), return_index=True, return_inverse=True
    )
    coeffs = np.zeros((len(sums), len(first)))
    owner = np.repeat(np.arange(len(sums)), [len(h) for h in sums])
    coeffs[owner, inverse] = np.concatenate([h.coeffs for h in sums])
    return x[first], z[first], coeffs


def interpolation_rows(c0: np.ndarray, c1: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Row k = (1 - etas[k]) * c0 + etas[k] * c1, each scaled operand
    floored at COEFF_FLOOR before the sum."""
    if not np.all((etas >= 0.0) & (etas <= 1.0)):
        raise ValueError("eta outside [0, 1]")
    part0 = np.multiply.outer(1.0 - etas, c0)
    part0[np.abs(part0) < COEFF_FLOOR] = 0.0
    rows = np.multiply.outer(etas, c1)
    rows[np.abs(rows) < COEFF_FLOOR] = 0.0
    rows += part0
    return rows


# interpolate and prune stay only because the benchmark traces them by name;
# the run path uses align and interpolation_rows directly.
def interpolate(h0: PauliSum, h: PauliSum, eta: float) -> PauliSum:
    """(1 - eta) * h0 + eta * h, merged term by term."""
    x, z, (c0, c1) = align(h0, h)
    (coeffs,) = interpolation_rows(c0, c1, np.array([eta], dtype=float))
    return PauliSum.from_masks(x, z, coeffs, h.n_qubits)


def prune(h: PauliSum, threshold: float, drop_diagonal: bool = False) -> PauliSum:
    """Remove weak interactions: terms with |coefficient| < threshold, and
    optionally every {I, Z}-only string (pure phases when executed first)."""
    if not (threshold >= 0 and np.isfinite(threshold)):
        raise ValueError(f"threshold {threshold} must be nonnegative and finite")
    keep = np.abs(h.coeffs) >= threshold
    if drop_diagonal:
        keep &= h.x != 0
    return PauliSum.from_masks(h.x[keep], h.z[keep], h.coeffs[keep], h.n_qubits)


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Number of set bits of each nonnegative integer, as int64 (numpy's
    uint8 count would wrap under negation and subtraction)."""
    return np.bitwise_count(masks).astype(np.int64)


def symplectic_product(x1, z1, x2, z2):
    """(X^x1 Z^z1)(X^x2 Z^z2) = sign * X^(x1 ^ x2) Z^(z1 ^ z2), elementwise over
    integer mask arrays; moving Z^z1 past X^x2 gives sign (-1)^popcount(z1 & x2)."""
    return x1 ^ x2, z1 ^ z2, 1 - 2 * (_popcount(z1 & x2) & 1)


def mask_phases(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Phase with X^x Z^z = phase * string: XZ = -iY, so (-i)^popcount(x & z)."""
    return _I_POWERS[-_popcount(x & z) & 3]


def to_dense(h: PauliSum) -> np.ndarray:
    """Dense 2^Q x 2^Q matrix; qubit 0 is the least-significant basis-index bit."""
    masks, rows = h.flip_groups
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for mask, row in zip(masks.tolist(), rows):
        out[idx, idx ^ mask] = row
    return out
