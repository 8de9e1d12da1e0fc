"""Pauli-string algebra: weighted sums of tensor products of I, X, Y, Z.

A PauliSum holds its strings in binary symplectic form: string j is
i^{popcount(x[j] & z[j])} X^x[j] Z^z[j] (Y = iXZ on each qubit), with real
coefficients[j] (Hermitian operators only).  Bit q of a mask is qubit q, the
q-th least-significant bit of a Fock index.  Terms are kept in canonical
order, the lexicographic order of their letter labels (qubit 0 first,
I < X < Y < Z), so iteration order is deterministic.  compile_pauli_action
is the one Pauli-action kernel: flip-mask groups, rotations and expectations
all use it.  flip_groups sums H's strings by the qubits they flip; to_dense
and the trapezoidal staircase read their matrix elements from those groups.
Products are taken over whole mask arrays (symplectic_product), the form
Jordan-Wigner builds in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COEFF_FLOOR = 1e-12
DENSE_QUBIT_CAP = 14
# canonical keys hold two bits per qubit in an int64
MAX_QUBITS = 31

# i^k for k = 0..3
_I_POWERS = np.array([1, 1j, -1, -1j])

# letter of one qubit of X^x Z^z, indexed by x_bit + 2 * z_bit (up to phase)
_MASK_LETTERS = np.array(list("IXZY"))

_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)])


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
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    keep = np.abs(h.coeffs) >= threshold
    if drop_diagonal:
        keep &= h.x != 0
    return PauliSum.from_masks(h.x[keep], h.z[keep], h.coeffs[keep], h.n_qubits)


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


def compile_pauli_action(x_mask: int, z_mask: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and phase arrays so (P psi)[m] = phase[m] * psi[source[m]].

    P flips the X/Y qubits (x_mask) and contributes
    i^{n_Y} (-1)^{parity(source & z_mask)} from its Y/Z qubits (z_mask).
    """
    n_y = bin(x_mask & z_mask).count("1")
    source = np.arange(1 << n_qubits) ^ x_mask
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
    masks = np.unique(np.concatenate([np.zeros(1, dtype=np.int64), h.x]))
    rows = np.zeros((len(masks), 1 << h.n_qubits), dtype=complex)
    groups = np.searchsorted(masks, h.x).tolist()
    for x, z, coeff, k in zip(h.x.tolist(), h.z.tolist(), h.coeffs.tolist(), groups):
        _source, phase = compile_pauli_action(x, z, h.n_qubits)
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
