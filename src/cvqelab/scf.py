"""Restricted open-shell Hartree-Fock and the AO -> MO integral transform.

A single spatial-MO set serves both spins, so every spatial orbital maps to a
degenerate pair of spin orbitals downstream.  The effective one-electron
operator is Roothaan's, which reduces to the ordinary RHF Fock matrix for
closed shells:

    block      closed   open   virtual
    closed       Fc      Fb      Fc
    open         Fb      Fc      Fa
    virtual      Fc      Fa      Fc          Fc = (Fa + Fb) / 2

Charged clusters with separated fragments admit several SCF solutions whose
occupation character differs (which fragment holds the unpaired electron),
and the ground solution need not be aufbau.  run_scf therefore seeds one
candidate per frontier occupation pattern from the core guess and converges
them all in lockstep: their orbitals form one (P, n, n) stack, so each DIIS
iteration is one stacked numpy call per step for every pattern still
running, and a pattern leaves the stack on the iteration it converges.
Maximum-overlap assignment locks each pattern's occupation between
iterations.  Every pattern's arithmetic, and so every bit of its result,
is what converging it alone gives; the lowest converged solution wins, in
pattern order.  Orbitals come back canonicalized within occupation blocks
and ordered doubly-occupied, singly-occupied, virtual; for aufbau ground
states this coincides with ascending orbital energy.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .integrals import IntegralSet


class ConvergenceError(RuntimeError):
    """SCF failed to converge; carries the last energy change."""

    def __init__(self, iterations: int, last_delta: float):
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            f"SCF not converged after {iterations} iterations "
            f"(last energy delta {last_delta:.3e} Ha)"
        )


class MissingCorrectionError(LookupError):
    """A requested external large-basis HF energy is unavailable."""


ENERGY_TOL = 1e-10       # Hartree
COMMUTATOR_TOL = 1e-8
MAX_ITERATIONS = 200
DIIS_SIZE = 8
OCCUPATION_WINDOW = 2    # extra orbitals beyond n_occ tried in pattern search


@dataclass(frozen=True)
class SCFResult:
    mo_coeffs: np.ndarray         # (n_ao, n_mo)
    orbital_energies: np.ndarray  # (n_mo,), Hartree
    e_hf: float                   # total HF energy incl. nuclear repulsion, Hartree
    n_alpha: int
    n_beta: int
    iterations: int


@dataclass(frozen=True)
class MOIntegrals:
    h_mo: np.ndarray   # (n_mo, n_mo), Hartree
    g_mo: np.ndarray   # (n_mo,)*4 chemists' (pq|rs), Hartree
    e_nuc: float
    n_mo: int


def _candidate_patterns(n_mo: int, n_docc: int, n_socc: int, window: int):
    """Frontier occupation patterns: (docc indices, socc indices) tuples."""
    n_occ = n_docc + n_socc
    frontier = min(n_mo, n_occ + window)
    pool = range(frontier)
    patterns = []
    for docc in itertools.combinations(pool, n_docc):
        rest = [i for i in pool if i not in docc]
        for socc in itertools.combinations(rest, n_socc):
            patterns.append((docc, socc))
    aufbau = (tuple(range(n_docc)), tuple(range(n_docc, n_occ)))
    patterns.sort(key=lambda p: (p != aufbau, p))
    return patterns


def run_scf(integrals: IntegralSet, n_alpha: int, n_beta: int) -> SCFResult:
    """Converge ROHF and return the lowest-energy solution found."""
    if n_alpha < n_beta:
        raise ValueError("n_alpha must be >= n_beta")
    if n_alpha > integrals.n_ao:  # with n_alpha >= n_beta, also caps n_beta
        raise ValueError(f"{n_alpha} alpha electrons exceed {integrals.n_ao} spatial orbitals")
    if n_alpha < 1:
        raise ValueError("at least one electron required")
    n_docc, n_socc = n_beta, n_alpha - n_beta
    # the same for every pattern: orthogonalizer for the DIIS error, core guess
    x = scipy.linalg.fractional_matrix_power(integrals.overlap, -0.5).real
    _, c0 = scipy.linalg.eigh(integrals.core, integrals.overlap)
    patterns = _candidate_patterns(integrals.n_ao, n_docc, n_socc, OCCUPATION_WINDOW)

    best: tuple[float, SCFResult] | None = None
    last_error: ConvergenceError | None = None
    for outcome in _converge_patterns(integrals, n_alpha, n_beta, patterns, x, c0):
        if isinstance(outcome, ConvergenceError):
            last_error = outcome
        elif best is None or outcome.e_hf < best[0] - 1e-12:
            best = (outcome.e_hf, outcome)
    if best is None:
        raise last_error if last_error is not None else ConvergenceError(0, np.inf)
    return best[1]


def _converge_patterns(
    integrals: IntegralSet,
    n_alpha: int,
    n_beta: int,
    patterns: list[tuple[tuple[int, ...], tuple[int, ...]]],
    x: np.ndarray,
    c0: np.ndarray,
) -> list[SCFResult | ConvergenceError]:
    """Iterate every pattern in lockstep; one outcome per pattern, in pattern order.

    The active patterns' orbitals are one (P, n_ao, n_ao) stack with columns
    ordered docc | socc | virt.  A pattern leaves the stack on the iteration
    it converges, so the active ones have all run equally many iterations
    and share one DIIS window length.  Each pattern's arithmetic is exactly
    what it would be run alone: only the generalized eigensolve and a
    singular DIIS system are handled one pattern at a time.
    """
    s, h, eri = integrals.overlap, integrals.core, integrals.eri
    n_ao = integrals.n_ao
    n_docc, n_socc = n_beta, n_alpha - n_beta
    outcomes: list[SCFResult | ConvergenceError | None] = [None] * len(patterns)

    seeds = [
        docc + socc + tuple(i for i in range(n_ao) if i not in docc and i not in socc)
        for docc, socc in patterns
    ]
    c = _gather_columns(c0[None], np.array(seeds))
    active = np.arange(len(patterns))
    energy = np.zeros(len(patterns))
    delta = np.full(len(patterns), np.inf)
    focks = np.empty((len(patterns), 0, n_ao, n_ao))
    errors = np.empty_like(focks)
    for iteration in range(1, MAX_ITERATIONS + 1):
        c_occ_a = c[:, :, :n_alpha]
        docc_c = c[:, :, :n_docc]
        d_a = c_occ_a @ c_occ_a.transpose(0, 2, 1)
        d_b = docc_c @ docc_c.transpose(0, 2, 1)
        d_t = d_a + d_b
        j_t = np.einsum("pqrs,brs->bpq", eri, d_t)
        k_a = np.einsum("prqs,brs->bpq", eri, d_a)
        k_b = np.einsum("prqs,brs->bpq", eri, d_b)
        f_a = h + j_t - k_a
        f_b = h + j_t - k_b
        new_energy = 0.5 * (
            _matrix_sums(d_t * h) + _matrix_sums(d_a * f_a) + _matrix_sums(d_b * f_b)
        ) + integrals.e_nuc

        f_eff = _roothaan_fock(f_a, f_b, c, s, n_docc, n_socc)
        error = x.T @ (f_eff @ d_t @ s - s @ d_t @ f_eff) @ x
        comm_norm = np.linalg.norm(error, axis=(1, 2))
        delta = np.abs(new_energy - energy)
        energy = new_energy
        if iteration > 1:
            done = (delta < ENERGY_TOL) & (comm_norm < COMMUTATOR_TOL)
            if done.any():
                for i in np.flatnonzero(done):
                    outcomes[active[i]] = _finalize(
                        f_eff[i], c[i], float(energy[i]), n_alpha, n_beta, iteration
                    )
                keep = ~done
                if not keep.any():
                    return outcomes
                active, c, energy, delta, f_eff, error = (
                    a[keep] for a in (active, c, energy, delta, f_eff, error)
                )
                focks, errors = focks[keep], errors[keep]

        focks = np.concatenate([focks, f_eff[:, None]], axis=1)[:, -DIIS_SIZE:]
        errors = np.concatenate([errors, error[:, None]], axis=1)[:, -DIIS_SIZE:]
        f_use = f_eff
        if focks.shape[1] > 1:
            f_use = _diis_extrapolate(focks, errors)

        eps_new, c_new = _generalized_eigh(f_use, s)
        c = _assign_by_overlap(c_new, eps_new, s, c, n_docc, n_socc)
    for i, p in enumerate(active):
        outcomes[p] = ConvergenceError(MAX_ITERATIONS, delta[i])
    return outcomes


def _matrix_sums(a: np.ndarray) -> np.ndarray:
    """np.sum of each trailing matrix, summed in the order np.sum uses on it alone."""
    return a.reshape(*a.shape[:-2], -1).sum(axis=-1)


def _generalized_eigh(f: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy.linalg.eigh(f[i], s) for each stacked f[i]: its finite check once
    for the stack, then its LAPACK driver (dsygvd, lower triangle) per matrix."""
    if not np.isfinite(f).all():
        raise ValueError("array must not contain infs or NaNs")
    eps = np.empty(f.shape[:2])
    vecs = np.empty_like(f)
    for i, f_i in enumerate(f):
        eps[i], vecs[i], info = scipy.linalg.lapack.dsygvd(f_i, s)
        if info != 0:
            raise np.linalg.LinAlgError(f"dsygvd failed (info = {info})")
    return eps, vecs


def _assign_by_overlap(
    c_new: np.ndarray,
    eps_new: np.ndarray,
    s: np.ndarray,
    c_prev: np.ndarray,
    n_docc: int,
    n_socc: int,
) -> np.ndarray:
    """Lock occupation character: reorder each pattern's new orbitals into
    docc | socc | virt by projection onto its previous doubly- and
    singly-occupied spaces.

    The n_docc orbitals of largest docc weight (ties: lower index) are
    doubly occupied; of the rest, the n_socc of largest socc weight (ties:
    lower energy, then index) are singly occupied.  Both blocks are ordered
    by energy, ties kept in pick order; virtuals keep index order.
    """
    n_mo = c_new.shape[-1]
    n_occ = n_docc + n_socc
    w_docc, w_socc = (
        np.linalg.norm(np.swapaxes(c_prev[:, :, lo:hi], 1, 2) @ s @ c_new, axis=1)
        for lo, hi in ((0, n_docc), (n_docc, n_occ))
    )
    # argsort of a permutation is its inverse: the rank of each orbital
    rank_d = np.argsort(np.argsort(-w_docc, axis=1, kind="stable"), axis=1)
    is_docc = rank_d < n_docc
    rank_s = np.argsort(np.lexsort((eps_new, -w_socc, is_docc)), axis=1)
    is_socc = ~is_docc & (rank_s < n_socc)
    block = np.where(is_docc, 0, np.where(is_socc, 1, 2))
    tiebreak = np.where(is_docc, rank_d, np.where(is_socc, rank_s, np.arange(n_mo)))
    order = np.lexsort((tiebreak, eps_new, block))
    return _gather_columns(c_new, order)


def _gather_columns(c: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Contiguous (P, n, m) stack with out[i, :, k] = c[i, :, order[i, k]]."""
    n_pat, n_rows = c.shape[:2]
    return c[np.arange(n_pat)[:, None, None], np.arange(n_rows)[:, None], order[:, None, :]]


def _roothaan_fock(
    f_a: np.ndarray,
    f_b: np.ndarray,
    c: np.ndarray,
    s: np.ndarray,
    n_docc: int,
    n_socc: int,
) -> np.ndarray:
    """Roothaan's effective Fock matrix; f_a, f_b and c may be (n, n) or stacked."""
    c_t = np.swapaxes(c, -1, -2)
    fa_mo = c_t @ f_a @ c
    fb_mo = c_t @ f_b @ c
    f_mo = 0.5 * (fa_mo + fb_mo)
    n_occ = n_docc + n_socc
    cl = slice(0, n_docc)
    op = slice(n_docc, n_occ)
    vi = slice(n_occ, None)
    f_mo[..., cl, op] = fb_mo[..., cl, op]
    f_mo[..., op, cl] = fb_mo[..., op, cl]
    f_mo[..., op, vi] = fa_mo[..., op, vi]
    f_mo[..., vi, op] = fa_mo[..., vi, op]
    sc = s @ c
    return sc @ f_mo @ np.swapaxes(sc, -1, -2)


def _diis_extrapolate(focks: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Pulay DIIS on stacked (P, W, n, n) Fock and error histories; a pattern
    whose B matrix is singular keeps its latest Fock matrix."""
    n_pat, n = focks.shape[:2]
    b = -np.ones((n_pat, n + 1, n + 1))
    b[:, n, n] = 0.0
    b[:, :n, :n] = _matrix_sums(errors[:, :, None] * errors[:, None])
    rhs = np.zeros((n_pat, n + 1, 1))
    rhs[:, n] = -1.0
    singular = np.zeros(n_pat, dtype=bool)
    try:
        weights = np.linalg.solve(b, rhs)[:, :n, 0]
    except np.linalg.LinAlgError:
        weights = np.zeros((n_pat, n))
        for i in range(n_pat):
            try:
                weights[i] = np.linalg.solve(b[i], rhs[i, :, 0])[:n]
            except np.linalg.LinAlgError:
                singular[i] = True
    terms = weights[:, :, None, None] * focks
    # accumulated oldest first, from 0, as sum() over one window would
    f_use = 0.0 + terms[:, 0]
    for k in range(1, n):
        f_use += terms[:, k]
    f_use[singular] = focks[singular, -1]
    return f_use


def _finalize(
    f_eff: np.ndarray,
    c_all: np.ndarray,
    energy: float,
    n_alpha: int,
    n_beta: int,
    iterations: int,
) -> SCFResult:
    """Canonicalize within occupation blocks of Roothaan's f_eff and fix
    deterministic column signs."""
    n_docc, n_socc = n_beta, n_alpha - n_beta

    blocks = []
    eps_blocks = []
    for block in np.split(c_all, [n_docc, n_docc + n_socc], axis=1):
        if block.shape[1] == 0:
            continue
        # contiguous: on a strided one-column view, block.T @ f_eff @ block
        # ends in a strided dot product, which rounds differently
        block = np.ascontiguousarray(block)
        f_block = block.T @ f_eff @ block
        w, u = np.linalg.eigh(f_block)
        blocks.append(block @ u)
        eps_blocks.append(w)
    c = np.hstack(blocks)
    eps = np.concatenate(eps_blocks)

    for j in range(c.shape[1]):
        pivot = int(np.argmax(np.abs(c[:, j])))
        if c[pivot, j] < 0:
            c[:, j] = -c[:, j]

    return SCFResult(
        mo_coeffs=c,
        orbital_energies=eps,
        e_hf=float(energy),
        n_alpha=n_alpha,
        n_beta=n_beta,
        iterations=iterations,
    )


def transform_to_mo(integrals: IntegralSet, scf: SCFResult) -> MOIntegrals:
    """AO -> spatial-MO transform of the core Hamiltonian and ERIs."""
    c = scf.mo_coeffs
    h_mo = c.T @ integrals.core @ c
    g = np.einsum("pi,pqrs->iqrs", c, integrals.eri, optimize=True)
    g = np.einsum("qj,iqrs->ijrs", c, g, optimize=True)
    g = np.einsum("rk,ijrs->ijks", c, g, optimize=True)
    g_mo = np.einsum("sl,ijks->ijkl", c, g, optimize=True)
    return MOIntegrals(h_mo=h_mo, g_mo=g_mo, e_nuc=integrals.e_nuc, n_mo=c.shape[1])


def load_hf_energy_table(path: str | Path) -> dict[str, float]:
    """Read a {geometry label: HF energy in Hartree} table from a JSON file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object of label -> Hartree")
    return {str(k): float(v) for k, v in data.items()}


def lookup_external_hf(table: dict[str, float], label: str) -> float:
    if label not in table:
        raise MissingCorrectionError(
            f"no external large-basis HF energy for geometry {label!r}"
        )
    return table[label]
