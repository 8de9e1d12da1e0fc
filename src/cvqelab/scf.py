"""Restricted open-shell Hartree-Fock, MO transforms, and the diagonal model Hamiltonian.

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
and the ground solution need not be aufbau.  run_scf therefore converges one
candidate per frontier occupation pattern, locking each pattern in by
maximum-overlap assignment between iterations, and returns the lowest
converged solution.  Orbitals come back canonicalized within occupation
blocks and ordered doubly-occupied, singly-occupied, virtual; for aufbau
ground states this coincides with ascending orbital energy.
"""

from __future__ import annotations

import itertools
import json
import warnings
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


class DegenerateGapWarning(UserWarning):
    """Frontier orbitals are degenerate; the model gap is ill-defined."""


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


@dataclass(frozen=True)
class ModelHamiltonian:
    """Diagonal one-body operator: sum_p eps_p n_p + shift."""

    eps_spin: np.ndarray  # (2*n_mo,), interleaved (up, down) per spatial MO
    shift: float          # fixes <HF|H0|HF> = e_hf
    omega0: float         # lowest sector-preserving excitation energy, Hartree


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
    if n_alpha + n_beta > 2 * integrals.n_ao:
        raise ValueError("more electrons than spin orbitals")
    if n_alpha < 1:
        raise ValueError("at least one electron required")
    n_docc, n_socc = n_beta, n_alpha - n_beta
    # the same for every pattern: orthogonalizer for the DIIS error, core guess
    x = scipy.linalg.fractional_matrix_power(integrals.overlap, -0.5).real
    _, c0 = scipy.linalg.eigh(integrals.core, integrals.overlap)

    best: tuple[float, SCFResult] | None = None
    last_error: ConvergenceError | None = None
    for docc, socc in _candidate_patterns(integrals.n_ao, n_docc, n_socc, OCCUPATION_WINDOW):
        try:
            result = _converge_pattern(integrals, n_alpha, n_beta, docc, socc, x, c0)
        except ConvergenceError as err:
            last_error = err
            continue
        if best is None or result.e_hf < best[0] - 1e-12:
            best = (result.e_hf, result)
    if best is None:
        raise last_error if last_error is not None else ConvergenceError(0, np.inf)
    return best[1]


def _converge_pattern(
    integrals: IntegralSet,
    n_alpha: int,
    n_beta: int,
    docc_seed: tuple[int, ...],
    socc_seed: tuple[int, ...],
    x: np.ndarray,
    c0: np.ndarray,
) -> SCFResult:
    s, h, eri = integrals.overlap, integrals.core, integrals.eri
    n_ao = integrals.n_ao
    n_docc, n_socc = n_beta, n_alpha - n_beta

    docc_c = c0[:, list(docc_seed)]
    socc_c = c0[:, list(socc_seed)]
    virt_c = c0[:, [i for i in range(n_ao) if i not in docc_seed and i not in socc_seed]]

    energy = 0.0
    delta = np.inf
    focks: list[np.ndarray] = []
    errors: list[np.ndarray] = []
    overlaps = np.zeros((0, 0))  # DIIS B block: overlaps[i, j] = sum(errors[i] * errors[j])
    for iteration in range(1, MAX_ITERATIONS + 1):
        c_occ_a = np.hstack([docc_c, socc_c]) if n_socc else docc_c
        d_a = c_occ_a @ c_occ_a.T
        d_b = docc_c @ docc_c.T if n_docc else np.zeros_like(s)
        d_t = d_a + d_b
        j_t = np.einsum("pqrs,rs->pq", eri, d_t)
        k_a = np.einsum("prqs,rs->pq", eri, d_a)
        k_b = np.einsum("prqs,rs->pq", eri, d_b)
        f_a = h + j_t - k_a
        f_b = h + j_t - k_b
        new_energy = 0.5 * (
            np.sum(d_t * h) + np.sum(d_a * f_a) + np.sum(d_b * f_b)
        ) + integrals.e_nuc

        c_all = np.hstack([docc_c, socc_c, virt_c])
        f_eff = _roothaan_fock(f_a, f_b, c_all, s, n_docc, n_socc)
        error = x.T @ (f_eff @ d_t @ s - s @ d_t @ f_eff) @ x
        comm_norm = float(np.linalg.norm(error))
        delta = abs(new_energy - energy)
        energy = new_energy
        if iteration > 1 and delta < ENERGY_TOL and comm_norm < COMMUTATOR_TOL:
            return _finalize(
                integrals, f_a, f_b, docc_c, socc_c, virt_c,
                float(energy), n_alpha, n_beta, iteration,
            )

        focks.append(f_eff)
        errors.append(error)
        grown = np.empty((len(errors), len(errors)))
        grown[:-1, :-1] = overlaps
        grown[-1] = grown[:, -1] = [np.sum(e * error) for e in errors]
        overlaps = grown
        if len(focks) > DIIS_SIZE:
            focks.pop(0)
            errors.pop(0)
            overlaps = overlaps[1:, 1:]
        f_use = f_eff
        if len(focks) > 1:
            f_use = _diis_extrapolate(focks, overlaps)

        eps_new, c_new = scipy.linalg.eigh(f_use, s)
        docc_c, socc_c, virt_c = _assign_by_overlap(
            c_new, eps_new, s, docc_c, socc_c, n_docc, n_socc
        )
    raise ConvergenceError(MAX_ITERATIONS, delta)


def _assign_by_overlap(
    c_new: np.ndarray,
    eps_new: np.ndarray,
    s: np.ndarray,
    docc_prev: np.ndarray,
    socc_prev: np.ndarray,
    n_docc: int,
    n_socc: int,
):
    """Lock occupation character: classify new orbitals by projection onto the
    previous doubly- and singly-occupied spaces."""
    n_mo = c_new.shape[1]
    w_docc = (
        np.linalg.norm(docc_prev.T @ s @ c_new, axis=0) if n_docc else np.zeros(n_mo)
    )
    w_socc = (
        np.linalg.norm(socc_prev.T @ s @ c_new, axis=0) if n_socc else np.zeros(n_mo)
    )
    order_d = np.argsort(-w_docc, kind="stable")
    docc_pick = sorted(order_d[:n_docc], key=lambda i: eps_new[i])
    remaining = [i for i in range(n_mo) if i not in set(order_d[:n_docc])]
    remaining.sort(key=lambda i: (-w_socc[i], eps_new[i]))
    socc_pick = sorted(remaining[:n_socc], key=lambda i: eps_new[i])
    taken = set(docc_pick) | set(socc_pick)
    virt_pick = [i for i in range(n_mo) if i not in taken]
    return c_new[:, docc_pick], c_new[:, socc_pick], c_new[:, virt_pick]


def _roothaan_fock(
    f_a: np.ndarray,
    f_b: np.ndarray,
    c: np.ndarray,
    s: np.ndarray,
    n_docc: int,
    n_socc: int,
) -> np.ndarray:
    fa_mo = c.T @ f_a @ c
    fb_mo = c.T @ f_b @ c
    f_mo = 0.5 * (fa_mo + fb_mo)
    n_occ = n_docc + n_socc
    cl = slice(0, n_docc)
    op = slice(n_docc, n_occ)
    vi = slice(n_occ, None)
    f_mo[cl, op] = fb_mo[cl, op]
    f_mo[op, cl] = fb_mo[op, cl]
    f_mo[op, vi] = fa_mo[op, vi]
    f_mo[vi, op] = fa_mo[vi, op]
    sc = s @ c
    return sc @ f_mo @ sc.T


def _diis_extrapolate(focks: list[np.ndarray], overlaps: np.ndarray) -> np.ndarray:
    n = len(focks)
    b = -np.ones((n + 1, n + 1))
    b[n, n] = 0.0
    b[:n, :n] = overlaps
    rhs = np.zeros(n + 1)
    rhs[n] = -1.0
    try:
        weights = np.linalg.solve(b, rhs)[:n]
    except np.linalg.LinAlgError:
        return focks[-1]
    return sum(w * f for w, f in zip(weights, focks))


def _finalize(
    integrals: IntegralSet,
    f_a: np.ndarray,
    f_b: np.ndarray,
    docc_c: np.ndarray,
    socc_c: np.ndarray,
    virt_c: np.ndarray,
    energy: float,
    n_alpha: int,
    n_beta: int,
    iterations: int,
) -> SCFResult:
    """Canonicalize within occupation blocks and fix deterministic column signs."""
    s = integrals.overlap
    n_docc, n_socc = n_beta, n_alpha - n_beta
    c_all = np.hstack([docc_c, socc_c, virt_c])
    f_eff = _roothaan_fock(f_a, f_b, c_all, s, n_docc, n_socc)

    blocks = []
    eps_blocks = []
    for block in (docc_c, socc_c, virt_c):
        if block.shape[1] == 0:
            continue
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


def sector_level_gap(eps_spatial: np.ndarray, n_alpha: int, n_beta: int) -> float:
    """Gap of the diagonal model between its ground and first excited determinant,
    enumerated over the full (N, Sz) sector."""
    n_mo = len(eps_spatial)
    energies = sorted(
        sum(eps_spatial[i] for i in occ_a) + sum(eps_spatial[i] for i in occ_b)
        for occ_a in itertools.combinations(range(n_mo), n_alpha)
        for occ_b in itertools.combinations(range(n_mo), n_beta)
    )
    if len(energies) < 2:
        raise ValueError("sector holds a single determinant; no excitation exists")
    return float(energies[1] - energies[0])


def model_hamiltonian(scf: SCFResult) -> ModelHamiltonian:
    """Diagonal HF model: orbital-energy number operator plus an energy shift.

    The shift is fixed so the HF determinant has expectation value e_hf, and
    omega0 is the model gap in the HF determinant's (N, Sz) sector.
    """
    eps = scf.orbital_energies
    eps_spin = np.repeat(eps, 2)
    occupied_sum = float(np.sum(eps[: scf.n_alpha]) + np.sum(eps[: scf.n_beta]))
    shift = scf.e_hf - occupied_sum
    omega0 = sector_level_gap(eps, scf.n_alpha, scf.n_beta)
    if omega0 < 1e-8:
        warnings.warn(
            f"model gap {omega0:.3e} Ha: frontier orbitals are degenerate",
            DegenerateGapWarning,
            stacklevel=2,
        )
    return ModelHamiltonian(eps_spin=eps_spin, shift=shift, omega0=omega0)


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
