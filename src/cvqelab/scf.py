"""Restricted open-shell Hartree-Fock and the AO -> MO integral transform.

A single spatial-MO set serves both spins, so every spatial orbital maps to a
degenerate pair of spin orbitals downstream.  Orbitals come back
canonicalized within occupation blocks of Roothaan's effective one-electron
operator, which reduces to the ordinary RHF Fock matrix for closed shells:

    block      closed   open   virtual
    closed       Fc      Fb      Fc
    open         Fb      Fc      Fa
    virtual      Fc      Fa      Fc          Fc = (Fa + Fb) / 2

and are ordered doubly-occupied, singly-occupied, virtual; for aufbau ground
states this coincides with ascending orbital energy.

Charged clusters with separated fragments admit several SCF solutions whose
occupation character differs (which fragment holds the unpaired electron),
and the ground solution need not be aufbau.  run_scf therefore seeds one
candidate per frontier occupation pattern, a column order of the core
guess, and minimizes the energy from every seed at once as one (P, n, n)
orbital stack.  A seed's orbitals move only by Cayley rotations
C <- C (1 - A/2)^-1 (1 + A/2), which keep C^T S C = 1, over the
non-redundant pairs (p, q) with p in a more occupied class than q: docc-socc,
docc-virt and socc-virt.  The gradient comes from the MO-basis Fock matrices
and the Hessian from their linear response to each pair rotation (Seeger &
Pople, J. Chem. Phys. 66, 3045, 1977), and each step is the exact
trust-region step of that quadratic model, so it follows negative curvature
off saddle points: a seed stops only at a true minimum, where the gradient
vanishes and the Hessian is positive definite.  A seed is dropped once its
quadratic model shows it cannot beat the lowest minimum found by 1e-6 Ha.
The lowest minimum wins, ties within 1e-12 Ha in pattern order.
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


GRADIENT_TOL = 1e-10     # orbital-rotation gradient norm at a minimum
MAX_ITERATIONS = 200
OCCUPATION_WINDOW = 2    # extra orbitals beyond n_occ tried in pattern search


@dataclass(frozen=True)
class SCFResult:
    mo_coeffs: np.ndarray         # (n_ao, n_mo)
    orbital_energies: np.ndarray  # (n_mo,), Hartree
    e_hf: float                   # total HF energy incl. nuclear repulsion, Hartree
    n_alpha: int
    n_beta: int
    iterations: int               # Newton steps of the winning seed


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
    """Minimize ROHF from every occupation pattern and return the lowest minimum."""
    if n_alpha < n_beta:
        raise ValueError("n_alpha must be >= n_beta")
    if n_alpha > integrals.n_ao:  # with n_alpha >= n_beta, also caps n_beta
        raise ValueError(f"{n_alpha} alpha electrons exceed {integrals.n_ao} spatial orbitals")
    if n_alpha < 1:
        raise ValueError("at least one electron required")
    n_ao = integrals.n_ao
    _, c0 = scipy.linalg.eigh(integrals.core, integrals.overlap)
    seeds = [
        docc + socc + tuple(i for i in range(n_ao) if i not in docc + socc)
        for docc, socc in _candidate_patterns(n_ao, n_beta, n_alpha - n_beta, OCCUPATION_WINDOW)
    ]
    best: tuple[float, SCFResult] | None = None
    last_error: ConvergenceError | None = None
    for outcome in _minimize(integrals, n_alpha, n_beta, np.moveaxis(c0[:, seeds], 1, 0)):
        if isinstance(outcome, ConvergenceError):
            last_error = outcome
        elif outcome is not None and (best is None or outcome.e_hf < best[0] - 1e-12):
            best = (outcome.e_hf, outcome)
    if best is None:
        raise last_error
    return best[1]


def _minimize(
    integrals: IntegralSet, n_alpha: int, n_beta: int, c: np.ndarray
) -> list[SCFResult | ConvergenceError | None]:
    """Trust-region Newton from each seed of the (P, n, n) stack c, columns
    docc | socc | virt; one outcome per seed: its minimum, None when it was
    dropped as unable to win, or a ConvergenceError.

    The seeds still running have all taken the same number of steps, so they
    share the loop's iteration count and leave the stack as they finish.
    """
    n_ao, n_docc = integrals.n_ao, n_beta
    h = integrals.core
    eri_j = integrals.eri.reshape(n_ao**2, n_ao**2)
    eri_k = integrals.eri.transpose(0, 2, 1, 3).reshape(n_ao**2, n_ao**2)
    # the non-redundant pairs (p, q), p in a more occupied class than q, and
    # per spin the occupation difference n_p - n_q (1 or 0) weighting them
    occupied = np.arange(n_ao)[:, None] < [n_alpha, n_docc]
    cls = occupied.sum(axis=1)
    p, q = np.nonzero(cls[:, None] > cls)
    weight = occupied[p] * 1.0 - occupied[q]
    gens = np.zeros((len(p), n_ao, n_ao))  # d/ds_k moves c_p by +c_q and c_q by -c_p
    gens[np.arange(len(p)), q, p] = 1.0
    gens[np.arange(len(p)), p, q] = -1.0

    def fock(c):
        """(alpha, beta) Fock matrices (P, 2, n, n) and electronic energies."""
        d = _densities(c, c, n_alpha, n_docc)
        f = h + _two_electron(d, eri_j, eri_k)
        return f, 0.5 * (d * (h + f)).sum(axis=(1, 2, 3))

    def gradient_hessian(c, f):
        f_mo = c.mT[:, None] @ f @ c[:, None]
        grad = 2.0 * (f_mo[..., p, q] * weight.T).sum(axis=1)
        # column l: d grad / d s_l, from rotating f_mo and from the density
        # response J[dD_a + dD_b] - K[dD_s], dD_s = w_ls (c_q c_p^T + c_p c_q^T)
        pair = c[..., q].mT[..., :, None] * c[..., p].mT[..., None, :]
        d_resp = (pair + pair.mT)[:, :, None] * weight[:, :, None, None]
        f_resp = c.mT[:, None, None] @ _two_electron(d_resp, eri_j, eri_k) @ c[:, None, None]
        f_rot = gens.mT[:, None] @ f_mo[:, None] + f_mo[:, None] @ gens[:, None]
        hess = 2.0 * np.einsum("blsk,ks->bkl", (f_rot + f_resp)[..., p, q], weight)
        return grad, 0.5 * (hess + hess.mT)

    f, energy = fock(c)
    radius = np.full(len(c), 0.5)
    last_delta = np.full(len(c), np.inf)
    active = np.arange(len(c))
    best = np.inf
    outcomes: list[SCFResult | ConvergenceError | None] = [None] * len(c)
    for iteration in range(1, MAX_ITERATIONS + 1):
        grad, hess = gradient_hessian(c, f)
        curv, vecs = np.linalg.eigh(hess)
        gam = (vecs.mT @ grad[..., None])[..., 0]
        grad_norm = np.linalg.norm(grad, axis=1)
        definite = (curv > 0).all(axis=1)
        done = definite & (grad_norm < GRADIENT_TOL)
        for i in np.flatnonzero(done):
            f_eff = _roothaan_fock(
                f[i, 0], f[i, 1], c[i], integrals.overlap, n_docc, n_alpha - n_docc
            )
            e_hf = float(energy[i]) + integrals.e_nuc
            outcomes[active[i]] = _finalize(f_eff, c[i], e_hf, n_alpha, n_beta, iteration)
            best = min(best, energy[i])
        # a minimum in sight that cannot beat the best one by 1e-6 Ha is dropped
        newton = np.divide(gam**2, curv, where=curv > 0, out=np.zeros_like(gam))
        hopeless = definite & (grad_norm < 1e-3) & (energy - 0.5 * newton.sum(axis=1) > best - 1e-6)
        keep = ~done & ~hopeless
        if not keep.any():
            return outcomes
        active, c, f, energy, radius, last_delta, curv, vecs, gam = (
            a[keep] for a in (active, c, f, energy, radius, last_delta, curv, vecs, gam)
        )

        sig, pred, bounded = _trust_step(curv, gam, radius)
        step = (vecs @ sig[..., None])[..., 0]
        a = np.tensordot(step, gens, axes=1)
        dc = c @ np.linalg.solve(np.eye(n_ao) - 0.5 * a, a)  # c U - c for the Cayley U
        f_new, energy_new = fock(c + dc)
        # E' - E = sum_sigma tr(dD_sigma (F_sigma + F'_sigma)) / 2, with dD formed
        # from dc: exact to rounding relative to the change, not to E
        d_change = _densities(2.0 * c + dc, dc, n_alpha, n_docc)
        delta = 0.5 * (d_change * (f + f_new)).sum(axis=(1, 2, 3))
        rho = -delta / pred
        accept = (delta < 0) & (rho > 0.01)
        size = np.linalg.norm(sig, axis=1)
        grown = np.where((rho > 0.75) & bounded, np.minimum(2 * radius, 1.5), radius)
        radius = np.where(rho < 0.25, size / 4, grown)
        c = np.where(accept[:, None, None], c + dc, c)
        f = np.where(accept[:, None, None, None], f_new, f)
        energy = np.where(accept, energy_new, energy)
        last_delta = np.where(accept, delta, last_delta)
    for i, seed in enumerate(active):
        outcomes[seed] = ConvergenceError(MAX_ITERATIONS, abs(float(last_delta[i])))
    return outcomes


def _densities(x: np.ndarray, y: np.ndarray, n_alpha: int, n_docc: int) -> np.ndarray:
    """(x_s y_s^T + y_s x_s^T) / 2 over the first n_s columns of each spin s:
    the (P, 2, n, n) alpha and beta densities for x = y = c."""
    d = np.stack([x[..., :k] @ y[..., :k].mT for k in (n_alpha, n_docc)], axis=1)
    return 0.5 * (d + d.mT)


def _two_electron(d: np.ndarray, eri_j: np.ndarray, eri_k: np.ndarray) -> np.ndarray:
    """J[d_alpha + d_beta] - K[d_sigma] for (..., 2, n, n) spin densities, with
    (pq|rs) and (pr|qs) as (n^2, n^2) matrices."""
    flat = d.reshape(*d.shape[:-2], d.shape[-1] ** 2)
    return (flat.sum(axis=-2, keepdims=True) @ eri_j - flat @ eri_k).reshape(d.shape)


def _trust_step(curv: np.ndarray, gam: np.ndarray, radius: np.ndarray):
    """Minimize gam.s + sum(curv s^2) / 2 over |s| <= radius per row, in the
    Hessian's eigenbasis: the Newton step when it is a minimum inside the
    region, else s(mu) = -gam / (curv + mu) with the Levenberg shift
    mu > max(0, -curv_min) narrowed until |s(mu)| just fits the radius and,
    under negative curvature, the lowest component stretched downhill to the
    boundary, which moves a seed off a saddle point even where the gradient
    has no component along it.  Returns the step, the model's decrease and
    whether the step is on the boundary."""
    lowest = curv.min(axis=1)
    lo = np.maximum(0.0, -lowest)
    sig = _shifted(curv, gam, lo)
    bounded = (lo > 0) | ((sig**2).sum(axis=1) > radius**2)
    if bounded.any():
        curv_b, gam_b, r2 = curv[bounded], gam[bounded], radius[bounded] ** 2
        lo = lo[bounded]
        hi = lo + np.sqrt((gam_b**2).sum(axis=1) / r2)  # |s(hi)| <= radius
        rows = np.arange(len(lo))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(4):  # each pass cuts [lo, hi] 64-fold; hi keeps fitting
                mu = lo[:, None] + (hi - lo)[:, None] * np.linspace(1 / 64, 1, 64)
                norm2 = ((gam_b[:, None] / (curv_b[:, None] + mu[..., None])) ** 2).sum(axis=2)
                k = (norm2 <= r2[:, None]).argmax(axis=1)
                lo, hi = np.where(k > 0, mu[rows, k - 1], lo), mu[rows, k]
        sig_b = _shifted(curv_b, gam_b, hi)
        # negative curvature: stretch the lowest component, downhill, to the boundary
        reach = np.sqrt(np.maximum(r2 - (sig_b[:, 1:] ** 2).sum(axis=1), 0.0))
        downhill = np.where(gam_b[:, 0] > 0, -reach, reach)
        sig_b[:, 0] = np.where(lowest[bounded] < 0, downhill, sig_b[:, 0])
        sig[bounded] = sig_b
    return sig, -(gam * sig).sum(axis=1) - 0.5 * (curv * sig**2).sum(axis=1), bounded


def _shifted(curv: np.ndarray, gam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """-gam / (curv + mu) per row, 0 where the shifted curvature is not positive."""
    den = curv + mu[:, None]
    return -np.divide(gam, den, where=den > 0, out=np.zeros_like(gam))


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
