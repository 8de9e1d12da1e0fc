"""End-to-end orchestration: geometry -> integrals -> SCF -> Hamiltonians ->
state preparation -> sampling -> sector filter -> subspace optimization ->
FCI comparison, plus distribution metrics, reaction-path sweeps, and report
emission.
"""

from __future__ import annotations

import json
import numbers
import os
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .constants import EV_PER_HARTREE
from .fci import SectorBasis, enumerate_sector, solve_sector
from .fermion import (
    SecondQuantizedHamiltonian,
    jordan_wigner,
    model_gap,
    model_pauli,
    second_quantize,
)
from .geometry import Geometry, load_geometry
from .integrals import compute_integrals
from .pauli import PauliSum
from .prep import (
    CircuitStats,
    ConditionReport,
    TrotterConfig,
    build_schedule,
    check_conditions,
    circuit_stats,
    prepare_guiding,
    prepare_trapezoidal,
)
from .scf import MOIntegrals, SCFResult, lookup_external_hf, run_scf, transform_to_mo
from .statevector import (
    Distribution,
    expectation,
    mix_noise,
    probabilities,
    sample_distribution,
)
from .subspace import (
    OptimizedState,
    OutcomeSet,
    SubspaceHamiltonian,
    build_subspace,
    collect_outcomes,
    determinant_hamiltonian,
    embed_optimized,
    optimize,
    restrict_to_sector,
)

OUTPUT_ROOT_ENV = "CVQELAB_OUTPUT_ROOT"

# (K, hbar_omega); regime C leaves hbar_omega free, 1.0 Ha by default
REGIME_PRESETS = {
    "A": {"K": 500, "hbar_omega": 10.0},
    "B": {"K": 1000, "hbar_omega": 1.0},
    "C": {"K": 1, "hbar_omega": 1.0},
}

# the values each RunConfig annotation accepts; bools are Integral, so only
# the bool field takes them
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


@dataclass(frozen=True)
class RunConfig:
    geometry: str = "well"          # built-in label or XYZ path
    charge: int = 1
    multiplicity: int = 2
    K: int = 500
    hbar_omega: float = 10.0        # Hartree
    shots: int = 1_000_000
    seed: int = 1
    count_threshold: int = 1
    prune_threshold: float = 0.0    # Hartree
    drop_diagonal: bool = False
    term_order: str = "magnitude_desc"
    noise_lambda: float = 0.0
    regime: str = ""
    output_dir: str = ""

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if (not isinstance(value, _FIELD_TYPES[field.type])
                    or isinstance(value, bool) != (field.type == "bool")):
                raise TypeError(f"{field.name} must be {field.type}, got {value!r}")

    @classmethod
    def for_regime(cls, regime: str, **overrides) -> "RunConfig":
        key = regime.upper() if isinstance(regime, str) else None
        if key not in REGIME_PRESETS:
            raise ValueError(f"regime must be one of {', '.join(REGIME_PRESETS)}, got {regime!r}")
        return cls(**{**REGIME_PRESETS[key], "regime": key, **overrides})

    def electron_counts(self, n_atoms: int) -> tuple[int, int]:
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity {self.multiplicity} must be >= 1")
        n_elec = n_atoms - self.charge
        n_unpaired = self.multiplicity - 1
        n_beta, odd = divmod(n_elec - n_unpaired, 2)
        n_alpha = n_beta + n_unpaired
        # one spatial orbital per hydrogen caps n_alpha
        if odd or n_beta < 0 or n_elec < 1 or n_alpha > n_atoms:
            raise ValueError(
                f"charge {self.charge} / multiplicity {self.multiplicity} "
                f"infeasible for {n_atoms} hydrogens"
            )
        return n_alpha, n_beta

    def trotter(self) -> TrotterConfig:
        return TrotterConfig(
            term_order=self.term_order,
            prune_threshold=self.prune_threshold,
            drop_diagonal=self.drop_diagonal,
        )


@dataclass(frozen=True)
class StageReport:
    config: RunConfig
    distributions: dict[str, Distribution]   # pTD, pGD, sGD, pOD, pGndD
    e_hf: float
    e_g: float
    e_trapezoidal: float
    e_guiding: float
    e_optimized: float
    errors_ev: dict[str, float]              # |stage - E_g| in eV
    conditions: ConditionReport
    stats: CircuitStats
    omega0: float
    outcome_count: int
    metrics_vs_ground: dict[str, dict[str, float]]
    optimized: OptimizedState
    n_qubits: int


@dataclass(frozen=True)
class SystemModel:
    """Shared per-geometry artifacts, reusable across seeds and schedules."""

    geometry: Geometry
    scf: SCFResult
    sq: SecondQuantizedHamiltonian
    h_pauli: PauliSum
    h0_pauli: PauliSum
    omega0: float
    phi0: int
    sector: SectorBasis       # reference (n_alpha, n_beta) determinants
    sector_hamiltonian: SubspaceHamiltonian   # H on the whole sector
    fci_energy: float
    ground: Distribution      # pGndD


def build_mean_field(
    config: RunConfig, geometry: Geometry | None = None
) -> tuple[Geometry, SCFResult, MOIntegrals]:
    """Geometry -> electron counts -> integrals -> SCF -> MO integrals."""
    geom = geometry if geometry is not None else load_geometry(config.geometry)
    n_alpha, n_beta = config.electron_counts(geom.n_atoms)
    integrals = compute_integrals(geom)
    scf = run_scf(integrals, n_alpha, n_beta)
    return geom, scf, transform_to_mo(integrals, scf)


def build_system(config: RunConfig, geometry: Geometry | None = None) -> SystemModel:
    geom, scf, mo = build_mean_field(config, geometry)
    sq = second_quantize(mo)
    h = jordan_wigner(sq)
    sector = enumerate_sector(sq.n_spin_orbitals, scf.n_alpha, scf.n_beta)
    # the one run of the determinant rules: every subspace, FCI's included,
    # is gathered from this matrix
    sector_h = determinant_hamiltonian(OutcomeSet(members=sector.determinants), sq)
    fci = solve_sector(sector_h)
    return SystemModel(
        geometry=geom,
        scf=scf,
        sq=sq,
        h_pauli=h,
        h0_pauli=model_pauli(scf),
        omega0=model_gap(scf, sector.determinants),
        # the lowest up and down spin orbitals: the aufbau HF determinant
        phi0=sector.determinants[0],
        sector=sector,
        sector_hamiltonian=sector_h,
        fci_energy=fci.energy,
        ground=probabilities(embed_optimized(fci.theta, fci.basis, h.n_qubits)),
    )


@dataclass(frozen=True)
class PreparedRun:
    """Deterministic (seed-independent) portion of a run, reusable across seeds."""

    system: SystemModel
    config: RunConfig
    p_td: Distribution
    p_gd: Distribution
    sampled_from: Distribution
    e_trapezoidal: float
    e_guiding: float
    stats: CircuitStats
    conditions: ConditionReport
    metrics_vs_ground: dict[str, dict[str, float]]   # pTD and pGD


def prepare_run(config: RunConfig, system: SystemModel | None = None) -> PreparedRun:
    sys_model = system if system is not None else build_system(config)
    h, h0 = sys_model.h_pauli, sys_model.h0_pauli
    schedule = build_schedule(config.K, config.hbar_omega)
    trotter = config.trotter()

    psi_trap = prepare_trapezoidal(h0, h, schedule, sys_model.phi0)
    psi_guid = prepare_guiding(h0, h, schedule, sys_model.phi0, trotter)
    p_td = probabilities(psi_trap)
    p_gd = probabilities(psi_guid)

    return PreparedRun(
        system=sys_model,
        config=config,
        p_td=p_td,
        p_gd=p_gd,
        sampled_from=mix_noise(p_gd, config.noise_lambda, h.n_qubits),
        e_trapezoidal=expectation(psi_trap, h),
        e_guiding=expectation(psi_guid, h),
        stats=circuit_stats(h0, h, schedule, trotter),
        conditions=check_conditions(config.K, config.hbar_omega, sys_model.omega0),
        metrics_vs_ground={
            "pTD": compare_distributions(p_td, sys_model.ground),
            "pGD": compare_distributions(p_gd, sys_model.ground),
        },
    )


def finish_run(prepared: PreparedRun, seed: int) -> StageReport:
    """Seeded sampling + classical optimization on top of a prepared run."""
    sys_model = prepared.system
    config = prepared.config
    n_qubits = sys_model.h_pauli.n_qubits

    counts = sample_distribution(prepared.sampled_from, config.shots, seed)
    s_gd = counts.empirical_distribution()
    outcomes = restrict_to_sector(
        collect_outcomes(counts, config.count_threshold), sys_model.sector
    )
    opt = optimize(build_subspace(outcomes, sys_model.sector_hamiltonian))
    psi_opt = embed_optimized(opt.theta, outcomes, n_qubits)
    p_od = probabilities(psi_opt)

    e_g = sys_model.fci_energy
    errors_ev = {
        "trapezoidal": abs(prepared.e_trapezoidal - e_g) * EV_PER_HARTREE,
        "guiding": abs(prepared.e_guiding - e_g) * EV_PER_HARTREE,
        "optimized": abs(opt.energy - e_g) * EV_PER_HARTREE,
        "hf": abs(sys_model.scf.e_hf - e_g) * EV_PER_HARTREE,
    }
    dists = {
        "pTD": prepared.p_td,
        "pGD": prepared.p_gd,
        "sGD": s_gd,
        "pOD": p_od,
        "pGndD": sys_model.ground,
    }
    metrics = {
        **prepared.metrics_vs_ground,
        "sGD": compare_distributions(s_gd, sys_model.ground),
        "pOD": compare_distributions(p_od, sys_model.ground),
    }

    return StageReport(
        config=replace(config, seed=seed),
        distributions=dists,
        e_hf=sys_model.scf.e_hf,
        e_g=e_g,
        e_trapezoidal=prepared.e_trapezoidal,
        e_guiding=prepared.e_guiding,
        e_optimized=opt.energy,
        errors_ev=errors_ev,
        conditions=prepared.conditions,
        stats=prepared.stats,
        omega0=sys_model.omega0,
        outcome_count=len(outcomes),
        metrics_vs_ground=metrics,
        optimized=opt,
        n_qubits=n_qubits,
    )


def run_pipeline(
    config: RunConfig, system: SystemModel | None = None
) -> StageReport:
    """One full CVQE run; deterministic given (config, seed)."""
    return finish_run(prepare_run(config, system=system), config.seed)


def run_multi_seed(
    config: RunConfig, seeds: list[int], system: SystemModel | None = None
) -> dict:
    """Repeat the stochastic stages over seeds (state preparation happens
    once); report per-seed optimized errors with median and quartiles (eV)."""
    prepared = prepare_run(config, system=system)
    errors = [finish_run(prepared, seed).errors_ev["optimized"] for seed in seeds]
    arr = np.array(errors)
    return {
        "seeds": list(seeds),
        "optimized_errors_ev": errors,
        "median_ev": float(np.median(arr)),
        "q25_ev": float(np.quantile(arr, 0.25)),
        "q75_ev": float(np.quantile(arr, 0.75)),
        "max_ev": float(arr.max()),
    }


def compare_distributions(p: Distribution, q: Distribution) -> dict[str, float]:
    """Total variation, smoothed KL divergence KL(p||q), and support overlap
    |supp(p) & supp(q)| / |supp(q)| at a 1e-6 cutoff."""
    p_get, q_get = p.probs.get, q.probs.get
    eps = 1e-12
    tv = kl = 0.0
    # one walk over the union support; tv and kl accumulate from 0 in its order
    for n in set(p.probs) | set(q.probs):
        pn, qn = p_get(n, 0.0), q_get(n, 0.0)
        tv += abs(pn - qn)
        kl += (pn + eps) * np.log((pn + eps) / (qn + eps))
    tv = 0.5 * tv
    supp_p = p.support(1e-6)
    supp_q = q.support(1e-6)
    overlap = len(supp_p & supp_q) / len(supp_q) if supp_q else 0.0
    return {"tv": float(tv), "kl_smoothed": float(kl), "support_overlap": float(overlap)}


def sweep_reaction_path(
    geometries: list[str],
    config: RunConfig,
    bsc_table: dict[str, float] | None = None,
) -> dict:
    """Per-geometry HF / FCI / optimized energies, optionally basis-corrected,
    with the endpoint reaction energy."""
    if not geometries:
        raise ValueError("at least one geometry required")
    rows = []
    for label in geometries:
        cfg = replace(config, geometry=label)
        system = build_system(cfg)
        report = run_pipeline(cfg, system=system)
        row = {
            "geometry": label,
            "e_hf": system.scf.e_hf,
            "e_fci": system.fci_energy,
            "e_cvqe": report.e_optimized,
            "optimized_error_ev": report.errors_ev["optimized"],
        }
        if bsc_table is not None:
            e_large = lookup_external_hf(bsc_table, label)
            bsc = e_large - system.scf.e_hf
            row["e_hf_large"] = e_large
            row["e_bsc"] = bsc
            row["e_fci_corrected"] = system.fci_energy + bsc
            row["e_cvqe_corrected"] = report.e_optimized + bsc
        rows.append(row)

    result = {"rows": rows}
    if len(rows) >= 2:
        first, last = rows[0], rows[-1]
        for key in ("e_fci", "e_cvqe", "e_hf", "e_fci_corrected", "e_cvqe_corrected"):
            if key in first:
                result[f"delta_{key[2:]}_ev"] = (last[key] - first[key]) * EV_PER_HARTREE
    return result


def omega_scan(
    config: RunConfig,
    omegas: list[float],
    system: SystemModel | None = None,
) -> dict:
    """Guiding-state distributions for a family of adiabatic energy scales.

    Expected at K = 1 (warns otherwise); reports the starting-determinant
    probability per scale.
    """
    if config.K != 1:
        warnings.warn(f"omega scan expects K = 1, got K = {config.K}", stacklevel=2)
    sys_model = system if system is not None else build_system(config)
    trotter = config.trotter()
    rows = []
    for omega in omegas:
        schedule = build_schedule(config.K, omega)
        psi = prepare_guiding(
            sys_model.h0_pauli, sys_model.h_pauli, schedule, sys_model.phi0, trotter
        )
        dist = probabilities(psi)
        rows.append(
            {
                "hbar_omega": omega,
                "hf_probability": dist.probability(sys_model.phi0),
                "distribution": dist,
            }
        )
    return {"hf_index": sys_model.phi0, "rows": rows}


def _resolve_output_dir(config: RunConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV, "")
    base = Path(root) if root else Path(".")
    out = base / (config.output_dir or "cvqelab-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def emit_report(report: StageReport, output_dir: str | Path | None = None) -> list[Path]:
    """Write the structured JSON report plus one CSV per distribution.

    CSV rows (decimal index, bitstring, probability) are ordered by
    descending ground-state probability, ties by index, mirroring the
    bar-chart ordering; entries below 1e-12 are omitted.
    """
    out = Path(output_dir) if output_dir is not None else _resolve_output_dir(report.config)
    out.mkdir(parents=True, exist_ok=True)
    q = report.n_qubits
    ground = report.distributions["pGndD"]

    def sort_key(n: int) -> tuple[float, int]:
        return (-ground.probability(n), n)

    written = []
    for label, dist in report.distributions.items():
        path = out / f"distribution_{label}.csv"
        rows = sorted((n for n, p in dist.probs.items() if p >= 1e-12), key=sort_key)
        lines = ["index,bitstring,probability"]
        for n in rows:
            lines.append(f"{n},{n:0{q}b},{dist.probs[n]!r}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    path = out / "optimized_state.csv"
    lines = ["index,bitstring,re_theta,im_theta"]
    for theta, n in zip(report.optimized.theta, report.optimized.basis.members):
        lines.append(f"{n},{n:0{q}b},{theta.real!r},{theta.imag!r}")
    path.write_text("\n".join(lines) + "\n")
    written.append(path)

    payload = {
        "config": asdict(report.config),
        "energies_ha": {
            "e_hf": report.e_hf,
            "e_g": report.e_g,
            "trapezoidal": report.e_trapezoidal,
            "guiding": report.e_guiding,
            "optimized": report.e_optimized,
        },
        "optimized_energy_ev": report.e_optimized * EV_PER_HARTREE,
        "errors_ev": report.errors_ev,
        "omega0_ha": report.omega0,
        "conditions": asdict(report.conditions),
        "circuit_stats": asdict(report.stats),
        "outcome_count": report.outcome_count,
        "metrics_vs_ground": report.metrics_vs_ground,
        "distributions": {
            label: {str(n): p for n, p in sorted(dist.probs.items())}
            for label, dist in report.distributions.items()
        },
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written.append(report_path)
    return written
