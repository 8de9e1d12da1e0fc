"""Desk-scale laboratory for the cascaded variational quantum eigensolver.

Pipeline: hydrogen-cluster geometry -> STO-6G integrals -> restricted
open-shell HF -> Jordan-Wigner qubit Hamiltonian -> trapezoidal / Trotterized
guiding-state preparation -> shot sampling -> reference-sector filter ->
classical subspace optimization -> comparison against the sector full-CI
oracle.
"""

from .constants import CHEMICAL_ACCURACY_EV, EV_PER_HARTREE
from .fci import SectorBasis, enumerate_sector, solve_fci
from .fcidump import read_fcidump, write_fcidump
from .fermion import (
    SecondQuantizedHamiltonian,
    jordan_wigner,
    model_gap,
    model_pauli,
    second_quantize,
)
from .geometry import Geometry, load_geometry, nuclear_repulsion, parse_geometry
from .integrals import IntegralSet, compute_integrals
from .pauli import PauliSum, to_dense
from .pipeline import (
    RunConfig,
    StageReport,
    build_system,
    compare_distributions,
    emit_report,
    omega_scan,
    run_multi_seed,
    run_pipeline,
    sweep_reaction_path,
)
from .prep import (
    CircuitStats,
    ConditionReport,
    PrepSchedule,
    TrotterConfig,
    build_schedule,
    check_conditions,
    circuit_stats,
    prepare_guiding,
    prepare_trapezoidal,
)
from .scf import MOIntegrals, SCFResult, load_hf_energy_table, run_scf, transform_to_mo
from .statevector import (
    Distribution,
    SampleCounts,
    StateVector,
    expectation,
    init_fock,
    mix_noise,
    probabilities,
)
from .subspace import (
    OptimizedState,
    OutcomeSet,
    SubspaceHamiltonian,
    build_subspace,
    collect_outcomes,
    embed_optimized,
    optimize,
)

__version__ = "0.1.0"
