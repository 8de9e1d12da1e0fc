"""The benchmark's workloads: generated inputs, the timed op and its checks.

All workloads are closed loops with one client: the next op starts only
after the previous one has returned, as for a researcher waiting on each CLI
call.  Inputs come only from the workload seed; the program receives only
the generated `RunConfig`s, sampling seeds and XYZ text.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from pathlib import Path

import numpy as np

# cvqelab functions are looked up on their modules at call time, so the
# traced run's wrappers (installed after this import) see every call.
import cvqelab.fcidump as fcidump
import cvqelab.integrals as integrals
import cvqelab.pipeline as pipeline
import cvqelab.scf as scf
from cvqelab import RunConfig, parse_geometry

import oracles

N_ATOMS = 4                 # every workload runs H4+ doublets
SEEDS_PER_CLUSTER = 20      # the paper's 20-seed statistics protocol
# cluster_scan visits a fixed corpus of random clusters in an order drawn from
# the workload seed.  Cluster cost varies about 2x between clusters, so fresh
# clusters per seed would make a run's throughput depend on which clusters it
# drew; a corpus that every run covers fully keeps runs comparable.
CORPUS_SEED = 4
CORPUS_SIZE = 32
MIN_SEPARATION_A = 0.55     # same rule as the tests' random_cluster
BOX_HALF_WIDTH_A = 1.6

REGIME_C_PRUNED = dict(shots=4096, prune_threshold=0.02, drop_diagonal=True)


def seed_stream(seed: int, stream: int) -> Iterator[int]:
    """Endless sampling seeds derived from the workload seed."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(1, 2**63))


def random_cluster_xyz(rng: np.random.Generator) -> str:
    """Uniform H4 positions in a cube, redrawn until every pair is > 0.55 A apart."""
    while True:
        pos = rng.uniform(-BOX_HALF_WIDTH_A, BOX_HALF_WIDTH_A, size=(N_ATOMS, 3))
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        if dist[np.triu_indices(N_ATOMS, 1)].min() > MIN_SEPARATION_A:
            return "\n".join(f"H {x:.10f} {y:.10f} {z:.10f}" for x, y, z in pos)


def report_digest(h, reports) -> None:
    """Feed the energies and all five distributions of each report to h."""
    for r in reports:
        h.update(repr((r.e_g, r.e_trapezoidal, r.e_guiding, r.e_optimized)).encode())
        for label in sorted(r.distributions):
            h.update(label.encode())
            h.update(repr(sorted(r.distributions[label].probs.items())).encode())


def warm_up(workdir: Path) -> None:
    """One small pass through every traced layer: fills lazy imports and
    caches (the first SCF in a process is several times slower than later
    ones) before anything is timed."""
    config = RunConfig.for_regime("C", shots=4096, noise_lambda=0.05)
    system = pipeline.build_system(config)
    report = pipeline.finish_run(pipeline.prepare_run(config, system), 1)
    n_alpha, n_beta = system.scf.n_alpha, system.scf.n_beta
    mo = scf.transform_to_mo(integrals.compute_integrals(system.geometry), system.scf)
    fcidump.read_fcidump(fcidump.write_fcidump(mo, n_elec=n_alpha + n_beta, ms2=n_alpha - n_beta))
    pipeline.emit_report(report, workdir / "warm_up")


class Workload:
    """One workload: its config, input stream, timed op and output checks."""

    name = ""
    config: RunConfig

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.sector = self.config.electron_counts(N_ATOMS)

    def setup(self) -> None:
        """Per-invocation work the user pays before the first op (timed)."""

    def prepare_oracle(self) -> None:
        """Reference values for the checks (untimed)."""

    def inputs(self, seed: int) -> Iterator:
        return seed_stream(seed, 0)

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list, list[str], float]:
        """(reports, failed check names, op error in eV)."""
        raise NotImplementedError


class AdiabaticA(Workload):
    """`cvqelab run` at the regime-A preset: one run_pipeline + emit_report per op."""

    name = "adiabatic_A"
    config = RunConfig.for_regime("A", shots=1_000_000)

    def prepare_oracle(self) -> None:
        system = pipeline.build_system(self.config)
        self.e_dense = oracles.dense_sector_energy(system.h_pauli, *self.sector)

    def op(self, seed: int):
        report = pipeline.run_pipeline(dataclasses.replace(self.config, seed=seed))
        pipeline.emit_report(report, self.workdir / "report")
        return report

    def check(self, seed, report):
        failed = oracles.check_fci(report.e_g, self.e_dense)
        failed += oracles.check_report(report, self.e_dense)
        return [report], failed, report.errors_ev["optimized"]


class SeedsC(Workload):
    """One prepare_run, then one finish_run per sampling seed."""

    name = "seeds_C"
    config = RunConfig.for_regime("C", **REGIME_C_PRUNED)

    def setup(self) -> None:
        self.prepared = pipeline.prepare_run(self.config, pipeline.build_system(self.config))

    def prepare_oracle(self) -> None:
        system = self.prepared.system
        self.e_dense = oracles.dense_sector_energy(system.h_pauli, *self.sector)
        self.fci_failed = oracles.check_fci(system.fci_energy, self.e_dense)

    def op(self, seed: int):
        return pipeline.finish_run(self.prepared, seed)

    def check(self, seed, report):
        failed = self.fci_failed + oracles.check_report(report, self.e_dense)
        return [report], failed, report.errors_ev["optimized"]


class NoisyC(SeedsC):
    """As seeds_C with noise 0.05, 1e6 shots and no pruning: 256 outcomes per seed."""

    name = "noisy_C"
    config = RunConfig.for_regime("C", shots=1_000_000, noise_lambda=0.05, count_threshold=1)


class ClusterScan(Workload):
    """Random H4+ clusters: build_system, FCIDUMP round trip, 20 seeds each."""

    name = "cluster_scan"
    config = RunConfig.for_regime("C", **REGIME_C_PRUNED)

    def inputs(self, seed: int) -> Iterator:
        corpus_rng = np.random.default_rng(CORPUS_SEED)
        corpus = [random_cluster_xyz(corpus_rng) for _ in range(CORPUS_SIZE)]
        order_rng = np.random.default_rng([seed, 1])
        seeds = seed_stream(seed, 2)
        while True:
            for i in order_rng.permutation(CORPUS_SIZE):
                yield f"cluster{i}", corpus[i], [next(seeds) for _ in range(SEEDS_PER_CLUSTER)]

    def op(self, inp):
        label, xyz, seeds = inp
        geometry = parse_geometry(xyz, label=label)
        system = pipeline.build_system(self.config, geometry=geometry)
        n_alpha, n_beta = self.sector
        mo = scf.transform_to_mo(integrals.compute_integrals(geometry), system.scf)
        mo_read, _ = fcidump.read_fcidump(
            fcidump.write_fcidump(mo, n_elec=n_alpha + n_beta, ms2=n_alpha - n_beta)
        )
        prepared = pipeline.prepare_run(self.config, system)
        return system, mo_read, [pipeline.finish_run(prepared, s) for s in seeds]

    def check(self, inp, out):
        system, mo_read, reports = out
        e_dense = oracles.dense_sector_energy(system.h_pauli, *self.sector)
        failed = oracles.check_fci(system.fci_energy, e_dense)
        failed += oracles.check_fcidump_roundtrip(mo_read, *self.sector, system.fci_energy)
        for report in reports:
            failed += oracles.check_report(report, e_dense)
        errors = [r.errors_ev["optimized"] for r in reports]
        return reports, sorted(set(failed)), float(np.median(errors))


WORKLOADS = {w.name: w for w in (AdiabaticA, SeedsC, NoisyC, ClusterScan)}

