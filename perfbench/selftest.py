"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs with the same seed give identical counts.
2. Traced and untraced runs with the same seed give bit-identical energies
   and distributions (same input and output hashes).
3. The traced counts are the ops' own: on cluster_scan, `subspace.dim` per op
   is the FCI sector size plus the 20 seeds' outcome counts, with none of the
   output checks' calls in it.
4. The output checks reject results corrupted by 1e-6 (energies in Ha,
   probability mass, FCIDUMP integrals) and accept the uncorrupted ones.
5. BENCHMARK.json names exactly the metrics run.py reports.

Exit status 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
from report import run_once

SEED = 7
SHIFT = 1e-6
FIXED_OPS = {"seeds_C": 200, "cluster_scan": 3}


def run_fixed(workload: str, trace: int) -> tuple[dict, dict]:
    res = run_once(workload, SEED, 1, trace, ops=FIXED_OPS[workload])
    if res is None:
        raise SystemExit(f"selftest: {workload} trace={trace} gave no result")
    return res


def counts_only(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] not in ("s",)}


def cluster_dim_per_op(workdir) -> float:
    """`subspace.dim` per op of the fixed cluster_scan run, from its reports:
    the FCI sector's determinants plus each seed's outcome set."""
    import oracles
    import workloads

    cluster = workloads.WORKLOADS["cluster_scan"](workdir)
    inputs = cluster.inputs(SEED)
    total = 0
    for _ in range(FIXED_OPS["cluster_scan"]):
        system, _, reports = cluster.op(next(inputs))
        total += len(oracles.sector_indices(system.h_pauli.n_qubits, *cluster.sector))
        total += sum(r.outcome_count for r in reports)
    return total / FIXED_OPS["cluster_scan"]


def corrupted_checks(workdir) -> list[tuple[str, bool]]:
    """(description, passed) for the oracle rejection tests, on one seeds_C op
    and one cluster_scan op."""
    import oracles
    import workloads

    seeds = workloads.WORKLOADS["seeds_C"](workdir)
    seeds.setup()
    seeds.prepare_oracle()
    report = seeds.op(12345)
    e_ref = seeds.e_dense
    out = [("unmodified report accepted",
            oracles.check_fci(report.e_g, e_ref) + oracles.check_report(report, e_ref) == [])]

    shifted_fci = oracles.check_fci(report.e_g + SHIFT, e_ref)
    out.append(("E_g shifted by 1e-6 Ha rejected", shifted_fci == ["fci_dense"]))
    below = dataclasses.replace(report, e_optimized=e_ref - SHIFT)
    out.append(("E* 1e-6 Ha below E_g rejected",
                oracles.check_report(below, e_ref) == ["variational_bound"]))
    dist = report.distributions["sGD"]
    bad = dataclasses.replace(dist, probs=dict(dist.probs))
    first = next(iter(bad.probs))
    bad.probs[first] += SHIFT
    skewed = dataclasses.replace(report, distributions={**report.distributions, "sGD": bad})
    out.append(("sGD mass off by 1e-6 rejected",
                oracles.check_report(skewed, e_ref) == ["distribution_norm"]))

    cluster = workloads.WORKLOADS["cluster_scan"](workdir)
    inp = next(cluster.inputs(3))
    system, mo_read, reports = cluster.op(inp)
    _, failed, _ = cluster.check(inp, (system, mo_read, reports))
    out.append(("unmodified cluster op accepted", failed == []))
    h_bad = mo_read.h_mo.copy()
    h_bad[0, 0] += SHIFT
    mo_bad = dataclasses.replace(mo_read, h_mo=h_bad)
    _, failed, _ = cluster.check(inp, (system, mo_bad, reports))
    out.append(("FCIDUMP h[1,1] shifted by 1e-6 Ha rejected", failed == ["fcidump_roundtrip"]))
    return out


def spec_names(section: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def main() -> int:
    results: list[tuple[str, bool]] = []
    traced = {}
    for workload in FIXED_OPS:
        rec_a, res_a = traced[workload] = run_fixed(workload, 1)
        rec_b, res_b = run_fixed(workload, 1)
        results.append((f"{workload}: two traced runs give identical counts",
                        counts_only(res_a) == counts_only(res_b)))
        rec_p, res_p = run_fixed(workload, 0)
        results.append((f"{workload}: traced and untraced outputs bit-identical",
                        rec_p["inputs"] == rec_a["inputs"]
                        and rec_p["outputs"] == rec_a["outputs"]))
        results.append((f"{workload}: untraced metrics match BENCHMARK.json end_to_end",
                        set(res_p["metrics"]) == spec_names("end_to_end")))
        results.append((f"{workload}: traced metrics match BENCHMARK.json per_layer",
                        set(res_a["metrics"]) == spec_names("per_layer")))

    run.import_cvqelab()
    workdir = run.OUT_DIR / f"selftest-{os.getpid()}"
    try:
        results.append(("cluster_scan: subspace.dim per op = sector size + outcome counts",
                        traced["cluster_scan"][1]["metrics"]["subspace.dim"]["value"]
                        == cluster_dim_per_op(workdir)))
        results += corrupted_checks(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return 0 if all(passed for _, passed in results) else 1


if __name__ == "__main__":
    sys.exit(main())
