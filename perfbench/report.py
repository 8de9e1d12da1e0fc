"""One command for the whole benchmark: every workload, untraced then traced.

    python3 perfbench/report.py [--seed 1]

For each workload it runs `run.py` twice, in separate processes and for
BENCHMARK.json's `run_seconds` each: untraced for the end-to-end metrics and
the output checks, traced for the per-layer table.  It prints every metric
with its unit, the per-check failure counts, the tracing overhead (traced
minus untraced wall time per op), whether the traced run reproduced the
untraced run's outputs bit for bit, and whether each heavy workload's named
layer carries the largest self-time share there and under 10% on another
workload.  Exit status 1 if a run could not produce a result or the traced
outputs differ; failed output checks are reported, not fatal.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

from run import WORKLOAD_NAMES  # noqa: E402

# workload -> the layer (span names, summed) that should dominate it
DESIGN = {
    "adiabatic_A": ("prep.prepare_trapezoidal",),
    "cluster_scan": ("scf.run_scf", "fermion.jordan_wigner"),
    "noisy_C": ("subspace.build_subspace",),
}
MINOR_SHARE = 0.10


def run_once(workload: str, seed: int, seconds: float, trace: int,
             ops: int = 0) -> tuple[dict, dict] | None:
    """(record, result) of one run.py process, or None if it gave no result."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        print(f"!! {workload} trace={trace}: exit {proc.returncode}, no result")
        return None
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def share(shares: dict, names: tuple[str, ...]) -> float:
    return sum(shares.get(n, 0.0) for n in names)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    plain, traced = {}, {}
    for w in WORKLOAD_NAMES:
        print(f".. {w}: untraced and traced runs, seed {args.seed}, {seconds} s each",
              flush=True)
        plain[w] = run_once(w, args.seed, seconds, 0)
        traced[w] = run_once(w, args.seed, seconds, 1)
        if plain[w] is None or traced[w] is None:
            return 1
    ok = True

    print("\n== end-to-end metrics (untraced run) ==")
    for w, (record, result) in plain.items():
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failures_by_check={record['failures_by_check']}")
        for name, (value, unit) in record["metrics"].items():
            extra = f"  (n={record['latency_samples']})" if name == "op_p50_s" else ""
            print(f"  {name:16s} {value!r:>24} {unit}{extra}")

    print("\n== per-layer metrics: per op, set-up per run (traced run) ==")
    layers = {w: traced[w][0]["layers"] for w in WORKLOAD_NAMES}
    print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in WORKLOAD_NAMES) + "  unit")
    for name, (_, unit) in layers[WORKLOAD_NAMES[0]].items():
        row = "".join(f"{layers[w][name][0]:16.6g}" for w in WORKLOAD_NAMES)
        print(f"{name:44s}{row}  {unit}")

    print("\n== self-time share of the traced ops' wall time (top 5) ==")
    for w in WORKLOAD_NAMES:
        top = list(traced[w][0]["op_phase_shares"].items())[:5]
        print(f"{w}: " + ", ".join(f"{n} {s:.1%}" for n, s in top))

    print("\n== tracing overhead and bit-identity ==")
    for w in WORKLOAD_NAMES:
        rp, rt = plain[w][0], traced[w][0]
        per_op_p = rp["timed_s"] / rp["attempted"]
        per_op_t = rt["timed_s"] / rt["attempted"]
        same = rp["outputs"]["head_sha256"] == rt["outputs"]["head_sha256"]
        ok &= same
        print(f"{w}: wall/op untraced {per_op_p:.6g} s, traced {per_op_t:.6g} s, "
              f"overhead {per_op_t - per_op_p:+.6g} s ({(per_op_t / per_op_p - 1):+.1%}); "
              f"first {rp['outputs']['head_ops']} ops' outputs "
              f"{'identical' if same else 'DIFFER'}")

    print("\n== workload design: named layer's share ==")
    for w, layer in DESIGN.items():
        shares = traced[w][0]["op_phase_shares"]
        own = share(shares, layer)
        largest = max((s for n, s in shares.items() if n not in layer), default=0.0)
        others = {o: share(traced[o][0]["op_phase_shares"], layer)
                  for o in WORKLOAD_NAMES if o != w}
        minor = [o for o, s in others.items() if s < MINOR_SHARE]
        verdict = "PASS" if own > largest and minor else "FAIL"
        print(f"{verdict} {w}: {' + '.join(layer)} {own:.1%} (next largest {largest:.1%}); "
              + ", ".join(f"{o} {s:.1%}" for o, s in others.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
