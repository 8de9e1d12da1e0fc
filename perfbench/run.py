"""CVQE benchmark: one workload, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
`src/`.  The untraced run (`--trace 0`) measures the end-to-end metrics; the
traced run (`--trace 1`) wraps spans around calls into cvqelab's modules and
reports per-layer self times and counts.  Every op's outputs are checked by
`oracles.py`.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is a JSON
{"record": ...} with the environment, input and output hashes, per-check
failure counts and the metrics that are not gated.
"""

import os

# BLAS threads are pinned before numpy is first imported, here and in the
# set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("adiabatic_A", "seeds_C", "noisy_C", "cluster_scan")
SETUP_PROBES = 3        # set-up is measured in this many fresh processes
MIN_OPS = 3             # ops measured even when one op outlasts --seconds
PROBE_TIMEOUT_S = 120

END_TO_END = {          # name -> unit; the metrics of the untraced run's result
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}

MULTINOMIAL_NOTE = (
    "sGD and everything after it depend on numpy's Generator.multinomial "
    "stream, which differs between numpy versions; compare outputs only "
    "across runs with the same numpy"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=0,
                   help="run exactly this many ops instead of timing --seconds")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.ops < 0:
        p.error("--seconds must be positive and --ops nonnegative")
    return args


def import_cvqelab() -> float:
    """Import the checkout's cvqelab (never an installed copy); returns seconds."""
    if not (SRC / "cvqelab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no cvqelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cvqelab
    elapsed = time.perf_counter() - t0
    if Path(cvqelab.__file__).resolve().parent != SRC / "cvqelab":
        raise SystemExit(f"run.py: imported cvqelab from {cvqelab.__file__}, not {SRC}")
    return elapsed


def setup_workload(name: str, workdir: Path):
    import workloads

    workloads.warm_up(workdir)
    workload = workloads.WORKLOADS[name](workdir)
    workload.setup()
    return workload


def measure_setup(args) -> list[float]:
    """Process start to ready-for-the-first-op, in fresh interpreters."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"run.py: set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def git_sha() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cvqelab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "note": MULTINOMIAL_NOTE,
    }


def untraced(tracer):
    """Context in which calls into cvqelab are benchmark work, not the op's."""
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


def measure(args, workload, tracer) -> dict:
    """The timed closed loop; checks run between ops, outside the timing."""
    from cvqelab import CHEMICAL_ACCURACY_EV

    from tracer import OP_SPAN
    from workloads import report_digest

    inputs = workload.inputs(args.seed)
    latencies, errors = [], []
    failures: Counter = Counter()
    attempted = failed_ops = completed = 0
    timed = 0.0
    in_hash, out_hash = hashlib.sha256(), hashlib.sha256()
    heads = {}
    seen_exceptions = set()
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if args.ops:
            if attempted >= args.ops:
                break
        # stop at the op count whose expected end lies nearest --seconds: with
        # ops of 10-20 s this often measures one op more than never overrunning
        elif attempted >= MIN_OPS and elapsed + 0.5 * elapsed / attempted > args.seconds:
            break
        inp = next(inputs)
        in_hash.update(repr(inp).encode())
        if tracer is not None:
            tracer.current_op = attempted
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                out = tracer.span(OP_SPAN, workload.op, inp)
            else:
                out = workload.op(inp)
        except Exception as exc:  # counted against the op, never redrawn
            dt = time.perf_counter() - t0
            name = f"exception:{type(exc).__name__}"
            failures[name] += 1
            failed_ops += 1
            if name not in seen_exceptions:
                seen_exceptions.add(name)
                traceback.print_exc(file=sys.stderr)
            out_hash.update(name.encode())
        else:
            dt = time.perf_counter() - t0
            completed += 1
            with untraced(tracer):
                reports, failed, error_ev = workload.check(inp, out)
            errors.append(error_ev)
            for check in failed:
                failures[check] += 1
            failed_ops += bool(failed)
            report_digest(out_hash, reports)
        latencies.append(dt)
        timed += dt
        attempted += 1
        if attempted == MIN_OPS:
            heads = {"inputs": in_hash.hexdigest(), "outputs": out_hash.hexdigest()}
    n_err = len(errors)
    return {
        "attempted": attempted,
        "completed": completed,
        "failed": failed_ops,
        "failures_by_check": dict(sorted(failures.items())),
        "timed_s": timed,
        "ops_per_s": completed / timed,
        "op_p50_s": statistics.median(latencies),
        "latency_samples": len(latencies),
        "latencies_s": latencies,
        "error_ev_p50": statistics.median(errors) if n_err else None,
        "chem_acc_frac": sum(e < CHEMICAL_ACCURACY_EV for e in errors) / n_err if n_err else None,
        "fail_frac": failed_ops / attempted,
        "inputs": {"count": attempted, "sha256": in_hash.hexdigest(),
                   "head_sha256": heads.get("inputs")},
        "outputs": {"sha256": out_hash.hexdigest(), "head_sha256": heads.get("outputs"),
                    "head_ops": MIN_OPS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        import_cvqelab()
        workdir = OUT_DIR / f"probe-{os.getpid()}"
        try:
            setup_workload(args.workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0

    if not (SRC / "cvqelab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no cvqelab sources under {SRC}")
    setup_samples = [] if args.trace else measure_setup(args)
    import_s = import_cvqelab()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracer import NOT_ON_EVERY_OP, Tracer, layer_metrics, op_phase_shares

    workdir = OUT_DIR / f"run-{os.getpid()}"
    tracer = None
    try:
        if args.trace:
            tracer = Tracer(sector=workloads.WORKLOADS[args.workload].config.electron_counts(
                workloads.N_ATOMS))
            tracer.install()
        workload = setup_workload(args.workload, workdir)
        with untraced(tracer):
            workload.prepare_oracle()
        result = measure(args, workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    n = result["attempted"]
    issue_metrics = {
        "setup_s": (statistics.median(setup_samples) if setup_samples else None, "s"),
        "ops_per_s": (result["ops_per_s"], "1/s"),
        "op_p50_s": (result["op_p50_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_ev_p50": (result["error_ev_p50"], "eV"),
        "chem_acc_frac": (result["chem_acc_frac"], "1"),
        "fail_frac": (result["fail_frac"], "1"),
        "ok_frac": (1.0 - result["fail_frac"], "1"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **{k: v for k, v in result.items() if k not in issue_metrics},
        "setup_samples_s": setup_samples, "env": environment(),
    }
    record["metrics"] = issue_metrics
    if tracer is None:
        metrics = {name: issue_metrics[name] for name in END_TO_END}
    else:
        layers = layer_metrics(tracer, n)
        layers["cvqelab.import_s"] = (import_s, "s")
        layers["trace.op_p50_s"] = (result["op_p50_s"], "s")
        metrics = {k: v for k, v in layers.items()
                   if k.removesuffix(".self_s") not in NOT_ON_EVERY_OP}
        spans_file = OUT_DIR / f"trace-{args.workload}.npz"
        tracer.write(spans_file)
        record["layers"] = layers
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["op_phase_shares"] = op_phase_shares(tracer, result["timed_s"])

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{n} ops, {result['failed']} failed {result['failures_by_check']}")
    for name, (value, unit) in (issue_metrics if tracer is None else layers).items():
        print(f"  {name:42s} {value!r:>24} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": n,
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
