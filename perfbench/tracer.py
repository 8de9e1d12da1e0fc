"""In-memory span tracer for the traced benchmark run.

The tracer swaps selected public functions of the `cvqelab` modules for
wrappers that record a span (name, start, end, parent span, op id) around each
call.  Every module namespace that holds a reference to a wrapped function is
patched, so calls between cvqelab modules are traced as well.  The wrappers
call the original function with the original arguments, so traced and
untraced runs execute the same code and produce bit-identical outputs.

Counters are taken from call arguments and results after the span has ended,
so their cost lands in the enclosing span's self time, never in the traced
function's.  They count op-phase calls only, so per-op counts are exact.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

SETUP_OP = -1

# module -> public functions wrapped, the layers of the per-layer metrics
TRACED = {
    "integrals": ("compute_integrals",),
    "scf": ("run_scf", "transform_to_mo"),
    "fermion": ("jordan_wigner", "second_quantize"),
    "fci": ("solve_fci",),
    "fcidump": ("write_fcidump", "read_fcidump"),
    "pauli": ("interpolate", "prune", "to_dense"),
    "prep": ("prepare_trapezoidal", "prepare_guiding", "circuit_stats"),
    "statevector": ("expectation", "probabilities", "sample_distribution", "mix_noise"),
    "subspace": ("collect_outcomes", "build_subspace", "optimize", "embed_optimized"),
    "pipeline": (
        "build_system", "prepare_run", "finish_run",
        "compare_distributions", "emit_report",
    ),
}

# Traced functions that no op of the gated workloads (adiabatic_A and
# cluster_scan) calls: their per-op self time reads 0 there on every run, so
# it stays in the record and out of the result line.  Their set-up time is in
# `<module>.setup_s`.
NOT_ON_EVERY_OP = frozenset({
    "fcidump.write_fcidump", "fcidump.read_fcidump",
    "statevector.mix_noise", "pipeline.emit_report",
})

# span name of the benchmark's own per-op root span; its self time is the
# part of an op spent outside every traced cvqelab function
OP_SPAN = "bench.op"


def _popcount_even_odd(n: int) -> tuple[int, int]:
    return bin(n & 0x5555555555555555).count("1"), bin(n & 0xAAAAAAAAAAAAAAAA).count("1")


def _count_calls(tracer, name, args, result):
    """Exact counts recorded at the layer boundaries, keyed by metric name."""
    c = tracer.counts
    if name == "scf.run_scf":
        c["scf.run_scf.iterations"] += result.iterations
    elif name == "fermion.jordan_wigner":
        c["fermion.jordan_wigner.terms"] += len(result)
    elif name == "fci.solve_fci":
        c["fci.sector_dim"] += len(args[0].determinants)
    elif name == "fcidump.write_fcidump":
        c["fcidump.bytes"] += len(result.encode())
    elif name in ("prep.prepare_trapezoidal", "prep.prepare_guiding"):
        c["prep.steps"] += len(args[2].steps)
    elif name == "prep.circuit_stats":
        c["prep.rotations"] += result.total_rotations
    elif name == "statevector.sample_distribution":
        c["statevector.shots"] += args[1]
    elif name == "subspace.collect_outcomes":
        c["subspace.outcomes"] += len(result)
        if tracer.sector is not None:
            c["subspace.sector_outcomes"] += sum(
                1 for n in result.members if _popcount_even_odd(n) == tracer.sector
            )
    elif name == "subspace.build_subspace":
        m = len(args[0])
        c["subspace.dim"] += m
        c["subspace.matrix_elements"] += m * (m + 1) // 2
    elif name == "pipeline.emit_report":
        c["pipeline.report_bytes"] += sum(Path(p).stat().st_size for p in result)


class Tracer:
    """Span recorder; `install` patches cvqelab, `uninstall` restores it."""

    def __init__(self, sector: tuple[int, int] | None = None):
        self.sector = sector          # reference (n_alpha, n_beta) for sector_frac
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.current_op = SETUP_OP
        self.paused = False           # when set, wrapped calls are not recorded
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; exceptions propagate after the span closes."""
        if self.paused:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            if self.current_op != SETUP_OP:
                self.counts[f"{name}.failed"] += 1
            raise
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()
        if self.current_op != SETUP_OP:
            self.counts[f"{name}.calls"] += 1
            _count_calls(self, name, args, result)
        return result

    @contextlib.contextmanager
    def pause(self):
        """Leave calls made inside the block unrecorded (benchmark work)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        import cvqelab  # noqa: F401  (loads every cvqelab submodule)

        originals = {}
        for module, functions in TRACED.items():
            mod = sys.modules[f"cvqelab.{module}"]
            for fname in functions:
                fn = getattr(mod, fname)
                originals[id(fn)] = self._wrapper(f"{module}.{fname}", fn)
        # patch every cvqelab namespace that imported a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cvqelab" or modname.startswith("cvqelab.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # ---- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time per span name, summed over the setup and the op phase.

        A span's self time is its duration minus the durations of its
        direct children, which nest inside it.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_t = dur - child
        in_setup = a["op"] == SETUP_OP
        setup = np.bincount(a["name_id"][in_setup], weights=self_t[in_setup], minlength=n_names)
        ops = np.bincount(a["name_id"][~in_setup], weights=self_t[~in_setup], minlength=n_names)
        return (
            {name: float(setup[i]) for i, name in enumerate(self.names)},
            {name: float(ops[i]) for i, name in enumerate(self.names)},
        )

    def write(self, path: Path) -> None:
        """Write every span to a compressed .npz file (names as a str array)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **self.arrays())


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per op from the op-phase spans and counts only, and
    each module's set-up self time per run.

    Every traced function's self time per op (`<module>.<function>.self_s`),
    the set-up self time of each module (`<module>.setup_s`) and the exact
    counters of `_count_calls`; pauli functions also report `.calls`.
    """
    setup, ops = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for module, functions in TRACED.items():
        for fname in functions:
            name = f"{module}.{fname}"
            out[f"{name}.self_s"] = (ops.get(name, 0.0) / n_ops, "s")
            if module == "pauli":
                out[f"{name}.calls"] = (tracer.counts[f"{name}.calls"] / n_ops, "count")
    for module, functions in TRACED.items():
        out[f"{module}.setup_s"] = (
            sum(setup.get(f"{module}.{fname}", 0.0) for fname in functions), "s"
        )
    c = tracer.counts
    for key in (
        "scf.run_scf.iterations", "fermion.jordan_wigner.terms", "fci.sector_dim",
        "prep.steps", "prep.rotations", "statevector.shots", "subspace.dim",
        "subspace.matrix_elements",
    ):
        out[key] = (c[key] / n_ops, "count")
    out["scf.run_scf.failed"] = (c["scf.run_scf.failed"] / n_ops, "count")
    out["fcidump.bytes"] = (c["fcidump.bytes"] / n_ops, "B")
    out["pipeline.report_bytes"] = (c["pipeline.report_bytes"] / n_ops, "B")
    outcomes = c["subspace.outcomes"]
    out["subspace.sector_frac"] = (
        c["subspace.sector_outcomes"] / outcomes if outcomes else 0.0, "1"
    )
    out["trace.spans"] = (int(np.count_nonzero(tracer.arrays()["op"] != SETUP_OP)) / n_ops,
                          "count")
    return out


def op_phase_shares(tracer: Tracer, op_wall_s: float) -> dict[str, float]:
    """Share of the traced ops' wall time spent in each span's own code."""
    _, ops = tracer.self_times()
    if op_wall_s <= 0:
        return {}
    return {name: t / op_wall_s for name, t in sorted(ops.items(), key=lambda kv: -kv[1])}
