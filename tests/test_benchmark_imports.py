"""The benchmark under perfbench/ imports cvqelab modules and wraps their
functions by name; a deleted or renamed name fails here instead of in a
benchmark run."""

import importlib
import inspect
from pathlib import Path

import pytest

from cvqelab.fci import solve_fci
from cvqelab.fcidump import read_fcidump, write_fcidump
from cvqelab.prep import prepare_guiding, prepare_trapezoidal
from cvqelab.statevector import sample_distribution
from cvqelab.subspace import build_subspace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import_and_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    importlib.import_module("oracles")
    importlib.import_module("workloads")
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(f"cvqelab.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"cvqelab.{module}.{name}"


@pytest.mark.parametrize(
    "fn,position,name",
    [
        (prepare_trapezoidal, 2, "schedule"),
        (prepare_guiding, 2, "schedule"),
        (sample_distribution, 1, "shots"),
        (build_subspace, 0, "outcomes"),
        (solve_fci, 0, "basis"),
    ],
)
def test_traced_counters_read_the_right_positional_argument(fn, position, name):
    """tracer._count_calls reads these arguments by position (prep.steps,
    statevector.shots, subspace.dim, fci.sector_dim); a reordered signature
    would miscount them silently."""
    assert list(inspect.signature(fn).parameters)[position] == name


def test_benchmark_oracles_accept_the_well(monkeypatch, well):
    """One call of each oracle, so a drift in solve_fci(basis, sq), to_dense(h)
    or second_quantize(mo) fails here in about a second."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    oracles = importlib.import_module("oracles")
    e_dense = oracles.dense_sector_energy(well.h_pauli, 2, 1)
    assert oracles.check_fci(well.fci.energy, e_dense) == []
    mo_read, _ = read_fcidump(write_fcidump(well.mo, n_elec=3, ms2=1))
    assert oracles.check_fcidump_roundtrip(mo_read, 2, 1, well.fci.energy) == []
