"""Command-line interface.

Verbs: run (one configuration), sweep (reaction path), scan-omega,
check-conditions, fcidump (import/export).  Flags mirror RunConfig fields;
a JSON config file may supply any of them, with flags taking precedence.
Exit code 0 on success, 2 on stage failure with the stage named on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

from .constants import EV_PER_HARTREE
from .fcidump import read_fcidump, write_fcidump
from .fci import enumerate_sector, solve_fci
from .fermion import second_quantize
from .pipeline import (
    REGIME_PRESETS,
    RunConfig,
    build_mean_field,
    build_system,
    emit_report,
    omega_scan,
    run_multi_seed,
    run_pipeline,
    sweep_reaction_path,
)
from .prep import check_conditions
from .scf import load_hf_energy_table

DEFAULT_OMEGAS = (1.0, 1 / 3, 1 / 5, 1 / 10)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON file with RunConfig fields")
    parser.add_argument("--geometry", help="built-in label (reactant/well/product) or XYZ path")
    parser.add_argument("--charge", type=int)
    parser.add_argument("--multiplicity", type=int)
    parser.add_argument("--regime", choices=sorted(REGIME_PRESETS), help="parameter preset")
    parser.add_argument("--K", type=int, dest="K")
    parser.add_argument("--hbar-omega", type=float, dest="hbar_omega")
    parser.add_argument("--shots", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--count-threshold", type=int, dest="count_threshold")
    parser.add_argument("--prune-threshold", type=float, dest="prune_threshold")
    parser.add_argument("--drop-diagonal", action="store_true", default=None, dest="drop_diagonal")
    parser.add_argument("--term-order", dest="term_order")
    parser.add_argument("--noise-lambda", type=float, dest="noise_lambda")
    parser.add_argument("--out", dest="output_dir")


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Regime preset, then config file, then flags; later sources win."""
    fields = json.loads(args.config.read_text()) if args.config else {}
    if not isinstance(fields, dict):
        raise ValueError(f"--config must hold a JSON object, got {type(fields).__name__}")
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            fields[field.name] = value
    regime = fields.pop("regime", "")
    return RunConfig(**fields) if regime == "" else RunConfig.for_regime(regime, **fields)


def _comma_list(text: str, flag: str, kind) -> list:
    """The items of a comma-separated flag value, each converted by kind; an
    empty list or item fails the conversion, as does any malformed item."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{flag} takes a comma-separated list: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.seeds is not None:
        seeds = _comma_list(args.seeds, "--seeds", int)
        summary = run_multi_seed(config, seeds)
        print(json.dumps(summary, indent=2))
        return 0
    report = run_pipeline(config)
    files = emit_report(report)
    print(f"E_HF        = {report.e_hf:.9f} Ha")
    print(f"E_g (FCI)   = {report.e_g:.9f} Ha = {report.e_g * EV_PER_HARTREE:.4f} eV")
    print(f"trapezoidal = {report.e_trapezoidal:.9f} Ha (err {report.errors_ev['trapezoidal']:.3e} eV)")
    print(f"guiding     = {report.e_guiding:.9f} Ha (err {report.errors_ev['guiding']:.3e} eV)")
    print(f"optimized   = {report.e_optimized:.9f} Ha (err {report.errors_ev['optimized']:.3e} eV)")
    print(f"outcome set size = {report.outcome_count}")
    print(f"conditions: left {report.conditions.left_ratio:.4g} "
          f"({'ok' if report.conditions.left_satisfied else 'violated'}), "
          f"right {report.conditions.right_ratio:.4g} "
          f"({'ok' if report.conditions.right_satisfied else 'violated'})")
    print(f"circuit: {report.stats.total_rotations} rotations, "
          f"~{report.stats.cnot_estimate} CNOTs")
    for path in files:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    table = load_hf_energy_table(args.bsc_table) if args.bsc_table else None
    result = sweep_reaction_path(args.geometries, config, bsc_table=table)
    print(json.dumps(result, indent=2))
    return 0


def _cmd_scan_omega(args: argparse.Namespace) -> int:
    config = _build_config(args)
    omegas = (_comma_list(args.omegas, "--omegas", float) if args.omegas is not None
              else list(DEFAULT_OMEGAS))
    result = omega_scan(config, omegas)
    print(f"HF determinant index: {result['hf_index']}")
    for row in result["rows"]:
        print(f"hbar_omega = {row['hbar_omega']:.6f} Ha -> "
              f"p(HF) = {row['hf_probability']:.6f}")
    return 0


def _cmd_check_conditions(args: argparse.Namespace) -> int:
    config = _build_config(args)
    omega0 = args.omega0 if args.omega0 is not None else build_system(config).omega0
    report = check_conditions(config.K, config.hbar_omega, omega0)
    print(f"hbar_omega0 = {omega0:.6f} Ha")
    print(f"left  ratio (hbar_omega/K)/omega0 = {report.left_ratio:.6g} "
          f"-> {'satisfied' if report.left_satisfied else 'violated'} "
          f"(margin {report.margin})")
    print(f"right ratio omega0/hbar_omega     = {report.right_ratio:.6g} "
          f"-> {'satisfied' if report.right_satisfied else 'violated'}")
    return 0


def _cmd_fcidump(args: argparse.Namespace) -> int:
    if args.action == "export":
        _, scf, mo = build_mean_field(_build_config(args))
        text = write_fcidump(mo, n_elec=scf.n_alpha + scf.n_beta, ms2=scf.n_alpha - scf.n_beta)
        if args.file:
            Path(args.file).write_text(text)
            print(f"wrote {args.file}")
        else:
            print(text, end="")
        return 0
    if args.file is None:
        raise ValueError("fcidump import needs --file PATH")
    mo, meta = read_fcidump(Path(args.file).read_text())
    n_beta = (meta.n_elec - meta.ms2) // 2
    n_alpha = meta.n_elec - n_beta
    sq = second_quantize(mo)
    solution = solve_fci(enumerate_sector(sq.n_spin_orbitals, n_alpha, n_beta), sq)
    print(f"NORB={meta.n_orb} NELEC={meta.n_elec} MS2={meta.ms2}")
    print(f"FCI ground energy = {solution.energy:.9f} Ha "
          f"= {solution.energy * EV_PER_HARTREE:.4f} eV")
    return 0


def _failed_stage(exc: Exception) -> str:
    """Module name of the deepest traceback frame inside this package, or cli."""
    stage = "cli"
    for frame, _lineno in traceback.walk_tb(exc.__traceback__):
        module = frame.f_globals.get("__name__", "")
        if module.startswith(f"{__package__}."):
            stage = module.rpartition(".")[2]
    return stage


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvqelab",
        description="Cascaded-VQE laboratory for minimal-basis hydrogen clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single pipeline run (or multi-seed with --seeds)")
    _add_run_flags(p_run)
    p_run.add_argument("--seeds", help="comma-separated seed list for multi-seed statistics")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="reaction-path energy sweep")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--geometries", nargs="+", default=["reactant", "well", "product"])
    p_sweep.add_argument("--bsc-table", type=Path, help="JSON table of external large-basis HF energies")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scan = sub.add_parser("scan-omega", help="guiding-state scan over adiabatic energy scales")
    _add_run_flags(p_scan)
    p_scan.add_argument("--omegas", help="comma-separated hbar_omega values (Ha)")
    p_scan.set_defaults(func=_cmd_scan_omega)

    p_cond = sub.add_parser("check-conditions", help="discretized adiabatic condition report")
    _add_run_flags(p_cond)
    p_cond.add_argument("--omega0", type=float, help="model gap in Ha (computed from geometry when omitted)")
    p_cond.set_defaults(func=_cmd_check_conditions)

    p_dump = sub.add_parser("fcidump", help="FCIDUMP export/import")
    _add_run_flags(p_dump)
    p_dump.add_argument("action", choices=("export", "import"))
    p_dump.add_argument("--file", help="FCIDUMP path")
    p_dump.set_defaults(func=_cmd_fcidump)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface stage attribution, nonzero exit
        print(f"error [{_failed_stage(exc)}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
