import itertools
import json
import sys
from functools import cached_property

import numpy as np
import pytest

from cvqelab import pauli, subspace
from cvqelab.cli import main as cli_main
from cvqelab.fci import enumerate_sector
from cvqelab.geometry import parse_geometry
from cvqelab.pauli import PauliSum
from cvqelab.pipeline import (
    REGIME_PRESETS,
    RunConfig,
    build_system,
    compare_distributions,
    emit_report,
    finish_run,
    omega_scan,
    prepare_run,
    run_multi_seed,
    run_pipeline,
    sweep_reaction_path,
)
from cvqelab.statevector import Distribution, probabilities
from cvqelab.subspace import (
    OutcomeSet,
    build_subspace,
    determinant_hamiltonian,
    embed_optimized,
    optimize,
)

from conftest import random_cluster


@pytest.fixture(scope="module")
def small_config():
    return RunConfig(geometry="well", K=10, hbar_omega=2.0, shots=20000, seed=4)


@pytest.fixture(scope="module")
def well_system(small_config):
    return build_system(small_config)


@pytest.fixture(scope="module")
def small_report(small_config, well_system):
    return run_pipeline(small_config, system=well_system)


def test_report_energies_ordered(small_report):
    assert small_report.e_optimized >= small_report.e_g - 1e-10
    assert small_report.e_hf >= small_report.e_g
    for err in small_report.errors_ev.values():
        assert err >= 0


def test_all_five_distributions_present(small_report):
    assert set(small_report.distributions) == {"pTD", "pGD", "sGD", "pOD", "pGndD"}
    for dist in small_report.distributions.values():
        assert abs(sum(dist.probs.values()) - 1.0) < 1e-9


def test_determinism_byte_identical(small_config, well_system, tmp_path):
    r1 = run_pipeline(small_config, system=well_system)
    r2 = run_pipeline(small_config, system=well_system)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_report(r1, d1)
    emit_report(r2, d2)
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_run_path_builds_no_dense_matrix(monkeypatch, well_system):
    """No 2^Q x 2^Q matrix on the run path: to_dense raises in every
    cvqelab namespace that holds it, and regime C and K = 20 still run."""
    def refuse(h):
        raise AssertionError("to_dense called on the run path")

    original, patched = pauli.to_dense, []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cvqelab" and getattr(module, "to_dense", None) is original:
            monkeypatch.setattr(module, "to_dense", refuse)
            patched.append(name)
    assert {"cvqelab", "cvqelab.pauli"} <= set(patched)
    for config in (
        RunConfig.for_regime("C", shots=20000),
        RunConfig(geometry="well", K=20, hbar_omega=1.0, shots=20000),
    ):
        report = finish_run(prepare_run(config, well_system), seed=1)
        assert report.e_optimized >= report.e_g - 1e-10


def test_prepare_run_compiles_each_string_once(monkeypatch):
    """H's strings are built into flip-mask groups once per operator: the
    trapezoidal staircase and both energies read the same groups, and a
    second run on the same system builds none.  The system is built here, so
    no other test has filled its groups yet."""
    original, built = PauliSum.flip_groups, []

    def counting(h):
        built.append(h)
        return original.func(h)

    recorded = cached_property(counting)
    recorded.__set_name__(PauliSum, "flip_groups")
    monkeypatch.setattr(PauliSum, "flip_groups", recorded)
    config = RunConfig.for_regime("C", shots=20000)
    system = build_system(config)
    assert built == []
    first = prepare_run(config, system)
    assert sorted(map(id, built)) == sorted(map(id, (system.h_pauli, system.h0_pauli)))
    built.clear()
    second = prepare_run(config, system)
    assert built == []
    assert (second.e_trapezoidal, second.e_guiding) == (first.e_trapezoidal, first.e_guiding)


def test_build_subspace_sizes_match_benchmark_dim_count(monkeypatch, small_config):
    """The benchmark's `subspace.dim` per op is the FCI sector size plus each
    seed's outcome count: build_subspace, recorded in every cvqelab namespace
    that holds it, runs once on the whole sector in build_system and once per
    seed, on the filtered outcomes, in finish_run."""
    original, sizes = subspace.build_subspace, []

    def recording(outcomes, sq):
        sizes.append(len(outcomes))
        return original(outcomes, sq)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cvqelab" and getattr(module, "build_subspace", None) is original:
            monkeypatch.setattr(module, "build_subspace", recording)
    system = build_system(small_config)
    assert sizes == [24]
    prepared = prepare_run(small_config, system)
    sizes.clear()
    reports = [finish_run(prepared, seed) for seed in (1, 2)]
    assert sizes == [report.outcome_count for report in reports]


def test_determinant_rules_run_once_per_system(monkeypatch, small_config):
    """build_system evaluates the determinant rules once, on the whole sector,
    and finish_run gathers every seed's subspace from that matrix without
    them: determinant_hamiltonian, recorded in every cvqelab namespace that
    holds it, sees one call per system and none per seed."""
    original, sizes = subspace.determinant_hamiltonian, []

    def recording(outcomes, sq):
        sizes.append(len(outcomes))
        return original(outcomes, sq)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "determinant_hamiltonian", None)
        if name.split(".")[0] == "cvqelab" and held is original:
            monkeypatch.setattr(module, "determinant_hamiltonian", recording)
    system = build_system(small_config)
    assert sizes == [24]
    prepared = prepare_run(small_config, system)
    sizes.clear()
    reports = [finish_run(prepared, seed) for seed in (1, 2)]
    assert sizes == []
    assert all(report.outcome_count > 0 for report in reports)


def test_seed_subspaces_carry_the_determinant_rules_bytes(well_system):
    """Each seed's gathered subspace is byte for byte the determinant rules'
    matrix on its outcomes: the well at regime A (seeds 1-5), and the first 8
    clusters of the benchmark's corpus (the tests' random_cluster rule on
    generator seed 4) at its pruned regime-C configuration (seeds 1-20)."""
    runs = [(well_system, RunConfig.for_regime("A"), range(1, 6))]
    corpus_rng = np.random.default_rng(4)
    cluster_config = RunConfig.for_regime(
        "C", shots=4096, prune_threshold=0.02, drop_diagonal=True
    )
    for i in range(8):
        geometry = parse_geometry(random_cluster(corpus_rng, 4), label=f"cluster{i}")
        runs.append((build_system(cluster_config, geometry), cluster_config, range(1, 21)))
    checked = 0
    for system, config, seeds in runs:
        prepared = prepare_run(config, system)
        for seed in seeds:
            outcomes = finish_run(prepared, seed).optimized.basis
            gathered = build_subspace(outcomes, system.sector_hamiltonian).matrix
            rules = determinant_hamiltonian(outcomes, system.sq).matrix
            assert gathered.tobytes() == rules.tobytes()
            checked += 1
    assert checked == 5 + 8 * 20


def test_ground_is_the_whole_sector_subspace_solve(well_system):
    """E_g and pGndD come from the same solve and producer as E* and pOD."""
    sector = OutcomeSet(members=enumerate_sector(8, 2, 1).determinants)
    opt = optimize(build_subspace(sector, well_system.sector_hamiltonian))
    assert opt.energy == well_system.fci_energy
    p_od = probabilities(embed_optimized(opt.theta, sector, 8))
    assert p_od.probs == well_system.ground.probs


def test_seed_changes_sampling(small_config, well_system):
    r1 = run_pipeline(small_config, system=well_system)
    r2 = run_pipeline(
        RunConfig(**{**small_config.__dict__, "seed": 5}), system=well_system
    )
    assert r1.distributions["sGD"].probs != r2.distributions["sGD"].probs


def test_csv_ordering_contract(small_report, tmp_path):
    emit_report(small_report, tmp_path)
    ground = small_report.distributions["pGndD"]
    for csv in tmp_path.glob("distribution_*.csv"):
        rows = csv.read_text().splitlines()[1:]
        indices = [int(r.split(",")[0]) for r in rows]
        keys = [(-ground.probability(n), n) for n in indices]
        assert keys == sorted(keys)
    pgnd_rows = (tmp_path / "distribution_pGndD.csv").read_text().splitlines()
    assert pgnd_rows[1].startswith("7,00000111,")


def test_report_round_trip_exact(small_report, tmp_path):
    emit_report(small_report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["energies_ha"]["optimized"] == small_report.e_optimized
    assert payload["energies_ha"]["e_g"] == small_report.e_g
    for label, dist in small_report.distributions.items():
        for n, p in dist.probs.items():
            if p >= 1e-12:
                assert payload["distributions"][label][str(n)] == p


def test_compare_distributions_examples():
    a = Distribution(probs={1: 1.0})
    assert compare_distributions(a, a) == pytest.approx(
        {"tv": 0.0, "kl_smoothed": 0.0, "support_overlap": 1.0}, abs=1e-9
    )
    b = Distribution(probs={2: 1.0})
    metrics = compare_distributions(a, b)
    assert metrics["tv"] == pytest.approx(1.0)
    assert metrics["support_overlap"] == 0.0


def test_electron_counts():
    assert RunConfig(charge=1, multiplicity=2).electron_counts(4) == (2, 1)
    assert RunConfig(charge=0, multiplicity=1).electron_counts(2) == (1, 1)
    assert RunConfig(charge=0, multiplicity=2).electron_counts(3) == (2, 1)
    with pytest.raises(ValueError):
        RunConfig(charge=0, multiplicity=2).electron_counts(4)
    for multiplicity in (0, -1):
        with pytest.raises(ValueError, match="multiplicity"):
            RunConfig(multiplicity=multiplicity).electron_counts(4)
    # one spatial orbital per hydrogen: at most 4 alpha electrons in H4
    assert RunConfig(charge=-4, multiplicity=1).electron_counts(4) == (4, 4)
    assert RunConfig(charge=-1, multiplicity=4).electron_counts(4) == (4, 1)
    for charge, multiplicity in ((-3, 4), (-2, 5), (-1, 6), (-4, 3)):
        with pytest.raises(ValueError, match="infeasible for 4 hydrogens"):
            RunConfig(charge=charge, multiplicity=multiplicity).electron_counts(4)


def test_regime_presets():
    assert REGIME_PRESETS["A"] == {"K": 500, "hbar_omega": 10.0}
    cfg = RunConfig.for_regime("B", shots=10)
    assert cfg.K == 1000 and cfg.hbar_omega == 1.0 and cfg.shots == 10
    assert cfg.regime == "B"


def test_multi_seed_summary(small_config, well_system):
    out = run_multi_seed(small_config, seeds=[1, 2, 3], system=well_system)
    assert len(out["optimized_errors_ev"]) == 3
    assert out["median_ev"] == sorted(out["optimized_errors_ev"])[1]


def test_sweep_single_geometry():
    cfg = RunConfig(geometry="well", K=5, hbar_omega=2.0, shots=5000, seed=1)
    result = sweep_reaction_path(["well"], cfg)
    assert len(result["rows"]) == 1
    assert "delta_fci_ev" not in result
    with pytest.raises(ValueError):
        sweep_reaction_path([], cfg)


def test_sweep_requires_table_for_correction():
    from cvqelab.scf import MissingCorrectionError

    cfg = RunConfig(geometry="well", K=5, hbar_omega=2.0, shots=5000, seed=1)
    with pytest.raises(MissingCorrectionError):
        sweep_reaction_path(["well"], cfg, bsc_table={"reactant": -1.7})


def test_omega_scan_warns_off_design(well_system):
    cfg = RunConfig(geometry="well", K=2, hbar_omega=1.0, shots=10)
    with pytest.warns(UserWarning):
        omega_scan(cfg, [1.0], system=well_system)


def test_omega_scan_infinite_scale_limit(well_system):
    cfg = RunConfig(geometry="well", K=1, hbar_omega=1.0, shots=10)
    result = omega_scan(cfg, [1e9], system=well_system)
    assert result["rows"][0]["hf_probability"] == pytest.approx(1.0, abs=1e-8)


def in_well_sector(n: int) -> bool:
    """The well's reference sector: 2 up (even-bit) and 1 down (odd-bit) electrons."""
    return bin(n & 0b01010101).count("1") == 2 and bin(n & 0b10101010).count("1") == 1


@pytest.mark.parametrize("noise_lambda,seed", itertools.product((0.05, 0.3, 0.5), (1, 2, 3)))
def test_noise_mixing_keeps_variational_bound(well_system, noise_lambda, seed):
    cfg = RunConfig(
        geometry="well", K=1, hbar_omega=1.0, shots=200000, seed=seed,
        noise_lambda=noise_lambda,
    )
    report = run_pipeline(cfg, system=well_system)
    # the uniform floor puts counts on determinants of every sector, and
    # other-sector blocks dip below the sector ground energy unless dropped
    assert all(in_well_sector(n) for n in report.optimized.basis.members)
    assert report.outcome_count == len(report.optimized.basis.members)
    assert report.e_optimized >= report.e_g - 1e-10


def test_noise_mixing_with_count_threshold_restores_bound(well_system):
    cfg = RunConfig(
        geometry="well", K=1, hbar_omega=1.0, shots=200000, seed=8,
        noise_lambda=0.5, count_threshold=800,
    )
    report = run_pipeline(cfg, system=well_system)
    assert all(in_well_sector(n) for n in report.distributions["pOD"].support(1e-9))
    assert report.e_optimized >= report.e_g - 1e-10


def test_output_root_env(monkeypatch, small_report, tmp_path):
    monkeypatch.setenv("CVQELAB_OUTPUT_ROOT", str(tmp_path))
    files = emit_report(small_report)
    assert all(str(f).startswith(str(tmp_path)) for f in files)


def test_cli_out_relative_to_output_root(monkeypatch, tmp_path):
    """A relative --out lands under CVQELAB_OUTPUT_ROOT; an absolute one wins."""
    monkeypatch.setenv("CVQELAB_OUTPUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--regime", "C", "--shots", "1000"]
    assert cli_main([*argv, "--out", "o2"]) == 0
    assert (tmp_path / "root" / "o2" / "report.json").exists()
    assert not (tmp_path / "o2").exists()
    assert cli_main([*argv, "--out", str(tmp_path / "abs")]) == 0
    assert (tmp_path / "abs" / "report.json").exists()


# --- CLI ---


def test_cli_run_and_outputs(tmp_path, capsys):
    code = cli_main(
        [
            "run",
            "--geometry", "well",
            "--K", "5",
            "--hbar-omega", "2.0",
            "--shots", "2000",
            "--seed", "3",
            "--out", str(tmp_path / "run1"),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "optimized" in captured
    assert (tmp_path / "run1" / "report.json").exists()


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"geometry": "well", "K": 5, "hbar_omega": 2.0, "shots": 1000, "seed": 1})
    )
    code = cli_main(
        ["run", "--config", str(cfg_file), "--shots", "1500", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["config"]["shots"] == 1500


@pytest.mark.parametrize(
    "fields,name",
    [
        ({"K": 2.0}, "K"),
        ({"shots": 4096.7}, "shots"),
        ({"hbar_omega": "1.0"}, "hbar_omega"),
        ({"shots": True}, "shots"),
        ({"regime": "D"}, "regime"),
        ({"regime": 3}, "regime"),
        ({"regime": 0}, "regime"),
    ],
)
def test_cli_config_file_rejects_mistyped_field(fields, name, tmp_path, capsys):
    """A JSON value of the wrong type, or an unknown regime, fails in
    RunConfig, naming its field, instead of deep in a stage (or, for a bool
    count, running one shot)."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"regime": "C", **fields}))
    assert cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error [pipeline]: {name} must be ")


def test_cli_config_file_rejects_non_object(tmp_path, capsys):
    """A config file whose top level is not a JSON object fails naming --config."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(["regime", "A"]))
    argv = ["check-conditions", "--config", str(cfg_file), "--omega0", "0.5"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error [cli]: --config ")


def test_cli_check_conditions(capsys):
    assert cli_main(["check-conditions", "--K", "500", "--hbar-omega", "10", "--omega0", "2.387"]) == 0
    out = capsys.readouterr().out
    assert "satisfied" in out


def test_cli_check_conditions_computes_omega0(capsys):
    argv = ["check-conditions", "--geometry", "well", "--K", "500", "--hbar-omega", "10"]
    assert cli_main(argv) == 0
    assert "hbar_omega0 = 0.493753 Ha" in capsys.readouterr().out


def test_cli_config_precedence_preset_file_flag(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"regime": "b", "K": 3, "shots": 1000}))
    argv = ["run", "--config", str(cfg_file), "--regime", "A", "--shots", "7",
            "--out", str(tmp_path / "o")]
    assert cli_main(argv) == 0
    config = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
    assert config["regime"] == "A" and config["hbar_omega"] == 10.0  # the flag's preset
    assert config["K"] == 3  # the file beats the preset
    assert config["shots"] == 7  # the flag beats the file


def test_cli_scan_omega(capsys):
    code = cli_main(
        ["scan-omega", "--geometry", "well", "--K", "1", "--omegas", "1.0,1e9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "p(HF)" in out


def test_cli_fcidump_round_trip(tmp_path, capsys):
    path = tmp_path / "well.fcidump"
    assert cli_main(["fcidump", "export", "--geometry", "well", "--file", str(path)]) == 0
    assert path.exists()
    assert cli_main(["fcidump", "import", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FCI ground energy" in out


def test_cli_fcidump_export_reads_config_geometry(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"geometry": "product"}))
    path = tmp_path / "product.fcidump"
    assert cli_main(["fcidump", "export", "--config", str(cfg_file), "--file", str(path)]) == 0
    assert cli_main(["fcidump", "import", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FCI ground energy = -1.744187594 Ha" in out


def test_cli_error_exit_code(capsys):
    code = cli_main(["run", "--geometry", "missing.xyz", "--K", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,stage",
    [
        (["run", "--geometry", "missing.xyz", "--K", "1"], "geometry"),
        (["run", "--regime", "C", "--shots", "100", "--count-threshold", "1000"], "subspace"),
        (["run", "--regime", "C", "--K", "0"], "prep"),
        (["check-conditions", "--multiplicity", "0"], "pipeline"),
        (["check-conditions", "--multiplicity", "-1"], "pipeline"),
        (["check-conditions", "--geometry", "well", "--charge", "-3", "--multiplicity", "4"],
         "pipeline"),
        (["run", "--regime", "C", "--shots", "4096", "--noise-lambda", "-0.5"], "statevector"),
        (["run", "--regime", "C", "--hbar-omega", "nan"], "prep"),
        (["run", "--regime", "C", "--hbar-omega", "inf"], "prep"),
        (["run", "--regime", "C", "--prune-threshold", "nan"], "prep"),
        (["check-conditions", "--hbar-omega", "nan", "--omega0", "0.5"], "prep"),
        (["check-conditions", "--omega0", "nan"], "prep"),
        (["scan-omega", "--K", "1", "--omegas", "nan"], "prep"),
    ],
)
def test_cli_error_names_stage(argv, stage, capsys):
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [{stage}]: ")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["run", "--regime", "C", "--shots", "64", "--seeds", ""], "--seeds"),
        (["run", "--regime", "C", "--shots", "64", "--seeds", "1,,2"], "--seeds"),
        (["scan-omega", "--K", "1", "--omegas", ""], "--omegas"),
        (["fcidump", "import"], "--file"),
    ],
)
def test_cli_rejects_empty_list_or_missing_file(argv, flag, capsys):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [cli]: ") and flag in err


def test_cli_multi_seed(capsys):
    code = cli_main(
        [
            "run", "--geometry", "well", "--regime", "C",
            "--shots", "1000", "--seeds", "1,2",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["optimized_errors_ev"]) == 2
