from pathlib import Path

import numpy as np
import pytest

from cvqelab.cli import main as cli_main
from cvqelab.fci import enumerate_sector, solve_fci
from cvqelab.fcidump import FCIDumpFormatError, read_fcidump, write_fcidump
from cvqelab.fermion import second_quantize
from cvqelab.geometry import parse_geometry
from cvqelab.integrals import compute_integrals
from cvqelab.scf import run_scf, transform_to_mo

from conftest import H6_CHAIN, h4_geometries, reference_write_fcidump

DATA = Path(__file__).parent / "data"


def test_round_trip_h2(h2_system):
    _, integrals, scf = h2_system
    mo = transform_to_mo(integrals, scf)
    text = write_fcidump(mo, n_elec=2, ms2=0)
    again, meta = read_fcidump(text)
    assert meta.n_orb == 2 and meta.n_elec == 2 and meta.ms2 == 0
    assert np.max(np.abs(again.h_mo - mo.h_mo)) < 1e-12
    assert np.max(np.abs(again.g_mo - mo.g_mo)) < 1e-12
    assert again.e_nuc == pytest.approx(mo.e_nuc, abs=1e-12)


def test_round_trip_well(well):
    text = write_fcidump(well.mo, n_elec=3, ms2=1)
    again, meta = read_fcidump(text)
    assert np.max(np.abs(again.g_mo - well.mo.g_mo)) < 1e-12
    sq = second_quantize(again)
    solution = solve_fci(enumerate_sector(8, 2, 1), sq)
    assert solution.energy == pytest.approx(well.fci.energy, abs=1e-12)


def test_writer_bytes_match_dedupe_reference(well):
    """write_fcidump walks the pair table directly; its text must equal the
    dedupe-set walk's on the built-ins, two random H4+ clusters and the H6+
    chain."""
    cases = {"well": (well.mo, 2, 1)}
    for label, geometry in h4_geometries().items():
        integrals = compute_integrals(geometry)
        cases[label] = (transform_to_mo(integrals, run_scf(integrals, 2, 1)), 2, 1)
    integrals = compute_integrals(parse_geometry(H6_CHAIN))
    cases["h6_chain"] = (transform_to_mo(integrals, run_scf(integrals, 3, 2)), 3, 2)
    for label, (mo, n_alpha, n_beta) in cases.items():
        n_elec, ms2 = n_alpha + n_beta, n_alpha - n_beta
        assert write_fcidump(mo, n_elec, ms2) == reference_write_fcidump(mo, n_elec, ms2), label


def test_reader_accepts_any_permutation_of_each_record(well):
    """Rewriting every two-body record as a random one of its 8 index
    permutations, in shuffled record order, reads back the same g_mo bytes."""
    text = write_fcidump(well.mo, n_elec=3, ms2=1)
    header, body = text.splitlines()[:4], text.splitlines()[4:]
    rng = np.random.default_rng(5)
    records = []
    for line in body:
        val, *idx = line.split()
        if "0" not in idx:
            p, q, r, s = idx
            perms = [(p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                     (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)]
            line = " ".join((val, *perms[rng.integers(8)]))
        records.append(line)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    again, _ = read_fcidump("\n".join(header + shuffled) + "\n")
    assert again.g_mo.tobytes() == read_fcidump(text)[0].g_mo.tobytes()


def test_constant_record_sets_nuclear_term():
    text = "&FCI NORB=1,NELEC=1,MS2=1,\n&END\n0.713754 0 0 0 0\n"
    mo, _ = read_fcidump(text)
    assert mo.e_nuc == pytest.approx(0.713754)
    assert np.all(mo.h_mo == 0)


def test_format_errors():
    with pytest.raises(FCIDumpFormatError):
        read_fcidump("no header\n1.0 0 0 0 0\n")
    with pytest.raises(FCIDumpFormatError):
        read_fcidump("&FCI NORB=1,NELEC=5,&END\n")  # NELEC > 2*NORB
    with pytest.raises(FCIDumpFormatError, match="MS2"):
        read_fcidump("&FCI NORB=1,NELEC=2,MS2=2,&END\n")  # two alpha electrons, one orbital
    with pytest.raises(FCIDumpFormatError):
        read_fcidump("&FCI NORB=1,NELEC=1,MS2=1,&END\n1.0 2 1 0 0\n")  # index range
    with pytest.raises(FCIDumpFormatError):
        read_fcidump("&FCI NORB=1,NELEC=1,MS2=1,&END\n1.0 1 1\n")  # field count
    with pytest.raises(FCIDumpFormatError):
        read_fcidump(
            "&FCI NORB=2,NELEC=2,&END\n"
            "1.0 1 2 0 0\n"
            "2.0 2 1 0 0\n"  # conflicting duplicate of the same element
        )
    for header, name in (
        ("&FCI NORB=1,NELEC=1,MS2=1,ISYM=1,2,&END\n", "ISYM"),
        ("&FCI NORB=1,NELEC=1,MS2=1,ISYM=-,&END\n", "ISYM"),
        ("&FCI NORB=2-1,NELEC=1,MS2=1,&END\n", "NORB"),
    ):
        with pytest.raises(FCIDumpFormatError, match=f"namelist field {name} "):
            read_fcidump(header)


def test_ms2_must_fit_nelec(well):
    """NELEC = 3 takes MS2 = +-1 or +-3 on four orbitals: an even MS2 leaves
    a half electron, |MS2| > NELEC a negative count."""
    text = write_fcidump(well.mo, n_elec=3, ms2=1)
    for ms2 in (0, 2, 5, -5):
        with pytest.raises(FCIDumpFormatError, match="MS2"):
            read_fcidump(text.replace("MS2=1,", f"MS2={ms2},"))
    for ms2 in (1, -1, 3, -3):
        assert read_fcidump(text.replace("MS2=1,", f"MS2={ms2},"))[1].ms2 == ms2


def test_cli_import_names_fcidump_stage_for_bad_ms2(well, tmp_path, capsys):
    path = tmp_path / "well.fcidump"
    path.write_text(write_fcidump(well.mo, n_elec=3, ms2=1).replace("MS2=1,", "MS2=0,"))
    assert cli_main(["fcidump", "import", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error [fcidump]: MS2 = 0")


def test_orbsym_length_must_match_norb(well, tmp_path, capsys):
    text = write_fcidump(well.mo, n_elec=3, ms2=1)
    assert "ORBSYM=1,1,1,1," in text
    for orbsym in ("1,1,", "1,1,1,1,1,1,"):
        edited = text.replace("ORBSYM=1,1,1,1,", f"ORBSYM={orbsym}")
        with pytest.raises(FCIDumpFormatError, match="ORBSYM"):
            read_fcidump(edited)
        path = tmp_path / "well.fcidump"
        path.write_text(edited)
        assert cli_main(["fcidump", "import", "--file", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error [fcidump]: ORBSYM")


def test_consistent_duplicates_accepted():
    mo, _ = read_fcidump(
        "&FCI NORB=2,NELEC=2,&END\n"
        "1.0 1 2 0 0\n"
        "1.0 2 1 0 0\n"
    )
    assert mo.h_mo[0, 1] == 1.0


def test_externally_formatted_fixture_matches_internal_fci(well):
    """A dump produced by an independent integral stack with different
    formatting (D exponents, '/' terminator, shuffled non-canonical records)
    must agree with the in-house chain."""
    text = (DATA / "well_external.fcidump").read_text()
    mo, meta = read_fcidump(text)
    assert meta.n_orb == 4 and meta.n_elec == 3 and meta.ms2 == 1
    sq = second_quantize(mo)
    solution = solve_fci(enumerate_sector(8, 2, 1), sq)
    assert solution.energy == pytest.approx(well.fci.energy, abs=1e-6)
