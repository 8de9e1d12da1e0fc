"""Integral checks against quadrature oracles that share no algebra with the
closed-form implementation (Newton shell averaging + 1D numerical radial
integration instead of the Boys-function product formulas)."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from cvqelab.constants import BOHR_PER_ANGSTROM, STO6G_H_COEFFS, STO6G_H_EXPONENTS
from cvqelab.geometry import load_geometry, parse_geometry
from cvqelab.integrals import (
    IllConditionedBasisError,
    boys0,
    compute_integrals,
    from_pair_matrix,
    pair_index,
)

from conftest import H6_CHAIN, h4_geometries, reference_compute_integrals


def contracted_1s():
    alpha = np.array(STO6G_H_EXPONENTS)
    c = np.array(STO6G_H_COEFFS) * (2 * alpha / np.pi) ** 0.75
    ab = alpha[:, None] + alpha[None, :]
    c = c / np.sqrt(np.einsum("i,j,ij->", c, c, (np.pi / ab) ** 1.5))
    return alpha, c


def radial_density(r, alpha, c):
    """chi(r)^2 for the contracted function centred at the origin."""
    chi = np.sum(c * np.exp(-alpha * r**2))
    return chi * chi


def contracted_potential(s, alpha, c):
    """Electrostatic potential of chi^2 at distance s (Gauss's law per primitive pair)."""
    z = np.add.outer(alpha, alpha)
    cc = np.outer(c, c)
    return float(np.sum(cc * (np.pi / z) ** 1.5 * erf(np.sqrt(z) * s) / s))


def shell_average(f, r, center_distance):
    """Average of f(|x - C|) over the sphere of radius r around the origin,
    with |C| = center_distance (Newton's shell formula)."""
    lo, hi = abs(center_distance - r), center_distance + r
    val, _ = integrate.quad(f, lo, hi, limit=200)
    return val / (2 * r * center_distance)


def test_boys_zero_and_series_continuity():
    assert boys0(0.0) == pytest.approx(1.0, abs=1e-15)
    assert boys0(1e-13) == pytest.approx(1.0 - 1e-13 / 3, rel=1e-12)
    # branch switch is smooth
    assert abs(float(boys0(1.0001e-12)) - float(boys0(0.9999e-12))) < 1e-12


def test_single_atom_overlap_is_normalized():
    integrals = compute_integrals(parse_geometry("H 0 0 0"))
    assert integrals.overlap[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert integrals.e_nuc == 0.0


def test_single_atom_core_quadrature_oracle():
    """Kinetic + nuclear attraction for one H by radial quadrature."""
    alpha, c = contracted_1s()

    def chi(r):
        return np.sum(c * np.exp(-alpha * r**2))

    def lap_chi(r, h=1e-5):
        f0, fp, fm = chi(r), chi(r + h), chi(r - h)
        return (fp - 2 * f0 + fm) / h**2 + (fp - fm) / (h * r)

    import warnings

    with warnings.catch_warnings():
        # finite-difference noise in the integrand trips the roundoff notice
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        kinetic, _ = integrate.quad(
            lambda r: 4 * np.pi * r**2 * chi(r) * (-0.5) * lap_chi(r),
            1e-6, 15, limit=400, epsabs=1e-9, epsrel=1e-9,
        )
    attraction, _ = integrate.quad(
        lambda r: -4 * np.pi * r * radial_density(r, alpha, c), 0, 15, limit=400
    )
    oracle = kinetic + attraction

    integrals = compute_integrals(parse_geometry("H 0 0 0"))
    assert integrals.core[0, 0] == pytest.approx(oracle, abs=1e-6)
    # scaled-Slater literature anchor
    assert integrals.core[0, 0] == pytest.approx(-0.471039, abs=2e-4)


def test_h2_integral_blocks_quadrature_oracle():
    r_ang = 0.741760049618
    big_r = r_ang * BOHR_PER_ANGSTROM
    alpha, c = contracted_1s()
    integrals = compute_integrals(parse_geometry(f"H 0 0 0\nH 0 0 {r_ang}"))

    # overlap by 2D cylindrical quadrature
    def chi_at(rho, z, z0):
        d2 = rho**2 + (z - z0) ** 2
        return np.sum(c * np.exp(-alpha * d2))

    overlap, _ = integrate.dblquad(
        lambda rho, z: 2 * np.pi * rho * chi_at(rho, z, 0.0) * chi_at(rho, z, big_r),
        -12, 12 + big_r, 0, 12, epsabs=1e-10, epsrel=1e-10,
    )
    assert integrals.overlap[0, 1] == pytest.approx(overlap, abs=1e-8)

    # nuclear attraction <A|1/|r-B||A> via the 1/max(r,R) shell average
    v_ab, _ = integrate.quad(
        lambda r: -4 * np.pi * r**2 * radial_density(r, alpha, c) / max(r, big_r),
        0, 18, limit=400,
    )
    analytic_v = None
    # isolate the B-nucleus block: recompute from a fictitious one-nucleus system
    a_ = alpha[:, None] + alpha[None, :]
    cc = np.outer(c, c)
    analytic_v = float(np.sum(cc * (-1.0) * (2 * np.pi / a_) * boys0(a_ * big_r**2)))
    assert analytic_v == pytest.approx(v_ab, abs=1e-8)

    # (AA|BB) and (AA|AA) via shell-averaged contracted potentials
    eri_aabb, _ = integrate.quad(
        lambda r: 4 * np.pi * r**2 * radial_density(r, alpha, c)
        * shell_average(lambda s: contracted_potential(s, alpha, c) * s, r, big_r),
        1e-8, 16, limit=400,
    )
    assert integrals.eri[0, 0, 1, 1] == pytest.approx(eri_aabb, abs=1e-9)

    eri_aaaa, _ = integrate.quad(
        lambda r: 4 * np.pi * r**2 * radial_density(r, alpha, c)
        * contracted_potential(max(r, 1e-10), alpha, c),
        1e-10, 16, limit=400,
    )
    assert integrals.eri[0, 0, 0, 0] == pytest.approx(eri_aaaa, abs=1e-9)


def test_h2_rhf_energy_fixture(h2_system):
    # minimal-basis H2 reference band; the quadrature oracles above pin the
    # integrals this number is assembled from
    _, _, scf = h2_system
    assert scf.e_hf == pytest.approx(-1.125, abs=5e-3)


def test_eri_eightfold_symmetry_ao():
    integrals = compute_integrals(load_geometry("well"))
    g = integrals.eri
    n = integrals.n_ao
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q, r, s = rng.integers(0, n, size=4)
        base = g[p, q, r, s]
        for a, b, c_, d in (
            (q, p, r, s), (p, q, s, r), (q, p, s, r),
            (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
        ):
            assert abs(g[a, b, c_, d] - base) < 1e-10


def test_pair_matrix_expansion_eightfold_and_round_trip():
    """from_pair_matrix gives one value to all 8 permutations of every
    (pq|rs), a different one to each pair of pairs, and reading (pq|rs) back
    at p >= q, r >= s recovers the pair matrix."""
    n = 5
    pairs = [(p, q) for p in range(n) for q in range(p + 1)]
    index = pair_index(n)
    assert [index[p, q] for p, q in pairs] == list(range(len(pairs)))
    assert np.array_equal(index, index.T)
    rng = np.random.default_rng(19)
    m = rng.normal(size=(len(pairs), len(pairs)))
    m = m + m.T
    g = from_pair_matrix(m, n)
    assert g.shape == (n,) * 4
    for p, q, r, s in np.ndindex(g.shape):
        base = g[p, q, r, s]
        for a, b, c_, d in (
            (q, p, r, s), (p, q, s, r), (q, p, s, r),
            (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
        ):
            assert g[a, b, c_, d] == base
    assert len(np.unique(g)) == len(pairs) * (len(pairs) + 1) // 2
    back = np.array([[g[p, q, r, s] for r, s in pairs] for p, q in pairs])
    assert back.tobytes() == m.tobytes()


def test_integrals_bit_identical_to_per_atom_reference():
    """One contraction shared by every atom and AO pair changes no bit of the
    per-atom build: built-ins, random H4+ clusters, the H6+ chain, H2 and H."""
    geometries = {"well": load_geometry("well"), **h4_geometries()}
    for label, text in (
        ("h6_chain", H6_CHAIN), ("h2", "H 0 0 0\nH 0 0 0.741760049618"), ("h", "H 0 0 0"),
    ):
        geometries[label] = parse_geometry(text)
    for geometry in geometries.values():
        got, ref = compute_integrals(geometry), reference_compute_integrals(geometry)
        for block in ("overlap", "core", "eri"):
            assert getattr(got, block).tobytes() == getattr(ref, block).tobytes()
        assert got.e_nuc == ref.e_nuc


def test_integrals_h6_chain_memory_guard():
    """The ERIs are built one pair row at a time: on the H6+ chain (21 AO
    pairs) the transient stays near 2 MiB, where all pairs of pairs at once
    peak near 16 MiB."""
    geometry = parse_geometry(H6_CHAIN)
    tracemalloc.start()
    try:
        compute_integrals(geometry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


def test_overlap_positive_definite_on_builtin_geometries():
    for label in ("reactant", "well", "product"):
        integrals = compute_integrals(load_geometry(label))
        assert np.linalg.eigvalsh(integrals.overlap)[0] > 0


def test_near_degenerate_basis_raises():
    with pytest.raises(IllConditionedBasisError):
        compute_integrals(parse_geometry("H 0 0 0\nH 0 0 1e-5"))


def test_four_center_eri_quadrature_oracle():
    """A genuinely 4-center (12|34)-class integral against direct 6D reduction.

    Uses the Gaussian product theorem only to collapse each orbital pair (an
    elementary completing-the-square identity), then integrates the resulting
    two s-clouds by shell averaging.
    """
    coords = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.9], [0.7, 0.4, 0.3], [-0.5, 0.6, 1.1]]
    )
    text = "\n".join(f"H {x} {y} {z}" for x, y, z in coords)
    integrals = compute_integrals(parse_geometry(text))
    alpha, c = contracted_1s()
    centers = coords * BOHR_PER_ANGSTROM

    def pair_cloud(i, j):
        """Decompose chi_i * chi_j into weighted s-Gaussians (weight, zeta, center)."""
        out = []
        r2 = float(np.dot(centers[i] - centers[j], centers[i] - centers[j]))
        for a, ca in zip(alpha, c):
            for b, cb in zip(alpha, c):
                zeta = a + b
                weight = ca * cb * np.exp(-a * b / zeta * r2)
                center = (a * centers[i] + b * centers[j]) / zeta
                out.append((weight, zeta, center))
        return out

    def cloud_pair_interaction(w1, z1, c1, w2, z2, c2):
        d = float(np.linalg.norm(c1 - c2))
        # potential of cloud 2 at distance s from its center
        pot = lambda s: (np.pi / z2) ** 1.5 * erf(np.sqrt(z2) * s) / s
        if d < 1e-9:
            val, _ = integrate.quad(
                lambda r: 4 * np.pi * r**2 * np.exp(-z1 * r**2) * pot(max(r, 1e-12)),
                1e-12, 12, limit=200,
            )
        else:
            val, _ = integrate.quad(
                lambda r: 4 * np.pi * r**2 * np.exp(-z1 * r**2)
                * shell_average(lambda s: pot(s) * s, r, d),
                1e-9, 12, limit=200,
            )
        return w1 * w2 * val

    oracle = sum(
        cloud_pair_interaction(w1, z1, c1, w2, z2, c2)
        for w1, z1, c1 in pair_cloud(0, 1)
        for w2, z2, c2 in pair_cloud(2, 3)
    )
    assert integrals.eri[0, 1, 2, 3] == pytest.approx(oracle, abs=1e-7)
