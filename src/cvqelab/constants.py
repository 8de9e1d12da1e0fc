"""Physical constants and the hydrogen STO-6G basis table.

Internal unit system is Hartree/Bohr; Angstrom and eV appear only at I/O
boundaries.
"""

# CODATA 2018
BOHR_PER_ANGSTROM = 1.0 / 0.529177210903
ANGSTROM_PER_BOHR = 0.529177210903
EV_PER_HARTREE = 27.211386245988

# 1 kcal/mol, the usual "chemical accuracy" bar
CHEMICAL_ACCURACY_EV = 0.043

# STO-6G hydrogen 1s: six primitive Gaussians fit to a Slater 1s and scaled
# by the standard molecular-environment factor zeta = 1.24 (exponents carry
# zeta^2).  Contraction coefficients refer to unit-normalized primitives; the
# contracted function is renormalized exactly at build time.
STO6G_H_EXPONENTS = (
    35.52322122,
    6.513143725,
    1.822142904,
    0.6259552659,
    0.2430767471,
    0.1001124280,
)
STO6G_H_COEFFS = (
    0.9163596281e-02,
    0.4936149294e-01,
    0.1685383049,
    0.3705627997,
    0.4164915298,
    0.1303340841,
)
