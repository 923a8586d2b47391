"""A continuum oracle: Kirkwood's multipole series for off-centre charges.

Three charges of radius 0.1 sit inside a neutral R = 2 atom, a vdw union
that is the dielectric sphere.  The LPB start is the discrete steady state
of the linearized equation, so its energy is the GFM discretization's
value, with no pseudo-time error; at kappa^2 = 0 that is the full
equation's steady state.  Off-centre charges make the jump data a and b vary
along the interface on every axis, which is what the GFM's correction terms
are for; the centred charge of criterion 1 has the same jumps all round.

The series is Kirkwood's, J. Chem. Phys. 2 (1934) 351: the reaction-field
energy of charges q_i at r_i in a sphere of radius R is

    W = C/2 sum_ij q_i q_j sum_n B_n (r_i r_j)^n / R^(2n+1) P_n(cos g_ij),
    B_n = (eps_out rho_n + eps_in (n+1)) / (eps_in (n eps_in - eps_out rho_n)),

with C the Coulomb constant in kcal*A/(mol*e^2) and g_ij the angle between
r_i and r_j.  Outside the sphere the linearized equation eps_out lap(u) =
kappa^2 u has the solutions k_n(k r) P_n, with k = sqrt(kappa^2 / eps_out)
and k_n the modified spherical Bessel functions of the second kind;
matching u and eps du/dr at r = R to the multipoles inside gives B_n with
rho_n = x k_n'(x) / k_n(x), x = k R.  At kappa^2 = 0, k_n(x) ~ x^-(n+1) and
rho_n = -(n+1), so that B_n = (n+1)(eps_in - eps_out) / (eps_in (n eps_in +
(n+1) eps_out)); at n = 0, rho_0 = -(1 + x), Born's energy with the
Debye-Hueckel factor.  The box is +-8 A, and its Dirichlet faces hold the
charges' screened Coulomb field in eps_out, not the sphere's exact exterior
field; the bounds below cover what moving the box to +-12 changes.
"""

import numpy as np
import pytest
from scipy.special import spherical_kn

from gfmpbe import (
    Atom,
    AtomSet,
    PhysicalParams,
    RunConfig,
    build_problem,
    debye_kappa_sq,
    initial_condition,
    solvation_energy,
)
from gfmpbe.molecule import COULOMB_KCAL

RADIUS = 2.0
CHARGES = (
    ((0.8, 0.3, 0.1), 1.0),
    ((-0.5, 0.6, 0.4), -0.5),
    ((0.1, -0.9, -0.3), 0.7),
)
EPS_IN, EPS_OUT = 1.0, 80.0
BOX_HALF = 8.0

SERIES_ENERGY = -158.83966
"""Kirkwood's series for CHARGES, summed to n = 200 (kcal/mol)."""

ERROR_BOUND = {0.5: 0.15, 0.25: 0.025}
"""|E_h - W| allowed at each h (kcal/mol).  Measured: -0.1005 at h = 0.5
and -0.0146 at h = 0.25, so the bounds are 1.5 and 1.7 times those."""

MIN_RATIO = 4.0
"""Least error ratio per halving of h; 6.9 is measured."""

KAPPA_SQ = debye_kappa_sq(0.15)
"""The screened case: 0.15 M, kappa^2 = 1.273 A^-2, k R = 0.25."""

SCREENED_ENERGY = -159.15798
"""Kirkwood's series for CHARGES at KAPPA_SQ, summed to n = 60 (kcal/mol);
the screening moves W by -0.318 from SERIES_ENERGY."""

SCREENED_BOUND = {0.5: 0.15, 0.25: 0.025}
"""|E_h - W| allowed at each h at KAPPA_SQ (kcal/mol).  Measured: -0.0999
at h = 0.5 and -0.0155 at h = 0.25, so the bounds are 1.5 and 1.6 times
those; the box faces account for 9e-4 and 2.7e-3 of them (the errors with a
box of +-12 are -0.0990 and -0.0129)."""


def coefficients(n_max: int, kappa_sq: float) -> np.ndarray:
    """B_0 .. B_n_max of the series at kappa_sq.  k_n grows like
    x^-(n+1), so at kappa_sq > 0 it overflows for large n (n = 200 at
    x = 0.3); past n = 30 the terms are below 1e-19 of W here."""
    n = np.arange(n_max + 1)
    if kappa_sq == 0.0:
        rho = -(n + 1.0)
    else:
        x = RADIUS * np.sqrt(kappa_sq / EPS_OUT)
        rho = x * spherical_kn(n, x, derivative=True) / spherical_kn(n, x)
    return (EPS_OUT * rho + EPS_IN * (n + 1)) / (EPS_IN * (n * EPS_IN - EPS_OUT * rho))


def kirkwood_series(n_max: int = 200, kappa_sq: float = 0.0) -> float:
    """W of CHARGES in the R = 2 sphere at kappa_sq, summed to n_max, in
    kcal/mol."""
    pos = np.array([p for p, _ in CHARGES])
    q = np.array([c for _, c in CHARGES])
    r = np.linalg.norm(pos, axis=1)
    cos = np.clip((pos @ pos.T) / np.outer(r, r), -1.0, 1.0)
    rr = np.outer(r, r) / RADIUS**2
    legendre = [np.ones_like(cos), cos]
    for n in range(2, n_max + 1):
        legendre.append(((2 * n - 1) * cos * legendre[-1] - (n - 1) * legendre[-2]) / n)
    b = coefficients(n_max, kappa_sq)
    total = sum(b[n] * rr**n * legendre[n] for n in range(n_max + 1))
    return 0.5 * COULOMB_KCAL / RADIUS * float(q @ total @ q)


def lpb_energy(h: float, kappa_sq: float = 0.0) -> float:
    """Energy of the LPB start, the discrete steady state of the linearized
    equation, at kappa_sq on grid spacing h."""
    atoms = AtomSet(
        [Atom((0.0, 0.0, 0.0), 0.0, RADIUS)]
        + [Atom(p, c, 0.1) for p, c in CHARGES]
    )
    cfg = RunConfig(
        atoms=atoms,
        h=h,
        surface="vdw",
        params=PhysicalParams(eps_in=EPS_IN, eps_out=EPS_OUT, kappa_sq=kappa_sq),
        box=(-BOX_HALF,) * 3 + (BOX_HALF,) * 3,
    )
    problem = build_problem(cfg)
    u = initial_condition("lpb", problem)
    return solvation_energy(u, problem.atoms, stencil=problem.stencil)


def _check_errors(label: str, errors: dict, bounds: dict) -> None:
    """One line per h in the acceptance printout's form (pytest -s shows
    them), then the bounds and the ratio per halving."""
    for h, bound in bounds.items():
        ok = abs(errors[h]) <= bound
        print(
            f"[kirkwood series {label}, h={h}] {'PASS' if ok else 'FAIL'}: "
            f"E_h - W = {errors[h]:+.4f} kcal/mol (|.| <= {bound})"
        )
    for h, bound in bounds.items():
        assert abs(errors[h]) <= bound, (h, errors[h])
    assert abs(errors[0.5]) >= MIN_RATIO * abs(errors[0.25]), errors


def test_series_value():
    assert kirkwood_series() == pytest.approx(SERIES_ENERGY, abs=5e-6)
    # the tail past n = 100 is below the stated digits
    assert abs(kirkwood_series(100) - kirkwood_series()) < 1e-6


def test_discrete_steady_state_converges_to_the_series():
    errors = {h: lpb_energy(h) - kirkwood_series() for h in ERROR_BOUND}
    _check_errors("kappa=0", errors, ERROR_BOUND)


def test_screened_series_value():
    assert kirkwood_series(60, KAPPA_SQ) == pytest.approx(SCREENED_ENERGY, abs=5e-6)
    assert abs(kirkwood_series(40, KAPPA_SQ) - kirkwood_series(60, KAPPA_SQ)) < 1e-9
    # n = 0 is Born's energy with the Debye-Hueckel factor 1 / (1 + k R)
    x = RADIUS * np.sqrt(KAPPA_SQ / EPS_OUT)
    born = 1.0 / (EPS_OUT * (1.0 + x)) - 1.0 / EPS_IN
    assert coefficients(0, KAPPA_SQ)[0] == pytest.approx(born, rel=1e-14)
    # the screened coefficients approach Kirkwood's as kappa^2 -> 0
    np.testing.assert_allclose(coefficients(20, 1e-12), coefficients(20, 0.0), rtol=1e-6)


def test_linearized_steady_state_converges_to_the_screened_series():
    series = kirkwood_series(60, KAPPA_SQ)
    errors = {h: lpb_energy(h, KAPPA_SQ) - series for h in SCREENED_BOUND}
    _check_errors("kappa>0", errors, SCREENED_BOUND)
