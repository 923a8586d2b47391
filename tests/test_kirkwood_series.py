"""A continuum oracle: Kirkwood's multipole series for off-centre charges.

Three charges of radius 0.1 sit inside a neutral R = 2 atom, a vdw union
that is the dielectric sphere.  At kappa^2 = 0 the LPB start is the discrete
steady state itself, so its energy is the GFM discretization's value, with
no pseudo-time error.  Off-centre charges make the jump data a and b vary
along the interface on every axis, which is what the GFM's correction terms
are for; the centred charge of criterion 1 has the same jumps all round.

The series is Kirkwood's, J. Chem. Phys. 2 (1934) 351: the reaction-field
energy of charges q_i at r_i in a sphere of radius R is

    W = C/2 sum_ij q_i q_j sum_n B_n (r_i r_j)^n / R^(2n+1) P_n(cos g_ij),
    B_n = (n+1)(eps_in - eps_out) / (eps_in (n eps_in + (n+1) eps_out)),

with C the Coulomb constant in kcal*A/(mol*e^2) and g_ij the angle between
r_i and r_j.  The box is +-8 A, and its Dirichlet faces hold the charges'
Coulomb field in eps_out, not the sphere's exact exterior field; moving the
box to +-12 moves the h = 0.25 error by 1.4e-3 kcal/mol, which the bounds
below cover.
"""

import numpy as np
import pytest

from gfmpbe import (
    Atom,
    AtomSet,
    PhysicalParams,
    RunConfig,
    build_problem,
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


def kirkwood_series(n_max: int = 200) -> float:
    """W of CHARGES in the R = 2 sphere, summed to n_max, in kcal/mol."""
    pos = np.array([p for p, _ in CHARGES])
    q = np.array([c for _, c in CHARGES])
    r = np.linalg.norm(pos, axis=1)
    cos = np.clip((pos @ pos.T) / np.outer(r, r), -1.0, 1.0)
    rr = np.outer(r, r) / RADIUS**2
    legendre = [np.ones_like(cos), cos]
    for n in range(2, n_max + 1):
        legendre.append(((2 * n - 1) * cos * legendre[-1] - (n - 1) * legendre[-2]) / n)
    total = sum(
        (n + 1) * (EPS_IN - EPS_OUT) / (EPS_IN * (n * EPS_IN + (n + 1) * EPS_OUT))
        * rr**n * legendre[n]
        for n in range(n_max + 1)
    )
    return 0.5 * COULOMB_KCAL / RADIUS * float(q @ total @ q)


def lpb_energy(h: float) -> float:
    """Energy of the discrete steady state at kappa^2 = 0 on grid spacing h."""
    atoms = AtomSet(
        [Atom((0.0, 0.0, 0.0), 0.0, RADIUS)]
        + [Atom(p, c, 0.1) for p, c in CHARGES]
    )
    cfg = RunConfig(
        atoms=atoms,
        h=h,
        surface="vdw",
        params=PhysicalParams(eps_in=EPS_IN, eps_out=EPS_OUT, kappa_sq=0.0),
        box=(-BOX_HALF,) * 3 + (BOX_HALF,) * 3,
    )
    problem = build_problem(cfg)
    u = initial_condition("lpb", problem)
    return solvation_energy(u, problem.atoms, problem.params, stencil=problem.stencil)


def test_series_value():
    assert kirkwood_series() == pytest.approx(SERIES_ENERGY, abs=5e-6)
    # the tail past n = 100 is below the stated digits
    assert abs(kirkwood_series(100) - kirkwood_series()) < 1e-6


def test_discrete_steady_state_converges_to_the_series():
    errors = {h: lpb_energy(h) - kirkwood_series() for h in ERROR_BOUND}
    for h, bound in ERROR_BOUND.items():
        assert abs(errors[h]) <= bound, (h, errors[h])
    assert abs(errors[0.5]) >= MIN_RATIO * abs(errors[0.25]), errors
