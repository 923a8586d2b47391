"""The energy of the discrete steady state as one atom slides.

Atom 2 of the desk solute moves along x from 2.80 to 3.30 A in 0.01 A steps
on a fixed box, at kappa = 0, with the LPB start's energy (the discrete
steady state).  The energy falls by ~0.15 kcal/mol a step; a step that
departs from the median step is a jump.  The bounds are the departures
measured when the test was added (vdw 0.1848 at x = 3.29, ses-grid 0.3805 at
x = 3.27), a guard against regressions: a change that mends a cause
tightens them.
"""

import numpy as np
import pytest

from gfmpbe.driver import RunConfig, build_problem, initial_condition
from gfmpbe.molecule import Atom, AtomSet, PhysicalParams, solvation_energy

DESK_ATOMS = [
    ((0.0, 0.0, 0.0), 1.0, 2.0),
    ((2.8, 0.0, 0.0), -0.7, 1.7),
    ((0.0, 2.9, 0.4), 0.5, 1.8),
    ((-2.7, 0.3, -0.6), -0.8, 1.6),
]
BOX = (-9.0, -7.0, -7.0, 9.0, 9.0, 7.0)
XS = np.round(np.arange(2.80, 3.30 + 1e-9, 0.01), 2)


def _slide_energies(surface: str) -> np.ndarray:
    energies = []
    for x in XS:
        atoms = [Atom(c, q, r) for c, q, r in DESK_ATOMS]
        atoms[1] = Atom((float(x), 0.0, 0.0), -0.7, 1.7)
        cfg = RunConfig(
            atoms=AtomSet(atoms),
            h=0.5,
            surface=surface,
            params=PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=0.0),
            box=BOX,
        )
        problem = build_problem(cfg)
        start = initial_condition("lpb", problem)
        energies.append(solvation_energy(start, problem.atoms, stencil=problem.stencil))
    return np.array(energies)


@pytest.mark.parametrize("surface, bound", [("vdw", 0.19), ("ses-grid", 0.39)])
def test_largest_departure_from_the_median_step(surface, bound):
    steps = np.diff(_slide_energies(surface))
    departure = np.abs(steps - np.median(steps))
    worst = int(np.argmax(departure))
    print(
        f"[slide {surface}] median step {np.median(steps):.4f} kcal/mol; largest"
        f" departure {departure[worst]:.4f} at x = {XS[worst + 1]:.2f};"
        f" {int((departure > 0.05).sum())} steps > 0.05"
    )
    assert departure[worst] <= bound
