"""Seeded workload generators and the energy references they are checked against.

Each generator turns a seed into the solver's inputs (atoms and run
configurations) and nothing else; the solver never sees the seed.  The
protocols and the reasons for each workload are recorded in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.transform import Rotation

from gfmpbe import (
    Atom,
    AtomSet,
    ControllerConfig,
    GfmpbeError,
    PhysicalParams,
    RunConfig,
    build_problem,
    kirkwood_config,
    reference_config,
    run,
)

KIRKWOOD_ANALYTIC = -81.9782
"""Closed-form series energy of the unit charge in the R=2 sphere (kcal/mol)."""

KIRKWOOD_TABLE = -82.051117
"""Grid value that acceptance criterion 1 compares against (kcal/mol)."""

SOLUTE_REL_BOUND = 1e-2
"""Allowed |E - E_ref| / |E_ref| of a NonincreasingPID solve against the
reference_config run on the same problem.  Acceptance criterion 6 asks for
2e-3 on one pose; over many seeded poses the solver at the benchmark's
first commit reaches up to ~5e-3, so the bound sits at about twice that.
Solves beyond criterion 6's value are counted separately, not hidden."""

CRITERION_6_REL = 2e-3

DESK_SOLUTE = (
    ((0.0, 0.0, 0.0), 1.0, 2.0),
    ((2.8, 0.0, 0.0), -0.7, 1.7),
    ((0.0, 2.9, 0.4), 0.5, 1.8),
    ((-2.7, 0.3, -0.6), -0.8, 1.6),
)
"""The four-atom SES solute of acceptance criteria 5 and 6: (centre, q, r)."""


@dataclass(frozen=True)
class Reference:
    """E_ref for energy_err, plus the (value, allowed |E - value|) checks."""

    energy: float
    checks: tuple[tuple[float, float], ...]

    def error(self, e: float) -> float:
        return abs(e - self.energy) / abs(self.energy)

    def holds(self, e: float) -> bool:
        return all(abs(e - value) <= bound for value, bound in self.checks)


KIRKWOOD_REFERENCE = Reference(
    KIRKWOOD_ANALYTIC, ((KIRKWOOD_ANALYTIC, 0.5), (KIRKWOOD_TABLE, 0.3))
)
"""Criterion 1's bounds: within 0.5 of the analytic value, 0.3 of the table."""


@dataclass
class Workload:
    """The solves of one repetition.

    reference is the fixed E_ref of every solve, or None when each solve's
    E_ref is run(reference_config(cfg)) on the same problem.
    """

    name: str
    configs: list[RunConfig]
    reference: Reference | None = None


def reference_energies(workload: Workload) -> list[Reference | None]:
    """One Reference per solve; None where the reference run itself raised."""
    if workload.reference is not None:
        return [workload.reference] * len(workload.configs)
    refs: list[Reference | None] = []
    for cfg in workload.configs:
        try:
            e = run(reference_config(cfg), problem=build_problem(cfg)).final_energy
        except GfmpbeError:
            refs.append(None)
            continue
        refs.append(Reference(e, ((e, SOLUTE_REL_BOUND * abs(e)),)))
    return refs


KIRKWOOD_BOX_HALF = 8.0
"""Half-width of kirkwood-65's cubic box (A): 65^3 nodes at h=0.25."""


def kirkwood_65(seed: int, h: float = 0.25) -> Workload:
    """Unit charge in an R=2 sphere, centre offset uniformly in [-h/2, h/2]^3.

    ADI, zero start, and reference_config's Constant controller (dt 0.01,
    tol 1e-4, t_min_stop 5).
    """
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-0.5 * h, 0.5 * h, size=3)
    base = kirkwood_config(h=h, box_half=KIRKWOOD_BOX_HALF)
    atoms = AtomSet([Atom(tuple(offset), 1.0, 2.0)])
    cfg = replace(reference_config(base), atoms=atoms, ic="zero")
    return Workload("kirkwood-65", [cfg], KIRKWOOD_REFERENCE)


def _solute_config(atoms: AtomSet, h: float, scheme: str) -> RunConfig:
    return RunConfig(
        atoms=atoms,
        h=h,
        surface="ses-grid",
        probe_radius=1.4,
        scheme=scheme,
        controller=ControllerConfig.for_kind("NonincreasingPID"),
        ic="lpb",
        params=PhysicalParams(eps_in=1.0, eps_out=80.0, ionic_strength=0.15),
    )


def solute_poses(seed: int, n_poses: int, h: float) -> list[AtomSet]:
    """The desk solute under seeded rigid motions: a uniform random rotation
    about its centroid plus a shift uniform in [0, h)^3."""
    rng = np.random.default_rng(seed)
    centers = np.array([c for c, _, _ in DESK_SOLUTE])
    centroid = centers.mean(axis=0)
    poses = []
    for rot in Rotation.random(n_poses, random_state=rng):
        moved = rot.apply(centers - centroid) + centroid + rng.uniform(0.0, h, 3)
        poses.append(
            AtomSet(
                [Atom(tuple(p), q, r) for p, (_, q, r) in zip(moved, DESK_SOLUTE)]
            )
        )
    return poses


SOLUTE_BATCH_H = 0.5
"""Grid spacing of solute-batch (A): 18-27 nodes a side."""


def solute_batch(seed: int, n_poses: int = 8) -> Workload:
    """Many small SES solves: the desk solute in n_poses seeded poses, ADI."""
    configs = [
        _solute_config(a, SOLUTE_BATCH_H, "ADI")
        for a in solute_poses(seed, n_poses, SOLUTE_BATCH_H)
    ]
    return Workload("solute-batch", configs)


def branched_chain(seed: int, n_atoms: int) -> AtomSet:
    """Random branched chain centred at the origin.

    Each new atom bonds to a random earlier one at 1.5-2.4 A and keeps at
    least 2.2 A from every other atom; radii are U[1.5, 1.9] A and charges
    N(0, 0.4) shifted so that the net charge is an integer.
    """
    rng = np.random.default_rng(seed)
    centers = [np.zeros(3)]
    while len(centers) < n_atoms:
        parent = int(rng.integers(len(centers)))
        direction = rng.normal(size=3)
        p = centers[parent] + rng.uniform(1.5, 2.4) * direction / np.linalg.norm(
            direction
        )
        others = np.delete(np.array(centers), parent, axis=0)
        if len(others) and np.min(np.linalg.norm(others - p, axis=1)) < 2.2:
            continue
        centers.append(p)
    pts = np.array(centers) - np.mean(centers, axis=0)
    radii = rng.uniform(1.5, 1.9, n_atoms)
    q = rng.normal(0.0, 0.4, n_atoms)
    q -= (q.sum() - round(q.sum())) / n_atoms
    return AtomSet([Atom(tuple(c), float(qi), float(r)) for c, qi, r in zip(pts, q, radii)])


SOLUTE_LARGE_ATOMS = 40
SOLUTE_LARGE_H = 0.25
"""Grid spacing of solute-large (A): ~0.39 M nodes, 13-15 k crossings."""


def solute_large(seed: int) -> Workload:
    """One seeded branched solute at h=0.25 under LOD: set-up at scale."""
    atoms = branched_chain(seed, SOLUTE_LARGE_ATOMS)
    return Workload("solute-large", [_solute_config(atoms, SOLUTE_LARGE_H, "LOD")])


WORKLOADS = {
    "kirkwood-65": kirkwood_65,
    "solute-batch": solute_batch,
    "solute-large": solute_large,
}
