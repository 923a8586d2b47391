"""Solute description: atoms, physical constants, singular-charge fields, energy.

The solver works with the dimensionless potential u = e_c*phi/(k_B*T).  In
these units the Coulomb field of the solute charges is

    G(r) = C * sum_i q_i / (eps_in * |r - r_i|),

with C = e_c^2/(k_B*T) expressed in Angstroms.  Numerically C is pinned by
the product kBT_kcal * C = 332.0716 kcal*A/(mol*e^2), the Coulomb constant
in biomolecular units, together with kBT_kcal = 0.592183 kcal/mol
(T = 298.15 K assumed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ParseError, SingularityError

if TYPE_CHECKING:
    from .grid import Field

KBT_KCAL = 0.592183
"""kcal/mol per unit of dimensionless potential*charge, at 298.15 K."""

COULOMB_KCAL = 332.0716
"""Coulomb constant in kcal*A/(mol*e^2)."""

CHARGE_FACTOR = COULOMB_KCAL / KBT_KCAL
"""C = e_c^2/(k_B*T) in Angstroms; scales G to dimensionless potential."""

DEBYE_COEFF = 8.486902807
"""Debye-Huckel coefficient in A^-2 per molar ionic strength (water, 298.15 K)."""

SINGULARITY_GUARD = 1e-12
"""Minimum distance (A) from an atom center at which fields are evaluated."""

_BLOCK_BYTES = 1 << 20
"""Byte budget of one temporary of a point block: the point-blocked sums
take as many points at a time as keep their (points, atoms, 3) offsets
within it, so their temporaries do not grow with the point count."""


@dataclass(frozen=True)
class Atom:
    """One solute sphere: center (A), partial charge (e), radius (A)."""

    center: tuple[float, float, float]
    charge: float
    radius: float

    def __post_init__(self):
        if not all(np.isfinite(self.center)):
            raise ConfigError(f"atom center must be finite, got {self.center}")
        if not np.isfinite(self.charge):
            raise ConfigError(f"atom charge must be finite, got {self.charge}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ConfigError(f"atom radius must be positive, got {self.radius}")


class AtomSet:
    """Ordered, nonempty collection of atoms with duplicate centers rejected."""

    def __init__(self, atoms: list[Atom]):
        if not atoms:
            raise ConfigError("atom set must contain at least one atom")
        centers = np.array([a.center for a in atoms], dtype=float)
        if len(atoms) > 1:
            # centres ~1e308 apart overflow to an infinite distance, which
            # is not coincident
            with np.errstate(over="ignore"):
                diff = centers[:, None, :] - centers[None, :, :]
                dist = np.sqrt((diff**2).sum(axis=2))
            dist[np.diag_indices(len(atoms))] = np.inf
            if dist.min() < SINGULARITY_GUARD:
                i, j = np.unravel_index(np.argmin(dist), dist.shape)
                raise ConfigError(f"atoms {i} and {j} have coincident centers")
        self.atoms = list(atoms)
        self.centers = centers
        self.charges = np.array([a.charge for a in atoms], dtype=float)
        self.radii = np.array([a.radius for a in atoms], dtype=float)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)


@dataclass
class PhysicalParams:
    """Dielectric constants, screening, and unit conversions.

    kappa_sq is the solvent-region screening parameter in A^-2; it is zero
    inside the solute.  If not given it is derived from the ionic strength;
    if the ionic strength is not given it is back-computed from kappa_sq.
    When both are given, they must agree to 1e-12 relative (the round trip
    through DEBYE_COEFF is not exact), and the ionic strength must be
    nonnegative.  A non-finite value raises ConfigError naming its field.
    """

    eps_in: float = 1.0
    eps_out: float = 80.0
    ionic_strength: float | None = None
    kappa_sq: float | None = None

    def __post_init__(self):
        for name in ("eps_in", "eps_out", "ionic_strength", "kappa_sq"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not (0 < self.eps_in <= self.eps_out):
            raise ConfigError(
                f"need 0 < eps_in <= eps_out, got {self.eps_in}, {self.eps_out}"
            )
        if self.kappa_sq is None:
            self.kappa_sq = debye_kappa_sq(self.ionic_strength or 0.0)
        elif self.ionic_strength is not None:
            if self.ionic_strength < 0:
                raise ConfigError(
                    f"ionic_strength must be nonnegative, got {self.ionic_strength}"
                    f" with kappa_sq {self.kappa_sq}"
                )
            implied = debye_kappa_sq(self.ionic_strength)
            if not math.isclose(implied, self.kappa_sq, rel_tol=1e-12):
                raise ConfigError(
                    f"ionic_strength {self.ionic_strength} gives kappa_sq {implied},"
                    f" not the kappa_sq {self.kappa_sq} given"
                )
        if self.ionic_strength is None:
            self.ionic_strength = self.kappa_sq / DEBYE_COEFF
        if not 0 <= self.kappa_sq < np.inf:
            raise ConfigError(
                f"kappa_sq must be nonnegative and finite, got {self.kappa_sq}"
            )


def debye_kappa_sq(ionic_strength: float) -> float:
    """Screening parameter kappa^2 = 8.486902807 * I_s in A^-2 (molar I_s)."""
    if ionic_strength < 0:
        raise ConfigError(f"ionic strength must be nonnegative, got {ionic_strength}")
    return DEBYE_COEFF * ionic_strength


def parse_atoms(text: str) -> AtomSet:
    """Parse whitespace-separated `x y z q r` records, one atom per line.

    Blank lines and lines starting with `#` are skipped.  Raises ParseError
    with the offending line number on malformed input.
    """
    atoms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(
                f"expected 5 fields `x y z q r`, got {len(parts)}", lineno
            )
        try:
            x, y, z, q, r = (float(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"malformed number in {line!r}", lineno) from exc
        if r <= 0:
            raise ParseError(f"atom radius must be positive, got {r}", lineno)
        atoms.append(Atom((x, y, z), q, r))
    if not atoms:
        raise ParseError("no atom records found", None)
    return AtomSet(atoms)


def _point_blocks(n_points: int, width: int):
    """Slices of n_points rows in blocks of as many rows as keep a
    (rows, width) float array within _BLOCK_BYTES (one row at least)."""
    step = max(1, _BLOCK_BYTES // (8 * width))
    return [slice(start, start + step) for start in range(0, n_points, step)]


def _offsets(atoms: AtomSet, points: np.ndarray, rows=slice(None)):
    """Offsets (b, n_atoms, 3) of the points[rows] from the atom centers and
    their lengths (b, n_atoms), with the singularity guard enforced over
    all the points: the error names the nearest (point, atom) pair of all,
    the first in C order, whichever rows were asked for."""
    diff = points[rows, None, :] - atoms.centers[None, :, :]
    dist = _lengths(diff)
    if dist.min() < SINGULARITY_GUARD:
        raise _singularity(atoms, points)
    return diff, dist


def _lengths(diff: np.ndarray) -> np.ndarray:
    """Lengths of the rows of diff (..., 3): sqrt((x^2 + y^2) + z^2), the
    additions, in the same order, of summing diff ** 2 over its last axis,
    without the squared copy."""
    dist = diff[..., 0] ** 2
    dist += diff[..., 1] ** 2
    dist += diff[..., 2] ** 2
    return np.sqrt(dist, out=dist)


def _singularity(atoms: AtomSet, points: np.ndarray) -> SingularityError:
    """The SingularityError for the nearest (point, atom) pair, the first
    in C order, found over point blocks."""
    nearest = (np.inf, 0, 0)
    for rows in _point_blocks(len(points), 3 * len(atoms)):
        dist = _lengths(points[rows, None, :] - atoms.centers)
        row, atom = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[row, atom] < nearest[0]:
            nearest = (dist[row, atom], rows.start + row, atom)
    _, row, atom = nearest
    center = tuple(float(v) for v in atoms.centers[atom])
    point = tuple(float(v) for v in points[row])
    return SingularityError(
        f"evaluation point {point} within {SINGULARITY_GUARD} A of atom"
        f" {int(atom)} center {center}"
    )


def _as_points(p) -> tuple[np.ndarray, bool]:
    pts = np.asarray(p, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


def green_potential(atoms: AtomSet, p, params: PhysicalParams):
    """Dimensionless Coulomb potential of the solute charges in eps_in.

    Accepts a single point (3,) or a batch (m, 3); returns a scalar or (m,).
    """
    pts, single = _as_points(p)
    _, dist = _offsets(atoms, pts)
    val = (CHARGE_FACTOR / params.eps_in) * (atoms.charges / dist).sum(axis=1)
    return float(val[0]) if single else val


def green_gradient(atoms: AtomSet, p, params: PhysicalParams):
    """Analytic gradient of green_potential; (3,) for a point, (m, 3) batched."""
    pts, single = _as_points(p)
    diff, dist = _offsets(atoms, pts)
    scale = -CHARGE_FACTOR / params.eps_in * atoms.charges / dist**3
    grad = (scale[:, :, None] * diff).sum(axis=1)
    return grad[0] if single else grad


def green_axis_terms(
    atoms: AtomSet, points: np.ndarray, axes: np.ndarray, params: PhysicalParams
):
    """green_potential at each point of a batch (m, 3) and the axes[i]
    component of green_gradient at point i, both (m,), from one set of
    offsets per point block (_point_blocks).  Only that component is formed,
    and it is summed over the atoms from 0.0 in atom order, as
    green_gradient's reduction is (numpy's pairwise sum would reorder it
    from 8 atoms on), so both arrays equal those functions' values bit for
    bit, signed zeros included; a point's sums do not depend on its
    block."""
    scale = CHARGE_FACTOR / params.eps_in
    pot, grad = np.empty(len(points)), np.zeros(len(points))
    for rows in _point_blocks(len(points), 3 * len(atoms)):
        diff, dist = _offsets(atoms, points, rows)
        pot[rows] = scale * (atoms.charges / dist).sum(axis=1)
        terms = -CHARGE_FACTOR / params.eps_in * atoms.charges / dist**3
        terms *= diff[np.arange(len(dist)), :, axes[rows]]
        for col in terms.T:
            grad[rows] += col
    return pot, grad


def dirichlet_boundary(atoms: AtomSet, p, params: PhysicalParams):
    """Screened-Coulomb superposition used as the far-field Dirichlet value.

    phi_b(p) = C * sum_i q_i * exp(-|p-r_i| * sqrt(kappa^2/eps_out))
               / (eps_out * |p-r_i|)

    The points go in blocks (_point_blocks); each point's sum over the
    atoms does not depend on its block.
    """
    pts, single = _as_points(p)
    decay = np.sqrt(params.kappa_sq / params.eps_out)
    val = np.empty(len(pts))
    for rows in _point_blocks(len(pts), 3 * len(atoms)):
        _, dist = _offsets(atoms, pts, rows)
        val[rows] = (CHARGE_FACTOR / params.eps_out) * (
            atoms.charges * np.exp(-decay * dist) / dist
        ).sum(axis=1)
    return float(val[0]) if single else val


def solvation_energy(u: "Field", atoms: AtomSet, *, stencil=None) -> float:
    """Electrostatic solvation free energy in kcal/mol.

    E_sol = 1/2 * kBT * sum_i q_i * u(r_i), with u interpolated trilinearly
    at the atom centers.  Every center must lie inside the grid.  stencil,
    when given, is grid.trilinear_stencil(u.grid, atoms.centers), built once
    for a field that is read many times.
    """
    if stencil is None:
        from .grid import trilinear_stencil

        stencil = trilinear_stencil(u.grid, atoms.centers)
    elif stencil.grid is not u.grid and stencil.grid != u.grid:
        raise ConfigError("stencil grid does not match the field's grid")
    vals = stencil(u.values)
    return 0.5 * KBT_KCAL * float((atoms.charges * vals).sum())
