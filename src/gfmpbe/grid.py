"""Uniform Cartesian grids, trilinear sampling, and field serialization."""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DomainError, FormatError

if TYPE_CHECKING:
    from .molecule import AtomSet

MIN_NODES = 4
"""Fewest nodes per axis that still leave a 2-node interior."""

_EXTENT_TOL = 1e-9
"""Relative tolerance when checking that a box extent is a multiple of h."""

_HEADER_BYTES = 7 * 8
"""Bytes of a binary field file's header: the shape, h and the origin."""


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid: origin, spacing h, node counts per axis."""

    origin: tuple[float, float, float]
    h: float
    shape: tuple[int, int, int]

    def __post_init__(self):
        if not all(math.isfinite(o) for o in self.origin):
            raise ConfigError(f"grid origin must be finite, got {self.origin}")
        if self.h <= 0 or not np.isfinite(self.h):
            raise ConfigError(f"grid spacing must be positive, got {self.h}")
        if any(n < MIN_NODES for n in self.shape):
            raise ConfigError(
                f"need at least {MIN_NODES} nodes per axis, got {self.shape}"
            )

    @property
    def upper(self) -> tuple[float, float, float]:
        return tuple(o + self.h * (n - 1) for o, n in zip(self.origin, self.shape))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis (0=x, 1=y, 2=z)."""
        return self.origin[axis] + self.h * np.arange(self.shape[axis])

    def node(self, i: int, j: int, k: int) -> np.ndarray:
        return np.array(
            [
                self.origin[0] + self.h * i,
                self.origin[1] + self.h * j,
                self.origin[2] + self.h * k,
            ]
        )

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (Nx, Ny, Nz, 3), C order."""
        x, y, z = (self.axis_coords(a) for a in range(3))
        return np.stack(np.meshgrid(x, y, z, indexing="ij"), axis=-1)

    def nodes_at(self, mask: np.ndarray) -> np.ndarray:
        """Coordinates (m, 3) of the nodes where mask is set, in C order, as
        nodes()[mask] has them, without every node's coordinates."""
        at = np.nonzero(mask)
        return np.stack([self.axis_coords(a)[i] for a, i in enumerate(at)], axis=-1)


@dataclass
class Field:
    """Nodal scalar values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def build_grid(
    atoms: "AtomSet",
    h: float,
    probe_radius: float = 1.4,
    box: tuple[float, float, float, float, float, float] | None = None,
) -> Grid:
    """Build the computational grid around a solute.

    Without an explicit box, each axis spans the atom spheres padded by
    floor(2 * probe_radius) on both sides, then widens symmetrically to the
    nearest multiple of h.  With box = (x0, y0, z0, x1, y1, z1) the extents
    must already be multiples of h.
    """
    if h <= 0 or not np.isfinite(h):
        raise ConfigError(f"grid spacing must be positive, got {h}")
    if box is not None:
        lo = np.array(box[:3], dtype=float)
        hi = np.array(box[3:], dtype=float)
        if not np.all(hi > lo):
            raise ConfigError(f"box upper corner must exceed lower corner: {box}")
        cells = (hi - lo) / h
        n_cells = np.round(cells).astype(int)
        if np.any(np.abs(cells - n_cells) > _EXTENT_TOL * np.maximum(cells, 1.0)):
            raise ConfigError(f"box extents {tuple(hi - lo)} are not multiples of h={h}")
        return Grid(tuple(float(v) for v in lo), h, tuple(int(v) + 1 for v in n_cells))

    if probe_radius < 0:
        raise ConfigError(f"probe radius must be nonnegative, got {probe_radius}")
    pad = float(np.floor(2.0 * probe_radius))
    lo = (atoms.centers - atoms.radii[:, None]).min(axis=0) - pad
    hi = (atoms.centers + atoms.radii[:, None]).max(axis=0) + pad
    # Widen each axis symmetrically so the extent is an exact cell multiple.
    extent = hi - lo
    n_cells = np.ceil(extent / h - 1e-12).astype(int)
    n_cells = np.maximum(n_cells, MIN_NODES - 1)
    slack = n_cells * h - extent
    lo = lo - 0.5 * slack
    return Grid(tuple(float(v) for v in lo), h, tuple(int(v) + 1 for v in n_cells))


_CORNER_OFFSETS = np.array(
    [(dx, dy, dz) for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
)
"""Offsets of a cell's eight corners from its low corner, dx fastest."""


@dataclass(frozen=True, eq=False)
class TrilinearStencil:
    """Trilinear weights of fixed points on one grid.

    corners (8, m) holds the flat C-order node indices of each point's cell
    corners, ordered by dx + 2*dy + 4*dz; frac (2, 3, m) holds the
    complements 1 - f and the fractions f along each axis.
    """

    grid: Grid
    corners: np.ndarray
    frac: np.ndarray

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Interpolated values (m,) of a nodal array on the stencil's grid."""
        v = np.take(values, self.corners).reshape(4, 2, -1)
        (gx, gy, gz), (fx, fy, fz) = self.frac
        # x, then y, then z: c00 = v000*(1-fx) + v100*fx, ...
        c = v[:, 0] * gx + v[:, 1] * fx
        c = c.reshape(2, 2, -1)
        c = c[:, 0] * gy + c[:, 1] * fy
        return c[0] * gz + c[1] * fz


def trilinear_stencil(grid: Grid, p) -> TrilinearStencil:
    """Trilinear stencil of (3,) or (m, 3) points inside the grid box.

    A 1e-9*h overhang is forgiven and clamped; a point beyond it raises
    DomainError.
    """
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    rel = (pts - np.asarray(grid.origin)) / grid.h
    n = np.array(grid.shape)
    tol = 1e-9
    out = np.any((rel < -tol) | (rel > (n - 1) + tol), axis=1)
    if out.any():
        bad = tuple(float(c) for c in pts[out][0])
        raise DomainError(
            f"point {bad} lies outside the grid box {grid.origin} to {grid.upper}"
        )
    cell = np.clip(np.floor(rel).astype(int), 0, n - 2)
    frac = np.clip(rel - cell, 0.0, 1.0).T
    corners = cell[None] + _CORNER_OFFSETS[:, None]
    flat = np.ravel_multi_index(tuple(np.moveaxis(corners, -1, 0)), grid.shape)
    return TrilinearStencil(grid, flat, np.stack([1 - frac, frac]))


def trilinear(field: Field, p):
    """Trilinear interpolation of a nodal field at (3,) or (m, 3) points.

    Points must lie inside the grid box (a 1e-9*h overhang is forgiven and
    clamped).  Raises DomainError otherwise.
    """
    single = np.ndim(p) == 1
    out = trilinear_stencil(field.grid, p)(field.values)
    return float(out[0]) if single else out


def write_field_csv(field: Field, path) -> None:
    """Write nodal values as `i,j,k,value` rows in C order, each value as
    its shortest round-trip repr.  Rows are joined a plane at a time."""
    nx, ny, nz = field.grid.shape
    jk = [f"{j},{k}," for j in range(ny) for k in range(nz)]
    values = map(repr, field.values.reshape(-1).tolist())
    with open(path, "w") as f:
        f.write("i,j,k,value\n")
        for i in range(nx):
            rows = map(str.__add__, jk, itertools.islice(values, ny * nz))
            f.write(f"{i}," + f"\n{i},".join(rows) + "\n")


def write_field_binary(field: Field, path) -> None:
    """Write a field as little-endian binary.

    Layout: Nx,Ny,Nz as int64; h as float64; origin as 3 float64; then the
    nodal values as C-order float64.
    """
    with open(path, "wb") as f:
        np.asarray(field.grid.shape, dtype="<i8").tofile(f)
        np.asarray([field.grid.h], dtype="<f8").tofile(f)
        np.asarray(field.grid.origin, dtype="<f8").tofile(f)
        np.ascontiguousarray(field.values, dtype="<f8").tofile(f)


def read_field_binary(path) -> Field:
    """Inverse of write_field_binary.  A file shorter than its header, or not
    exactly as long as its header's field needs, raises FormatError with the
    expected and found byte counts."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER_BYTES:
            raise FormatError(
                f"field file {path}: the header needs {_HEADER_BYTES} bytes,"
                f" found {size}"
            )
        shape = tuple(int(n) for n in np.fromfile(f, dtype="<i8", count=3))
        h = float(np.fromfile(f, dtype="<f8", count=1)[0])
        origin = tuple(float(c) for c in np.fromfile(f, dtype="<f8", count=3))
        grid = Grid(origin, h, shape)
        expected = _HEADER_BYTES + 8 * math.prod(shape)
        if size != expected:
            raise FormatError(
                f"field file {path}: a {shape} field needs {expected} bytes,"
                f" found {size}"
            )
        values = np.fromfile(f, dtype="<f8").reshape(shape)
    return Field(grid, values)
