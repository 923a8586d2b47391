"""Interface classification on Cartesian grids, plus a text interchange format.

An interface is represented discretely: every grid node carries an
inside/outside flag, and every grid edge whose endpoints disagree carries
exactly one crossing (the fraction theta measured from the low-index node,
plus the Cartesian location of the cut).  InterfaceData holds the flags as
one boolean array and the crossings as arrays in canonical (axis, i, j, k)
order: the (m, 4) keys, the thetas and the locations, so assembly reads them
without one Python object per cut edge.  Crossings come from two cut rules,
each in whole-array numpy: the union of atom spheres (van der Waals; a single
sphere is the one-atom union) is cut at the exact roots along each edge, and
the probe-rolled molecular surface, the level set of one node level psi (the
depth inside the union of probe-inflated spheres minus the probe radius), by
linear interpolation of psi at the edge's two nodes.  psi >= 0 at every node
inside an atom sphere, so psi alone gives the inside mask.  Each InterfaceData
is checked once, where it is made: its one constructor rejects inconsistent
flags and crossings, and the operator assembly relies on that.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import distance_transform_edt

from .errors import AssemblyError, ConfigError, FormatError
from .grid import MIN_NODES, Grid
from .molecule import Atom, AtomSet

AXIS_NAMES = ("x", "y", "z")

THETA_MIN = 1e-6
"""Crossing fractions are clamped to [THETA_MIN, 1 - THETA_MIN]."""

CLASSIFY_TOL = 1e-12
"""Nodes within this signed distance of the surface count as inside."""

_T_TOL = 1e-9
"""Tolerance in edge-fraction units when chaining coverage intervals."""


class InterfaceData:
    """Node flags plus the crossings of one grid, held as arrays.

    inside is the (nx, ny, nz) boolean node mask, read-only: a copy of the
    one given, unless that is a read-only boolean array owning its memory,
    which is kept.  The m crossings are the rows of read-only arrays in
    canonical (axis, i, j, k) order: crossings (m, 4) holds the keys
    (axis, i, j, k), and axis (m,) and index (m, 3), each edge's low node,
    are views of its columns; theta (m,) is measured from the low node and
    location (m, 3) is the cut point.  The constructor takes the four arrays
    axis, index, theta and location in any row order; a low node off the
    grid or a repeated edge raises ConfigError.  Every instance is
    consistent: each mixed edge has one crossing and no other edge any,
    each theta lies in [THETA_MIN, 1 - THETA_MIN] and each location is
    finite and on its edge.  The constructor runs validate, which raises
    AssemblyError otherwise, so the operator assembly uses the arrays
    unchecked.
    """

    def __init__(self, grid: Grid, inside, axis, index, theta, location):
        inside = np.asarray(inside, dtype=bool)
        if inside.flags.writeable or inside.base is not None:
            inside = inside.copy()
            inside.flags.writeable = False
        if inside.shape != grid.shape:
            raise ConfigError(
                f"inside mask shape {inside.shape} does not match grid {grid.shape}"
            )
        axis = np.asarray(axis, dtype=np.intp).reshape(-1)
        index = np.asarray(index, dtype=np.intp).reshape(-1, 3)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        location = np.asarray(location, dtype=float).reshape(-1, 3)
        if not len(axis) == len(index) == len(theta) == len(location):
            raise ConfigError("crossing arrays differ in length")
        off = (axis < 0) | (axis > 2) | np.any((index < 0) | (index >= grid.shape), 1)
        if off.any():
            key = _key(axis[np.argmax(off)], index[np.argmax(off)])
            raise ConfigError(f"crossing edge {key} off the grid")
        codes = _codes(axis, index, (3, *grid.shape))
        order = np.argsort(codes, kind="stable")
        dup = np.flatnonzero(np.diff(codes[order]) == 0)
        if dup.size:
            first = order[dup[0]]
            key = _key(axis[first], index[first])
            raise ConfigError(f"duplicate crossing on edge {key}")
        self.grid, self.inside = grid, inside
        keys = np.column_stack((axis, index))[order]
        arrays = [keys] + [a[order] for a in (theta, location, codes)]
        for a in arrays:
            a.flags.writeable = False
        self.crossings, self.theta, self.location, self._codes = arrays
        self.axis, self.index = keys[:, 0], keys[:, 1:]
        self.validate()

    def __eq__(self, other) -> bool:
        if not isinstance(other, InterfaceData):
            return NotImplemented
        return self.grid == other.grid and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("inside", "_codes", "theta", "location")
        )

    def key(self, row: int) -> tuple[int, int, int, int]:
        """The (axis, i, j, k) key of one crossing row."""
        return _key(self.axis[row], self.index[row])

    def row(self, key) -> int:
        """The row of the crossing with key (axis, i, j, k); KeyError if none."""
        try:
            code = np.ravel_multi_index(tuple(key), (3, *self.grid.shape))
        except (TypeError, ValueError):
            raise KeyError(key) from None
        row = int(np.searchsorted(self._codes, code))
        if row == len(self._codes) or self._codes[row] != code:
            raise KeyError(key)
        return row

    def validate(self) -> None:
        """Check the invariant of the class; raise AssemblyError.

        The constructor runs it.  Each message names the first offending
        edge in canonical order.  Each crossing's edge is checked on its own
        and the mixed edges of each axis are counted against its crossings,
        which the constructor keeps distinct; only when that finds a fault
        are the edges scanned for the first one.
        """
        g = self.grid
        if not self._on_mixed_edges():
            self._scan_edges()
        rows = np.arange(len(self.theta))
        with np.errstate(invalid="ignore"):
            d = self.location - (np.asarray(g.origin) + g.h * self.index)
            t = d[rows, self.axis] / g.h
            d[rows, self.axis] = 0.0
            checks = (
                ~((self.theta > 0.0) & (self.theta < 1.0)),
                ~((self.theta >= THETA_MIN) & (self.theta <= 1.0 - THETA_MIN)),
                ~np.all(np.isfinite(self.location), axis=1),
                np.max(np.abs(d), axis=1, initial=0.0) > 1e-9 * max(1.0, g.h),
                ~((t > -1e-3) & (t < 1.0 + 1e-3)),
            )
        bad = np.any(checks, axis=0)
        if not bad.any():
            return
        row = int(np.argmax(bad))
        key, theta = self.key(row), float(self.theta[row])
        messages = (
            f"theta out of (0,1) on edge {key}: {theta}",
            f"theta {theta} outside clamp range [{THETA_MIN}, {1.0 - THETA_MIN}]"
            f" on edge {key}",
            f"non-finite location on edge {key}",
            f"location off the edge line for {key}",
            f"location outside the edge for {key}",
        )
        raise AssemblyError(next(msg for c, msg in zip(checks, messages) if c[row]))

    def _on_mixed_edges(self) -> bool:
        """Whether every crossing sits on a mixed edge and each axis has as
        many mixed edges as crossings."""
        _, n1, n2 = shape = self.grid.shape
        flags = self.inside.reshape(-1)
        low = self._codes - self.axis * flags.size
        pos = self.index[np.arange(len(low)), self.axis]
        last = pos == np.take(shape, self.axis) - 1
        high = np.where(last, low, low + np.take((n1 * n2, n2, 1), self.axis))
        if (last | (flags[low] == flags[high])).any():
            return False
        counts = np.bincount(self.axis, minlength=3)
        mixed = (np.count_nonzero(np.diff(self.inside, axis=a)) for a in range(3))
        return all(m == c for m, c in zip(mixed, counts))

    def _scan_edges(self) -> None:
        """Raise AssemblyError for the first mixed edge without a crossing,
        else for the first crossing on a uniform edge, from every edge."""
        edges = (3, *self.grid.shape)
        mixed = [np.argwhere(np.diff(self.inside, axis=a)) for a in range(3)]
        mixed = np.concatenate([_codes(a, idx, edges) for a, idx in enumerate(mixed)])
        missing = np.setdiff1d(mixed, self._codes)
        if missing.size:
            key = tuple(int(v) for v in np.unravel_index(missing[0], edges))
            raise AssemblyError(f"mixed edge without crossing record: {key}")
        uniform = ~np.isin(self._codes, mixed)
        if uniform.any():
            key = self.key(np.argmax(uniform))
            raise AssemblyError(f"crossing on uniform edge: {key}")


def _key(axis, index) -> tuple[int, int, int, int]:
    return (int(axis), *(int(v) for v in index))


def _codes(axis, index: np.ndarray, edges: tuple) -> np.ndarray:
    """Flat edge numbers of keys (axis, i, j, k), ordered like the keys."""
    return np.ravel_multi_index((np.broadcast_to(axis, len(index)), *index.T), edges)


def _classified(grid: Grid, inside: np.ndarray, fraction) -> InterfaceData:
    """Crossings on every mixed edge, from fraction(axis, idx, p0): the cut
    fractions t of the edges with low nodes idx (m, 3), C order, at p0.
    theta is t clamped to [THETA_MIN, 1 - THETA_MIN]."""
    parts = []
    for axis in range(3):
        idx = np.argwhere(np.diff(inside, axis=axis))
        p0 = np.asarray(grid.origin) + idx * grid.h
        t = fraction(axis, idx, p0)
        loc = p0.copy()
        loc[:, axis] += t * grid.h
        theta = np.clip(t, THETA_MIN, 1.0 - THETA_MIN)
        parts.append((np.full(len(idx), axis), idx, theta, loc))
    arrays = (np.concatenate(p) for p in zip(*parts))
    inside.flags.writeable = False  # handed over, not copied
    return InterfaceData(grid, inside, *arrays)


def _stable_roots(a: float, b: np.ndarray, c: np.ndarray):
    """Roots of a*t^2 + b*t + c, paired stably; returns (lo, hi), which is
    (inf, -inf), an empty interval, where the discriminant is not positive."""
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    q = -0.5 * (b + np.copysign(sq, b))
    r1 = q / a
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(q != 0.0, c / np.where(q != 0.0, q, 1.0), r1)
    real = disc > 0.0
    lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
    return np.where(real, lo, np.inf), np.where(real, hi, -np.inf)


def _node_distance(grid: Grid, center) -> np.ndarray:
    """Distance of every node to center, sqrt((dx^2 + dy^2) + dz^2) from
    broadcast per-axis differences: the additions, in the same order, of
    summing ((nodes - center) ** 2) over its last axis, without the
    (nx, ny, nz, 3) temporaries."""
    dx, dy, dz = ((grid.axis_coords(a) - center[a]) ** 2 for a in range(3))
    return np.sqrt((dx[:, None, None] + dy[:, None]) + dz)


def _cover(t1: np.ndarray, t2: np.ndarray, start: float) -> np.ndarray:
    """Right end of the chain of intervals [t1, t2] (one row per edge) from
    start: the least fixed point of cov <- max(cov, max{t2 : t1 <= cov +
    tol}), which greedy chaining also reaches.  A round that moves takes in
    another interval, so there are at most as many rounds as columns."""
    cov = np.full(len(t1), start)
    for _ in range(t1.shape[1]):
        reach = np.where(t1 <= (cov + _T_TOL)[:, None], t2, -np.inf)
        nxt = np.maximum(cov, reach.max(axis=1, initial=-np.inf))
        if np.array_equal(nxt, cov):
            break
        cov = nxt
    return cov


def classify_union(grid: Grid, atoms: AtomSet) -> InterfaceData:
    """Classify the union of the atom spheres (van der Waals surface).

    Each edge's intervals inside the atom spheres are chained from the
    inside endpoint; the cut is where the chain ends.
    """
    centers, radii = atoms.centers, atoms.radii
    signed = _node_distance(grid, centers[0])
    signed -= radii[0]
    for center, radius in zip(centers[1:], radii[1:]):
        d = _node_distance(grid, center)
        d -= radius
        np.minimum(signed, d, out=signed)
    inside = signed < CLASSIFY_TOL
    h = grid.h

    def fraction(axis, idx, p0):
        d0 = p0[:, None, :] - centers  # (m, atoms, 3)
        b = 2.0 * h * d0[..., axis]
        c0 = (d0**2).sum(axis=-1) - radii**2
        t1, t2 = _stable_roots(h * h, b, c0)
        # From an outside low node, chain down from t = 1 on the mirror image.
        return np.where(
            inside[tuple(idx.T)], _cover(t1, t2, 0.0), -_cover(-t2, -t1, -1.0)
        )

    return _classified(grid, inside, fraction)


def classify_sphere(grid: Grid, center, radius: float) -> InterfaceData:
    """Classify a single sphere: classify_union of one atom."""
    if radius <= 0:
        raise ConfigError(f"sphere radius must be positive, got {radius}")
    return classify_union(grid, AtomSet([Atom(center, 0.0, radius)]))


def _radial_exit_clear(points, ia, centers, sas_r) -> np.ndarray:
    """True where the radial exit point of each point's deepest inflated
    sphere ia is not covered by another inflated sphere."""
    ca = centers[ia]
    ra = sas_r[ia]
    dvec = points - ca
    dn = np.sqrt((dvec**2).sum(axis=1))
    safe = np.where(dn > CLASSIFY_TOL, dn, 1.0)
    unit = dvec / safe[:, None]
    unit[dn <= CLASSIFY_TOL] = (1.0, 0.0, 0.0)
    exit_pts = ca + ra[:, None] * unit
    blocked = np.zeros(len(points), dtype=bool)
    for k in range(len(centers)):
        dk = np.sqrt(((exit_pts - centers[k]) ** 2).sum(axis=1))
        blocked |= (dk < sas_r[k] - CLASSIFY_TOL) & (ia != k)
    return ~blocked


def _ses_levels(grid: Grid, atoms: AtomSet, probe_radius: float) -> np.ndarray:
    """Node levels psi of the probe-rolled surface: the probe-sharpened depth
    inside the union of probe-inflated spheres, minus probe_radius.

    psi >= 0 where the probe cannot reach, so at every node inside an atom
    sphere, which the inside mask relies on and exact levels must keep.  Where
    the inward radial ray from the deepest inflated sphere exits into free
    space the depth is exact; where another inflated sphere blocks that exit
    it is the lattice distance to the nearest exterior node (an upper bound).
    """
    centers = atoms.centers
    sas_r = atoms.radii + probe_radius
    depth = np.full(grid.shape, -np.inf)
    deepest = np.zeros(grid.shape, dtype=int)
    for ia, (center, radius) in enumerate(zip(centers, atoms.radii)):
        v = (radius + probe_radius) - _node_distance(grid, center)
        upd = v > depth
        depth[upd] = v[upd]
        deepest[upd] = ia
    sas_inside = depth > -CLASSIFY_TOL
    edt = distance_transform_edt(sas_inside, sampling=(grid.h,) * 3)
    points = grid.nodes_at(sas_inside)
    exact = _radial_exit_clear(points, deepest[sas_inside], centers, sas_r)
    depth[sas_inside] = np.where(exact, depth[sas_inside], edt[sas_inside])
    return depth - probe_radius


def classify_ses_grid(
    grid: Grid, atoms: AtomSet, probe_radius: float = 1.4
) -> InterfaceData:
    """Classify the probe-rolled molecular surface of a solute.

    A node is inside when psi > -CLASSIFY_TOL, that is at depth at least
    probe_radius inside the probe-inflated union; this takes in every node
    inside an atom sphere (see _ses_levels).  Crossing fractions come from
    linear interpolation of the node levels psi along each mixed edge.
    """
    if probe_radius < 0:
        raise ConfigError(f"probe radius must be nonnegative, got {probe_radius}")
    if probe_radius == 0.0:
        return classify_union(grid, atoms)
    psi = _ses_levels(grid, atoms, probe_radius)
    inside = psi > -CLASSIFY_TOL

    def fraction(axis, idx, p0):
        psi_lo = psi[tuple(idx.T)]
        denom = -np.diff(psi, axis=axis)[tuple(idx.T)]  # psi_lo - psi_hi
        with np.errstate(divide="ignore", invalid="ignore"):
            t = psi_lo / np.where(denom != 0.0, denom, 1.0)
        return np.where(denom != 0.0, t, 0.5)

    return _classified(grid, inside, fraction)


def _fmt(x: float) -> str:
    return repr(float(x))


def export_interface(data: InterfaceData, path) -> None:
    """Write an interface as the text interchange format.

    Header lines give the box corners, node counts, spacing, and the sign
    convention (native: -1 inside, +1 outside).  Node rows are run-length
    encoded along x; crossings follow with theta and the cut location.
    """
    g = data.grid
    nx, ny, nz = g.shape
    upper = g.upper
    lines = [
        "# interface interchange",
        "box "
        + " ".join(_fmt(v) for v in g.origin)
        + " "
        + " ".join(_fmt(v) for v in upper),
        f"n {nx} {ny} {nz}",
        f"h {_fmt(g.h)}",
        "convention native",
    ]
    signs = np.where(data.inside, -1, 1)
    for k in range(nz):
        for j in range(ny):
            row = signs[:, j, k]
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            runs = (f"{n}*{row[i]}" for i, n in zip(starts, np.diff(np.r_[starts, nx])))
            lines.append(f"row {j} {k} " + " ".join(runs))
    arrays = (data.axis, data.index, data.theta, data.location)
    for axis, (i, j, k), theta, loc in zip(*(a.tolist() for a in arrays)):
        numbers = " ".join(_fmt(v) for v in (theta, *loc))
        lines.append(f"cross {AXIS_NAMES[axis]} {i} {j} {k} {numbers}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse_floats(parts, count, lineno, what):
    if len(parts) != count:
        raise FormatError(f"{what} expects {count} numbers, got {len(parts)}", lineno)
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"malformed number in {what}", lineno) from exc


def import_interface(path) -> InterfaceData:
    """Read the text interchange format back into an InterfaceData.

    The file is UTF-8 text.  The eses sign convention (+1 inside) is
    accepted and negated on import.  Box corners and h must be finite, h
    positive and node counts at least grid.MIN_NODES, each on its line.
    Consistency between box, node counts, and spacing is enforced to 1e-9,
    and every crossing must sit on a mixed edge; an interface InterfaceData
    rejects raises FormatError with its message.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"interface file {path} is not UTF-8 text: {exc}") from exc
    box = shape = hval = None
    convention = "native"
    rows: dict[tuple[int, int], np.ndarray] = {}
    crosses: list[tuple[int, tuple[int, int, int], float, tuple | None, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw, args = parts[0], parts[1:]
        if kw == "box":
            vals = _parse_floats(args, 6, lineno, "box")
            if not np.isfinite(vals).all():
                raise FormatError(f"box corners must be finite, got {vals}", lineno)
            box = (tuple(vals[:3]), tuple(vals[3:]))
        elif kw == "n":
            if len(args) != 3:
                raise FormatError(f"n expects 3 integers, got {len(args)}", lineno)
            try:
                shape = tuple(int(a) for a in args)
            except ValueError as exc:
                raise FormatError("malformed integer in n", lineno) from exc
            if any(v < MIN_NODES for v in shape):
                raise FormatError(
                    f"node counts must be at least {MIN_NODES}, got {shape}", lineno
                )
        elif kw == "h":
            hval = _parse_floats(args, 1, lineno, "h")[0]
            if not np.isfinite(hval):
                raise FormatError(f"h must be finite, got {hval}", lineno)
            if hval <= 0:
                raise FormatError(f"h must be positive, got {hval}", lineno)
        elif kw == "convention":
            if len(args) != 1 or args[0] not in ("native", "eses"):
                raise FormatError("convention must be `native` or `eses`", lineno)
            convention = args[0]
        elif kw == "row":
            if shape is None:
                raise FormatError("row before n directive", lineno)
            if len(args) < 3:
                raise FormatError("row expects j k and at least one run", lineno)
            try:
                j, k = int(args[0]), int(args[1])
            except ValueError as exc:
                raise FormatError("malformed row indices", lineno) from exc
            if not (0 <= j < shape[1] and 0 <= k < shape[2]):
                raise FormatError(f"row indices ({j}, {k}) out of range", lineno)
            if (j, k) in rows:
                raise FormatError(f"duplicate row ({j}, {k})", lineno)
            vals = []
            for tok in args[2:]:
                try:
                    cnt_s, sign_s = tok.split("*")
                    cnt, sign = int(cnt_s), int(sign_s)
                except ValueError as exc:
                    raise FormatError(f"malformed run {tok!r}", lineno) from exc
                if cnt < 1 or sign not in (-1, 1):
                    raise FormatError(f"run must be count*(-1|1), got {tok!r}", lineno)
                vals.extend([sign] * cnt)
            if len(vals) != shape[0]:
                raise FormatError(
                    f"row covers {len(vals)} nodes, expected {shape[0]}", lineno
                )
            rows[(j, k)] = np.array(vals, dtype=int)
        elif kw == "cross":
            if len(args) not in (5, 8, 11):
                raise FormatError(
                    "cross expects axis, i j k, theta, then optional location"
                    " and normal", lineno
                )
            if args[0] not in AXIS_NAMES:
                raise FormatError(f"unknown axis {args[0]!r}", lineno)
            axis = AXIS_NAMES.index(args[0])
            try:
                index = tuple(int(a) for a in args[1:4])
            except ValueError as exc:
                raise FormatError("malformed crossing indices", lineno) from exc
            theta = _parse_floats(args[4:5], 1, lineno, "theta")[0]
            if not (0.0 < theta < 1.0):
                raise FormatError(f"theta must be in (0, 1), got {theta}", lineno)
            loc = None
            if len(args) >= 8:
                loc = tuple(_parse_floats(args[5:8], 3, lineno, "location"))
            if len(args) == 11:
                _parse_floats(args[8:11], 3, lineno, "normal")  # reserved, ignored
            crosses.append((axis, index, theta, loc, lineno))
        else:
            raise FormatError(f"unknown directive {kw!r}", lineno)
    if box is None or shape is None or hval is None:
        raise FormatError("missing required directive (box, n, or h)", None)
    lo, hi = box
    for a in range(3):
        want = lo[a] + hval * (shape[a] - 1)
        if abs(hi[a] - want) > 1e-9 * max(1.0, abs(hi[a] - lo[a])):
            raise FormatError(
                f"box extent on axis {AXIS_NAMES[a]} inconsistent with n and h", None
            )
    if len(rows) != shape[1] * shape[2]:
        raise FormatError(
            f"expected {shape[1] * shape[2]} rows, got {len(rows)}", None
        )
    grid = Grid(lo, hval, shape)
    inside = np.empty(shape, dtype=bool)
    flip = -1 if convention == "eses" else 1
    for (j, k), vals in rows.items():
        inside[:, j, k] = (flip * vals) == -1
    seen, locations = set(), []
    for axis, index, theta, loc, lineno in crosses:
        hi_idx = list(index)
        hi_idx[axis] += 1
        if not all(0 <= v < n for v, n in zip(hi_idx, shape)) or min(index) < 0:
            raise FormatError(f"crossing edge {index} out of range", lineno)
        if inside[index] == inside[tuple(hi_idx)]:
            raise FormatError(
                f"crossing on a uniform edge at {index} along {AXIS_NAMES[axis]}",
                lineno,
            )
        if (axis, index) in seen:
            raise FormatError(f"duplicate crossing on edge {index}", lineno)
        seen.add((axis, index))
        if loc is None:
            loc = grid.node(*index)
            loc[axis] += theta * grid.h
        locations.append(loc)
    axes, indices, thetas = ([c[f] for c in crosses] for f in range(3))
    inside.flags.writeable = False  # handed over, not copied
    try:
        return InterfaceData(grid, inside, axes, indices, thetas, locations)
    except AssemblyError as exc:
        raise FormatError(str(exc), None) from exc
