"""One pseudo-time step: analytic sinh substep plus ADI or LOD line sweeps.

The 3D operator splits into per-axis modified second differences (gfm
module).  Each axis's line systems are assembled once and stored batched,
line-major.  The explicit apply gathers the lines once and returns a full
field; an implicit sweep gathers the right-hand side with the cached
correction fold added in the same pass, runs one cached L D L^T solve over
all lines in place (the gfm kernel, shared with the one-line solve), and
scatters the lines back.  kappa^2 is zero inside the solute and one scalar
in the solvent, so the substep runs once over the field with scalar
coefficients and the inside nodes are copied back from a flat index.
Both schemes keep the six box faces pinned at the Dirichlet values
through every stage.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AssemblyError, ConfigError
from .gfm import JumpData, assemble_line, ldlt_factor, ldlt_solve
from .grid import Field
from .molecule import AtomSet, PhysicalParams, green_gradient, green_potential
from .surface import InterfaceData

_FACTOR_CACHE_SIZE = 4


def nonlinear_substep(w: np.ndarray, kappa_sq, dt: float, strength: float) -> np.ndarray:
    """Exact solution of dw/dt = -strength * kappa^2 * sinh(w) over dt.

    Closed form tanh(w/2) = tanh(w0/2) * exp(-strength*kappa^2*dt), evaluated
    in a log form that neither overflows for large |w0| nor loses the sign.
    Nodes with kappa^2 = 0 are returned bit-identical.  kappa_sq may be a
    scalar, which keeps every coefficient of the log form a scalar.
    """
    w = np.asarray(w, dtype=float)
    lam = np.asarray(strength * np.asarray(kappa_sq, dtype=float) * dt)
    if dt < 0 or strength < 0 or np.any(lam < 0):
        raise ConfigError("substep requires dt, strength, kappa^2 all nonnegative")
    if not np.all(np.isfinite(w)):
        raise ConfigError("non-finite field entering nonlinear substep")
    # mag = log1p(g + em*omg) - log(omg + em*(1+g)), em = exp(-|w|), in place
    mag = np.empty(np.broadcast_shapes(w.shape, lam.shape))
    em = np.empty_like(mag)
    np.abs(w, out=em)
    np.exp(np.negative(em, out=em), out=em)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.exp(-lam)
        omg = -np.expm1(-lam)
        np.multiply(em, omg, out=mag)
        mag += g
        np.log1p(mag, out=mag)
        em *= 1.0 + g
        em += omg
        mag -= np.log(em, out=em)
        # roundoff can push mag a ulp below zero for |w| near eps
        np.maximum(mag, 0.0, out=mag)
        mag *= np.sign(w)
    np.copyto(mag, w, where=lam <= 0)
    return mag


class AxisOperator:
    """Batched line systems along one axis, over interior transverse indices.

    With n nodes along the axis and L interior lines (C order of the two
    transverse axes), every array is stored line-major, the position along
    the line first:

    - diag, (n-2, L): the diagonal of the negated operator -A, W_left +
      W_right at each interior node.
    - weights, (n-1, L): each edge's coefficient W (the ghost-fluid
      harmonic value on cut edges); rows 0 and n-2 couple the first and
      last interior node to the Dirichlet ends, and off = -weights[1:-1].
    - corr, (n-2, L): the jump correction c.
    - dir_lo, dir_hi, (L,): the end weights times the Dirichlet values.

    apply gathers the full lines once and adds the terms in the order
    gfm.apply_operator adds them, so a batched and a one-line apply agree
    bit for bit.  solve keeps an LRU cache of _FACTOR_CACHE_SIZE entries
    keyed by tau.  An entry holds three (., L) arrays: the L D L^T
    multipliers cp, the inverse pivots inv (gfm.ldlt_factor), and the fold
    tau * (corr + Dirichlet ends), which is added to the right-hand side
    in the same pass that gathers it into line layout.
    """

    def __init__(self, axis: int, shape: tuple[int, int, int], systems: list):
        self.axis = axis
        self.shape = shape
        n = shape[axis]
        self.n = n
        self.diag = np.stack([s.diag for s in systems], axis=1)
        self.weights = np.empty((n - 1, len(systems)))
        self.weights[0] = [s.w_lo for s in systems]
        np.negative(np.stack([s.off for s in systems], axis=1), out=self.weights[1:-1])
        self.weights[-1] = [s.w_hi for s in systems]
        self.corr = np.stack([s.corr for s in systems], axis=1)
        self.dir_lo = np.array([s.w_lo * s.bc_lo for s in systems])
        self.dir_hi = np.array([s.w_hi * s.bc_hi for s in systems])
        self._factors: OrderedDict[float, tuple] = OrderedDict()

    def _lines(self, block: np.ndarray) -> np.ndarray:
        """View of a 3D block with this operator's axis first."""
        return np.moveaxis(block, self.axis, 0)

    def _scatter(self, lines: np.ndarray, out: np.ndarray) -> None:
        """Write interior-line values (n-2, L) into out's interior block."""
        rows = self._lines(out[1:-1, 1:-1, 1:-1])
        rows[...] = lines.reshape(rows.shape)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """delta2(v) = A v + c on every interior node; zeros elsewhere."""
        sl = [slice(1, -1)] * 3
        sl[self.axis] = slice(None)
        lines = self._lines(v[tuple(sl)]).reshape(self.n, -1)
        vi = lines[1:-1]
        w = self.weights
        out = self.diag * vi
        np.subtract(self.corr, out, out=out)
        t = w[1:-1] * vi[:-1]
        out[1:] += t
        np.multiply(w[1:-1], vi[1:], out=t)
        out[:-1] += t
        out[0] += w[0] * lines[0]
        out[-1] += w[-1] * lines[-1]
        full = np.zeros_like(v)
        self._scatter(out, full)
        return full

    def _factor(self, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        entry = self._factors.get(tau)
        if entry is not None:
            self._factors.move_to_end(tau)
            return entry
        # I - tau*A = I + tau*M, M = -A: diag on the diagonal, -W off it.
        cp, inv = ldlt_factor(self.diag, -self.weights[1:-1], tau)
        fold = tau * self.corr
        fold[0] += tau * self.dir_lo
        fold[-1] += tau * self.dir_hi
        entry = self._factors[tau] = (cp, inv, fold)
        if len(self._factors) > _FACTOR_CACHE_SIZE:
            self._factors.popitem(last=False)
        return entry

    def solve(self, tau: float, rhs: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Implicit sweep: rhs read at interior nodes, faces set from boundary.

        Solves (I - tau*A) x = rhs + tau*(c + Dirichlet fold) on every line.
        """
        out = np.empty_like(boundary)
        _reset_faces(out, boundary)
        inner = rhs[1:-1, 1:-1, 1:-1]
        if tau == 0.0:
            out[1:-1, 1:-1, 1:-1] = inner
            return out
        cp, inv, fold = self._factor(tau)
        rows = self._lines(inner)
        b = np.empty_like(fold)
        np.add(rows, fold.reshape(rows.shape), out=b.reshape(rows.shape))
        ldlt_solve(cp, inv, b)
        self._scatter(b, out)
        return out


@dataclass
class SplitOperators:
    """Assembled axis operators plus the screening and boundary data.

    kappa^2 is the scalar kappa_sq on solvent nodes and zero on the solute
    nodes listed in inside, as flat C-order indices into the field.
    """

    ops: tuple[AxisOperator, AxisOperator, AxisOperator]
    kappa_sq: float
    inside: np.ndarray
    boundary: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.ops[0].shape


def compute_jumps(
    data: InterfaceData, atoms: AtomSet, params: PhysicalParams
) -> dict[tuple[int, int, int, int], JumpData]:
    """Jump data at every crossing: a = G, b = eps_in * dG/dxi, at the cut."""
    keys = sorted(data.crossings)
    if not keys:
        return {}
    locs = np.array([data.crossings[k].location for k in keys])
    a_vals = green_potential(atoms, locs, params)
    grads = green_gradient(atoms, locs, params)
    jumps = {}
    for key, a, grad in zip(keys, a_vals, grads):
        axis = key[0]
        jumps[key] = JumpData(a=float(a), b=float(params.eps_in * grad[axis]))
    return jumps


def build_axis_operator(
    data: InterfaceData,
    params: PhysicalParams,
    jumps: Mapping[tuple[int, int, int, int], JumpData],
    boundary: np.ndarray,
    axis: int,
) -> AxisOperator:
    """Assemble all interior lines along one axis into a batched operator."""
    g = data.grid
    shape = g.shape
    t1, t2 = (a for a in range(3) if a != axis)
    cuts_by_line: dict[tuple[int, int], dict] = {}
    for key, c in data.crossings.items():
        if c.axis != axis:
            continue
        tv = (c.index[t1], c.index[t2])
        pos = c.index[axis]
        jump = jumps.get(key)
        if jump is None:
            raise AssemblyError(f"crossing {key} has no jump data")
        cuts_by_line.setdefault(tv, {})[pos] = (c.theta, jump)
    eps = (params.eps_in, params.eps_out)
    systems = []
    line_sl: list = [0, 0, 0]
    for a_t1 in range(1, shape[t1] - 1):
        for a_t2 in range(1, shape[t2] - 1):
            line_sl[axis] = slice(None)
            line_sl[t1] = a_t1
            line_sl[t2] = a_t2
            inside_line = data.inside[tuple(line_sl)]
            line_sl[axis] = 0
            bc_lo = boundary[tuple(line_sl)]
            line_sl[axis] = shape[axis] - 1
            bc_hi = boundary[tuple(line_sl)]
            systems.append(
                assemble_line(
                    axis,
                    inside_line,
                    eps,
                    cuts_by_line.get((a_t1, a_t2), {}),
                    (float(bc_lo), float(bc_hi)),
                    g.h,
                )
            )
    return AxisOperator(axis, shape, systems)


def build_split_operators(
    data: InterfaceData,
    atoms: AtomSet,
    params: PhysicalParams,
    boundary: Field,
) -> SplitOperators:
    """Assemble the three axis operators and the kappa^2 = 0 node index.

    boundary must be a field on the same grid whose face values hold the
    Dirichlet data; interior values are ignored.
    """
    if boundary.grid != data.grid:
        raise ConfigError("boundary field grid does not match interface grid")
    data.validate()
    jumps = compute_jumps(data, atoms, params)
    bvals = boundary.values
    ops = tuple(
        build_axis_operator(data, params, jumps, bvals, axis) for axis in range(3)
    )
    return SplitOperators(
        ops=ops,
        kappa_sq=float(params.kappa_sq),
        inside=np.flatnonzero(data.inside),
        boundary=bvals.copy(),
    )


def _reset_faces(v: np.ndarray, boundary: np.ndarray) -> None:
    v[0, :, :] = boundary[0, :, :]
    v[-1, :, :] = boundary[-1, :, :]
    v[:, 0, :] = boundary[:, 0, :]
    v[:, -1, :] = boundary[:, -1, :]
    v[:, :, 0] = boundary[:, :, 0]
    v[:, :, -1] = boundary[:, :, -1]


def adi_step(
    u: np.ndarray, dt: float, split: SplitOperators, linearized: bool = False
) -> np.ndarray:
    """One Douglas ADI step preceded by the full-strength nonlinear substep.

    Stage 1: (1 - dt*d2x) v*   = [1 + dt*(d2y + d2z)] v0
    Stage 2: (1 - dt*d2y) v**  = v* - dt * d2y(v0)
    Stage 3: (1 - dt*d2z) v''' = v** - dt * d2z(v0)
    with v0 the post-substep field and every d2 including its corrections.
    """
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    ox, oy, oz = split.ops
    v0 = _substep(u, split, dt, 1.0, linearized)
    dy = oy.apply(v0)
    dz = oz.apply(v0)
    rhs = dy + dz
    rhs *= dt
    rhs += v0
    v1 = ox.solve(dt, rhs, split.boundary)
    dy *= dt
    v1 -= dy
    v2 = oy.solve(dt, v1, split.boundary)
    dz *= dt
    v2 -= dz
    return oz.solve(dt, v2, split.boundary)


def lod_step(
    u: np.ndarray, dt: float, split: SplitOperators, linearized: bool = False
) -> np.ndarray:
    """One LOD step: half-strength substep, three CN sweeps, half substep."""
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    v = _substep(u, split, dt, 0.5, linearized)
    half = 0.5 * dt
    for op in split.ops:
        d = op.apply(v)
        d *= half
        d += v
        v = op.solve(half, d, split.boundary)
    return _substep(v, split, dt, 0.5, linearized)


def _substep(
    u: np.ndarray, split: SplitOperators, dt: float, strength: float, linearized: bool
) -> np.ndarray:
    if linearized:
        v = u * np.exp(-strength * split.kappa_sq * dt)
    else:
        v = nonlinear_substep(u, split.kappa_sq, dt, strength)
    np.put(v, split.inside, np.take(u, split.inside))
    _reset_faces(v, split.boundary)
    return v
