"""One pseudo-time step: analytic sinh substep plus ADI or LOD line sweeps.

The 3D operator splits into per-axis modified second differences (gfm
module).  Each axis's lines are assembled once, all together, from the
interface's node mask and crossing arrays and the jump arrays of
compute_jumps, and stored batched, line-major.  The explicit apply gathers
the lines once and returns a full field; an implicit sweep gathers the
right-hand side with the cached correction fold added in the same pass,
runs one cached L D L^T solve over all lines in place (the gfm kernel,
shared with the one-line solve), and scatters the lines back.  kappa^2 is
zero inside the solute and one scalar in the solvent, so the substep runs
once over the field with scalar coefficients and the inside nodes are
copied back from a flat index.  Both schemes keep the six box faces pinned
at the Dirichlet values through every stage.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, ConfigError
from .gfm import JumpData, apply_lines, assemble_lines, ldlt_factor, ldlt_solve
from .grid import Field
from .molecule import AtomSet, PhysicalParams, green_gradient, green_potential
from .surface import InterfaceData, RowMap

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

    apply gathers the full lines once into gfm.apply_lines, the kernel of
    the one-line apply.  solve keeps an LRU cache of _FACTOR_CACHE_SIZE
    entries keyed by tau.  An entry holds three (., L) arrays: the L D L^T
    multipliers cp, the inverse pivots inv (gfm.ldlt_factor), and the fold
    tau * (corr + Dirichlet ends), which is added to the right-hand side
    in the same pass that gathers it into line layout.
    """

    def __init__(self, axis: int, shape: tuple, diag, weights, corr, dir_lo, dir_hi):
        self.axis, self.shape, self.n = axis, shape, shape[axis]
        self.diag, self.weights, self.corr = diag, weights, corr
        self.dir_lo, self.dir_hi = dir_lo, dir_hi
        self._factors: OrderedDict[float, tuple] = OrderedDict()

    def _lines(self, block: np.ndarray) -> np.ndarray:
        """View of a 3D block with this operator's axis first."""
        return np.moveaxis(block, self.axis, 0)

    def _scatter(self, lines: np.ndarray, out: np.ndarray) -> None:
        """Write interior-line values (n-2, L) into out's interior block."""
        rows = self._lines(out[1:-1, 1:-1, 1:-1])
        rows[...] = lines.reshape(rows.shape)

    def _add_into(self, lines: np.ndarray, block: np.ndarray) -> None:
        """Add interior-line values (n-2, L) into an interior block."""
        rows = self._lines(block)
        rows += lines.reshape(rows.shape)

    def _apply_lines(self, v: np.ndarray, corr: bool) -> np.ndarray:
        """A v (+ c) at the interior nodes of this axis's lines, (n-2, L)."""
        sl = [slice(1, -1)] * 3
        sl[self.axis] = slice(None)
        lines = self._lines(v[tuple(sl)]).reshape(self.n, -1)
        return apply_lines(self.diag, self.weights, self.corr if corr else 0.0, lines)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """delta2(v) = A v + c on every interior node; zeros elsewhere."""
        full = np.zeros_like(v)
        self._scatter(self._apply_lines(v, True), full)
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

    def delta2_sum(self, v: np.ndarray, corr: bool = True) -> np.ndarray:
        """Sum over the axes of delta2_a(v) = A_a v + c_a on the interior
        block, shape (n0-2, n1-2, n2-2), with the faces of v as Dirichlet
        ends.  corr=False leaves out the jump corrections c_a."""
        out = np.zeros(tuple(n - 2 for n in self.shape))
        for op in self.ops:
            op._add_into(op._apply_lines(v, corr), out)
        return out

    def diag_sum(self) -> np.ndarray:
        """Sum over the axes of the diagonal of -A_a, on the interior block."""
        out = np.zeros(tuple(n - 2 for n in self.shape))
        for op in self.ops:
            op._add_into(op.diag, out)
        return out


class Jumps(RowMap):
    """Jump data of one interface as arrays a (m,) and b (m,), in its
    canonical crossing order; as a mapping, crossing key -> JumpData."""

    def __init__(self, data: InterfaceData, a: np.ndarray, b: np.ndarray):
        super().__init__(data, lambda row: JumpData(a=float(a[row]), b=float(b[row])))
        self.a, self.b = a, b


def compute_jumps(data: InterfaceData, atoms: AtomSet, params: PhysicalParams) -> Jumps:
    """Jump data at every crossing: a = G, b = eps_in * dG/dxi, at the cut.

    A non-finite value raises AssemblyError naming its crossing.
    """
    if not len(data.theta):
        return Jumps(data, np.empty(0), np.empty(0))
    a = green_potential(atoms, data.location, params)
    grad = green_gradient(atoms, data.location, params)
    b = params.eps_in * grad[np.arange(len(grad)), data.axis]
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        row = int(np.argmin(finite))
        raise AssemblyError(
            f"non-finite jump data on crossing {data.key(row)}: a={a[row]}, b={b[row]}"
        )
    return Jumps(data, a, b)


def build_split_operators(
    data: InterfaceData, atoms: AtomSet, params: PhysicalParams, boundary: Field
) -> SplitOperators:
    """Assemble the three axis operators and the kappa^2 = 0 node index.

    boundary must be a field on the same grid whose face values hold the
    Dirichlet data; interior values are ignored.  Each axis's interior lines
    are assembled at once from the crossing arrays, in C order of the two
    transverse axes; crossings on the boundary transverse lines belong to no
    interior line.
    """
    if boundary.grid != data.grid:
        raise ConfigError("boundary field grid does not match interface grid")
    data.validate()
    jumps = compute_jumps(data, atoms, params)
    shape, idx = data.grid.shape, data.index
    eps = (params.eps_in, params.eps_out)
    ops = []
    for axis in range(3):
        t = [a for a in range(3) if a != axis]
        inner = np.all((idx[:, t] > 0) & (idx[:, t] < np.take(shape, t) - 1), axis=1)
        own = (data.axis == axis) & inner
        line = (idx[own, t[0]] - 1) * (shape[t[1]] - 2) + idx[own, t[1]] - 1
        cuts = (idx[own, axis], line, data.theta[own], jumps.a[own], jumps.b[own])
        block = np.moveaxis(data.inside, axis, 0)[:, 1:-1, 1:-1]
        inside = block.reshape(shape[axis], -1)
        bc = np.moveaxis(boundary.values, axis, 0)[[0, -1], 1:-1, 1:-1].reshape(2, -1)
        arrays = assemble_lines(axis, inside, eps, cuts, bc, data.grid.h)
        ops.append(AxisOperator(axis, shape, *arrays))
    return SplitOperators(
        ops=tuple(ops),
        kappa_sq=float(params.kappa_sq),
        inside=np.flatnonzero(data.inside),
        boundary=boundary.values.copy(),
    )


def _reset_faces(v: np.ndarray, boundary: np.ndarray) -> None:
    v[0, :, :] = boundary[0, :, :]
    v[-1, :, :] = boundary[-1, :, :]
    v[:, 0, :] = boundary[:, 0, :]
    v[:, -1, :] = boundary[:, -1, :]
    v[:, :, 0] = boundary[:, :, 0]
    v[:, :, -1] = boundary[:, :, -1]


def adi_step(u: np.ndarray, dt: float, split: SplitOperators) -> np.ndarray:
    """One Douglas ADI step preceded by the full-strength nonlinear substep.

    Stage 1: (1 - dt*d2x) v*   = [1 + dt*(d2y + d2z)] v0
    Stage 2: (1 - dt*d2y) v**  = v* - dt * d2y(v0)
    Stage 3: (1 - dt*d2z) v''' = v** - dt * d2z(v0)
    with v0 the post-substep field and every d2 including its corrections.
    """
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    ox, oy, oz = split.ops
    v0 = _substep(u, split, dt, 1.0)
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


def lod_step(u: np.ndarray, dt: float, split: SplitOperators) -> np.ndarray:
    """One LOD step: half-strength substep, three CN sweeps, half substep."""
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    v = _substep(u, split, dt, 0.5)
    half = 0.5 * dt
    for op in split.ops:
        d = op.apply(v)
        d *= half
        d += v
        v = op.solve(half, d, split.boundary)
    return _substep(v, split, dt, 0.5)


def _substep(u: np.ndarray, split: SplitOperators, dt: float, strength: float) -> np.ndarray:
    v = nonlinear_substep(u, split.kappa_sq, dt, strength)
    np.put(v, split.inside, np.take(u, split.inside))
    _reset_faces(v, split.boundary)
    return v
