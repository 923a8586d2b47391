"""One pseudo-time step: analytic sinh substep plus ADI or LOD line sweeps.

The 3D operator splits into per-axis modified second differences (gfm
module).  Each axis's lines are assembled once, all together, from the
interface's node mask and crossing arrays and the jump arrays of
compute_jumps.  The explicit apply is in flux form and runs in the field's
own C-order layout: the edge weights sit at each edge's low node, so the
flux W * diff(v) and its difference are whole-array passes over the flat
field with the axis's stride, written straight into the result; the few
nonzero jump corrections are added by index.  An implicit sweep copies the
right-hand side into line-major layout, adds tau times the Dirichlet ends to
the end rows and tau times the nonzero corrections by index, runs one L D L^T
solve over all lines in place (the gfm kernel, shared with the one-line
solve) and scatters the lines back; the line-major view is a transpose by a
permutation stored with the operator.  Its factors are cached per tau; a new
tau reads the off-diagonal -tau*W from the edge weights through that
transpose, so no line-major copy of the weights is kept.
kappa^2 is zero inside the solute and one scalar in the solvent, so the
substep runs once over the field with one log and its coefficients as
Python floats, and the inside nodes are copied back from a flat index.
Both schemes keep the six box faces pinned at the Dirichlet values through
every stage, four slice assignments a reset.  A small grid takes a step in
about a millisecond, so these fixed per-call costs count as much as the
arithmetic there.

Memory: the grid size a machine can hold is set by the field-sized arrays
alive at once, so an ADI step allocates one new field, its result, and
builds every stage in it: apply and solve write into the out array they are
given, and a sweep overwrites its own right-hand side.  The other
field-sized arrays (dt*d2y(v0), dt*d2z(v0), the substep's temporary, the
apply's flux and the sweep's line-major right-hand side) come from
SplitOperators._workspace, made on the first step and kept between steps
(allocating them afresh each step made the allocator return them to the
system and fault them back in), and freed by SplitOperators._release_workspace
when the driver's march returns.  A LOD step allocates two fields, the
results of its two substeps.  Because the workspace is shared by every step
of a split, one split must not be stepped from two threads at once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, ConfigError
from .gfm import JumpData, apply_flux, assemble_lines, ldlt_factor_into, ldlt_solve
from .grid import Field
from .molecule import AtomSet, PhysicalParams, green_gradient, green_potential
from .surface import InterfaceData, RowMap

_FACTOR_CACHE_SIZE = 4

_TINY = float(np.finfo(float).tiny)


def nonlinear_substep(
    w: np.ndarray, kappa_sq, dt: float, strength: float, *, work=None
) -> np.ndarray:
    """Exact solution of dw/dt = -strength * kappa^2 * sinh(w) over dt.

    Closed form tanh(w/2) = tanh(w0/2) * g with g = exp(-strength*kappa^2*dt),
    evaluated with one log as copysign(log((1+g + em*(1-g)) / ((1-g) +
    em*(1+g))), w0), em = exp(-|w0|), which neither overflows for large
    |w0| nor loses the sign.  1-g is floored at the smallest normal float,
    so that the ratio stays finite.  Nodes with kappa^2 = 0 are returned
    bit-identical.  kappa_sq may be a scalar, as SplitOperators passes it:
    then every coefficient is a Python float, with the array path's
    arithmetic.  A non-finite w raises ConfigError.  work, a float array of
    the result's shape, holds the denominator's temporary when it is given;
    the result is always a new array.
    """
    w = np.asarray(w, dtype=float)
    if np.ndim(kappa_sq) == 0:
        return _scalar_substep(w, strength * float(kappa_sq) * dt, dt, strength, work)
    lam = np.asarray(strength * np.asarray(kappa_sq, dtype=float) * dt)
    if dt < 0 or strength < 0 or np.any(lam < 0):
        raise ConfigError("substep requires dt, strength, kappa^2 all nonnegative")
    if not np.all(np.isfinite(w)):
        raise ConfigError("non-finite field entering nonlinear substep")
    g = np.exp(-lam)
    omg = np.maximum(-np.expm1(-lam), np.finfo(float).tiny)
    opg = 1.0 + g
    em = np.copysign(np.broadcast_to(w, np.broadcast_shapes(w.shape, lam.shape)), -1.0)
    np.exp(em, out=em)
    # (1+g + em*(1-g)) / ((1-g) + em*(1+g)), in place
    den = np.multiply(em, opg, out=work)
    den += omg
    em *= omg
    em += opg
    em /= den
    mag = np.copysign(np.log(em, out=em), w, out=em)
    if np.any(lam <= 0):
        np.copyto(mag, w, where=lam <= 0)
    return mag


def _scalar_substep(
    w: np.ndarray, lam: float, dt: float, strength: float, work=None
) -> np.ndarray:
    """nonlinear_substep for one decay rate lam: the same arithmetic, with g,
    1-g and 1+g as Python floats taken from numpy's exp and expm1."""
    if dt < 0 or strength < 0 or lam < 0:
        raise ConfigError("substep requires dt, strength, kappa^2 all nonnegative")
    if not np.all(np.isfinite(w)):
        raise ConfigError("non-finite field entering nonlinear substep")
    if lam <= 0:
        return w.copy()
    g = float(np.exp(-lam))
    omg = max(float(-np.expm1(-lam)), _TINY)
    opg = 1.0 + g
    em = np.copysign(w, -1.0)
    np.exp(em, out=em)
    den = np.multiply(em, opg, out=work)
    den += omg
    em *= omg
    em += opg
    em /= den
    return np.copysign(np.log(em, out=em), w, out=em)


class AxisOperator:
    """Batched line systems along one axis, over interior transverse indices.

    With n nodes along the axis and L interior lines (C order of the two
    transverse axes), the operator holds:

    - flux_weights, in the field's shape: the coefficient W of the edge
      from each node to its neighbour up the axis (the ghost-fluid harmonic
      value on cut edges), zero on the edges of no interior line.  The
      first and last edge of each line couple it to the Dirichlet faces.
    - corr_index, corr_value: the nonzero entries of the jump correction c,
      as flat C-order indices into the field; corr_lines holds the same
      entries' flat indices in the line-major (n-2, L) layout.
    - diag, (n-2, L), line-major: W_left + W_right, the diagonal of -A.
    - dir_lo, dir_hi, (L,): the end weights times the Dirichlet values.

    The constructor takes assemble_lines' line-major arrays; weights and
    corr rebuild the line-major (n-1, L) and (n-2, L) forms from the field
    layout on access.  apply runs gfm.apply_flux on the flat field with the
    axis's stride, straight into the result.  solve keeps an LRU cache of
    _FACTOR_CACHE_SIZE entries keyed by tau, each the L D L^T multipliers cp
    and inverse pivots inv of gfm.ldlt_factor_into.  A new tau reads the
    off-diagonal -tau*W of the edges between interior nodes from
    flux_weights through the line-major transpose, straight into the array
    that becomes cp; no line-major copy of W is kept.  The right-hand side
    is copied into line layout and takes tau times the Dirichlet ends and
    tau times the corrections there, in the order of gfm.thomas_solve.

    apply and solve take an optional out array for the result.  The flux
    temporary of apply and the line-major buffer of solve come from a flat
    scratch array of the field's size that SplitOperators._workspace lends to
    its three operators, or are allocated per call when none is lent; while
    one is lent, two threads must not call apply or solve at once.
    """

    def __init__(self, axis: int, shape: tuple, diag, weights, corr, dir_lo, dir_hi):
        self.axis, self.shape, self.n = axis, shape, shape[axis]
        self.stride = int(np.prod(shape[axis + 1 :]))
        self.diag, self.dir_lo, self.dir_hi = diag, dir_lo, dir_hi
        self.flux_weights = np.zeros(shape)
        self.flux_weights[self._edges()] = self._to_field(weights)
        c = self._to_field(corr)
        nz = np.unravel_index(np.flatnonzero(c != 0), c.shape)
        self.corr_index = np.ravel_multi_index(tuple(i + 1 for i in nz), shape)
        self.corr_value = c[nz]
        t1, t2 = (a for a in range(3) if a != axis)
        self.corr_lines = np.ravel_multi_index(
            (nz[axis], nz[t1], nz[t2]), (self.n - 2, c.shape[t1], c.shape[t2])
        )
        self._perm = (axis, t1, t2)
        # W on the edges between interior nodes, line-major: a view, which a
        # factorization reads -tau*W through.
        self._inner_weights = self._lines(self.flux_weights[self._edges(1, -2)])
        self._factors: OrderedDict[float, tuple] = OrderedDict()
        self._work: np.ndarray | None = None

    def _edges(self, lo: int = 0, hi: int = -1) -> tuple:
        """Index of the interior lines' edges lo .. n+hi-1, each at its low
        node: all of them by default, (1, -2) for those between interior
        nodes."""
        sl = [slice(1, -1)] * 3
        sl[self.axis] = slice(lo, hi)
        return tuple(sl)

    def _to_field(self, lines: np.ndarray) -> np.ndarray:
        """View of line-major values (m, L) in the field layout, m along the
        axis and the interior transverse sizes across it."""
        t1, t2 = (self.shape[a] - 2 for a in range(3) if a != self.axis)
        return np.moveaxis(lines.reshape(-1, t1, t2), 0, self.axis)

    def _lines(self, block: np.ndarray) -> np.ndarray:
        """View of a 3D block with this operator's axis first."""
        return block.transpose(self._perm)

    def _scratch(self, size: int) -> np.ndarray:
        """size floats of the lent scratch array, or new ones."""
        return np.empty(size) if self._work is None else self._work[:size]

    @property
    def weights(self) -> np.ndarray:
        """Edge coefficients W, line-major (n-1, L)."""
        w = self._lines(self.flux_weights[self._edges()])
        return np.ascontiguousarray(w.reshape(self.n - 1, -1))

    @property
    def corr(self) -> np.ndarray:
        """Jump correction c, line-major (n-2, L)."""
        c = np.zeros(self.shape)
        c.ravel()[self.corr_index] = self.corr_value
        lines = self._lines(c[1:-1, 1:-1, 1:-1])
        return np.ascontiguousarray(lines.reshape(self.n - 2, -1))

    def apply_into(self, v: np.ndarray, out: np.ndarray, corr: bool = True) -> None:
        """Write A v (+ c) into out, a flat array of the field's size, at
        positions stride .. size-stride-1, with the faces of v as the
        Dirichlet ends.  The interior nodes lie in that range; the face
        nodes in it get finite values of no meaning."""
        s = self.stride
        w = self.flux_weights.reshape(-1)[:-s]
        apply_flux(w, v.reshape(-1), s, out=out[s:-s], work=self._scratch(w.size))
        if corr:
            out[self.corr_index] += self.corr_value

    def apply(self, v: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """delta2(v) = A v + c on every interior node; zeros elsewhere.

        The result goes into out, a C-contiguous array of v's shape, when it
        is given, and is returned.
        """
        if out is None:
            out = np.empty_like(v)
        elif out.shape != v.shape or not out.flags.c_contiguous:
            raise ConfigError("apply's out must be a C-contiguous array of v's shape")
        self.apply_into(v, out.reshape(-1))
        _reset_faces(out, 0.0)
        return out

    def _factor(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        entry = self._factors.get(tau)
        if entry is not None:
            self._factors.move_to_end(tau)
            return entry
        # I - tau*A = I + tau*M, M = -A: diag on the diagonal, -W off it, so
        # the scaled off-diagonal is -tau*W (negation is exact).
        w = self._inner_weights
        o = np.empty((self.n - 3, self.diag.shape[1]))
        np.multiply(w, -tau, out=o.reshape(w.shape))
        entry = self._factors[tau] = ldlt_factor_into(self.diag, o, tau)
        if len(self._factors) > _FACTOR_CACHE_SIZE:
            self._factors.popitem(last=False)
        return entry

    def solve(
        self,
        tau: float,
        rhs: np.ndarray,
        boundary: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Implicit sweep: rhs read at interior nodes, faces set from boundary.

        Solves (I - tau*A) x = rhs + tau*(c + Dirichlet fold) on every line:
        the right-hand side is copied into line layout, tau times the
        Dirichlet ends is added to the end rows and tau times the nonzero
        corrections at corr_lines, in the order of gfm.thomas_solve.  The
        result goes into out, an array of boundary's shape, when it is
        given, and is returned; out may be rhs itself.
        """
        if out is None:
            out = np.empty_like(boundary)
        _reset_faces(out, boundary)
        inner = rhs[1:-1, 1:-1, 1:-1]
        rows = self._lines(out[1:-1, 1:-1, 1:-1])
        if tau == 0.0:
            rows[...] = self._lines(inner)
            return out
        cp, inv = self._factor(tau)
        b = self._scratch(self.diag.size).reshape(self.diag.shape)
        lines = b.reshape(rows.shape)
        lines[...] = self._lines(inner)
        b[0] += tau * self.dir_lo
        b[-1] += tau * self.dir_hi
        b.reshape(-1)[self.corr_lines] += tau * self.corr_value
        ldlt_solve(cp, inv, b)
        rows[...] = lines
        return out


@dataclass
class SplitOperators:
    """Assembled axis operators plus the screening and boundary data.

    kappa^2 is the scalar kappa_sq on solvent nodes and zero on the solute
    nodes listed in inside, as flat C-order indices into the field.

    The steps take their field-sized scratch from _workspace, which keeps
    the arrays from one step to the next: allocating them afresh each step
    costs page faults once the allocator has returned them to the system.
    The driver's march calls _release_workspace when it returns.  A split is
    therefore not safe to step from two threads at once.
    """

    ops: tuple[AxisOperator, AxisOperator, AxisOperator]
    kappa_sq: float
    inside: np.ndarray
    boundary: np.ndarray
    _pool: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.ops[0].shape

    def _workspace(self, count: int) -> list[np.ndarray]:
        """count scratch arrays of the field's shape, kept between calls.

        The first call also lends the three axis operators one flat scratch
        array of the field's size, for the apply's flux and the sweep's
        line-major right-hand side; _release_workspace frees them all.
        """
        if not self._pool:
            work = np.empty(int(np.prod(self.shape)))
            for op in self.ops:
                op._work = work
        while len(self._pool) < count:
            self._pool.append(np.empty(self.shape))
        return self._pool[:count]

    def _release_workspace(self) -> None:
        """Free the arrays of _workspace; the next step allocates them anew."""
        self._pool.clear()
        for op in self.ops:
            op._work = None

    def delta2_sum(self, v: np.ndarray, corr: bool = True) -> np.ndarray:
        """Sum over the axes of delta2_a(v) = A_a v + c_a on the interior
        block, shape (n0-2, n1-2, n2-2), with the faces of v as Dirichlet
        ends.  corr=False leaves out the jump corrections c_a."""
        out = np.empty(v.shape)
        term = np.empty(v.size)
        self.ops[0].apply_into(v, out.reshape(-1), corr)
        # axis 0 has the largest stride, so its range lies inside the others'
        s = self.ops[0].stride
        inner = out.reshape(-1)[s:-s]
        for op in self.ops[1:]:
            op.apply_into(v, term, corr)
            inner += term[s:-s]
        return out[1:-1, 1:-1, 1:-1]

    def diag_sum(self) -> np.ndarray:
        """Sum over the axes of the diagonal of -A_a, on the interior block."""
        out = np.zeros(tuple(n - 2 for n in self.shape))
        for op in self.ops:
            out += op._to_field(op.diag)
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


def _reset_faces(v: np.ndarray, boundary) -> None:
    """Set the six faces of v from boundary, a field of v's shape or a scalar.

    The two faces of axis 0, and those of axis 1, are each set through one
    slice of step n - 1.  The faces of axis 2 are set one at a time: a step
    along the last axis would give numpy an inner loop of two elements.
    """
    scalar = np.ndim(boundary) == 0
    n0, n1, _ = v.shape
    every = slice(None)
    for faces in (
        slice(None, None, n0 - 1),
        (every, slice(None, None, n1 - 1)),
        (every, every, 0),
        (every, every, -1),
    ):
        v[faces] = boundary if scalar else boundary[faces]


def adi_step(u: np.ndarray, dt: float, split: SplitOperators) -> np.ndarray:
    """One Douglas ADI step preceded by the full-strength nonlinear substep.

    Stage 1: (1 - dt*d2x) v*   = [1 + dt*(d2y + d2z)] v0
    Stage 2: (1 - dt*d2y) v**  = v* - dt * d2y(v0)
    Stage 3: (1 - dt*d2z) v''' = v** - dt * d2z(v0)
    with v0 the post-substep field and every d2 including its corrections.
    The substep's result is the step's one new field: each stage's
    right-hand side is built in it and each sweep writes over its own
    right-hand side.  dt*d2y(v0) and dt*d2z(v0) live in the workspace.
    """
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    ox, oy, oz = split.ops
    dy, dz = split._workspace(2)
    v = _substep(u, split, dt, 1.0, dy)
    oy.apply(v, out=dy)
    dy *= dt
    oz.apply(v, out=dz)
    dz *= dt
    v += dy
    v += dz
    ox.solve(dt, v, split.boundary, out=v)
    v -= dy
    oy.solve(dt, v, split.boundary, out=v)
    v -= dz
    return oz.solve(dt, v, split.boundary, out=v)


def lod_step(u: np.ndarray, dt: float, split: SplitOperators) -> np.ndarray:
    """One LOD step: half-strength substep, three CN sweeps, half substep.

    Each sweep writes over the field it started from; the right-hand side
    and the substeps' temporary live in the workspace.
    """
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    (d,) = split._workspace(1)
    v = _substep(u, split, dt, 0.5, d)
    half = 0.5 * dt
    for op in split.ops:
        op.apply(v, out=d)
        d *= half
        d += v
        op.solve(half, d, split.boundary, out=v)
    return _substep(v, split, dt, 0.5, d)


def _substep(
    u: np.ndarray, split: SplitOperators, dt: float, strength: float, work: np.ndarray
) -> np.ndarray:
    v = nonlinear_substep(u, split.kappa_sq, dt, strength, work=work)
    np.put(v, split.inside, np.take(u, split.inside))
    _reset_faces(v, split.boundary)
    return v
