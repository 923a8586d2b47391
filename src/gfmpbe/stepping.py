"""One pseudo-time step: analytic sinh substep plus ADI or LOD line sweeps.

The 3D operator splits into per-axis modified second differences (gfm
module).  A cut edge changes only its own weight and the jump corrections,
so every diagonal entry of -A is W_left + W_right.  An uncut edge's weight
is eps(low node)/h^2 on every axis, so the three operators share one field
of it, E, and each is held as its cut edges' weights and its nonzero jump
corrections.  Each operator is assembled once in that form, straight from
the interface's crossing arrays and the jump arrays of compute_jumps, with
work sized by the crossings, which InterfaceData has already checked; no
array of the lines' size is built.  The explicit apply is in flux form and
runs in the field's own C-order layout: the flux E * diff(v), with the cut
edges' fluxes set over it, and its difference are whole-array passes over
the flat field with the axis's stride, written straight into the result;
the few nonzero jump corrections are added by index.  An implicit sweep
copies the right-hand side into line-major layout, adds tau times the end
weights times the faces of the boundary it is given to the end rows and
tau times the nonzero corrections by index, runs one L D L^T solve over
all lines in place (the gfm kernel) and scatters the lines back; the
line-major view is a transpose by a permutation stored with the operator.
Most lines carry no cut edge and one E along their length, so their
systems are equal: the three operators share one factor table that holds
the weights of each distinct line once, the three axes' columns side by
side, and sums them into the diagonal.  A new tau factors the whole table
in one row loop and expands every axis's columns to every line by one take
per array into the arrays of the tau it replaces: the table holds the
factors of one tau, so the factors a sweep gets are valid until the split
is swept at another.
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
of a split, one split must not be stepped from two threads at once.  A
built split holds two fields, E and a read-only view of the problem's
boundary field, besides arrays sized by the crossings, the lines and the
solute nodes; the factor table, built on the first factorization or diag
read, is sized by the distinct lines, and a factorization's scratch by the
table.  At 65^3 (tracemalloc) the built problem takes 4.9 MiB, the ADI
march peaks at 27.9 MiB and the lpb start at 25.5 MiB, and the ADI march
at 129^3 at 221 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, ConfigError, NumericalError
from .gfm import apply_flux, cut_terms, ldlt_factor_into, ldlt_solve
from .grid import Field
from .molecule import AtomSet, PhysicalParams, green_axis_terms
from .surface import InterfaceData

_FACTOR_CACHE_SIZE = 1
"""Taus whose factors a split's table holds: the last one.  The table is
written for one and does not read this; bench/tracing.py replays its hits
through it."""

_TINY = float(np.finfo(float).tiny)


def nonlinear_substep(
    w: np.ndarray, kappa_sq: float, dt: float, strength: float, *, work=None
) -> np.ndarray:
    """Exact solution of dw/dt = -strength * kappa^2 * sinh(w) over dt.

    Closed form tanh(w/2) = tanh(w0/2) * g with g = exp(-strength*kappa^2*dt),
    evaluated with one log as copysign(log((1+g + em*(1-g)) / ((1-g) +
    em*(1+g))), w0), em = exp(-|w0|), which neither overflows for large
    |w0| nor loses the sign.  kappa_sq is one scalar, as SplitOperators
    holds it, so g, 1-g and 1+g are Python floats taken from numpy's exp and
    expm1; 1-g is floored at the smallest normal float, so that the ratio
    stays finite.  A zero rate returns a copy of w.  A kappa_sq that is not
    a scalar raises ConfigError, and a non-finite w NumericalError.  work, a
    float array of the result's shape, holds the denominator's temporary
    when it is given; the result is always a new array.
    """
    if np.ndim(kappa_sq) != 0:
        raise ConfigError(f"kappa^2 must be a scalar, got shape {np.shape(kappa_sq)}")
    w = np.asarray(w, dtype=float)
    lam = strength * float(kappa_sq) * dt
    if dt < 0 or strength < 0 or lam < 0:
        raise ConfigError("substep requires dt, strength, kappa^2 all nonnegative")
    if not np.all(np.isfinite(w)):
        raise NumericalError("non-finite field entering nonlinear substep")
    if lam <= 0:
        return w.copy()
    g = float(np.exp(-lam))
    omg = max(float(-np.expm1(-lam)), _TINY)
    opg = 1.0 + g
    em = np.copysign(w, -1.0)
    np.exp(em, out=em)
    # (1+g + em*(1-g)) / ((1-g) + em*(1+g)), in place
    den = np.multiply(em, opg, out=work)
    den += omg
    em *= omg
    em += opg
    em /= den
    return np.copysign(np.log(em, out=em), w, out=em)


class _FactorTable:
    """The tau-independent line systems of the distinct lines of one or more
    axis operators, and the expanded L D L^T factors of the last tau.

    A line with no cut edge and the same E on all its edges is fixed by its
    length and that E, so it shares one column with every such line of its
    operator and E; every line with a cut edge has a column of its own.  The
    columns of all members sit side by side: the off-diagonal weights
    (m-1, K) and the diagonal (m, K), m the longest member's interior node
    count, with a shorter member's rows padded with diagonal 0 and weight 0,
    so that their pivots are 1.  Each column's diagonal is W_left + W_right,
    taken after the cut edges' weights are written over E.  One
    gfm.ldlt_factor_into row loop thus factors every member for a new tau,
    and _take expands a member's columns to its line-major layout.

    factors holds every member's expanded (cp, inv) for one tau.  The steps
    give the three sweeps of a split the same tau, so the table factors
    once per change of tau.  The adaptive controllers shrink dt as t grows
    and Constant keeps it, so a tau that has been left seldom comes back.
    A new tau first factors the table, so that a zero pivot leaves the held
    tau and its arrays as they were, and then expands the new factors into
    the held arrays, allocated on the first factorization only: returned
    factors are valid until the next different tau.  The table keeps _d
    and _w after a factorization, because an adaptive march brings a new
    tau nearly every step; under Constant they outlive the one tau, ~0.6
    MiB at 65^3 beside the ~5 fields of its factors.

    sources holds each member's axis length n, E on its lines' edges
    (n-1, t1, t2), and its cut edges' flat line-major indices and weights;
    the columns are found and filled on the first read.  The table holds
    these arrays, never the operators, so that operators that share it are
    freed without the garbage collector.
    """

    def __init__(self, sources: list[tuple]):
        self.sources = sources
        self._cols: list[np.ndarray] | None = None
        self._tau: float | None = None
        self._held: list[tuple] = [(None, None)] * len(sources)

    @classmethod
    def share(cls, ops) -> None:
        """Give the operators ops one table over their sources."""
        table = cls([op._table.sources[op._member] for op in ops])
        for member, op in enumerate(ops):
            op._table, op._member = table, member

    def _build(self) -> None:
        blocks, self._cols = [], []
        for n, e, cut, cut_w in self.sources:
            _, t1, t2 = e.shape
            lines = t1 * t2
            own = ~(e[1:] == e[0]).all(axis=0).reshape(-1)
            own[cut % lines] = True
            mine = np.flatnonzero(own)
            # equal bits, so that -0.0 and 0.0 keep apart
            bits = e[0].reshape(-1)[~own].view(np.int64)
            bits, shared = np.unique(bits, return_inverse=True)
            col = np.empty(lines, dtype=np.intp)
            col[~own] = shared
            col[mine] = np.arange(len(bits), len(bits) + len(mine))
            w = np.empty((n - 1, len(bits) + len(mine)))
            w[:, : len(bits)] = bits.view(float)
            w[:, len(bits) :] = e[:, mine // t2, mine % t2]
            pos, line = np.divmod(cut, lines)
            w[pos, col[line]] = cut_w
            self._cols.append(col + sum(b.shape[1] for b, _ in blocks))
            blocks.append((np.add(w[:-1], w[1:]), w[1:-1]))
        rows = max(len(d) for d, _ in blocks)
        self._d = np.zeros((rows, sum(d.shape[1] for d, _ in blocks)))
        self._w = np.zeros((rows - 1, self._d.shape[1]))
        start = 0
        for d, w in blocks:
            end = start + d.shape[1]
            self._d[: len(d), start:end] = d
            self._w[: len(w), start:end] = w
            start = end

    def _take(
        self, member: int, table: np.ndarray, less: int, out: np.ndarray | None
    ) -> np.ndarray:
        """Rows 0 .. n-less-1 of a table array at member's lines, (n-less, L),
        written into out when it is given.  The columns are in range by
        construction, so mode "clip" changes no value; under the default
        "raise" numpy would buffer out through a temporary of its size."""
        n = self.sources[member][0]
        return np.take(
            table[: n - less], self._cols[member], axis=1, out=out, mode="clip"
        )

    def diag(self, member: int) -> np.ndarray:
        """Member's diagonal of -A in a new line-major (n-2, L) array."""
        if self._cols is None:
            self._build()
        return self._take(member, self._d, 2, None)

    def factors(self, member: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Member's factors (cp, inv) of I - tau*A, line-major (n-3, L) and
        (n-2, L), the held ones or those of a new factorization of the
        table.  -A has the diagonal of -A on it and -W off it, so the scaled
        off-diagonal is -tau*W (negation is exact).  The arrays are valid
        until the next different tau writes its factors into them."""
        if tau != self._tau:
            if self._cols is None:
                self._build()
            cp, inv = ldlt_factor_into(self._d, np.multiply(self._w, -tau), tau)
            self._held = [
                (self._take(k, cp, 3, c), self._take(k, inv, 2, i))
                for k, (c, i) in enumerate(self._held)
            ]
            self._tau = tau
        return self._held[member]


class AxisOperator:
    """Batched line systems along one axis, over interior transverse indices.

    With n nodes along the axis and L interior lines (C order of the two
    transverse axes), the operator holds:

    - edge_coeff, E, read-only in the field's shape and shared by the three
      operators of a split: eps(side of p)/h^2, the weight W of every uncut
      edge from node p up any axis.
    - the cut edges of interior lines, with their W.  A cut edge changes
      only its own weight and the corrections, so every diagonal entry of
      -A is W_left + W_right.
    - corr_index, corr_value: the nonzero entries of the jump correction c,
      as flat C-order indices into the field; corr_lines holds the same
      entries' flat indices in the line-major (n-2, L) layout.
    - _end_w, (2, L): the weights of edges 0 and n-2, E or a cut edge's.
      No operator holds Dirichlet values: a sweep folds the faces of the
      boundary it is given.

    The constructor takes this compact form, which build_split_operators
    assembles straight from the crossing arrays: cuts = (index, W) of the
    cut edges, index flat into the line-major (n-1, L) edges, and corr =
    (corr_lines, corr_value).  diag, weights and corr rebuild the dense
    line-major arrays, (n-2, L), (n-1, L) and (n-2, L), for readers (diag
    once, kept read-only); the kernels read none of them.  apply runs
    gfm.apply_flux on the flat field with the axis's stride, E as its
    weights and the cut edges as its cuts.  solve takes the L D L^T
    multipliers cp and inverse pivots inv of every line, line-major, from
    the operator's _FactorTable, which factors the distinct lines of all its
    member operators at once and holds the factors of the last tau, valid
    until the next different tau; build_split_operators gives the three
    operators of a split one table, and an operator built alone has a table
    of its own.  The right-hand side is copied into line layout and takes
    tau times the end weights times boundary's faces and then tau times the
    corrections there.

    apply and solve take an optional out array for the result.  The flux
    temporary of apply and the line-major buffer of solve come from a flat
    scratch array of the field's size that SplitOperators._workspace lends to
    its three operators, or are allocated per call when none is lent; while
    one is lent, two threads must not call apply or solve at once.
    """

    def __init__(
        self, axis: int, shape: tuple, edge_coeff: np.ndarray, cuts: tuple, corr: tuple
    ):
        self.axis, self.shape, self.n = axis, tuple(shape), shape[axis]
        self.stride = int(np.prod(shape[axis + 1 :]))
        t1, t2 = (a for a in range(3) if a != axis)
        self._perm = (axis, t1, t2)
        self.edge_coeff = edge_coeff
        # E on the interior lines' edges, line-major (n-1, t1, t2): a view.
        self._edge_lines = e = self._lines(edge_coeff[self._edges()])
        cut, self._cut_w = cuts
        # the end edges' weights, (2, L): E or a cut edge's
        pos, line = np.divmod(cut, e.shape[1] * e.shape[2])
        self._end_w = e[[0, -1]].reshape(2, -1)
        for row, at in enumerate((pos == 0, pos == self.n - 2)):
            self._end_w[row, line[at]] = self._cut_w[at]
        self._cut_index = self._field_index(cut, 0)
        self.corr_lines, self.corr_value = corr
        self.corr_index = self._field_index(self.corr_lines, 1)
        self._diag: np.ndarray | None = None
        self._work: np.ndarray | None = None
        self._table = _FactorTable([(self.n, e, cut, self._cut_w)])
        self._member = 0

    def _field_index(self, at: np.ndarray, first: int) -> np.ndarray:
        """Flat C-order field indices of the entries at, flat indices into a
        line-major array whose row 0 lies at position first on the axis."""
        _, t1, t2 = self._edge_lines.shape
        pos, line = np.divmod(at, t1 * t2)
        a1, a2 = np.divmod(line, t2)
        index = [a1 + 1, a2 + 1]
        index.insert(self.axis, pos + first)
        return np.ravel_multi_index(index, self.shape)

    def _edges(self) -> tuple:
        """Index of the interior lines' edges 0 .. n-2, each at its low
        node."""
        sl = [slice(1, -1)] * 3
        sl[self.axis] = slice(0, -1)
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
    def diag(self) -> np.ndarray:
        """Diagonal W_left + W_right of -A, line-major (n-2, L), read-only;
        built on the first read and kept."""
        if self._diag is None:
            self._diag = self._table.diag(self._member)
            self._diag.flags.writeable = False
        return self._diag

    @property
    def weights(self) -> np.ndarray:
        """Edge coefficients W, line-major (n-1, L)."""
        w = self.edge_coeff.copy()
        w.flat[self._cut_index] = self._cut_w
        lines = self._lines(w[self._edges()])
        return np.ascontiguousarray(lines.reshape(self.n - 1, -1))

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
        e = self.edge_coeff.reshape(-1)[:-s]
        apply_flux(
            e,
            v.reshape(-1),
            s,
            out=out[s:-s],
            work=self._scratch(e.size),
            cuts=(self._cut_index, self._cut_w),
        )
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
        the right-hand side is copied into line layout, tau times the end
        weights times boundary's faces is added to the end rows and then tau
        times the nonzero corrections at corr_lines.  The result goes into
        out, an array of boundary's shape, when it is given, and is
        returned; out may be rhs itself.  An array not of the operator's
        shape raises ConfigError.
        """
        for name, a in (("rhs", rhs), ("boundary", boundary), ("out", out)):
            if a is not None and a.shape != self.shape:
                raise ConfigError(
                    f"solve's {name} has shape {a.shape}, the operator {self.shape}"
                )
        if out is None:
            out = np.empty_like(boundary)
        _reset_faces(out, boundary)
        inner = rhs[1:-1, 1:-1, 1:-1]
        rows = self._lines(out[1:-1, 1:-1, 1:-1])
        cp, inv = self._table.factors(self._member, tau)
        b = self._scratch(inner.size).reshape(self.n - 2, -1)
        lines = b.reshape(rows.shape)
        lines[...] = self._lines(inner)
        # the Dirichlet fold, tau * (end weight * face), from boundary
        faces = self._lines(boundary)[:: self.n - 1, 1:-1, 1:-1]
        ends = (faces * self._end_w.reshape(faces.shape) * tau).reshape(2, -1)
        b[0] += ends[0]
        b[-1] += ends[1]
        b.reshape(-1)[self.corr_lines] += tau * self.corr_value
        ldlt_solve(cp, inv, b)
        rows[...] = lines
        return out


@dataclass
class SplitOperators:
    """Assembled axis operators plus the screening and boundary data.

    kappa^2 is the scalar kappa_sq on solvent nodes and zero on the solute
    nodes listed in inside, as flat C-order indices into the field.
    boundary holds the Dirichlet face values, read-only; build_split_operators
    makes it a view of the boundary field it is given, so a built problem
    holds them once.  The field-sized data of a built split are that and
    the three operators' shared edge_coeff; the rest, the operators' shared
    factor table among it, is sized by the crossings, the lines and the
    solute nodes.

    The steps take their field-sized scratch from _workspace, which keeps
    the arrays from one step to the next: allocating them afresh each step
    costs page faults once the allocator has returned them to the system.
    The driver's march calls _release_workspace when it returns, and so
    does steady.linearized_steady_state, which borrows the workspace for
    its matrix-vector products.  A split is therefore not safe to step from
    two threads at once.
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

    def delta2_sum(self, v: np.ndarray, corr: bool = True, *, work=None) -> np.ndarray:
        """Sum over the axes of delta2_a(v) = A_a v + c_a on the interior
        block, shape (n0-2, n1-2, n2-2), with the faces of v as Dirichlet
        ends.  corr=False leaves out the jump corrections c_a.  work, two
        arrays of the field's shape such as _workspace(2) gives, holds the
        sum and one axis's term; the result is then a view into work[0]."""
        out, term = work if work is not None else (np.empty(v.shape), np.empty(v.shape))
        term = term.reshape(-1)
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
            out += op._to_field(op._table.diag(op._member))
        return out


def compute_jumps(
    data: InterfaceData, atoms: AtomSet, params: PhysicalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Jump data at every crossing, as arrays (a, b) in data's canonical
    crossing order: a = G, b = eps_in * dG/dxi, at the cut.

    A non-finite value raises AssemblyError naming its crossing.
    """
    if not len(data.theta):
        return np.empty(0), np.empty(0)
    a, grad = green_axis_terms(atoms, data.location, data.axis, params)
    b = params.eps_in * grad
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        row = int(np.argmin(finite))
        raise AssemblyError(
            f"non-finite jump data on crossing {data.key(row)}: a={a[row]}, b={b[row]}"
        )
    return a, b


def build_split_operators(
    data: InterfaceData, atoms: AtomSet, params: PhysicalParams, boundary: Field
) -> SplitOperators:
    """Assemble the three axis operators and the kappa^2 = 0 node index.

    boundary must be a field on the same grid whose face values hold the
    Dirichlet data; interior values are ignored.  The split keeps a
    read-only view of boundary's values, not a copy, so they must not be
    written afterwards; the operators read none of them.  Each axis
    operator is assembled straight from the crossing arrays, which data's
    constructor checked (_axis_operator); crossings on the boundary
    transverse lines belong to no interior line.  The three operators share
    one read-only edge_coeff field and one factor table.
    """
    if boundary.grid != data.grid:
        raise ConfigError("boundary field grid does not match interface grid")
    jumps = compute_jumps(data, atoms, params)
    h = data.grid.h
    eps = (params.eps_in, params.eps_out)
    # the uncut weight, eps(low node)/h^2, at every node
    edge_coeff = np.where(data.inside, *eps)
    edge_coeff *= 1.0 / (h * h)
    edge_coeff.flags.writeable = False
    ops = [_axis_operator(axis, data, jumps, eps, edge_coeff) for axis in range(3)]
    _FactorTable.share(ops)
    held = boundary.values.view()
    held.flags.writeable = False
    return SplitOperators(
        ops=tuple(ops),
        kappa_sq=float(params.kappa_sq),
        inside=np.flatnonzero(data.inside),
        boundary=held,
    )


def _axis_operator(
    axis: int, data: InterfaceData, jumps: tuple, eps: tuple, edge_coeff: np.ndarray
) -> AxisOperator:
    """One axis's operator in its compact form, from the crossings on its
    interior lines, with no array of the lines' size.  jumps holds the
    arrays (a, b) of compute_jumps.

    InterfaceData's constructors have checked the crossings against the node
    flags, so they are used as they are; gfm.cut_terms gives each cut edge's
    weight and corrections.  The cut edges are kept in line-major order.
    The corrections are summed per interior node next to a cut edge, the
    edges' low-node terms before their high-node ones, and exact zeros are
    dropped.
    """
    grid, idx = data.grid, data.index
    shape, n, h = grid.shape, grid.shape[axis], grid.h
    t1, t2 = (a for a in range(3) if a != axis)
    lines = (shape[t1] - 2) * (shape[t2] - 2)
    # the axis's crossings are one run of the canonical order
    first, end = np.searchsorted(data.axis, (axis, axis + 1))
    across = idx[first:end, [t1, t2]]
    inner = (across > 0) & (across < (shape[t1] - 1, shape[t2] - 1))
    rows = first + np.flatnonzero(inner.all(axis=1))
    line = (idx[rows, t1] - 1) * (shape[t2] - 2) + idx[rows, t2] - 1
    cut = idx[rows, axis] * lines + line
    order = np.argsort(cut, kind="stable")
    rows, cut = rows[order], cut[order]
    pos, theta = idx[rows, axis], data.theta[rows]
    lo_in = data.inside[tuple(idx[rows].T)]
    a, b = (j[rows] for j in jumps)
    w, c_lo, c_hi = cut_terms(lo_in, eps, theta, a, b, h)
    below, above = pos > 0, pos < n - 2
    node = np.concatenate((cut[below] - lines, cut[above]))
    corr_lines, slot = np.unique(node, return_inverse=True)
    corr_value = np.zeros(len(corr_lines))
    np.add.at(corr_value, slot, np.concatenate((c_lo[below], c_hi[above])))
    nonzero = corr_value != 0
    corr = (corr_lines[nonzero], corr_value[nonzero])
    return AxisOperator(axis, shape, edge_coeff, (cut, w), corr)


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
    if not 0 < dt < np.inf:
        raise ConfigError(f"time step must be positive and finite, got {dt}")
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
    if not 0 < dt < np.inf:
        raise ConfigError(f"time step must be positive and finite, got {dt}")
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
