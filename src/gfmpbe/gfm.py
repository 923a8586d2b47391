"""Ghost-fluid modification of 1D variable-coefficient second differences.

Each grid line yields a tridiagonal operator A acting on its interior nodes
plus a correction vector c, so that the modified second difference is
delta2(v) = A v + c.  On an uncut edge the coefficient is eps/h^2 with the
sharp nodal eps; on a cut edge the ghost-node elimination under the jump
conditions [u] = a and [eps u_xi] = b produces the theta-weighted harmonic
coefficient and routes the jump data into c.  cut_terms holds that formula;
the axis operators are assembled with it straight from the crossing arrays
of an InterfaceData (stepping.build_split_operators), which were checked
against the node flags where they were made.  assemble_lines gives the same
operators as dense line-major arrays (position along the line first), the
reference form, and assemble_line is its L = 1 case; check_cuts checks
their cut edges against the node flags.  The explicit apply is in flux
form: with F = W * diff(v) the flux through each edge, delta2(v) =
F[1:] - F[:-1] + c, so the Dirichlet ends enter through the first and last
flux.  apply_flux runs it on flat data with the axis's stride, so that every
pass is one contiguous loop; the one-line apply_operator and the batched
axis operators share it.  thomas_solve runs the batched L D L^T kernel on
one line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AssemblyError, ConfigError, NumericalError
from .surface import THETA_MIN


@dataclass(frozen=True)
class JumpData:
    """Decomposed jump values at one crossing.

    a is the potential jump [u] (outside minus inside); b is the jump of
    eps times the derivative along the crossing's axis, [eps u_xi].
    """

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise AssemblyError(f"jump data must be finite, got {self.a}, {self.b}")


@dataclass(frozen=True)
class LineSystem:
    """Interior-node tridiagonal system for one grid line.

    diag and off store the negated operator -A, which keeps the documented
    sign invariants literal: diag[i] = W_left + W_right >= 0 and
    off[i] = -W(edge) <= 0, where W is the (positive) edge coefficient.
    The first and last interior nodes couple to the Dirichlet ends through
    w_lo and w_hi; bc_lo and bc_hi hold the end values themselves.  corr is
    the jump-correction vector c restricted to interior nodes.
    """

    diag: np.ndarray
    off: np.ndarray
    corr: np.ndarray
    bc_lo: float
    bc_hi: float
    w_lo: float
    w_hi: float
    h: float

    @property
    def n_interior(self) -> int:
        return len(self.diag)


def assemble_lines(axis: int, inside: np.ndarray, eps: tuple, cuts, bc, h: float):
    """Assemble L lines along one axis at once, line-major.

    inside (n, L) flags the nodes, the position along the line first; cuts =
    (pos, line, theta, a, b) holds each cut edge's low node position, line,
    theta and jump data; bc = (bc_lo, bc_hi) the Dirichlet end values.
    Returns diag (n-2, L) = W_left + W_right, the edge weights W (n-1, L)
    (eps/h^2, harmonic on cut edges), the jump correction corr (n-2, L) and
    dir_lo, dir_hi (L,) = end weights times bc.  The cuts are checked by
    check_cuts.  This is the dense reference form of the axis operators,
    which build_split_operators assembles straight from the crossings.
    """
    eps_in, eps_out = eps
    if eps_in <= 0 or eps_out <= 0:
        raise AssemblyError(f"dielectric values must be positive, got {eps}")
    inside = np.asarray(inside, dtype=bool)
    n = len(inside)
    if n < 4:
        raise AssemblyError(f"line must have at least 4 nodes, got {n}")
    if h <= 0:
        raise AssemblyError(f"spacing must be positive, got {h}")
    pos, line = (np.asarray(v, dtype=np.intp) for v in cuts[:2])
    theta, a, b = (np.asarray(v, dtype=float) for v in cuts[2:])
    check_cuts(axis, inside, pos, line, theta)
    w, c_lo, c_hi = cut_terms(inside[pos, line], eps, theta, a, b, h)
    weights = np.where(inside[:-1], eps_in, eps_out) * (1.0 / (h * h))
    weights[pos, line] = w
    # A node between two cut edges takes a term from each.
    corr = np.zeros(inside.shape)
    np.add.at(corr, (np.r_[pos, pos + 1], np.r_[line, line]), np.r_[c_lo, c_hi])
    diag = weights[:-1] + weights[1:]
    return diag, weights, corr[1:-1], weights[0] * bc[0], weights[-1] * bc[1]


def cut_terms(lo_in, eps: tuple, theta, a, b, h: float):
    """The ghost-fluid terms of cut edges: the theta-weighted harmonic
    weight w and the corrections c_lo, c_hi that each edge adds at its low
    and high node.  lo_in flags the edges whose low node is inside; a and b
    are the jump data, outside minus inside."""
    eps_in, eps_out = eps
    eps_lo, eps_hi = np.where(lo_in, eps_in, eps_out), np.where(lo_in, eps_out, eps_in)
    denom = eps_hi * theta + eps_lo * (1.0 - theta)
    w = (eps_lo * eps_hi / denom) * (1.0 / (h * h))
    f_lo = eps_lo * (1.0 - theta) / denom
    f_hi = eps_hi * theta / denom
    # Jump data are outside-minus-inside; orient them to each edge.
    sign = np.where(lo_in, 1.0, -1.0)
    ju, jf = sign * a, sign * b
    return w, -w * ju - (f_lo / h) * jf, w * ju - (f_hi / h) * jf


def check_cuts(axis: int, inside: np.ndarray, pos, line, theta) -> None:
    """Raise AssemblyError unless the lines change side on exactly their cut
    edges and every theta lies in the clamp range.

    inside (n, L) flags the nodes of the lines, the position along them
    first; pos, line and theta (m,) give each cut's low node position, line
    and theta.  The error names the first bad edge, line by line.  Only the
    dense reference assemble_lines (and assemble_line) calls it: the axis
    operators use InterfaceData, whose constructors make the same checks.
    """
    changes = inside[:-1] != inside[1:]
    on = pos < len(inside) - 1
    if not on.all():
        edge = f"edge {int(pos[np.argmin(on)])} on axis {axis}"
        raise AssemblyError(f"{edge} has a crossing but no side change")
    clamped = (theta >= THETA_MIN) & (theta <= 1.0 - THETA_MIN)
    bad = changes.copy()
    bad[pos, line] = ~changes[pos, line] | ~clamped
    if bad.any():
        lid, e = (int(v) for v in np.argwhere(bad.T)[0])
        at = np.flatnonzero((pos == e) & (line == lid))
        edge = f"edge {e} on axis {axis}"
        if not at.size:
            raise AssemblyError(f"{edge} changes side but has no crossing")
        if not changes[e, lid]:
            raise AssemblyError(f"{edge} has a crossing but no side change")
        raise AssemblyError(f"theta {theta[at[0]]} outside clamp range on edge {e}")


def assemble_line(
    axis: int,
    inside: np.ndarray,
    eps: tuple[float, float],
    cuts: Mapping[int, tuple[float, JumpData]],
    bc: tuple[float, float],
    h: float,
) -> LineSystem:
    """Assemble one line's operator: the one-line case of assemble_lines.

    inside flags the nodes along the line; cuts maps a cut edge's low node
    position to (theta, JumpData); bc holds the Dirichlet values at the ends.
    """
    inside = np.asarray(inside, dtype=bool)
    edges = [e for e in cuts if 0 <= e < len(inside) - 1]
    theta, jumps = [cuts[e][0] for e in edges], [cuts[e][1] for e in edges]
    cut = (edges, [0] * len(edges), theta, [j.a for j in jumps], [j.b for j in jumps])
    diag, weights, corr, _, _ = assemble_lines(axis, inside[:, None], eps, cut, bc, h)
    w = weights[:, 0]
    bc_lo, bc_hi, w_lo, w_hi = (float(v) for v in (*bc, w[0], w[-1]))
    return LineSystem(diag[:, 0], -w[1:-1], corr[:, 0], bc_lo, bc_hi, w_lo, w_hi, h)


_NO_CUTS = (np.empty(0, dtype=np.intp), np.empty(0))


def apply_flux(
    weights, v: np.ndarray, stride: int = 1, out=None, *, work=None, cuts=_NO_CUTS
) -> np.ndarray:
    """A v in flux form on flat data: the flux F = W * (v[s:] - v[:-s])
    through each edge, then A v = F[s:] - F[:-s] at positions s .. len(v)-s-1,
    with s = stride.  Three whole-array passes.

    weights (len(v) - s,) holds the W of the edge from position p to p + s,
    except at the edges named by cuts = (at, w), whose W is w: their
    differences are set aside before the whole-array product and
    multiplied by w after it.  On one line (s = 1) the ends of v are the
    Dirichlet values.  On a C-order field s is the stride of the axis; the
    flux through an edge that belongs to no line reaches only the faces.
    The correction c is added by the caller.  The result goes into out when
    it is given, and the flux into work, len(v) - s floats, when that is
    given.
    """
    at, w = cuts
    flux = np.subtract(v[stride:], v[:-stride], out=work)
    kept = flux[at]
    flux *= weights
    flux[at] = np.multiply(kept, w, out=kept)
    return np.subtract(flux[stride:], flux[:-stride], out=out)


def apply_operator(sys: LineSystem, v: np.ndarray) -> np.ndarray:
    """Explicit action delta2(v) = A v + c on a full line of values.

    The end entries of v supply the Dirichlet contributions; the returned
    array has zeros at the end positions (those rows are not unknowns).
    """
    v = np.asarray(v, dtype=float)
    m = sys.n_interior
    if len(v) != m + 2:
        raise ConfigError(f"line length {len(v)} does not match system ({m + 2})")
    full = np.zeros_like(v)
    inner = apply_flux(np.r_[sys.w_lo, -sys.off, sys.w_hi], v, out=full[1:-1])
    inner += sys.corr
    return full


def thomas_solve(sys: LineSystem, dt: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt*A) x = rhs + dt*(c + Dirichlet fold) for interior nodes.

    rhs holds the explicit right-hand side at the interior nodes only; the
    boundary couplings times bc_lo/bc_hi and the nonzero entries of the
    correction vector are added here, scaled by dt.  dt = 0 returns rhs
    unchanged.  This is the one-line case of the batched sweep kernel
    (ldlt_factor / ldlt_solve).
    """
    rhs = np.asarray(rhs, dtype=float)
    m = sys.n_interior
    if len(rhs) != m:
        raise ConfigError(f"rhs length {len(rhs)} does not match interior count {m}")
    if dt < 0:
        raise ConfigError(f"time step must be nonnegative, got {dt}")
    if dt == 0.0:
        return rhs.copy()
    # The terms of AxisOperator.solve, added in the same order: the
    # Dirichlet ends, then the nonzero corrections.
    b = rhs.copy()
    b[0] += dt * (sys.w_lo * sys.bc_lo)
    b[-1] += dt * (sys.w_hi * sys.bc_hi)
    nz = np.flatnonzero(sys.corr)
    b[nz] += dt * sys.corr[nz]
    ldlt_solve(*ldlt_factor(sys.diag, sys.off, dt), b)
    return b


def ldlt_factor(
    diag: np.ndarray, off: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Factor I + tau*M = L D L^T for a batch of symmetric tridiagonal lines.

    M is the stored negated operator: diag (m, ...) and off (m-1, ...), the
    line index first and any batch shape after it.  Returns the unit lower
    multipliers cp (m-1, ...), L[i+1, i] = cp[i], and the inverse pivots
    inv (m, ...), inv = 1/D.  This is ldlt_factor_into on tau*off.
    """
    return ldlt_factor_into(diag, np.multiply(off, tau), tau)


def ldlt_factor_into(
    diag: np.ndarray, o: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """ldlt_factor with the scaled off-diagonal o = tau*off given, which is
    overwritten with cp; returns (cp, inv) with cp the array o.

    The pivots are built in a new array that becomes inv and follow the two-op
    recurrence D[i] = d[i] - o[i-1]^2 / D[i-1] on the squared off-diagonal,
    with one row temporary; cp = o / D[:-1] and 1/D are whole-array passes
    after it.  One scratch array of diag's shape holds o^2 and then the
    zero-pivot test.  Diagonal dominance keeps pivots away from zero; a
    pivot that vanishes anyway (|D| < 1e-300) raises NumericalError.
    """
    piv = np.multiply(diag, tau)
    piv += 1.0
    scratch = np.empty_like(piv)
    o2 = np.multiply(o, o, out=scratch[:-1])
    rows = _rows(piv)
    t = np.empty_like(rows[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for prev, sq, row in zip(rows, o2, rows[1:]):
            np.subtract(row, np.divide(sq, prev, t), row)
        # fmin skips NaN, so this raises exactly where some |D| < 1e-300.
        if np.fmin.reduce(np.abs(piv, out=scratch), axis=None, initial=np.inf) < 1e-300:
            raise NumericalError("zero pivot in tridiagonal solve")
        np.divide(o, piv[:-1], out=o)
    return o, np.reciprocal(piv, out=piv)


def ldlt_solve(cp: np.ndarray, inv: np.ndarray, b: np.ndarray) -> None:
    """Solve L D L^T x = b in place, with (cp, inv) from ldlt_factor.

    b has the line index first, like the factors; the three passes are the
    forward elimination, the scaling by the inverse pivots and the back
    substitution.  One row-sized temporary serves every row.  The per-row
    calls pass their outputs positionally, which numpy parses faster than
    the out keyword; on short rows the call, not the arithmetic, is the cost.
    """
    rows = _rows(b)
    t = np.empty_like(rows[0])
    for c, prev, row in zip(cp, rows, rows[1:]):
        np.subtract(row, np.multiply(c, prev, t), row)
    b *= inv
    for c, nxt, row in zip(cp[::-1], rows[:0:-1], rows[-2::-1]):
        np.subtract(row, np.multiply(c, nxt, t), row)


def _rows(a: np.ndarray) -> list[np.ndarray]:
    """The rows of a (m, ...) as writable views, also for one line."""
    return list(a[:, None] if a.ndim == 1 else a)
