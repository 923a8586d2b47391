"""Ghost-fluid modification of 1D variable-coefficient second differences.

Along each grid line the modified second difference is delta2(v) = A v + c,
with A tridiagonal on the line's interior nodes and c a correction vector.
On an uncut edge the coefficient is eps/h^2 with the sharp nodal eps; on a
cut edge the ghost-node elimination under the jump conditions [u] = a and
[eps u_xi] = b produces the theta-weighted harmonic coefficient and routes
the jump data into c.  cut_terms holds that formula; the axis operators are
assembled with it straight from the crossing arrays of an InterfaceData
(stepping.build_split_operators), which were checked against the node flags
where they were made.  The explicit apply is in flux form: with F = W *
diff(v) the flux through each edge, delta2(v) = F[1:] - F[:-1] + c, so the
Dirichlet ends enter through the first and last flux.  apply_flux runs it on
flat data with the axis's stride, so that every pass is one contiguous loop.
The implicit sweeps factor I - tau*A = L D L^T for a batch of lines at once
(ldlt_factor_into) and solve with the factors in place (ldlt_solve).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


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


def apply_flux(
    weights, v: np.ndarray, stride: int, out=None, *, work=None, cuts
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


def ldlt_factor_into(
    diag: np.ndarray, o: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Factor I + tau*M = L D L^T for a batch of symmetric tridiagonal lines.

    M has the diagonal diag (m, ...) and the off-diagonal off (m-1, ...), the
    line index first and at least one batch axis after it, so that one line
    is an (m, 1) column; o = tau*off is given, and is overwritten with the
    unit lower multipliers cp, L[i+1, i] = cp[i].  Returns (cp, inv), cp the
    array o and inv = 1/D (m, ...).

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
    rows = list(piv)
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
    """Solve L D L^T x = b in place, with (cp, inv) from ldlt_factor_into.

    b has the line index first, like the factors; the three passes are the
    forward elimination, the scaling by the inverse pivots and the back
    substitution.  One row-sized temporary serves every row.  The per-row
    calls pass their outputs positionally, which numpy parses faster than
    the out keyword; on short rows the call, not the arithmetic, is the cost.
    """
    rows = list(b)
    t = np.empty_like(rows[0])
    for c, prev, row in zip(cp, rows, rows[1:]):
        np.subtract(row, np.multiply(c, prev, t), row)
    b *= inv
    for c, nxt, row in zip(cp[::-1], rows[:0:-1], rows[-2::-1]):
        np.subtract(row, np.multiply(c, nxt, t), row)
