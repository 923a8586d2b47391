"""Dense line-major axis operators: the reference the tests hold the
solver's operators to.

build_split_operators assembles each AxisOperator in its compact form
straight from the crossings.  assemble_lines builds the same operator as
dense line-major arrays, the position along the line first: diag, weights
and corr, as AxisOperator's readers give them, and the Dirichlet end terms
dir_lo and dir_hi that a sweep folds from its boundary; axis_lines calls
it on the crossings of an InterfaceData.  operator_from_lines turns diag,
weights and corr into an AxisOperator, which holds no Dirichlet values.
line_split builds the production split of a grid whose interior lines
along axis 0 are one line repeated, on line_interface's interface, and
neg_matrix writes one line's -A out as a dense matrix.  line_solve sweeps
one line on its own with the solver's kernel, adding the right-hand-side
terms in AxisOperator.solve's order, the end terms first.
"""

from unittest import mock

import numpy as np

from gfmpbe import stepping
from gfmpbe.gfm import cut_terms, ldlt_factor_into, ldlt_solve
from gfmpbe.grid import Field, Grid
from gfmpbe.molecule import Atom, AtomSet, PhysicalParams
from gfmpbe.stepping import AxisOperator, build_split_operators
from gfmpbe.surface import InterfaceData


def assemble_lines(inside: np.ndarray, eps: tuple, cuts, bc, h: float):
    """Assemble L lines along one axis at once, line-major.

    inside (n, L) flags the nodes, the position along the line first; cuts =
    (pos, line, theta, a, b) holds each cut edge's low node position, line,
    theta and jump data; bc = (bc_lo, bc_hi) the Dirichlet end values.
    Returns diag (n-2, L) = W_left + W_right, the edge weights W (n-1, L)
    (eps/h^2, harmonic on cut edges), the jump correction corr (n-2, L) and
    dir_lo, dir_hi (L,) = end weights times bc.  The cuts are trusted to
    lie on exactly the edges that change side.
    """
    eps_in, eps_out = eps
    inside = np.asarray(inside, dtype=bool)
    pos, line = (np.asarray(v, dtype=np.intp) for v in cuts[:2])
    theta, a, b = (np.asarray(v, dtype=float) for v in cuts[2:])
    w, c_lo, c_hi = cut_terms(inside[pos, line], eps, theta, a, b, h)
    weights = np.where(inside[:-1], eps_in, eps_out) * (1.0 / (h * h))
    weights[pos, line] = w
    # A node between two cut edges takes a term from each.
    corr = np.zeros(inside.shape)
    np.add.at(corr, (np.r_[pos, pos + 1], np.r_[line, line]), np.r_[c_lo, c_hi])
    diag = weights[:-1] + weights[1:]
    return diag, weights, corr[1:-1], weights[0] * bc[0], weights[-1] * bc[1]


def axis_lines(data, params, jumps, bvals, axis, lines=None) -> tuple:
    """The dense arrays of the operator along axis: one assemble_lines call
    over the axis's interior lines, in C order of the two transverse axes,
    or over the sorted line numbers in lines.  jumps = (a, b) as
    compute_jumps gives them; bvals is a field whose faces hold the
    Dirichlet values."""
    shape, idx = data.grid.shape, data.index
    t = [a for a in range(3) if a != axis]
    inside = np.moveaxis(data.inside, axis, 0)[:, 1:-1, 1:-1].reshape(shape[axis], -1)
    bc = np.moveaxis(bvals, axis, 0)[[0, -1], 1:-1, 1:-1].reshape(2, -1)
    if lines is None:
        lines = np.arange(inside.shape[1])
    inner = np.all((idx[:, t] > 0) & (idx[:, t] < np.take(shape, t) - 1), axis=1)
    line = (idx[:, t[0]] - 1) * (shape[t[1]] - 2) + idx[:, t[1]] - 1
    own = (data.axis == axis) & inner & np.isin(line, lines)
    col = np.searchsorted(lines, line[own])
    a, b = jumps
    cuts = (idx[own, axis], col, data.theta[own], a[own], b[own])
    eps = (params.eps_in, params.eps_out)
    return assemble_lines(inside[:, lines], eps, cuts, bc[:, lines], data.grid.h)


def operator_from_lines(
    axis, shape, diag, weights, corr, edge_coeff=None
) -> AxisOperator:
    """The AxisOperator of line-major diag (n-2, L), weights (n-1, L) and
    corr (n-2, L).

    The cut edges are those whose weight is not edge_coeff at their low
    node.  An operator holds its edge weights, and its diagonal is
    W_left + W_right, so a diag that is not that sum, bit for bit, raises
    ValueError.  Without edge_coeff the operator's own weights, in the field
    layout and read-only, serve as it, so that it has no cut edge.
    """
    n = shape[axis]
    t1, t2 = (shape[a] - 2 for a in range(3) if a != axis)
    lines = t1 * t2
    edges = [slice(1, -1)] * 3
    edges[axis] = slice(0, -1)
    edges = tuple(edges)
    if edge_coeff is None:
        edge_coeff = np.zeros(shape)
        edge_coeff[edges] = np.moveaxis(np.reshape(weights, (n - 1, t1, t2)), 0, axis)
        edge_coeff.flags.writeable = False
    e = np.moveaxis(edge_coeff[edges], axis, 0).reshape(n - 1, lines)
    w = np.reshape(weights, (n - 1, lines))
    d = np.reshape(diag, (n - 2, lines))
    if not np.array_equal(_bits(d), _bits(w[:-1] + w[1:])):
        raise ValueError("diag is not weights[:-1] + weights[1:]")
    cut = np.flatnonzero(w != e)
    c = np.reshape(corr, -1)
    nonzero = np.flatnonzero(c != 0)
    return AxisOperator(
        axis, shape, edge_coeff, (cut, w.reshape(-1)[cut]), (nonzero, c[nonzero])
    )


def line_interface(inside, pos, theta, h: float = 1.0) -> InterfaceData:
    """The interface of an (n, 4, 4) grid, the thinnest that Grid takes,
    whose 16 lines along axis 0 all have the node flags inside (n,) and a
    crossing on each edge pos[m] at theta[m]; InterfaceData checks it."""
    grid = Grid((0.0, 0.0, 0.0), h, (len(inside), 4, 4))
    flags = np.broadcast_to(np.asarray(inside, dtype=bool)[:, None, None], grid.shape)
    jk = np.array([(j, k) for j in range(4) for k in range(4)])
    index = np.column_stack([np.repeat(pos, 16), np.tile(jk, (len(pos), 1))])
    theta = np.repeat(np.asarray(theta, dtype=float), 16)
    location = h * index
    location[:, 0] += theta * h
    axis = np.zeros(len(index))
    return InterfaceData(grid, flags, axis, index, theta, location)


def line_split(inside, eps: tuple, cuts: dict, bc: tuple, h: float):
    """build_split_operators on line_interface's grid.  Its four interior
    lines along axis 0 are one line repeated, the columns of split.ops[0],
    column 0 the line at (j, k) = (1, 1).

    cuts = {pos: (theta, a, b)} gives each cut edge's theta and jump data,
    which stand in for compute_jumps' on every line.  The x faces hold
    the Dirichlet values bc = (bc_lo, bc_hi), the other faces zero.  eps =
    (eps_in, eps_out) with eps_in <= eps_out.
    """
    pos = sorted(cuts)
    data = line_interface(inside, pos, [cuts[p][0] for p in pos], h)
    jumps = tuple(np.array([cuts[p][k] for p in data.index[:, 0]]) for k in (1, 2))
    bvals = np.zeros(data.grid.shape)
    bvals[0], bvals[-1] = bc
    params = PhysicalParams(eps_in=eps[0], eps_out=eps[1], kappa_sq=0.0)
    atoms = AtomSet([Atom((0.0, 0.0, 0.0), 0.0, 1.0)])
    with mock.patch.object(stepping, "compute_jumps", lambda *args: jumps):
        return build_split_operators(data, atoms, params, Field(data.grid, bvals))


def neg_matrix(diag: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """-A of one line as a dense (n-2, n-2) matrix, from its diag (n-2,)
    and weights (n-1,)."""
    off = -weights[1:-1]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def line_solve(weights, corr, dir_lo, dir_hi, tau: float, rhs) -> np.ndarray:
    """Solve (I - tau*A) x = rhs + tau*(corr + Dirichlet fold) on one line
    of weights (n-1,), corr (n-2,) and end terms dir_lo, dir_hi, the end
    weights times the Dirichlet values, rhs (n-2,).

    The Dirichlet ends are added first and the nonzero corrections after
    them, then ldlt_factor_into and ldlt_solve run on the one line as an
    (m, 1) column.  AxisOperator.solve adds the same terms in the same
    order, so its lines equal these bit for bit, at tau = 0 too.
    """
    b = np.array(rhs, dtype=float)
    w = np.asarray(weights, dtype=float)[:, None]
    b[0] += tau * dir_lo
    b[-1] += tau * dir_hi
    nz = np.flatnonzero(corr)
    b[nz] += tau * np.asarray(corr)[nz]
    factors = ldlt_factor_into(w[:-1] + w[1:], np.multiply(w[1:-1], -tau), tau)
    ldlt_solve(*factors, b[:, None])
    return b


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)
