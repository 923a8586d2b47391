"""Axis operators from dense line-major arrays, for tests.

build_split_operators assembles each AxisOperator in its compact form
straight from the crossings.  Tests that state an operator by its dense
arrays (diag, weights, corr, dir_lo, dir_hi, as gfm.assemble_lines gives
them) convert them here.
"""

import numpy as np

from gfmpbe.stepping import AxisOperator


def operator_from_lines(
    axis, shape, diag, weights, corr, dir_lo, dir_hi, edge_coeff=None
) -> AxisOperator:
    """The AxisOperator of line-major diag (n-2, L), weights (n-1, L) and
    corr (n-2, L).

    The cut edges are those whose weight is not edge_coeff at their low
    node; the node fixes are the nodes next to a cut edge and those whose
    diag is not W_left + W_right.  Without edge_coeff the operator's own
    weights, in the field layout and read-only, serve as it, so that it has
    no cut edge.
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
    cut = np.flatnonzero(w != e)
    pos = cut // lines
    odd = np.flatnonzero(d != w[:-1] + w[1:])
    fix = np.concatenate([cut[pos > 0] - lines, cut[pos < n - 2], odd])
    c = np.reshape(corr, -1)
    nonzero = np.flatnonzero(c != 0)
    return AxisOperator(
        axis,
        shape,
        edge_coeff,
        (cut, w.reshape(-1)[cut]),
        (fix, d.reshape(-1)[fix]),
        (nonzero, c[nonzero]),
        dir_lo,
        dir_hi,
    )
