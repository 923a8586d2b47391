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
        axis,
        shape,
        edge_coeff,
        (cut, w.reshape(-1)[cut]),
        (nonzero, c[nonzero]),
        dir_lo,
        dir_hi,
    )


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)
