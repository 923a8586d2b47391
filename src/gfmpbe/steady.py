"""The discrete steady state that the pseudo-time march converges to.

Its linearization on the interior nodes is (sum_a M_a + kappa^2) u =
sum_a (c_a + Dirichlet_a), with M_a = -A_a the split's axis operators, c_a
their jump corrections and kappa^2 zero on the solute's nodes; the LPB start
solves it by Jacobi-preconditioned conjugate gradients, matrix-free.
"""

from __future__ import annotations

import math

import numpy as np

from .stepping import SplitOperators

CG_RTOL = 1e-8
"""Relative residual at which the linearized steady-state CG stops."""

CG_MAXITER = 5000
"""Iteration cap of the linearized steady-state CG."""


def linearized_steady_state(split: SplitOperators):
    """The linearized steady state's values x on the interior block, with
    the split's Dirichlet values split.boundary on the faces; the CG's
    iteration count; and its relative residual ||r|| / ||b||.

    The right-hand side, the Dirichlet fold and the jump corrections, is
    read from split.boundary itself by delta2_sum.  The Jacobi diagonal is
    the diagonal of sum_a M_a, plus kappa^2 off the solute's nodes.  The
    matrix-vector products run in the split's step workspace, which is
    released on return.
    """
    interior_shape = tuple(n - 2 for n in split.shape)
    # kappa^2 on the interior nodes is kappa_sq but at the solute's nodes,
    # listed here as flat indices into the interior block.
    at = np.unravel_index(split.inside, split.shape)
    on = np.all([(i > 0) & (i < n - 1) for i, n in zip(at, split.shape)], axis=0)
    solute = np.ravel_multi_index(tuple(i[on] - 1 for i in at), interior_shape)
    v = np.zeros(split.shape)
    block = v[1:-1, 1:-1, 1:-1]
    try:
        work = split._workspace(2)

        def matvec(p, q):
            block[...] = p.reshape(interior_shape)
            np.multiply(p, split.kappa_sq, out=q)
            q[solute] = p[solute] * 0.0
            q3 = q.reshape(interior_shape)
            q3 -= split.delta2_sum(v, corr=False, work=work)

        r = split.delta2_sum(split.boundary, work=work).ravel()
        d = split.diag_sum().ravel()
        kept = d[solute]
        d += split.kappa_sq
        d[solute] = kept
        inv_diag = np.divide(1.0, d, out=d)
        x, iterations, rel = _jacobi_cg(matvec, r, inv_diag)
    finally:
        split._release_workspace()
    return x.reshape(interior_shape), iterations, rel


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum calls no BLAS, so no thread pool wakes up for a small vector
    return float(np.einsum("i,i->", a, b))


def _jacobi_cg(matvec, r: np.ndarray, inv_diag: np.ndarray):
    """Conjugate gradients from x = 0 for an SPD operator, preconditioned by
    the inverse diagonal inv_diag.

    r holds the right-hand side b on entry and is overwritten with the
    residual.  matvec(p, q) writes the operator times p into q.  Stops when
    the recursively updated residual satisfies ||r|| / ||b|| <= CG_RTOL
    (2-norms) or after CG_MAXITER iterations; returns x, the iteration
    count and ||r|| / ||b||.  Besides r and x it holds three vectors, z, p
    and q; the steps alpha*p and alpha*q are built in z and q, which the
    iteration overwrites next.
    """
    x = np.zeros_like(r)
    rr = _dot(r, r)
    b_norm = math.sqrt(rr) or 1.0
    rel = math.sqrt(rr) / b_norm
    z = inv_diag * r
    p = z.copy()
    q = np.empty_like(r)
    rz = _dot(r, z)
    iterations = 0
    while rel > CG_RTOL and iterations < CG_MAXITER:
        matvec(p, q)
        alpha = rz / _dot(p, q)
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(q, alpha, out=q)
        np.multiply(inv_diag, r, out=z)
        rz, rz_old = _dot(r, z), rz
        p *= rz / rz_old
        p += z
        rel = math.sqrt(_dot(r, r)) / b_norm
        iterations += 1
    return x, iterations, rel
