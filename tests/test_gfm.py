"""Tests for the ghost-fluid terms, the L D L^T kernel and the axis
operators that build_split_operators makes, on one line and on whole grids."""

import warnings

import numpy as np
import pytest

from gfmpbe.errors import AssemblyError, ConfigError, NumericalError
from gfmpbe.gfm import cut_terms, ldlt_factor_into, ldlt_solve
from gfmpbe.grid import Field, Grid, build_grid
from gfmpbe.molecule import Atom, AtomSet, PhysicalParams, dirichlet_boundary
from gfmpbe.stepping import build_split_operators, compute_jumps
from gfmpbe.surface import (
    THETA_MIN,
    InterfaceData,
    classify_ses_grid,
    classify_sphere,
    classify_union,
)
from line_arrays import (
    assemble_lines,
    axis_lines,
    line_interface,
    line_solve,
    line_split,
    neg_matrix,
    operator_from_lines,
)


def _uniform_line(n=8, eps=3.0, h=0.5, bc=(1.0, -2.0), inside=True):
    flags = np.full(n, inside)
    return line_split(flags, (eps, 80.0) if inside else (1.0, eps), {}, bc, h).ops[0]


def _column(op, line=0) -> tuple:
    """One line's diag, weights and corr."""
    return op.diag[:, line], op.weights[:, line], op.corr[:, line]


def _fold(dir_lo, dir_hi, m) -> np.ndarray:
    f = np.zeros(m)
    f[0], f[-1] = dir_lo, dir_hi
    return f


def _on_lines(values) -> np.ndarray:
    """A field of line_split's grid that repeats values (n,) on every line
    along axis 0."""
    return np.broadcast_to(np.asarray(values)[:, None, None], (len(values), 4, 4)).copy()


def _sweep(op, tau, rhs, bc=(0.0, 0.0)) -> np.ndarray:
    """op.solve on line_split's grid with rhs (n-2,) on every line along
    axis 0 and the Dirichlet values bc at its ends; line 0's interior
    values."""
    field = _on_lines(np.r_[bc[0], rhs, bc[1]])
    return op.solve(tau, field, field)[1:-1, 1, 1]


def _lines_operator(axis, shape, weights, corr):
    """The AxisOperator of line-major weights (n-1, L) and corr (n-2, L),
    with diag = W_left + W_right."""
    weights = np.asarray(weights, dtype=float)
    diag = weights[:-1] + weights[1:]
    return operator_from_lines(axis, shape, diag, weights, corr)


def _check_sweep(op, dense, tau, rhs, boundary, lines=None) -> None:
    """op.solve(tau, rhs, boundary) equals line_solve on the dense arrays
    (diag, weights, corr, dir_lo, dir_hi) of boundary's faces bit for bit,
    on every interior line or on those in lines."""
    got = np.moveaxis(op.solve(tau, rhs, boundary), op.axis, 0)[1:-1, 1:-1, 1:-1]
    got = got.reshape(op.n - 2, -1)
    b = np.moveaxis(rhs, op.axis, 0)[1:-1, 1:-1, 1:-1].reshape(op.n - 2, -1)
    _, weights, corr, lo, hi = dense
    for k in range(got.shape[1]) if lines is None else lines:
        want = line_solve(weights[:, k], corr[:, k], lo[k], hi[k], tau, b[:, k])
        np.testing.assert_array_equal(_bits(got[:, k]), _bits(want))


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


class TestRegularStencil:
    def test_constant_eps_tridiag(self):
        eps, h = 3.0, 0.5
        op = _uniform_line(n=8, eps=eps, h=h)
        diag, weights, corr = _column(op)
        w = eps / h**2
        np.testing.assert_allclose(diag, 2 * w, rtol=1e-15)
        np.testing.assert_allclose(weights, w, rtol=1e-15)
        np.testing.assert_allclose(corr, 0.0)
        # The sweep folds the end weights times the Dirichlet values it is
        # given: bc = (1, -2) as the split was built with, then others.
        rhs = np.linspace(-1.0, 1.0, 6)
        for bc in ((1.0, -2.0), (0.5, 3.0)):
            want = line_solve(weights, corr, w * bc[0], w * bc[1], 0.3, rhs)
            np.testing.assert_array_equal(_sweep(op, 0.3, rhs, bc), want)

    def test_homogeneous_jump_reduces_to_harmonic(self):
        # One cut with a = b = 0: harmonic edge weight, zero corrections.
        flags = np.array([True, True, True, False, False, False])
        eps_in, eps_out, h, theta = 2.0, 80.0, 1.0, 0.3
        cuts = {2: (theta, 0.0, 0.0)}
        op = line_split(flags, (eps_in, eps_out), cuts, (0.0, 0.0), h).ops[0]
        denom = eps_out * theta + eps_in * (1 - theta)
        w_hat = eps_in * eps_out / denom
        _, weights, corr = _column(op)
        assert weights[2] == pytest.approx(w_hat, rel=1e-14)
        np.testing.assert_allclose(corr, 0.0)

    def test_constants_in_kernel(self):
        op = _uniform_line(n=9, bc=(4.0, 4.0))
        np.testing.assert_allclose(op.apply(np.full((9, 4, 4), 4.0)), 0.0, atol=1e-12)

    def test_zero_everything(self):
        op = _uniform_line(n=7, bc=(0.0, 0.0))
        np.testing.assert_allclose(op.apply(np.zeros((7, 4, 4))), 0.0)


class TestManufactured:
    """Piecewise-linear two-material profiles are reproduced exactly by the
    operator build_split_operators makes."""

    def _draw(self, rng):
        n = int(rng.integers(8, 16))
        h = 1.0 / (n - 1)
        cut = int(rng.integers(1, n - 2))
        theta = float(rng.uniform(0.05, 0.95))
        alpha, beta, gamma = rng.uniform(-2, 2, size=3)
        eps_in = float(rng.uniform(0.5, 4.0))
        eps_out = float(rng.uniform(eps_in, 100.0))
        low_inside = bool(rng.integers(0, 2))
        x = np.arange(n) * h
        x_i = (cut + theta) * h
        # delta chosen freely; the jump conditions absorb any mismatch
        delta = float(rng.uniform(-2, 2))
        lo = lambda s: alpha * s + beta
        hi = lambda s: gamma * s + delta
        u = np.where(np.arange(n) <= cut, lo(x), hi(x))
        if low_inside:
            a = hi(x_i) - lo(x_i)
            b = eps_out * gamma - eps_in * alpha
        else:
            a = lo(x_i) - hi(x_i)
            b = eps_out * alpha - eps_in * gamma
        flags = np.zeros(n, dtype=bool)
        flags[: cut + 1] = low_inside
        flags[cut + 1 :] = not low_inside
        eps, cuts, bc = (eps_in, eps_out), {cut: (theta, a, b)}, (u[0], u[-1])
        split = line_split(flags, eps, cuts, bc, h)
        dense = assemble_lines(flags[:, None], eps, ([cut], [0], [theta], [a], [b]), bc, h)
        return split, dense, u, h

    def test_twenty_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            split, dense, u, h = self._draw(rng)
            op = split.ops[0]
            got = _column(op)
            for g, want in zip(got, dense):
                assert np.array_equal(_bits(np.reshape(g, -1)), _bits(np.reshape(want, -1)))
            diag, weights, corr = got
            # the oracle's end terms, from the end weights and bc
            dir_lo, dir_hi = (float(a[0]) for a in dense[3:])
            scale = max(1.0, np.abs(u).max())
            # The profile is a discrete steady state: A u + c + fold = 0.
            res = op.apply(_on_lines(u))[:, 1, 1]
            assert np.abs(res).max() / (scale / h**2) < 1e-12
            # Direct solve reproduces the interior nodal values.
            m = len(diag)
            x = np.linalg.solve(neg_matrix(diag, weights), corr + _fold(dir_lo, dir_hi, m))
            np.testing.assert_allclose(x, u[1:-1], rtol=0, atol=1e-12 * scale)
            # And the shifted solve has the profile as fixed point.
            for dt in (1e-3, 0.1, 7.0):
                y = op.solve(dt, _on_lines(u), split.boundary)[1:-1, 1, 1]
                np.testing.assert_allclose(y, u[1:-1], rtol=0, atol=1e-11 * scale)
                want = line_solve(weights, corr, dir_lo, dir_hi, dt, u[1:-1])
                np.testing.assert_array_equal(_bits(y), _bits(want))


class TestThomas:
    """The batched sweep, L D L^T on every line, against dense solves."""

    def _random_system(self, rng, n=12):
        """A synthetic variable-coefficient line: its operator on
        line_split's grid (four equal lines along axis 0), and its arrays."""
        weights = rng.uniform(0.5, 20.0, size=n - 1)
        corr = rng.normal(size=n - 2)
        bc = rng.normal(), rng.normal()
        lines = np.repeat(weights[:, None], 4, axis=1), np.repeat(corr[:, None], 4, axis=1)
        op = _lines_operator(0, (n, 4, 4), *lines)
        fold = _fold(weights[0] * bc[0], weights[-1] * bc[1], n - 2)
        return op, weights[:-1] + weights[1:], weights, corr, fold, bc

    def test_identity_at_dt_zero(self):
        rng = np.random.default_rng(5)
        op, *_, bc = self._random_system(rng)
        rhs = rng.normal(size=10)
        np.testing.assert_array_equal(_sweep(op, 0.0, rhs, bc), rhs)

    def test_small_system_vs_dense(self):
        rng = np.random.default_rng(8)
        op, diag, weights, corr, fold, bc = self._random_system(rng, n=5)  # 3 unknowns
        dt = 0.37
        rhs = rng.normal(size=3)
        got = _sweep(op, dt, rhs, bc)
        mat = np.eye(3) + dt * neg_matrix(diag, weights)
        want = np.linalg.solve(mat, rhs + dt * (corr + fold))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_residual_bound_random_100(self):
        rng = np.random.default_rng(13)
        op, diag, weights, corr, fold, bc = self._random_system(rng, n=102)
        dt = 2.5
        rhs = rng.normal(size=100)
        x = _sweep(op, dt, rhs, bc)
        mat = np.eye(100) + dt * neg_matrix(diag, weights)
        full_rhs = rhs + dt * (corr + fold)
        res = np.abs(mat @ x - full_rhs).max()
        assert res <= 1e-10 * max(np.abs(full_rhs).max(), 1.0)

    def test_zero_pivot_raises(self):
        # Weights [-2, 1, 1, 1]: 1 + dt*diag[0] == 0, the first pivot of
        # I + dt*M vanishes.
        w = np.repeat([[-2.0], [1.0], [1.0], [1.0]], 4, axis=1)
        op = _lines_operator(0, (5, 4, 4), w, np.zeros((3, 4)))
        with pytest.raises(NumericalError):
            op.solve(1.0, np.ones((5, 4, 4)), np.zeros((5, 4, 4)))

    def test_sweep_matches_with_corrections_on_line_ends(self):
        # A correction on a line's first or last interior node lands on the
        # entry that also takes the Dirichlet end: the batched sweep and
        # line_solve add the end first and the correction after it, so each
        # line equals line_solve's bit for bit, and the dense solve of its
        # system.
        rng = np.random.default_rng(17)
        weights = rng.uniform(0.5, 20.0, size=(6, 12))
        corr = np.zeros((5, 12))
        corr[[0, -1]] = rng.normal(size=(2, 12)) * 10.0 ** rng.integers(-4, 5, size=(2, 12))
        corr[2, ::3] = rng.normal(size=4)
        bc = rng.normal(size=(2, 12))
        dir_lo, dir_hi = bc * weights[[0, -1]]
        shape = (5, 7, 6)  # along axis 1, 3 x 4 interior lines
        op = _lines_operator(1, shape, weights, corr)
        assert set(op.corr_lines // 12) == {0, 2, 4}
        rhs = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
        boundary = np.zeros(shape)
        boundary[1:-1, [0, -1], 1:-1] = np.moveaxis(bc.reshape(2, 3, 4), 0, 1)
        for tau in (0.01, 0.3, 2.5):
            got = op.solve(tau, rhs, boundary)
            for line in range(12):
                i0, i2 = divmod(line, 4)
                want = line_solve(
                    weights[:, line], corr[:, line], dir_lo[line], dir_hi[line],
                    tau, rhs[i0 + 1, 1:-1, i2 + 1],
                )
                np.testing.assert_array_equal(got[i0 + 1, 1:-1, i2 + 1], want)
                w = weights[:, line]
                mat = np.eye(5) + tau * neg_matrix(w[:-1] + w[1:], w)
                fold = _fold(dir_lo[line], dir_hi[line], 5)
                b = rhs[i0 + 1, 1:-1, i2 + 1] + tau * (corr[:, line] + fold)
                np.testing.assert_allclose(
                    want, np.linalg.solve(mat, b), rtol=1e-12, atol=1e-12 * np.abs(b).max()
                )

    # The weights W, with W_1 = 1, give diag = W_left + W_right.  1 + diag[0]
    # = 0 zeroes the first pivot; 1 + diag[1] = W_1^2 / (1 + diag[0]) zeroes
    # the second, so that the rows after it divide by zero.
    @pytest.mark.parametrize("diag", [[-1.0, 2.0, 2.0, 2.0], [-0.75, 3.0, 3.0, 2.0]])
    def test_zero_pivot_raises_and_warns_nothing(self, diag):
        w = [diag[0] - 1.0, 1.0]
        for d in diag[1:]:
            w.append(d - w[-1])
        regular = np.full(5, 12.0)
        weights = np.column_stack([regular, w])
        op = _lines_operator(2, (3, 4, 6), weights, np.zeros((4, 2)))
        lines = np.repeat(np.c_[w], 4, axis=1)
        alone = _lines_operator(0, (6, 4, 4), lines, np.zeros((4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="zero pivot"):
                _sweep(alone, 1.0, np.ones(4))
            with pytest.raises(NumericalError, match="zero pivot"):
                op.solve(1.0, np.ones((3, 4, 6)), np.zeros((3, 4, 6)))


def _factor(diag, off, tau):
    """ldlt_factor_into on a copy, o = tau*off."""
    return ldlt_factor_into(diag, np.multiply(off, tau), tau)


def _three_op_factor(diag, off, tau):
    """The L D L^T factors by the three-op row recurrence, cp[i-1] =
    o[i-1] / D[i-1] and D[i] = d[i] - o[i-1] * cp[i-1]; returns cp, 1/D and
    the growth bound of the two forms' difference (see below)."""
    d, o = 1.0 + tau * diag, tau * off
    piv, cp = np.empty_like(d), np.empty_like(o)
    piv[0] = d[0]
    for i in range(1, len(d)):
        cp[i - 1] = o[i - 1] / piv[i - 1]
        piv[i] = d[i] - o[i - 1] * cp[i - 1]
    # The two forms round the subtracted term o^2 / D[i-1] apart by a few
    # of its ulps; D[i] holds that difference magnified by its cancellation
    # rho = o^2 / |D[i-1] D[i]| and passes it on to the next row.
    growth = np.ones_like(piv)
    for i in range(1, len(d)):
        rho = o[i - 1] ** 2 / np.abs(piv[i - 1] * piv[i])
        growth[i] = 1.0 + rho * (1.0 + growth[i - 1])
    return cp, 1.0 / piv, growth


class TestLdltFactor:
    """The two-op pivot recurrence on random diagonally dominant batches,
    against the three-op recurrence and a dense solve."""

    @pytest.mark.parametrize("margin", [2.0, 1.0], ids=["strict", "weak"])
    @pytest.mark.parametrize(
        "m, batch", [(2, (1,)), (9, (7,)), (40, (3, 5)), (120, (64,))]
    )
    def test_matches_three_op_recurrence_and_dense_solve(self, margin, m, batch):
        rng = np.random.default_rng(m)
        shape = (m - 1, *batch)
        off = rng.uniform(0.01, 80.0, shape) * rng.choice([-1.0, 1.0], shape)
        row_sum = np.zeros((m, *batch))
        row_sum[1:] += np.abs(off)
        row_sum[:-1] += np.abs(off)
        diag = margin * row_sum + rng.uniform(0.0, 5.0, (m, *batch))
        for tau in (1e-6, 0.01, 0.7, 40.0, 1e4):
            cp, inv = _factor(diag, off, tau)
            cp3, inv3, growth = _three_op_factor(diag, off, tau)
            # With the diagonal twice the row sum the cancellation is mild
            # and the forms agree within 4 ulps; at bare dominance, within 4
            # ulps of the growth bound.
            ulps = 4.0 if margin == 2.0 else 4.0 * growth
            assert np.all(np.abs(inv - inv3) <= ulps * np.spacing(np.abs(inv3)))
            ulps = 4.0 if margin == 2.0 else 4.0 * growth[:-1]
            assert np.all(np.abs(cp - cp3) <= ulps * np.spacing(np.abs(cp3)))
            b = rng.normal(size=(m, *batch))
            x = b.copy()
            ldlt_solve(cp, inv, x)
            for line in np.ndindex(*batch):
                at = (slice(None), *line)
                mat = np.diag(1.0 + tau * diag[at])
                mat += np.diag(tau * off[at], 1) + np.diag(tau * off[at], -1)
                want = np.linalg.solve(mat, b[at])
                assert np.abs(x[at] - want).max() <= 1e-12 * np.abs(want).max()


class TestFactorInPlace:
    """ldlt_factor_into builds cp in the scaled off-diagonal it is given; its
    zero-pivot test reuses the o^2 scratch and keeps the comparison's
    meaning: |D| < 1e-300 on any line raises, a NaN pivot does not."""

    def test_overwrites_o_with_cp(self):
        rng = np.random.default_rng(71)
        off = -rng.uniform(0.5, 2.0, (8, 5))
        diag = rng.uniform(5.0, 6.0, (9, 5))
        kept = diag.copy()
        o = off * 0.3
        cp, inv = ldlt_factor_into(diag, o, 0.3)
        assert cp is o
        assert not np.shares_memory(inv, diag)
        np.testing.assert_array_equal(_bits(diag), _bits(kept))
        want_cp, want_inv, _ = _three_op_factor(diag, off, 0.3)
        np.testing.assert_allclose(cp, want_cp, rtol=1e-14)
        np.testing.assert_allclose(inv, want_inv, rtol=1e-14)

    def test_zero_pivot_on_one_line_raises(self):
        diag = np.full((4, 3), 2.0)
        diag[0, 1] = -1.0
        off = np.full((3, 3), -0.5)
        with pytest.raises(NumericalError, match="zero pivot"):
            _factor(diag, off, 1.0)
        with pytest.raises(NumericalError, match="zero pivot"):
            _factor(diag[:, 1:2], off[:, 1:2], 1.0)

    def test_nan_pivot_is_not_a_zero_pivot(self):
        cp, inv = _factor(np.c_[[np.nan, 2.0, 2.0]], np.c_[[-0.5, -0.5]], 1.0)
        assert np.isnan(inv).all() and np.isnan(cp).all()


class TestApplyOperator:
    def test_random_vs_dense(self):
        rng = np.random.default_rng(21)
        flags = np.array([True] * 4 + [False] * 6)
        bc = (0.6, -0.9)
        op = line_split(flags, (2.0, 80.0), {3: (0.4, 0.7, -1.3)}, bc, 0.5).ops[0]
        diag, weights, corr = _column(op)
        v = rng.normal(size=10)
        v[0], v[-1] = bc
        got = op.apply(_on_lines(v))[:, 1, 1]
        fold = _fold(weights[0] * bc[0], weights[-1] * bc[1], 8)
        want = -neg_matrix(diag, weights) @ v[1:-1] + corr + fold
        # A rounding bound scaled by the magnitudes of the summed terms
        # (W_lo v_lo, diag v, W_hi v_hi and c at each node), so that any
        # order of the additions passes and a wrong term does not.
        terms = (
            np.abs(weights[:-1] * v[:-2])
            + np.abs(diag * v[1:-1])
            + np.abs(weights[1:] * v[2:])
            + np.abs(corr)
        )
        assert np.all(np.abs(got[1:-1] - want) <= 8 * np.finfo(float).eps * terms)
        assert got[0] == 0.0 and got[-1] == 0.0

    def test_length_checked(self):
        op = _uniform_line(n=8)
        good = np.zeros((8, 4, 4))
        with pytest.raises(ConfigError):
            op.apply(good, out=np.zeros((9, 4, 4)))
        for tau in (0.1, 0.0):
            for bad in (np.zeros((7, 4, 4)), np.zeros((9, 4, 4))):
                for name, args, out in (
                    ("rhs", (bad, good), None),
                    ("boundary", (good, bad), None),
                    ("out", (good, good), bad),
                ):
                    with pytest.raises(ConfigError, match=f"solve's {name} has shape"):
                        op.solve(tau, *args, out=out)


class TestAssemblyValidation:
    """The checks the build relies on, on a line: InterfaceData makes them
    where the interface is made."""

    def test_mixed_edge_without_cut(self):
        flags = [True, True, False, False, False]
        with pytest.raises(AssemblyError, match="without crossing"):
            line_interface(flags, [], [])

    def test_cut_on_uniform_edge(self):
        with pytest.raises(AssemblyError, match="uniform edge"):
            line_interface([True] * 5, [1], [0.5])

    def test_theta_clamp_range(self):
        flags = [True, True, False, False, False]
        with pytest.raises(AssemblyError, match="clamp"):
            line_interface(flags, [1], [1e-9])

    def test_repeated_cut_does_not_stand_for_a_missing_one(self):
        # Two cuts for two side changes, but both on edge 1.
        flags = [True, True, False, False, True, True]
        with pytest.raises(ConfigError, match=r"duplicate crossing on edge \(0, 1, 0, 0\)"):
            line_interface(flags, [1, 1], [0.5, 0.5])

    def test_cut_past_the_last_edge(self):
        flags = [True, True, False, False, False]
        with pytest.raises(AssemblyError, match=r"uniform edge: \(0, 4, 0, 0\)"):
            line_interface(flags, [1, 4], [0.5, 0.5])

    def test_harmonic_limits(self):
        # theta -> 0: weight approaches the far-side eps; theta -> 1: near side.
        eps_in, eps_out = 2.0, 80.0
        theta = np.array([1e-6, 1.0 - 1e-6])
        w, _, _ = cut_terms(np.array([True, True]), (eps_in, eps_out), theta, 0.0, 0.0, 1.0)
        assert w[0] == pytest.approx(eps_out, rel=1e-4)
        assert w[1] == pytest.approx(eps_in, rel=1e-4)


class TestTwoSphereLines:
    """Symmetry and dominance on every line of a real problem's operators."""

    def test_all_lines_symmetric_and_dominant(self):
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 1.8), Atom((2.2, 0.4, -0.3), -0.6, 1.5)]
        )
        grid = build_grid(atoms, h=0.5, probe_radius=1.0)
        data = classify_union(grid, atoms)
        params = PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=1.0)
        split = build_split_operators(data, atoms, params, Field(grid, np.zeros(grid.shape)))
        n_checked = 0
        n_expected = 0
        for op in split.ops:
            t1, t2 = (a for a in range(3) if a != op.axis)
            n_expected += (grid.shape[t1] - 2) * (grid.shape[t2] - 2)
            diag, weights = op.diag, op.weights
            # -A has the off-diagonal -W <= 0 and the diagonal >= 0.
            assert np.all(weights >= 0.0) and np.all(diag >= 0.0)
            # Row sums: diagonal equals the two couplings exactly, counting
            # the boundary links for the end rows.
            np.testing.assert_allclose(diag, weights[:-1] + weights[1:], rtol=1e-13, atol=0)
            # -A is PSD on every line.
            mats = [neg_matrix(diag[:, k], weights[:, k]) for k in range(diag.shape[1])]
            evals = np.linalg.eigvalsh(np.array(mats))
            assert np.all(evals.min(axis=1) >= -1e-10 * np.maximum(1.0, evals.max(axis=1)))
            n_checked += diag.shape[1]
        assert n_checked == n_expected


def _face_values(grid, atoms, params) -> np.ndarray:
    bvals = np.zeros(grid.shape)
    nodes = grid.nodes()
    for axis in range(3):
        for end in (0, -1):
            sl = [slice(None)] * 3
            sl[axis] = end
            face = nodes[tuple(sl)]
            bvals[tuple(sl)] = dirichlet_boundary(atoms, face.reshape(-1, 3), params).reshape(
                face.shape[:-1]
            )
    return bvals


_FOUR_ATOMS = AtomSet(
    [
        Atom((0.0, 0.0, 0.0), 1.0, 2.0),
        Atom((2.8, 0.0, 0.0), -0.7, 1.7),
        Atom((0.0, 2.9, 0.4), 0.5, 1.8),
        Atom((-2.7, 0.3, -0.6), -0.8, 1.6),
    ]
)


def _sliver(grid: Grid) -> InterfaceData:
    """A one-node-thick inside plane x = 3 across the whole grid.

    Every node of the plane takes corrections from both of its cut x edges,
    and the plane's crossings on the boundary transverse lines (j or k on a
    face) belong to no interior line.
    """
    inside = np.zeros(grid.shape, dtype=bool)
    inside[3] = True
    index, theta = [], []
    for j in range(grid.shape[1]):
        for k in range(grid.shape[2]):
            for i, t in ((2, 0.3 + 0.01 * j), (3, 0.6 - 0.01 * k)):
                index.append((i, j, k))
                theta.append(t)
    location = np.array([grid.node(*idx) for idx in index])
    location[:, 0] += np.array(theta) * grid.h
    return InterfaceData(grid, inside, np.zeros(len(index)), index, theta, location)


def _oracle_case(name: str):
    """(interface, atoms) of one oracle grid."""
    grid = build_grid(_FOUR_ATOMS, h=0.5, probe_radius=1.4)
    far_atom = AtomSet([Atom((0.4, 0.3, -0.2), 0.8, 1.0)])
    if name == "sphere":
        return classify_sphere(grid, (0.1, -0.2, 0.0), 2.3), far_atom
    if name == "union":
        return classify_union(grid, _FOUR_ATOMS), _FOUR_ATOMS
    if name == "ses":
        return classify_ses_grid(grid, _FOUR_ATOMS, 1.4), _FOUR_ATOMS
    return _sliver(Grid((-3.0, -3.0, -3.0), 1.0, (7, 7, 7))), far_atom


_SPECKLE_ATOMS = AtomSet([Atom((0.1, 0.2, 0.3), 1.0, 0.5)])
_SPECKLE_PARAMS = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)


def _speckled(fill):
    """Random node flags on a box of unequal sides, each inside with
    probability fill, and their crossings: cut edges next to each other on
    a line, at both of its ends and on the faces.  Returns the interface
    and the generator that drew it, to draw on from."""
    grid = Grid((-2.0, -2.0, -2.0), 1.0, (5, 6, 7))
    rng = np.random.default_rng(int(fill * 10))
    inside = rng.random(grid.shape) < fill
    axis, index, theta, location = [], [], [], []
    for a in range(3):
        for idx in np.argwhere(np.diff(inside, axis=a)).tolist():
            t = float(rng.uniform(0.01, 0.99))
            loc = grid.node(*idx)
            loc[a] += t * grid.h
            axis.append(a)
            index.append(idx)
            theta.append(t)
            location.append(loc)
    return InterfaceData(grid, inside, axis, index, theta, location), rng


class TestBatchedAssembly:
    """Assembly from the crossings against the dense assemble_lines, over
    all lines at once and one line at a time."""

    @pytest.mark.parametrize("case", ["sphere", "union", "ses", "sliver"])
    def test_bit_identical_to_per_line(self, case):
        data, atoms = _oracle_case(case)
        params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)
        bvals = _face_values(data.grid, atoms, params)
        split = build_split_operators(data, atoms, params, Field(data.grid, bvals))
        jumps = compute_jumps(data, atoms, params)
        # The operators keep one shared edge field and rebuild the arrays
        # of assemble_lines from it for their readers.
        edge = split.ops[0].edge_coeff
        assert all(op.edge_coeff is edge for op in split.ops)
        assert not edge.flags.writeable
        names = ("diag", "weights", "corr")
        rhs = np.random.default_rng(11).normal(size=data.grid.shape)
        for axis, op in enumerate(split.ops):
            got = (op.diag, op.weights, op.corr)
            direct = axis_lines(data, params, jumps, bvals, axis)
            lines = [
                axis_lines(data, params, jumps, bvals, axis, [k])
                for k in range(op.diag.shape[1])
            ]
            per_line = [np.concatenate(a, axis=-1) for a in zip(*lines)]
            for want in (per_line, direct):
                for name, g, w in zip(names, got, want):
                    assert g.shape == w.shape, name
                    assert np.array_equal(_bits(g), _bits(w)), (axis, name)
            # the Dirichlet fold, through a sweep of every line
            _check_sweep(op, direct, 0.3, rhs, split.boundary)

    @pytest.mark.parametrize("fill", [0.3, 0.5, 0.7])
    def test_speckled_masks_match_dense_assembly(self, fill):
        data, rng = _speckled(fill)
        grid, atoms, params = data.grid, _SPECKLE_ATOMS, _SPECKLE_PARAMS
        bvals = rng.normal(size=grid.shape)
        split = build_split_operators(data, atoms, params, Field(grid, bvals))
        jumps = compute_jumps(data, atoms, params)
        rhs = rng.normal(size=grid.shape)
        for axis, op in enumerate(split.ops):
            direct = axis_lines(data, params, jumps, bvals, axis)
            for g, w in zip((op.diag, op.weights, op.corr), direct):
                assert np.array_equal(_bits(g), _bits(w)), axis
            _check_sweep(op, direct, 0.3, rhs, split.boundary)

    @pytest.mark.parametrize("fill", [0.3, 0.7])
    def test_sweep_folds_the_boundary_it_is_given(self, fill):
        # The operators hold no Dirichlet values: a sweep given a boundary
        # field other than the one the split was built with folds that
        # field's ends, as line_solve does with them.
        data, rng = _speckled(fill)
        grid = data.grid
        built = Field(grid, rng.normal(size=grid.shape))
        split = build_split_operators(data, _SPECKLE_ATOMS, _SPECKLE_PARAMS, built)
        jumps = compute_jumps(data, _SPECKLE_ATOMS, _SPECKLE_PARAMS)
        other, rhs = rng.normal(size=(2, *grid.shape))
        for axis, op in enumerate(split.ops):
            dense = axis_lines(data, _SPECKLE_PARAMS, jumps, other, axis)
            _check_sweep(op, dense, 0.3, rhs, other)

    @pytest.mark.parametrize("fill", [0.3, 0.7])
    def test_operators_are_built_from_geometry_alone(self, fill):
        # Two boundary fields give operators of the same bits, end weights
        # among them; cut edges at the lines' ends set some of those.
        data, rng = _speckled(fill)
        ops = [
            build_split_operators(
                data, _SPECKLE_ATOMS, _SPECKLE_PARAMS, Field(data.grid, b)
            ).ops
            for b in rng.normal(size=(2, *data.grid.shape))
        ]
        names = ("edge_coeff", "_cut_index", "_cut_w", "corr_lines", "corr_value")
        for op, alt in zip(*ops):
            for name in (*names, "_end_w", "diag"):
                a, b = getattr(op, name), getattr(alt, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
            assert (op._end_w != op._edge_lines[[0, -1]].reshape(2, -1)).any()

    def test_equal_eps_keeps_every_cut_and_the_same_results(self):
        # With eps_in == eps_out every harmonic weight equals E: the build
        # lists those cut edges, where the dense arrays show none, and both
        # operators give the same arrays, apply and sweep.
        data, atoms = _oracle_case("union")
        params = PhysicalParams(eps_in=2.0, eps_out=2.0, kappa_sq=1.0)
        bvals = _face_values(data.grid, atoms, params)
        split = build_split_operators(data, atoms, params, Field(data.grid, bvals))
        jumps = compute_jumps(data, atoms, params)
        v = np.random.default_rng(21).normal(size=data.grid.shape)
        for axis, op in enumerate(split.ops):
            direct = axis_lines(data, params, jumps, bvals, axis)
            dense = operator_from_lines(
                axis, op.shape, *direct[:3], edge_coeff=op.edge_coeff
            )
            assert len(dense._cut_w) == 0 < len(op._cut_w)
            for g, w in zip((op.diag, op.weights, op.corr), direct):
                assert np.array_equal(_bits(g), _bits(w))
            _check_sweep(op, direct, 0.3, v, split.boundary)
            assert np.array_equal(_bits(op.apply(v)), _bits(dense.apply(v)))
            assert np.array_equal(
                _bits(op.solve(0.3, v, split.boundary)),
                _bits(dense.solve(0.3, v, split.boundary)),
            )

    def test_sliver_nodes_take_both_corrections(self):
        data, atoms = _oracle_case("sliver")
        params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)
        split = build_split_operators(
            data, atoms, params, Field(data.grid, np.zeros(data.grid.shape))
        )
        jumps = compute_jumps(data, atoms, params)
        eps_in, eps_out, h = params.eps_in, params.eps_out, data.grid.h
        # Node (3, 2, 4): x line (2, 4) is interior line 1*5 + 3, position 3.
        a, b = jumps
        lo, hi = data.row((0, 2, 2, 4)), data.row((0, 3, 2, 4))
        theta_lo, theta_hi = data.theta[lo], data.theta[hi]
        # Edge 2 -> 3 enters the plane: its high node is inside.
        d1 = eps_in * theta_lo + eps_out * (1 - theta_lo)
        w1 = eps_out * eps_in / d1 / h**2
        from_lo = -w1 * a[lo] - (eps_in * theta_lo / d1 / h) * -b[lo]
        # Edge 3 -> 4 leaves it: its low node is inside.
        d2 = eps_out * theta_hi + eps_in * (1 - theta_hi)
        w2 = eps_in * eps_out / d2 / h**2
        from_hi = -w2 * a[hi] - (eps_in * (1 - theta_hi) / d2 / h) * b[hi]
        got = split.ops[0].corr[2, 1 * 5 + 3]
        assert got == pytest.approx(from_lo + from_hi, rel=1e-13)
        assert abs(from_lo) > 0 and abs(from_hi) > 0

    @pytest.mark.parametrize(
        "fault, match",
        [
            ("drop", "mixed edge without crossing record"),
            ("extra", "crossing on uniform edge"),
        ],
    )
    def test_interface_faults_raise_at_construction(self, fault, match):
        # The build trusts its interface, so a fault the assembly could meet
        # raises where the interface is made, before any build.
        data, _ = _oracle_case("sphere")
        axis, index = data.axis.copy(), data.index.copy()
        theta, location = data.theta.copy(), data.location.copy()
        keep = np.ones(len(theta), dtype=bool)
        # The sphere sits mid-grid, so its middle x crossing and the x edge
        # from its centre node lie on interior lines.
        if fault == "drop":
            keep[np.flatnonzero(axis == 0)[np.sum(axis == 0) // 2]] = False
        elif fault == "extra":
            centre = tuple(int(v) for v in np.argwhere(data.inside).mean(axis=0).round())
            assert data.inside[centre] and data.inside[centre[0] + 1, centre[1], centre[2]]
            axis = np.r_[axis, 0]
            index = np.vstack([index, centre])
            theta = np.r_[theta, 0.5]
            location = np.vstack([location, data.grid.node(*centre) + (0.25, 0, 0)])
            keep = np.r_[keep, True]
        with pytest.raises(AssemblyError, match=match):
            InterfaceData(
                data.grid, data.inside, axis[keep], index[keep], theta[keep], location[keep]
            )

    @pytest.mark.parametrize("fault, match", [("clamp", "clamp")])
    def test_assembly_errors_raise_through_build(self, fault, match):
        # A theta outside the clamp range stops the way from the crossing
        # arrays to the operators where the interface is made: the message
        # gives the range, and no build starts.
        data, atoms = _oracle_case("sphere")
        theta = data.theta.copy()
        theta[len(theta) // 2] = 1e-9
        params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)
        built = []
        with pytest.raises(AssemblyError, match=match) as err:
            bad = InterfaceData(
                data.grid, data.inside, data.axis, data.index, theta, data.location
            )
            built.append(
                build_split_operators(
                    bad, atoms, params, Field(bad.grid, np.zeros(bad.grid.shape))
                )
            )
        assert f"outside {fault} range [{THETA_MIN}, {1.0 - THETA_MIN}]" in str(err.value)
        assert built == []
