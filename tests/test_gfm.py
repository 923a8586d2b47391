"""Tests for line assembly, the Thomas solver, and operator application."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from gfmpbe import gfm
from gfmpbe.errors import AssemblyError, ConfigError, NumericalError
from gfmpbe.gfm import (
    JumpData,
    LineSystem,
    apply_operator,
    assemble_line,
    ldlt_factor,
    ldlt_factor_into,
    ldlt_solve,
    thomas_solve,
)
from gfmpbe.grid import Field, Grid, build_grid
from gfmpbe.molecule import Atom, AtomSet, PhysicalParams, dirichlet_boundary
from gfmpbe.stepping import build_split_operators, compute_jumps
from gfmpbe.surface import (
    THETA_MIN,
    Crossing,
    InterfaceData,
    classify_ses_grid,
    classify_sphere,
    classify_union,
)
from line_arrays import operator_from_lines

NO_JUMP = JumpData(0.0, 0.0)


def _uniform_line(n=8, eps=3.0, h=0.5, bc=(1.0, -2.0), inside=True):
    flags = np.full(n, inside, dtype=bool)
    return assemble_line(0, flags, (eps, 80.0) if inside else (1.0, eps), {}, bc, h)


def _dense_neg_a(sys: LineSystem) -> np.ndarray:
    """Materialize the stored negated operator M = -A."""
    m = sys.n_interior
    mat = np.zeros((m, m))
    mat[np.arange(m), np.arange(m)] = sys.diag
    mat[np.arange(m - 1), np.arange(1, m)] = sys.off
    mat[np.arange(1, m), np.arange(m - 1)] = sys.off
    return mat


def _stacked(systems) -> tuple:
    """AxisOperator arrays stacked from one-line systems, line-major:
    diag, weights, corr, dir_lo, dir_hi."""
    return (
        np.stack([s.diag for s in systems], axis=1),
        np.stack([np.r_[s.w_lo, -s.off, s.w_hi] for s in systems], axis=1),
        np.stack([s.corr for s in systems], axis=1),
        np.array([s.w_lo * s.bc_lo for s in systems]),
        np.array([s.w_hi * s.bc_hi for s in systems]),
    )


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def _fold(sys: LineSystem) -> np.ndarray:
    f = np.zeros(sys.n_interior)
    f[0] = sys.w_lo * sys.bc_lo
    f[-1] = sys.w_hi * sys.bc_hi
    return f


class TestRegularStencil:
    def test_constant_eps_tridiag(self):
        eps, h = 3.0, 0.5
        sys = _uniform_line(n=8, eps=eps, h=h)
        w = eps / h**2
        np.testing.assert_allclose(sys.diag, 2 * w, rtol=1e-15)
        np.testing.assert_allclose(sys.off, -w, rtol=1e-15)
        np.testing.assert_allclose(sys.corr, 0.0)
        assert sys.w_lo == pytest.approx(w)
        assert sys.w_hi == pytest.approx(w)

    def test_homogeneous_jump_reduces_to_harmonic(self):
        # One cut with a = b = 0: harmonic edge weight, zero corrections.
        flags = np.array([True, True, True, False, False, False])
        eps_in, eps_out, h, theta = 2.0, 80.0, 1.0, 0.3
        sys = assemble_line(
            0, flags, (eps_in, eps_out), {2: (theta, NO_JUMP)}, (0.0, 0.0), h
        )
        denom = eps_out * theta + eps_in * (1 - theta)
        w_hat = eps_in * eps_out / denom
        # Cut edge (2,3) couples interior nodes 2 and 3 -> off index 1.
        assert -sys.off[1] == pytest.approx(w_hat, rel=1e-14)
        np.testing.assert_allclose(sys.corr, 0.0)

    def test_constants_in_kernel(self):
        sys = _uniform_line(n=9, bc=(4.0, 4.0))
        v = np.full(9, 4.0)
        np.testing.assert_allclose(apply_operator(sys, v), 0.0, atol=1e-12)

    def test_zero_everything(self):
        sys = _uniform_line(n=7, bc=(0.0, 0.0))
        np.testing.assert_allclose(apply_operator(sys, np.zeros(7)), 0.0)


class TestManufactured:
    """Piecewise-linear two-material profiles are reproduced exactly."""

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
        sys = assemble_line(
            0,
            flags,
            (eps_in, eps_out),
            {cut: (theta, JumpData(a, b))},
            (u[0], u[-1]),
            h,
        )
        return sys, u

    def test_twenty_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            sys, u = self._draw(rng)
            scale = max(1.0, np.abs(u).max())
            # The profile is a discrete steady state: A u + c + fold = 0.
            res = apply_operator(sys, u)
            assert np.abs(res).max() / (scale / sys.h**2) < 1e-12
            # Direct solve reproduces the interior nodal values.
            m = _dense_neg_a(sys)
            x = np.linalg.solve(m, sys.corr + _fold(sys))
            np.testing.assert_allclose(x, u[1:-1], rtol=0, atol=1e-12 * scale)
            # And the shifted solve has the profile as fixed point.
            for dt in (1e-3, 0.1, 7.0):
                y = thomas_solve(sys, dt, u[1:-1].copy())
                np.testing.assert_allclose(y, u[1:-1], rtol=0, atol=1e-11 * scale)


class TestThomas:
    def _random_system(self, rng, n=12):
        weights = rng.uniform(0.5, 20.0, size=n - 1)
        flags = np.full(n, True)
        h = 0.25
        sys = assemble_line(0, flags, (1.0, 80.0), {}, (0.0, 0.0), h)
        # Replace by a synthetic variable-coefficient system.
        return LineSystem(
            diag=weights[:-1] + weights[1:],
            off=-weights[1:-1],
            corr=rng.normal(size=n - 2),
            bc_lo=float(rng.normal()),
            bc_hi=float(rng.normal()),
            w_lo=float(weights[0]),
            w_hi=float(weights[-1]),
            h=h,
        )

    def test_identity_at_dt_zero(self):
        rng = np.random.default_rng(5)
        sys = self._random_system(rng)
        rhs = rng.normal(size=sys.n_interior)
        np.testing.assert_array_equal(thomas_solve(sys, 0.0, rhs.copy()), rhs)

    def test_small_system_vs_dense(self):
        rng = np.random.default_rng(8)
        sys = self._random_system(rng, n=5)  # 3 interior unknowns
        dt = 0.37
        rhs = rng.normal(size=3)
        got = thomas_solve(sys, dt, rhs.copy())
        mat = np.eye(3) + dt * _dense_neg_a(sys)
        want = np.linalg.solve(mat, rhs + dt * (sys.corr + _fold(sys)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_residual_bound_random_100(self):
        rng = np.random.default_rng(13)
        sys = self._random_system(rng, n=102)
        dt = 2.5
        rhs = rng.normal(size=100)
        x = thomas_solve(sys, dt, rhs.copy())
        mat = np.eye(100) + dt * _dense_neg_a(sys)
        full_rhs = rhs + dt * (sys.corr + _fold(sys))
        res = np.abs(mat @ x - full_rhs).max()
        assert res <= 1e-10 * max(np.abs(full_rhs).max(), 1.0)

    def test_rhs_length_checked(self):
        sys = _uniform_line(n=8)
        with pytest.raises(ConfigError):
            thomas_solve(sys, 0.1, np.zeros(7))

    def test_zero_pivot_raises(self):
        # Weights [-2, 1, 1, 1]: 1 + dt*diag[0] == 0, the first pivot of
        # I + dt*M vanishes.
        sys = LineSystem(
            diag=np.array([-1.0, 2.0, 2.0]),
            off=np.array([-1.0, -1.0]),
            corr=np.zeros(3),
            bc_lo=0.0,
            bc_hi=0.0,
            w_lo=-2.0,
            w_hi=1.0,
            h=1.0,
        )
        with pytest.raises(NumericalError):
            thomas_solve(sys, 1.0, np.ones(3))
        # The batched sweep shares the factorization: one line along x.
        op = operator_from_lines(0, (5, 3, 3), *_stacked([sys]))
        field = np.ones((5, 3, 3))
        with pytest.raises(NumericalError):
            op.solve(1.0, field, np.zeros((5, 3, 3)))

    def test_sweep_matches_with_corrections_on_line_ends(self):
        # A correction on a line's first or last interior node lands on the
        # entry that also takes the Dirichlet end: the batched sweep and
        # thomas_solve add the end first and the correction after it.
        rng = np.random.default_rng(17)
        systems = []
        for line in range(12):
            corr = np.zeros(5)
            corr[[0, -1]] = rng.normal(size=2) * 10.0 ** rng.integers(-4, 5, size=2)
            corr[2] = rng.normal() if line % 3 == 0 else 0.0
            systems.append(replace(self._random_system(rng, n=7), corr=corr))
        shape = (5, 7, 6)  # along axis 1, 3 x 4 interior lines
        op = operator_from_lines(1, shape, *_stacked(systems))
        assert set(op.corr_lines // 12) == {0, 2, 4}
        rhs = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
        for tau in (0.01, 0.3, 2.5):
            got = op.solve(tau, rhs, np.zeros(shape))
            for line, sys in enumerate(systems):
                i0, i2 = divmod(line, 4)
                want = thomas_solve(sys, tau, rhs[i0 + 1, 1:-1, i2 + 1])
                np.testing.assert_array_equal(got[i0 + 1, 1:-1, i2 + 1], want)

    # The weights W, with W_1 = 1, give diag = W_left + W_right.  1 + diag[0]
    # = 0 zeroes the first pivot; 1 + diag[1] = W_1^2 / (1 + diag[0]) zeroes
    # the second, so that the rows after it divide by zero.
    @pytest.mark.parametrize("diag", [[-1.0, 2.0, 2.0, 2.0], [-0.75, 3.0, 3.0, 2.0]])
    def test_zero_pivot_raises_and_warns_nothing(self, diag):
        w = [diag[0] - 1.0, 1.0]
        for d in diag[1:]:
            w.append(d - w[-1])
        sys = LineSystem(
            diag=np.array(diag),
            off=-np.array(w[1:-1]),
            corr=np.zeros(4),
            bc_lo=0.0,
            bc_hi=0.0,
            w_lo=w[0],
            w_hi=w[-1],
            h=1.0,
        )
        regular = _uniform_line(n=6)
        op = operator_from_lines(2, (3, 4, 6), *_stacked([regular, sys]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="zero pivot"):
                thomas_solve(sys, 1.0, np.ones(4))
            with pytest.raises(NumericalError, match="zero pivot"):
                op.solve(1.0, np.ones((3, 4, 6)), np.zeros((3, 4, 6)))


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
            cp, inv = ldlt_factor(diag, off, tau)
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
        cp, inv = ldlt_factor(diag, off, 0.3)
        o = off * 0.3
        got = ldlt_factor_into(diag, o, 0.3)
        assert got[0] is o
        np.testing.assert_array_equal(got[0].view(np.uint64), cp.view(np.uint64))
        np.testing.assert_array_equal(got[1].view(np.uint64), inv.view(np.uint64))

    def test_zero_pivot_on_one_line_raises(self):
        diag = np.full((4, 3), 2.0)
        diag[0, 1] = -1.0
        off = np.full((3, 3), -0.5)
        with pytest.raises(NumericalError, match="zero pivot"):
            ldlt_factor(diag, off, 1.0)
        with pytest.raises(NumericalError, match="zero pivot"):
            ldlt_factor(diag[:, 1], off[:, 1], 1.0)

    def test_nan_pivot_is_not_a_zero_pivot(self):
        cp, inv = ldlt_factor(np.array([np.nan, 2.0, 2.0]), np.array([-0.5, -0.5]), 1.0)
        assert np.isnan(inv).all() and np.isnan(cp).all()


class TestApplyOperator:
    def test_random_vs_dense(self):
        rng = np.random.default_rng(21)
        flags = np.array([True] * 4 + [False] * 6)
        jump = JumpData(a=0.7, b=-1.3)
        sys = assemble_line(
            0, flags, (2.0, 80.0), {3: (0.4, jump)}, (0.6, -0.9), 0.5
        )
        v = rng.normal(size=10)
        v[0], v[-1] = sys.bc_lo, sys.bc_hi
        got = apply_operator(sys, v)
        m = _dense_neg_a(sys)
        want = -m @ v[1:-1] + sys.corr + _fold(sys)
        # A rounding bound scaled by the magnitudes of the summed terms
        # (W_lo v_lo, diag v, W_hi v_hi and c at each node), so that any
        # order of the additions passes and a wrong term does not.
        w = np.r_[sys.w_lo, -sys.off, sys.w_hi]
        terms = (
            np.abs(w[:-1] * v[:-2])
            + np.abs(sys.diag * v[1:-1])
            + np.abs(w[1:] * v[2:])
            + np.abs(sys.corr)
        )
        assert np.all(np.abs(got[1:-1] - want) <= 8 * np.finfo(float).eps * terms)
        assert got[0] == 0.0 and got[-1] == 0.0

    def test_length_checked(self):
        sys = _uniform_line(n=8)
        with pytest.raises(ConfigError):
            apply_operator(sys, np.zeros(9))


class TestAssemblyValidation:
    def test_mixed_edge_without_cut(self):
        flags = np.array([True, True, False, False, False])
        with pytest.raises(AssemblyError, match="no crossing"):
            assemble_line(0, flags, (1.0, 80.0), {}, (0.0, 0.0), 1.0)

    def test_cut_on_uniform_edge(self):
        flags = np.full(5, True)
        with pytest.raises(AssemblyError, match="no side change"):
            assemble_line(
                0, flags, (1.0, 80.0), {1: (0.5, NO_JUMP)}, (0.0, 0.0), 1.0
            )

    def test_theta_clamp_range(self):
        flags = np.array([True, True, False, False, False])
        with pytest.raises(AssemblyError, match="clamp"):
            assemble_line(
                0, flags, (1.0, 80.0), {1: (1e-9, NO_JUMP)}, (0.0, 0.0), 1.0
            )

    def test_repeated_cut_does_not_stand_for_a_missing_one(self):
        # Two cuts for two side changes, but both on edge 1.
        flags = np.array([True, True, False, False, True, True])[:, None]
        cuts = ([1, 1], [0, 0], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(AssemblyError, match="edge 3 on axis 0 changes side"):
            gfm.assemble_lines(0, flags, (1.0, 80.0), cuts, (0.0, 0.0), 1.0)

    def test_cut_past_the_last_edge(self):
        flags = np.array([True, True, False, False, False])[:, None]
        cuts = ([1, 4], [0, 0], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(AssemblyError, match="edge 4 on axis 0 has a crossing"):
            gfm.assemble_lines(0, flags, (1.0, 80.0), cuts, (0.0, 0.0), 1.0)

    def test_non_finite_jump_rejected(self):
        with pytest.raises(AssemblyError):
            JumpData(float("nan"), 0.0)

    def test_harmonic_limits(self):
        eps_in, eps_out = 2.0, 80.0
        flags = np.array([True, True, True, False, False, False])
        lo = assemble_line(
            0, flags, (eps_in, eps_out), {2: (1e-6, NO_JUMP)}, (0.0, 0.0), 1.0
        )
        hi = assemble_line(
            0, flags, (eps_in, eps_out), {2: (1.0 - 1e-6, NO_JUMP)}, (0.0, 0.0), 1.0
        )
        # theta -> 0: weight approaches the far-side eps; theta -> 1: near side.
        assert -lo.off[1] == pytest.approx(eps_out, rel=1e-4)
        assert -hi.off[1] == pytest.approx(eps_in, rel=1e-4)


class TestTwoSphereLines:
    """Symmetry and dominance on every assembled line of a real problem."""

    def test_all_lines_symmetric_and_dominant(self):
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 1.8), Atom((2.2, 0.4, -0.3), -0.6, 1.5)]
        )
        grid = build_grid(atoms, h=0.5, probe_radius=1.0)
        data = classify_union(grid, atoms)
        params = PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=1.0)
        jumps = compute_jumps(data, atoms, params)
        eps = (params.eps_in, params.eps_out)
        n_checked = 0
        n_expected = 0
        for axis in range(3):
            t1, t2 = (a for a in range(3) if a != axis)
            n_expected += (grid.shape[t1] - 2) * (grid.shape[t2] - 2)
            cuts_by_line = {}
            for key, c in data.crossings.items():
                if c.axis != axis:
                    continue
                tv = (c.index[t1], c.index[t2])
                cuts_by_line.setdefault(tv, {})[c.index[axis]] = (
                    c.theta,
                    jumps[key],
                )
            for a1 in range(1, grid.shape[t1] - 1):
                for a2 in range(1, grid.shape[t2] - 1):
                    sl = [slice(None)] * 3
                    sl[t1], sl[t2] = a1, a2
                    flags = data.inside[tuple(sl)]
                    sys = assemble_line(
                        axis, flags, eps, cuts_by_line.get((a1, a2), {}),
                        (0.0, 0.0), grid.h,
                    )
                    assert np.all(sys.off <= 0.0)
                    assert np.all(sys.diag >= 0.0)
                    # Row sums: diagonal equals the two couplings exactly,
                    # counting the boundary links for the end rows.
                    m = sys.n_interior
                    coupling = np.zeros(m)
                    coupling[1:] += -sys.off
                    coupling[:-1] += -sys.off
                    coupling[0] += sys.w_lo
                    coupling[-1] += sys.w_hi
                    np.testing.assert_allclose(
                        sys.diag, coupling, rtol=1e-13, atol=0
                    )
                    # -A is PSD: check via Gershgorin (diag dominance of M).
                    evals = np.linalg.eigvalsh(_dense_neg_a(sys))
                    assert evals.min() >= -1e-10 * max(1.0, evals.max())
                    n_checked += 1
        assert n_checked == n_expected


def _per_line_arrays(data, params, jumps, bvals, axis) -> tuple:
    """One assemble_line call per interior line, stacked like AxisOperator."""
    shape = data.grid.shape
    t1, t2 = (a for a in range(3) if a != axis)
    cuts = {}
    for key, c in data.crossings.items():
        if c.axis == axis:
            cuts.setdefault((c.index[t1], c.index[t2]), {})[c.index[axis]] = (
                c.theta,
                jumps[key],
            )
    systems = []
    for a1 in range(1, shape[t1] - 1):
        for a2 in range(1, shape[t2] - 1):
            sl = [slice(None)] * 3
            sl[t1], sl[t2] = a1, a2
            ends = bvals[tuple(sl)][[0, -1]]
            systems.append(
                assemble_line(
                    axis,
                    data.inside[tuple(sl)],
                    (params.eps_in, params.eps_out),
                    cuts.get((a1, a2), {}),
                    (float(ends[0]), float(ends[1])),
                    data.grid.h,
                )
            )
    return _stacked(systems)


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
    crossings = []
    for j in range(grid.shape[1]):
        for k in range(grid.shape[2]):
            for i, theta in ((2, 0.3 + 0.01 * j), (3, 0.6 - 0.01 * k)):
                loc = grid.node(i, j, k)
                loc[0] += theta * grid.h
                crossings.append(Crossing(0, (i, j, k), theta, tuple(loc)))
    return InterfaceData(grid, inside, crossings)


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


def _assembled_lines(data, params, jumps, bvals, axis) -> tuple:
    """One gfm.assemble_lines call over the axis's interior lines, in C
    order of the two transverse axes: the operator's dense arrays."""
    shape, idx = data.grid.shape, data.index
    t = [a for a in range(3) if a != axis]
    inner = np.all((idx[:, t] > 0) & (idx[:, t] < np.take(shape, t) - 1), axis=1)
    own = (data.axis == axis) & inner
    line = (idx[own, t[0]] - 1) * (shape[t[1]] - 2) + idx[own, t[1]] - 1
    cuts = (idx[own, axis], line, data.theta[own], jumps.a[own], jumps.b[own])
    inside = np.moveaxis(data.inside, axis, 0)[:, 1:-1, 1:-1].reshape(shape[axis], -1)
    bc = np.moveaxis(bvals, axis, 0)[[0, -1], 1:-1, 1:-1].reshape(2, -1)
    eps = (params.eps_in, params.eps_out)
    return gfm.assemble_lines(axis, inside, eps, cuts, bc, data.grid.h)


class TestBatchedAssembly:
    """Assembly from the crossings against the dense assemble_lines and one
    assemble_line call per line."""

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
        names = ("diag", "weights", "corr", "dir_lo", "dir_hi")
        for axis, op in enumerate(split.ops):
            got = (op.diag, op.weights, op.corr, op.dir_lo, op.dir_hi)
            per_line = _per_line_arrays(data, params, jumps, bvals, axis)
            direct = _assembled_lines(data, params, jumps, bvals, axis)
            for want in (per_line, direct):
                for name, g, w in zip(names, got, want):
                    assert g.shape == w.shape, name
                    assert np.array_equal(_bits(g), _bits(w)), (axis, name)

    @pytest.mark.parametrize("fill", [0.3, 0.5, 0.7])
    def test_speckled_masks_match_dense_assembly(self, fill):
        # Random node flags on a box of unequal sides: cut edges next to
        # each other on a line, at both of its ends and on the faces.
        grid = Grid((-2.0, -2.0, -2.0), 1.0, (5, 6, 7))
        rng = np.random.default_rng(int(fill * 10))
        inside = rng.random(grid.shape) < fill
        crossings = []
        for axis in range(3):
            for idx in np.argwhere(np.diff(inside, axis=axis)).tolist():
                theta = float(rng.uniform(0.01, 0.99))
                loc = grid.node(*idx)
                loc[axis] += theta * grid.h
                crossings.append(Crossing(axis, tuple(idx), theta, tuple(loc)))
        data = InterfaceData(grid, inside, crossings)
        atoms = AtomSet([Atom((0.1, 0.2, 0.3), 1.0, 0.5)])
        params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)
        bvals = rng.normal(size=grid.shape)
        split = build_split_operators(data, atoms, params, Field(grid, bvals))
        jumps = compute_jumps(data, atoms, params)
        for axis, op in enumerate(split.ops):
            got = (op.diag, op.weights, op.corr, op.dir_lo, op.dir_hi)
            for g, w in zip(got, _assembled_lines(data, params, jumps, bvals, axis)):
                assert np.array_equal(_bits(g), _bits(w)), axis

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
            direct = _assembled_lines(data, params, jumps, bvals, axis)
            dense = operator_from_lines(axis, op.shape, *direct, edge_coeff=op.edge_coeff)
            assert len(dense._cut_w) == 0 < len(op._cut_w)
            got = (op.diag, op.weights, op.corr, op.dir_lo, op.dir_hi)
            for g, w in zip(got, direct):
                assert np.array_equal(_bits(g), _bits(w))
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
        c_lo, c_hi = data.crossings[(0, 2, 2, 4)], data.crossings[(0, 3, 2, 4)]
        j_lo, j_hi = jumps[(0, 2, 2, 4)], jumps[(0, 3, 2, 4)]
        # Edge 2 -> 3 enters the plane: its high node is inside.
        d1 = eps_in * c_lo.theta + eps_out * (1 - c_lo.theta)
        w1 = eps_out * eps_in / d1 / h**2
        from_lo = -w1 * j_lo.a - (eps_in * c_lo.theta / d1 / h) * -j_lo.b
        # Edge 3 -> 4 leaves it: its low node is inside.
        d2 = eps_out * c_hi.theta + eps_in * (1 - c_hi.theta)
        w2 = eps_in * eps_out / d2 / h**2
        from_hi = -w2 * j_hi.a - (eps_in * (1 - c_hi.theta) / d2 / h) * j_hi.b
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
            InterfaceData.from_arrays(
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
            bad = InterfaceData.from_arrays(
                data.grid, data.inside, data.axis, data.index, theta, data.location
            )
            built.append(
                build_split_operators(
                    bad, atoms, params, Field(bad.grid, np.zeros(bad.grid.shape))
                )
            )
        assert f"outside {fault} range [{THETA_MIN}, {1.0 - THETA_MIN}]" in str(err.value)
        assert built == []
