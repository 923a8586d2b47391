"""Tests for the nonlinear substep, batched sweeps, and the two split schemes."""

import gc
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import re

from gfmpbe import stepping, surface
from gfmpbe.control import ControllerConfig
from gfmpbe.driver import (
    RunConfig,
    build_problem,
    initial_condition,
    kirkwood_config,
    run,
)
from gfmpbe.errors import AssemblyError, ConfigError, NumericalError
from gfmpbe.gfm import ldlt_factor_into
from gfmpbe.grid import Field, build_grid
from gfmpbe.molecule import (
    Atom,
    AtomSet,
    PhysicalParams,
    dirichlet_boundary,
    green_axis_terms,
    green_gradient,
    green_potential,
)
from gfmpbe.stepping import (
    AxisOperator,
    adi_step,
    build_split_operators,
    compute_jumps,
    lod_step,
    nonlinear_substep,
)
from gfmpbe.surface import classify_union, export_interface
from line_arrays import axis_lines, line_solve, neg_matrix, operator_from_lines

# Adaptive RK4 value for dw/dt = -sinh(w), w(0)=1, over t=0.1 (stable to 1e-13
# across step counts 64..65536; agrees with the closed form).
SUBSTEP_ORACLE_POINT = 0.8908737341208091


def _rk4_batch(w0, lam, n):
    """Classic RK4 for dw/ds = -lam*sinh(w) on s in [0,1], vectorized."""
    h = 1.0 / n
    w = w0.copy()
    for _ in range(n):
        k1 = -lam * np.sinh(w)
        k2 = -lam * np.sinh(w + 0.5 * h * k1)
        k3 = -lam * np.sinh(w + 0.5 * h * k2)
        k4 = -lam * np.sinh(w + h * k3)
        w = w + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return w


class TestNonlinearSubstep:
    def test_zero_fixed_point(self):
        out = nonlinear_substep(np.zeros(5), 3.0, 0.2, 1.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_kappa_zero_bit_exact(self):
        w = np.array([0.1, -2.7, 13.0, 1e-9])
        out = nonlinear_substep(w, 0.0, 0.3, 1.0)
        np.testing.assert_array_equal(out, w)

    def test_dt_zero_bit_exact(self):
        w = np.array([0.4, -1.1])
        np.testing.assert_array_equal(nonlinear_substep(w, 2.0, 0.0, 1.0), w)

    def test_oracle_point(self):
        out = nonlinear_substep(np.array([1.0]), 1.0, 0.1, 1.0)
        assert abs(out[0] - SUBSTEP_ORACLE_POINT) < 1e-10

    def test_hundred_random_draws_vs_rk4(self):
        rng = np.random.default_rng(42)
        w0 = rng.uniform(-6.0, 6.0, size=100)
        kappa = rng.uniform(0.0, 10.0, size=100)
        kappa[:10] = 0.0
        dt = rng.uniform(0.0, 0.5, size=100)
        strength = np.where(np.arange(100) % 2 == 0, 1.0, 0.5)
        lam = strength * kappa * dt
        # Step-halving until the batch is converged.
        n = 1024
        ref = _rk4_batch(w0, lam, n)
        while n < 2**17:
            n *= 2
            nxt = _rk4_batch(w0, lam, n)
            if np.abs(nxt - ref).max() < 1e-12:
                ref = nxt
                break
            ref = nxt
        # strength folds into lambda; evaluate the substep per draw
        got = np.array(
            [
                nonlinear_substep(np.array([w0[i]]), kappa[i], dt[i], strength[i])[0]
                for i in range(100)
            ]
        )
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)

    @given(
        w0=st.floats(-30, 30, allow_nan=False),
        lam=st.floats(0, 20, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_contraction_and_sign(self, w0, lam):
        out = nonlinear_substep(np.array([w0]), lam, 1.0, 1.0)[0]
        assert np.isfinite(out)
        assert abs(out) <= abs(w0) + 1e-15
        if w0 != 0 and lam > 0:
            assert np.sign(out) == np.sign(w0) or out == 0.0

    def test_huge_amplitude_no_overflow(self):
        out = nonlinear_substep(np.array([1000.0, -1000.0]), 1.0, 0.1, 1.0)
        assert np.all(np.isfinite(out))
        # Limit of the closed form as |w0| -> inf.
        g = np.exp(-0.1)
        lim = np.log1p(g) - np.log(-np.expm1(-0.1))
        np.testing.assert_allclose(out, [lim, -lim], rtol=1e-12)

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            nonlinear_substep(np.zeros(3), 1.0, -0.1, 1.0)

    def test_non_finite_field_rejected(self):
        with pytest.raises(NumericalError):
            nonlinear_substep(np.array([np.nan]), 1.0, 0.1, 1.0)

    def test_infinite_field_rejected(self):
        with pytest.raises(NumericalError):
            nonlinear_substep(np.array([0.5, -np.inf]), 1.0, 0.1, 1.0)

    def test_matches_closed_form_in_mpmath(self):
        # 2 artanh(tanh(w/2) g), g = exp(-lam), at 50 digits in the form
        # log((1 + x) / (1 - x)) with 1 - x = (1 - g) + 2 g / (e^|w| + 1),
        # which cancels nothing for large |w| or small lam.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        mags = np.geomspace(1e-12, 700.0, 57)
        w = np.concatenate([mags, -mags])
        eps = np.finfo(float).eps
        for lam in np.geomspace(1e-12, 30.0, 37):
            g = mp.exp(-mp.mpf(lam))
            one_minus_g = -mp.expm1(-mp.mpf(lam))
            exact = []
            for wi in mags:
                a = mp.mpf(wi)
                x = mp.tanh(a / 2) * g
                one_minus_x = one_minus_g + 2 * g / (mp.exp(a) + 1)
                exact.append(float(mp.log((1 + x) / one_minus_x)))
            exact = np.concatenate([exact, -np.array(exact)])
            bound = 4 * eps * np.maximum(np.abs(exact), 1.0)
            # kappa^2 as a Python float, a numpy scalar and a 0-d array
            for kind in (float, np.float64, np.asarray):
                got = nonlinear_substep(w, kind(lam), 1.0, 1.0)
                assert np.all(np.abs(got - exact) <= bound), (lam, kind)

    def test_linearized_matches_at_small_amplitude(self):
        # exp decay is the linearization of the tanh form near w=0
        w = np.array([1e-4])
        nl = nonlinear_substep(w, 2.0, 0.05, 0.5)[0]
        lin = w[0] * np.exp(-0.5 * 2.0 * 0.05)
        assert abs(nl - lin) < 1e-9 * abs(w[0])


def _two_sphere_problem(kappa_sq=1.3, eps=(2.0, 80.0), h=0.5, box=None):
    atoms = AtomSet(
        [Atom((0.0, 0.0, 0.0), 1.0, 1.6), Atom((1.4, 0.6, -0.4), -0.5, 1.2)]
    )
    grid = build_grid(atoms, h=h, probe_radius=0.5, box=box)
    data = classify_union(grid, atoms)
    params = PhysicalParams(eps_in=eps[0], eps_out=eps[1], kappa_sq=kappa_sq)
    jumps = compute_jumps(data, atoms, params)
    bvals = np.zeros(grid.shape)
    nodes = grid.nodes()
    for axis in range(3):
        for end in (0, -1):
            sl = [slice(None)] * 3
            sl[axis] = end
            pts = nodes[tuple(sl)].reshape(-1, 3)
            vals = dirichlet_boundary(atoms, pts, params)
            bvals[tuple(sl)] = vals.reshape(bvals[tuple(sl)].shape)
    split = build_split_operators(data, atoms, params, Field(grid, bvals))
    return grid, data, params, jumps, bvals, split


def _line_major(op, v) -> np.ndarray:
    """v's values on op's interior lines, line-major (n, L)."""
    return np.moveaxis(v, op.axis, 0)[:, 1:-1, 1:-1].reshape(op.n, -1)


def _zero_pivot_operator(split, axis):
    """split's operator along axis with weights -2 and 1 on the first two
    edges of line 0, so diag[0, 0] = -1 and 1 + tau * diag = 0 at tau = 1."""
    op = split.ops[axis]
    w = op.weights
    w[:2, 0] = -2.0, 1.0
    return operator_from_lines(
        axis, split.shape, w[:-1] + w[1:], w, op.corr, edge_coeff=op.edge_coeff
    )


class TestBatchedSweeps:
    def test_apply_matches_per_line(self):
        grid, data, params, jumps, bvals, split = _two_sphere_problem()
        rng = np.random.default_rng(3)
        v = rng.normal(size=grid.shape)
        for op in split.ops:
            got = op.apply(v)
            _, weights, corr, _, _ = axis_lines(data, params, jumps, bvals, op.axis)
            flux = weights * np.diff(_line_major(op, v), axis=0)
            # non-interior transverse nodes carry no operator values
            want = np.zeros(grid.shape)
            want[1:-1, 1:-1, 1:-1] = op._to_field(flux[1:] - flux[:-1] + corr)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_solve_matches_per_line(self):
        grid, data, params, jumps, bvals, split = _two_sphere_problem()
        rng = np.random.default_rng(4)
        rhs = rng.normal(size=grid.shape)
        for op in split.ops:
            diag, weights, corr, dir_lo, dir_hi = axis_lines(
                data, params, jumps, bvals, op.axis
            )
            fold = np.zeros(corr.shape)
            fold[0], fold[-1] = dir_lo, dir_hi
            mats = np.array([neg_matrix(d, w) for d, w in zip(diag.T, weights.T)])
            eye = np.eye(len(diag))
            faces = np.ones(grid.shape, dtype=bool)
            faces[1:-1, 1:-1, 1:-1] = False
            inner = _line_major(op, rhs)[1:-1]
            for tau in (0.0, 0.05, 1.7):
                got = op.solve(tau, rhs, split.boundary)
                np.testing.assert_array_equal(got[faces], bvals[faces])
                lines = _line_major(op, got)[1:-1]
                if tau == 0.0:
                    # the identity, up to the sign of zeros
                    np.testing.assert_array_equal(lines, inner)
                # Each line swept on its own, ends first and corrections
                # after, as the batched factor cache does: the same bits.
                for line in range(lines.shape[1]):
                    np.testing.assert_array_equal(
                        lines[:, line],
                        line_solve(
                            weights[:, line], corr[:, line], dir_lo[line],
                            dir_hi[line], tau, inner[:, line],
                        ),
                    )
                b = inner + tau * (corr + fold)
                want = np.linalg.solve(eye + tau * mats, b.T[..., None])[..., 0].T
                # the dense solve of every line's system: 2.4e-17 measured
                np.testing.assert_allclose(lines, want, rtol=0, atol=1e-15 * np.abs(b).max())

    def test_operator_sums(self):
        grid, _, _, _, _, split = _two_sphere_problem()
        v = np.random.default_rng(7).normal(size=grid.shape)
        inner = (slice(1, -1),) * 3
        ox, oy, oz = split.ops
        want = (ox.apply(v) + oy.apply(v) + oz.apply(v))[inner]
        assert np.array_equal(split.delta2_sum(v), want)
        # Without corrections, on a field with zero faces, the sum is the
        # homogeneous operator: delta2_sum(v) less the corrections alone.
        _reset_faces_ref(v, np.zeros(grid.shape))
        corr = split.delta2_sum(np.zeros(grid.shape))
        np.testing.assert_allclose(
            split.delta2_sum(v, corr=False), split.delta2_sum(v) - corr,
            rtol=0, atol=1e-9,
        )
        # A field that is 1 on one of three node colours (i+j+k mod 3) has
        # zeros on every axis neighbour, so -sum_a A_a reads the diagonal.
        i, j, k = np.indices(grid.shape)
        diag = np.zeros(tuple(n - 2 for n in grid.shape))
        for colour in range(3):
            on = ((i + j + k) % 3 == colour)
            on[0] = on[-1] = on[:, 0] = on[:, -1] = on[:, :, 0] = on[:, :, -1] = False
            got = -split.delta2_sum(on.astype(float), corr=False)
            diag[on[inner]] = got[on[inner]]
        assert np.array_equal(split.diag_sum(), diag)

    def test_operator_built_alone_matches_the_shared_one(self):
        # Alone, an operator takes its own weights as the edge field; the
        # shared field and its cut edges give the same apply and sweeps.
        *_, split = _two_sphere_problem()
        rng = np.random.default_rng(8)
        v, rhs = rng.normal(size=(2, *split.shape))
        for op in split.ops:
            alone = operator_from_lines(op.axis, op.shape, op.diag, op.weights, op.corr)
            assert alone.edge_coeff is not op.edge_coeff
            assert len(alone._cut_w) == 0 < len(op._cut_w)
            np.testing.assert_array_equal(_bits(alone.apply(v)), _bits(op.apply(v)))
            for tau in (0.05, 1.7):
                np.testing.assert_array_equal(
                    _bits(alone.solve(tau, rhs, split.boundary)),
                    _bits(op.solve(tau, rhs, split.boundary)),
                )

    def test_factor_cache_reuse_is_exact(self):
        grid, data, params, jumps, bvals, split = _two_sphere_problem()
        rng = np.random.default_rng(5)
        rhs = rng.normal(size=grid.shape)
        op = split.ops[1]
        first = op.solve(0.3, rhs, split.boundary)
        # Cycle more distinct factors than the cache holds, then return.
        for tau in (0.4, 0.5, 0.6, 0.7, 0.8):
            op.solve(tau, rhs, split.boundary)
        again = op.solve(0.3, rhs, split.boundary)
        np.testing.assert_array_equal(first, again)

    def test_refactor_after_eviction_matches_fresh_operator(self):
        *_, split = _two_sphere_problem()
        *_, fresh = _two_sphere_problem()
        rhs = np.random.default_rng(6).normal(size=split.shape)
        for op, new in zip(split.ops, fresh.ops):
            op.solve(0.3, rhs, split.boundary)
            op.solve(0.4, rhs, split.boundary)
            assert op._table._tau == 0.4
            got = op.solve(0.3, rhs, split.boundary)
            np.testing.assert_array_equal(got, new.solve(0.3, rhs, fresh.boundary))


class TestFactorTable:
    """A split's three operators factor a new tau from one table of their
    distinct lines, and expand it to every line's factors."""

    @staticmethod
    def _sweep_all(split, tau, rhs):
        for op in split.ops:
            op.solve(tau, rhs, split.boundary)

    @pytest.mark.parametrize("box", [None, (-1.5,) * 3 + (1.5,) * 3], ids=["box", "tight"])
    def test_factors_equal_per_line_ldlt(self, box):
        grid, data, params, jumps, bvals, split = _two_sphere_problem(box=box)
        rhs = np.random.default_rng(9).normal(size=grid.shape)
        inside_lines = 0
        for tau in (0.05, 1.7):
            self._sweep_all(split, tau, rhs)
            for op in split.ops:
                assert op._table._tau == tau
                cp, inv = op._table._held[op._member]
                diag, w, *_ = axis_lines(data, params, jumps, bvals, op.axis)
                for line in range(diag.shape[1]):
                    at = (slice(None), [line])
                    want = ldlt_factor_into(diag[at], -tau * w[1:-1][at], tau)
                    np.testing.assert_array_equal(_bits(cp[at]), _bits(want[0]))
                    np.testing.assert_array_equal(_bits(inv[at]), _bits(want[1]))
                inside_lines += int(_line_major(op, data.inside).all(axis=0).sum())
        table = split.ops[0]._table
        assert all(op._table is table for op in split.ops)
        assert table._tau == 1.7
        # The table holds each distinct column once: fewer than the lines,
        # and lines share them.
        cols = table._cols
        assert table._d.shape[1] == sum(len(np.unique(c)) for c in cols)
        assert table._d.shape[1] < sum(len(c) for c in cols)
        assert table._d.shape[0] == max(grid.shape) - 2
        if box:
            assert inside_lines > 0  # lines that lie entirely inside
        else:
            assert len(set(grid.shape)) > 1  # axes of unequal length

    def test_operator_built_alone(self):
        # E is the operator's own weights: no cut edges, and lines that are
        # uniform share a column by their value, the rest keep their own.
        grid, _, params, _, _, split = _two_sphere_problem()
        rhs = np.random.default_rng(10).normal(size=grid.shape)
        op = split.ops[2]
        w = op.weights
        w[:, :5] = params.eps_in / grid.h**2
        diag = w[:-1] + w[1:]
        alone = operator_from_lines(op.axis, op.shape, diag, w, op.corr)
        assert len(alone._cut_w) == 0
        tau = 0.3
        alone.solve(tau, rhs, split.boundary)
        ((cp, inv),) = alone._table._held
        for line in range(w.shape[1]):
            at = (slice(None), [line])
            want = ldlt_factor_into(diag[at], -tau * w[1:-1][at], tau)
            np.testing.assert_array_equal(_bits(cp[at]), _bits(want[0]))
            np.testing.assert_array_equal(_bits(inv[at]), _bits(want[1]))
        (cols,) = alone._table._cols
        assert len(np.unique(cols[:5])) == 1
        assert cols[0] not in cols[5:]
        assert alone._table._d.shape[1] == len(np.unique(cols)) < len(cols)

    @pytest.mark.parametrize("step, scale", [(adi_step, 1.0), (lod_step, 0.5)])
    def test_one_factorization_per_tau_per_split(self, monkeypatch, step, scale):
        """The three sweeps of a step share one factorization, and the
        table holds one tau: it factors once per change of tau."""
        *_, bvals, split = _two_sphere_problem()
        taus = []

        def counting(diag, o, tau):
            taus.append(tau)
            return factor(diag, o, tau)

        factor = stepping.ldlt_factor_into
        monkeypatch.setattr(stepping, "ldlt_factor_into", counting)
        u = bvals.copy()
        for dt in (0.05, 0.05, 0.07, 0.05, 0.07):
            u = step(u, dt, split)
        assert taus == [scale * 0.05, scale * 0.07, scale * 0.05, scale * 0.07]

    def test_zero_pivot_in_one_member_raises_from_every_sweep(self):
        *_, bvals, split = _two_sphere_problem()
        ops = (split.ops[0], _zero_pivot_operator(split, 1), split.ops[2])
        stepping._FactorTable.share(ops)
        rhs = np.random.default_rng(11).normal(size=split.shape)
        for o in ops:
            with pytest.raises(NumericalError, match="zero pivot"):
                o.solve(1.0, rhs, split.boundary)
        assert ops[0]._table._tau is None
        ops[0].solve(0.5, rhs, split.boundary)

    def test_failed_factorization_evicts_nothing(self, monkeypatch):
        """A zero pivot leaves the held tau and its arrays as they were."""
        *_, split = _two_sphere_problem()
        ops = (split.ops[0], _zero_pivot_operator(split, 1), split.ops[2])
        stepping._FactorTable.share(ops)
        table = ops[0]._table
        rhs = np.random.default_rng(13).normal(size=split.shape)
        for o in ops:
            o.solve(0.1, rhs, split.boundary)
        held = table._held
        kept = [[_bits(a).copy() for a in f] for f in held]
        with pytest.raises(NumericalError, match="zero pivot"):
            ops[0].solve(1.0, rhs, split.boundary)
        assert table._tau == 0.1
        assert table._held is held
        for f, bits in zip(held, kept):
            for a, b in zip(f, bits):
                np.testing.assert_array_equal(_bits(a), b)
        calls = []
        monkeypatch.setattr(stepping, "ldlt_factor_into", lambda *a: calls.append(a))
        for o in ops:
            o.solve(0.1, rhs, split.boundary)
        assert calls == []

    def test_new_tau_replaces_the_held_factors(self, monkeypatch):
        """Each new tau is factored once for the split and written into the
        arrays of the first factorization; a tau that comes back after
        another is factored again, bit for bit as a fresh split does."""
        *_, split = _two_sphere_problem()
        *_, fresh = _two_sphere_problem()
        calls = Counter()

        def counting(diag, o, tau):
            calls[tau] += 1
            return factor(diag, o, tau)

        rhs = np.random.default_rng(12).normal(size=split.shape)
        wants = [new.solve(0.1, rhs, fresh.boundary) for new in fresh.ops]
        factor = stepping.ldlt_factor_into
        monkeypatch.setattr(stepping, "ldlt_factor_into", counting)
        table = split.ops[0]._table
        self._sweep_all(split, 0.1, rhs)
        arrays = [a for f in table._held for a in f]
        self._sweep_all(split, 0.2, rhs)
        assert table._tau == 0.2
        assert calls == {0.1: 1, 0.2: 1}
        for op, want in zip(split.ops, wants):
            got = op.solve(0.1, rhs, split.boundary)
            np.testing.assert_array_equal(_bits(got), _bits(want))
        assert calls == {0.1: 2, 0.2: 1}
        held = [a for f in table._held for a in f]
        assert all(a is b for a, b in zip(arrays, held))

    def test_deleted_problem_is_freed_without_the_collector(self):
        ctrl = ControllerConfig(kind="Constant", dt0=0.01, t_end=0.03)
        cfg = kirkwood_config(h=1.0, controller=ctrl, ic="zero", box_half=4.0)
        gc.collect()
        gc.disable()
        try:
            problem = build_problem(cfg)
            run(cfg, problem=problem)
            split = problem.split
            assert split.ops[0]._table._tau is not None
            refs = [weakref.ref(o) for o in (problem, split, split.ops[0]._table)]
            refs += [weakref.ref(op) for op in split.ops]
            del problem, split
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


def _axis_dense(grid, data, params, jumps, bvals, axis):
    """Dense negated operator M = -A plus correction and Dirichlet fold.

    Valid for fields whose face values equal bvals, so the fold is constant.
    """
    diag, weights, corr, dir_lo, dir_hi = axis_lines(data, params, jumps, bvals, axis)
    m, lines = diag.shape
    ni = tuple(s - 2 for s in grid.shape)
    # unknown number of each line-major entry, in the C order of the block
    node = np.moveaxis(np.arange(np.prod(ni)).reshape(ni), axis, 0).reshape(m, lines)
    n_unknown = node.size
    mat = np.zeros((n_unknown, n_unknown))
    for k in range(lines):
        mat[np.ix_(node[:, k], node[:, k])] = neg_matrix(diag[:, k], weights[:, k])
    fold = np.zeros(n_unknown)
    fold[node[0]] += dir_lo
    fold[node[-1]] += dir_hi
    flat = np.zeros(n_unknown)
    flat[node.reshape(-1)] = corr.reshape(-1)
    return mat, flat, fold


def _reset_faces_ref(v, bvals):
    for axis in range(3):
        sl0 = [slice(None)] * 3
        sl0[axis] = 0
        v[tuple(sl0)] = bvals[tuple(sl0)]
        sl0[axis] = -1
        v[tuple(sl0)] = bvals[tuple(sl0)]


def _nodal_substep(u, inside, kappa_sq, dt, strength):
    """The substep with kappa^2 = kappa_sq on solvent nodes and zero at the
    nodes flagged inside, which keep u."""
    return np.where(inside, u, nonlinear_substep(u, kappa_sq, dt, strength))


class TestSchemeOracles:
    """Dense factor-by-factor evaluation of both splitting formulas."""

    def _setup(self):
        # 7^3 grid: explicit box so the problem stays tiny
        grid, data, params, jumps, bvals, split = _two_sphere_problem(
            h=1.0, box=(-3.0, -3.0, -3.0, 3.0, 3.0, 3.0)
        )
        assert grid.shape == (7, 7, 7)
        dense = [
            _axis_dense(grid, data, params, jumps, bvals, axis) for axis in range(3)
        ]
        screen = (data.inside, params.kappa_sq)
        rng = np.random.default_rng(11)
        u = rng.normal(scale=0.5, size=grid.shape)
        _reset_faces_ref(u, bvals)
        return grid, bvals, split, dense, screen, u

    @pytest.mark.parametrize("linearized", [False], ids=["nonlinear"])
    def test_adi_vs_dense(self, linearized):
        grid, bvals, split, dense, screen, u = self._setup()
        dt = 0.23
        got = adi_step(u, dt, split)

        v0 = _nodal_substep(u, *screen, dt, 1.0)
        _reset_faces_ref(v0, bvals)
        x = v0[1:-1, 1:-1, 1:-1].ravel()
        (mx, cx, fx), (my, cy, fy), (mz, cz, fz) = dense
        eye = np.eye(x.size)
        dy = -my @ x + cy + fy
        dz = -mz @ x + cz + fz
        v1 = np.linalg.solve(eye + dt * mx, x + dt * (dy + dz) + dt * (cx + fx))
        v2 = np.linalg.solve(eye + dt * my, v1 - dt * dy + dt * (cy + fy))
        v3 = np.linalg.solve(eye + dt * mz, v2 - dt * dz + dt * (cz + fz))

        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1].ravel(), v3, rtol=0, atol=1e-12
        )
        want_faces = bvals.copy()
        want_faces[1:-1, 1:-1, 1:-1] = got[1:-1, 1:-1, 1:-1]
        np.testing.assert_array_equal(got, want_faces)

    @pytest.mark.parametrize("linearized", [False], ids=["nonlinear"])
    def test_lod_vs_dense(self, linearized):
        grid, bvals, split, dense, screen, u = self._setup()
        dt = 0.23
        got = lod_step(u, dt, split)

        w = _nodal_substep(u, *screen, dt, 0.5)
        _reset_faces_ref(w, bvals)
        x = w[1:-1, 1:-1, 1:-1].ravel()
        half = 0.5 * dt
        eye = np.eye(x.size)
        for m, c, f in dense:
            d = -m @ x + c + f
            x = np.linalg.solve(eye + half * m, x + half * d + half * (c + f))
        full = bvals.copy()
        full[1:-1, 1:-1, 1:-1] = x.reshape(grid.shape[0] - 2, -1).reshape(
            tuple(s - 2 for s in grid.shape)
        )
        out = _nodal_substep(full, *screen, dt, 0.5)
        _reset_faces_ref(out, bvals)
        np.testing.assert_allclose(got, out, rtol=0, atol=1e-12)

    def test_zero_everything(self):
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 0.0, 1.6)])
        grid = build_grid(
            atoms, h=1.0, probe_radius=0.0, box=(-3.0,) * 3 + (3.0,) * 3
        )
        data = classify_union(grid, atoms)
        params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)
        split = build_split_operators(
            data, atoms, params, Field(grid, np.zeros(grid.shape))
        )
        u = np.zeros(grid.shape)
        np.testing.assert_array_equal(adi_step(u, 0.4, split), 0.0)
        np.testing.assert_array_equal(lod_step(u, 0.4, split), 0.0)

    def test_nonpositive_dt_rejected(self):
        """NaN and inf are rejected with the nonpositive dts."""
        _, _, split, _, _, u = self._setup()
        for bad in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ConfigError):
                adi_step(u, bad, split)
            with pytest.raises(ConfigError):
                lod_step(u, bad, split)


class TestSteadyStatePreservation:
    """With kappa=0 the schemes act on the discrete steady state alone."""

    def _steady(self, eps):
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1.0, 1.7)])
        grid = build_grid(
            atoms, h=0.5, probe_radius=0.0, box=(-2.0,) * 3 + (2.0,) * 3
        )
        assert grid.shape == (9, 9, 9)
        data = classify_union(grid, atoms)
        params = PhysicalParams(eps_in=eps[0], eps_out=eps[1], kappa_sq=0.0)
        jumps = compute_jumps(data, atoms, params)
        bvals = np.zeros(grid.shape)
        nodes = grid.nodes()
        for axis in range(3):
            for end in (0, -1):
                sl = [slice(None)] * 3
                sl[axis] = end
                pts = nodes[tuple(sl)].reshape(-1, 3)
                vals = dirichlet_boundary(atoms, pts, params)
                bvals[tuple(sl)] = vals.reshape(bvals[tuple(sl)].shape)
        split = build_split_operators(data, atoms, params, Field(grid, bvals))
        mats = [
            _axis_dense(grid, data, params, jumps, bvals, axis) for axis in range(3)
        ]
        m_tot = sum(m for m, _, _ in mats)
        rhs = sum(c + f for _, c, f in mats)
        x = np.linalg.solve(m_tot, rhs)
        u = bvals.copy()
        u[1:-1, 1:-1, 1:-1] = x.reshape(tuple(s - 2 for s in grid.shape))
        corr_scale = max(np.abs(sum(c for _, c, _ in mats)).max(), 1.0)
        return u, split, corr_scale

    def test_adi_preserves_constant_eps(self):
        u, split, _ = self._steady((4.0, 4.0))
        after = adi_step(u.copy(), 0.3, split)
        scale = np.abs(u).max()
        assert np.abs(after - u).max() <= 1e-10 * scale

    def test_adi_preserves_two_material(self):
        u, split, _ = self._steady((2.0, 80.0))
        after = adi_step(u.copy(), 0.3, split)
        scale = np.abs(u).max()
        assert np.abs(after - u).max() <= 1e-9 * scale

    def test_lod_drift_is_first_order_bounded(self):
        u, split, corr_scale = self._steady((2.0, 80.0))
        drifts = {}
        for dt in (0.05, 0.01):
            drifts[dt] = np.abs(lod_step(u.copy(), dt, split) - u).max()
            assert drifts[dt] <= 5.0 * dt * corr_scale
        assert drifts[0.01] < drifts[0.05]


def _first_apply_input(monkeypatch, step, u, dt, split):
    """The field the step hands to its first AxisOperator.apply: the
    post-substep field with its faces reset."""
    seen = []
    original = AxisOperator.apply

    def recording(op, v, **kwargs):
        seen.append(v.copy())
        return original(op, v, **kwargs)

    monkeypatch.setattr(AxisOperator, "apply", recording)
    step(u, dt, split)
    return seen[0]


class TestStepSubstep:
    """The substep inside a step, on a two-material grid with kappa > 0."""

    @pytest.mark.parametrize("linearized", [False])
    @pytest.mark.parametrize("step, strength", [(adi_step, 1.0), (lod_step, 0.5)])
    def test_inside_untouched_solvent_matches_nodal_substep(
        self, monkeypatch, step, strength, linearized
    ):
        grid, data, params, _, bvals, split = _two_sphere_problem()
        rng = np.random.default_rng(17)
        u = rng.normal(scale=2.0, size=grid.shape)
        _reset_faces_ref(u, bvals)
        dt = 0.07
        v0 = _first_apply_input(monkeypatch, step, u, dt, split)

        want = _nodal_substep(u, data.inside, params.kappa_sq, dt, strength)
        interior = np.zeros(grid.shape, dtype=bool)
        interior[1:-1, 1:-1, 1:-1] = True
        inside = data.inside & interior
        solvent = ~data.inside & interior
        assert inside.sum() > 0 and solvent.sum() > 0
        np.testing.assert_array_equal(v0[inside], u[inside])
        np.testing.assert_array_equal(v0[solvent], want[solvent])
        assert not np.array_equal(v0[solvent], u[solvent])
        np.testing.assert_array_equal(v0[~interior], bvals[~interior])


class TestLayerCalls:
    """Each step reaches the substep, apply and sweep layers a fixed number
    of times, with the sweep's boundary passed as its fourth positional
    argument and out as its only keyword; per-layer timings from outside
    rely on both."""

    @pytest.mark.parametrize(
        "step, linearized, expected",
        [
            pytest.param(adi_step, False, (1, 2, 3), id="adi_step-False-expected0"),
            pytest.param(lod_step, False, (2, 3, 3), id="lod_step-False-expected2"),
        ],
    )
    def test_counts(self, monkeypatch, step, linearized, expected):
        _, _, _, _, _, split = _two_sphere_problem()
        calls = Counter()

        def counting(name, fn, check=None):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if check is not None:
                    check(args, kwargs)
                return fn(*args, **kwargs)

            return wrapper

        def boundary_positional(args, kwargs):
            assert len(args) == 4 and set(kwargs) <= {"out"}
            assert args[3] is split.boundary

        monkeypatch.setattr(
            stepping, "nonlinear_substep", counting("substep", stepping.nonlinear_substep)
        )
        monkeypatch.setattr(AxisOperator, "apply", counting("apply", AxisOperator.apply))
        monkeypatch.setattr(
            AxisOperator,
            "solve",
            counting("solve", AxisOperator.solve, boundary_positional),
        )
        step(split.boundary.copy(), 0.05, split)
        assert (calls["substep"], calls["apply"], calls["solve"]) == expected


class TestBuildPath:
    """The build runs on the crossing arrays, also from an imported
    interface; the package has no per-crossing record type."""

    @pytest.mark.parametrize("surface_kind", ["ses-grid", "sphere", "import:"])
    def test_no_per_line_or_per_crossing_objects(self, tmp_path, surface_kind):
        assert not hasattr(surface, "Crossing") and not hasattr(surface, "RowMap")
        box = (-4.0,) * 3 + (4.0,) * 3
        if surface_kind == "sphere":
            cfg = kirkwood_config(h=0.5, box_half=4.0)
        else:
            atoms = AtomSet(
                [Atom((-0.8, 0.0, 0.2), 0.5, 1.6), Atom((1.1, 0.4, -0.3), -0.5, 1.3)]
            )
            cfg = RunConfig(atoms=atoms, h=0.5, surface="ses-grid", box=box)
        if surface_kind == "import:":
            path = tmp_path / "ses.srf"
            export_interface(build_problem(cfg).data, path)
            cfg = RunConfig(atoms=cfg.atoms, h=0.5, surface=f"import:{path}", box=box)
        problem = build_problem(cfg)
        data = problem.data
        assert data.grid.shape == (17, 17, 17)
        n_mixed = sum(
            int(np.count_nonzero(np.diff(data.inside, axis=a))) for a in range(3)
        )
        assert n_mixed > 0
        assert len(data.crossings) == n_mixed == len(data.theta)
        # The keys are one read-only integer array; axis and index are its
        # columns.
        keys = data.crossings
        assert keys.shape == (n_mixed, 4) and keys.dtype.kind == "i"
        assert not keys.flags.writeable
        assert np.array_equal(keys, np.column_stack((data.axis, data.index)))
        assert [op.diag.shape for op in problem.split.ops] == [(15, 225)] * 3


class TestJumpArrays:
    def test_keys_and_values(self):
        # Two arrays in the interface's canonical crossing order: row r holds
        # the jumps at the crossing with key data.key(r).
        _, data, params, (a, b), _, _ = _two_sphere_problem()
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 1.6), Atom((1.4, 0.6, -0.4), -0.5, 1.2)]
        )
        assert a.shape == b.shape == data.theta.shape
        row = len(data.theta) // 2
        axis, *index = data.key(row)
        at = data.location[[data.row((axis, *index))]]
        assert a[row] == green_potential(atoms, at, params)[0]
        assert b[row] == params.eps_in * green_gradient(atoms, at, params)[0, axis]

    @pytest.mark.parametrize("n_atoms", [1, 40])
    def test_axis_terms_equal_the_green_functions_bit_for_bit(self, n_atoms):
        # From 8 atoms on, numpy's pairwise sum would reorder the gradient's
        # sum; at one atom, a point level with it along its axis has a
        # signed-zero term.
        rng = np.random.default_rng(14)
        atoms = AtomSet(
            [
                Atom(tuple(c), float(q), 1.5)
                for c, q in zip(rng.uniform(-6, 6, (n_atoms, 3)), rng.normal(size=n_atoms))
            ]
        )
        params = PhysicalParams(eps_in=2.0, eps_out=80.0)
        pts = rng.uniform(-8, 8, (400, 3))
        axes = rng.integers(0, 3, len(pts))
        level = np.arange(50)
        pts[level, axes[level]] = atoms.centers[0, axes[level]]
        pot, grad = green_axis_terms(atoms, pts, axes, params)
        want = green_gradient(atoms, pts, params)[np.arange(len(pts)), axes]
        np.testing.assert_array_equal(_bits(pot), _bits(green_potential(atoms, pts, params)))
        np.testing.assert_array_equal(_bits(grad), _bits(want))

    def test_jumps_on_the_sphere_keep_signed_zeros(self):
        # Crossings level with the centre along their axis have b = 0.0,
        # as green_gradient's sum from 0.0 gives, not -0.0.
        problem = build_problem(kirkwood_config(h=0.25, ic="zero"))
        data, atoms, params = problem.data, problem.atoms, problem.params
        _, got = compute_jumps(data, atoms, params)
        grad = green_gradient(atoms, data.location, params)
        b = params.eps_in * grad[np.arange(len(grad)), data.axis]
        assert np.any(b == 0.0)
        np.testing.assert_array_equal(_bits(got), _bits(b))

    def test_non_finite_jump_names_the_crossing(self):
        grid, data, _, _, bvals, _ = _two_sphere_problem()
        # A finite charge whose Coulomb potential overflows at every cut.
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1e307, 1.6)])
        params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)
        key = re.escape(str(data.key(0)))
        with np.errstate(over="ignore"):
            with pytest.raises(AssemblyError, match=f"non-finite jump data on crossing {key}"):
                compute_jumps(data, atoms, params)
            with pytest.raises(AssemblyError, match=f"on crossing {key}"):
                build_split_operators(data, atoms, params, Field(grid, bvals))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestScalarKappaSubstep:
    """kappa^2 is one scalar, as SplitOperators holds it; the substep's
    values are checked against the closed form in TestNonlinearSubstep."""

    @staticmethod
    def _field():
        rng = np.random.default_rng(29)
        w = rng.normal(scale=3.0, size=(6, 7, 8))
        w.flat[:9] = [700.0, -700.0, 699.5, -712.3, 0.0, -0.0, 1e-300, -5e-324, 40.0]
        w.flat[9:20] = rng.uniform(-710.0, 710.0, 11)
        return w

    @pytest.mark.parametrize("kappa_sq, dt", [(0.0, 0.1), (1.0, 0.0)])
    def test_zero_rate_returns_an_equal_copy(self, kappa_sq, dt):
        w = self._field()
        out = nonlinear_substep(w, kappa_sq, dt, 1.0)
        assert not np.shares_memory(out, w)
        np.testing.assert_array_equal(_bits(out), _bits(w))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kappa_sq", [0.0, 1.0])
    def test_non_finite_field_rejected(self, bad, kappa_sq):
        w = self._field()
        w[3, 2, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            nonlinear_substep(w, kappa_sq, 0.1, 1.0)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            nonlinear_substep(np.zeros(3), -1.0, 0.1, 1.0)

    def test_array_kappa_rejected(self):
        with pytest.raises(ConfigError, match=r"scalar, got shape \(3,\)"):
            nonlinear_substep(np.zeros(3), np.ones(3), 0.1, 1.0)


class TestResetFaces:
    """The face reset equals six slice assignments, one a face."""

    @pytest.mark.parametrize("shape", [(4, 5, 7), (9, 4, 6)])
    @pytest.mark.parametrize("boundary", ["field", 0.0, -2.5])
    def test_matches_six_slice_assignments(self, shape, boundary):
        rng = np.random.default_rng(41)
        b = rng.normal(size=shape) if boundary == "field" else boundary
        v = rng.normal(size=shape)
        want = v.copy()
        for axis in range(3):
            for end in (0, -1):
                face = [slice(None)] * 3
                face[axis] = end
                face = tuple(face)
                want[face] = b[face] if np.ndim(b) else b
        stepping._reset_faces(v, b)
        np.testing.assert_array_equal(_bits(v), _bits(want))


class TestOutKeyword:
    """apply and solve into a given array equal the allocating calls bit for
    bit, with and without the workspace lent to the operators."""

    @pytest.mark.parametrize("lent", [False, True], ids=["own", "lent"])
    def test_apply_into_out(self, lent):
        *_, split = _two_sphere_problem()
        if lent:
            split._workspace(1)
        v = np.random.default_rng(51).normal(size=split.shape)
        for op in split.ops:
            want = op.apply(v)
            buf = np.full(split.shape, np.nan)
            got = op.apply(v, out=buf)
            assert got is buf
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("lent", [False, True], ids=["own", "lent"])
    @pytest.mark.parametrize("tau", [0.0, 0.05, 1.7])
    def test_solve_into_out_and_into_rhs(self, lent, tau):
        *_, split = _two_sphere_problem()
        if lent:
            split._workspace(1)
        rhs = np.random.default_rng(52).normal(size=split.shape)
        for op in split.ops:
            want = op.solve(tau, rhs, split.boundary)
            buf = np.full(split.shape, np.nan)
            got = op.solve(tau, rhs, split.boundary, out=buf)
            assert got is buf
            np.testing.assert_array_equal(_bits(got), _bits(want))
            inplace = rhs.copy()
            got = op.solve(tau, inplace, split.boundary, out=inplace)
            assert got is inplace
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_apply_rejects_an_out_it_cannot_fill(self):
        *_, split = _two_sphere_problem()
        v = np.zeros(split.shape)
        for bad in (np.zeros(split.shape[::-1]), np.zeros(split.shape, order="F")):
            with pytest.raises(ConfigError, match="C-contiguous"):
                split.ops[0].apply(v, out=bad)


class TestStepWorkspace:
    """The steps take their scratch from the split's workspace; their inputs
    and earlier results are never written."""

    @staticmethod
    def _start(bvals, seed):
        u = np.random.default_rng(seed).normal(scale=0.5, size=bvals.shape)
        _reset_faces_ref(u, bvals)
        return u

    @pytest.mark.parametrize("step", [adi_step, lod_step])
    def test_input_and_earlier_results_untouched(self, step):
        *_, bvals, split = _two_sphere_problem()
        u = self._start(bvals, 61)
        u0 = u.copy()
        first = step(u, 0.05, split)
        np.testing.assert_array_equal(_bits(u), _bits(u0))
        kept = first.copy()
        second = step(first, 0.05, split)
        again = step(u, 0.05, split)
        np.testing.assert_array_equal(_bits(first), _bits(kept))
        np.testing.assert_array_equal(_bits(again), _bits(kept))
        results = (first, second, again)
        for i, a in enumerate(results):
            assert not any(np.shares_memory(a, b) for b in results[i + 1 :])
            assert not any(np.shares_memory(a, w) for w in split._workspace(2))
            assert not any(np.shares_memory(a, op._work) for op in split.ops)

    @pytest.mark.parametrize("step", [adi_step, lod_step])
    def test_two_problems_stepped_alternately(self, step):
        def march(split, u, n=3):
            for _ in range(n):
                u = step(u, 0.05, split)
            return u

        *_, b1, s1 = _two_sphere_problem()
        *_, b2, s2 = _two_sphere_problem(kappa_sq=0.4, h=0.45)
        u1, u2 = self._start(b1, 62), self._start(b2, 63)
        alone1, alone2 = march(s1, u1), march(s2, u2)
        *_, t1 = _two_sphere_problem()
        *_, t2 = _two_sphere_problem(kappa_sq=0.4, h=0.45)
        for _ in range(3):
            u1 = step(u1, 0.05, t1)
            u2 = step(u2, 0.05, t2)
        np.testing.assert_array_equal(_bits(u1), _bits(alone1))
        np.testing.assert_array_equal(_bits(u2), _bits(alone2))

    def test_run_releases_the_workspace(self):
        ctrl = ControllerConfig(kind="Constant", dt0=0.01, t_end=0.05)
        cfg = kirkwood_config(h=1.0, controller=ctrl, ic="zero", box_half=4.0)
        problem = build_problem(cfg)
        run(cfg, problem=problem)
        assert problem.split._pool == []
        assert all(op._work is None for op in problem.split.ops)

    def test_zero_pivot_raises_from_a_pooled_sweep(self):
        *_, bvals, split = _two_sphere_problem()
        op = _zero_pivot_operator(split, 0)
        split.ops = (op, *split.ops[1:])
        with pytest.raises(NumericalError, match="zero pivot"):
            adi_step(self._start(bvals, 64), 1.0, split)
        assert op._table._tau != 1.0
        rhs = self._start(bvals, 65)
        with pytest.raises(NumericalError, match="zero pivot"):
            op.solve(1.0, rhs, split.boundary, out=rhs)


class TestStepMemory:
    """Field-sized arrays a step holds, from tracemalloc on a 33^3 Kirkwood
    problem: the peak over three steps minus the bytes live before them (the
    built problem and the start field) and the factor cache's bytes, in
    field sizes.  An ADI step makes one new field and LOD two; each holds
    its workspace (two arrays for ADI, one for LOD) and the operators' lent
    scratch; a factorization adds the split's factor table and its scratch,
    sized by the distinct lines."""

    @pytest.mark.parametrize("step, bound", [(adi_step, 6.0), (lod_step, 4.5)])
    def test_peak_over_three_steps(self, step, bound):
        problem = build_problem(kirkwood_config(h=0.5, ic="zero"))
        assert problem.grid.shape == (33, 33, 33)
        tracemalloc.start()
        try:
            u = problem.boundary.values.copy()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                u = step(u, 0.01, problem.split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = problem.split.ops[0]._table._held
        cache = sum(a.nbytes for f in held for a in f)
        assert (peak - before - cache) / u.nbytes <= bound

    def test_built_operators_hold_no_off_diagonal(self):
        """The built split holds one float field of its own, the three
        operators' shared edge coefficients; it shares the boundary field
        with the problem, and the rest is sized by the crossings, the
        solute nodes and the lines' end weights."""
        problem = build_problem(kirkwood_config(h=0.5, ic="zero"))
        tracemalloc.start()
        try:
            split = build_split_operators(
                problem.data, problem.atoms, problem.params, problem.boundary
            )
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(split.boundary, problem.boundary.values)
        held = split.inside.nbytes
        held += sum(op._end_w.nbytes for op in split.ops)
        field = problem.boundary.values.nbytes
        # cut edges and corrections: a few indices and values each
        per_crossing = 48 * 8
        crossings = len(problem.data.theta)
        assert live - held <= field + per_crossing * crossings

    def test_lpb_start_peak_within_three_adi_steps(self):
        """The LPB start's peak above the built problem is no higher than
        that of three ADI steps from its result, factor cache included."""
        problem = build_problem(kirkwood_config(h=0.5))
        tracemalloc.start()
        try:
            u = initial_condition("lpb", problem).values
            lpb = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for _ in range(3):
                u = adi_step(u, 0.01, problem.split)
            adi = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lpb <= adi


class TestFactorCachePolicy:
    """The split's factor table holds the factors of one tau, and each new
    tau's factors are written into the arrays of the first factorization.
    TestStepMemory subtracts the held bytes, so it cannot see how many taus
    the table holds; these tests can."""

    DTS = (0.01, 0.02, 0.015, 0.03, 0.025, 0.04, 0.035, 0.05)

    @pytest.mark.parametrize("step", [adi_step, lod_step])
    def test_bounded_and_refilled_in_place(self, step):
        """On 33^3 Kirkwood, eight distinct dts.  The peak above the built
        problem and the start field, factors included, is 9.7 field sizes
        for ADI and 9.3 for LOD; one tau's factors are ~4.9 field sizes, so
        the bound of 12 fails a table that keeps a second tau (a two-tau
        cache measured 14.6 and 14.1)."""
        problem = build_problem(kirkwood_config(h=0.5, ic="zero"))
        assert problem.grid.shape == (33, 33, 33)
        table = problem.split.ops[0]._table
        tracemalloc.start()
        try:
            u = problem.boundary.values.copy()
            before = tracemalloc.get_traced_memory()[0]
            arrays = None
            for dt in self.DTS:
                u = step(u, dt, problem.split)
                held = [a for f in table._held for a in f]
                arrays = arrays or held
                assert all(a is b for a, b in zip(arrays, held))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table._tau == self.DTS[-1] * (1.0 if step is adi_step else 0.5)
        assert (peak - before) / u.nbytes <= 12.0

    def test_adaptive_march_factors_once_per_change_of_tau(self, monkeypatch):
        """The desk solute at h = 0.5 under LOD and PID1 takes 18 distinct
        taus in 53 steps, and its dt bounces off dt_max: a tau comes back
        after one other.  The table factors at the first step and at each
        step whose tau differs from the step before, 34 times."""
        calls = []

        def counting(diag, o, tau):
            calls.append(tau)
            return factor(diag, o, tau)

        factor = stepping.ldlt_factor_into
        monkeypatch.setattr(stepping, "ldlt_factor_into", counting)
        atoms = AtomSet(
            [
                Atom((0.0, 0.0, 0.0), 1.0, 2.0),
                Atom((2.8, 0.0, 0.0), -0.7, 1.7),
                Atom((0.0, 2.9, 0.4), 0.5, 1.8),
                Atom((-2.7, 0.3, -0.6), -0.8, 1.6),
            ]
        )
        cfg = RunConfig(
            atoms=atoms,
            h=0.5,
            scheme="LOD",
            controller=ControllerConfig.for_kind("PID1"),
            params=PhysicalParams(eps_in=1.0, eps_out=80.0, ionic_strength=0.15),
        )
        taus = list(0.5 * run(cfg).dts)
        changes = [t for k, t in enumerate(taus) if k == 0 or t != taus[k - 1]]
        assert calls == changes
        assert len(set(taus)) < len(changes)


class TestSetupMemory:
    """Transient arrays of the assembly, from tracemalloc on a 33^3 Kirkwood
    problem, in field sizes."""

    def test_build_peak_above_what_it_holds(self):
        """build_split_operators' peak less the bytes live after it.  The
        operators are assembled from the crossings; the transients are the
        node flags' side changes, one byte a node and axis at a time, and
        arrays sized by the crossings: 0.22 fields measured.  One dense
        line-major float array of an axis, (n-1) x L, is 0.86 fields, so
        the bound of 0.5 fields (2.3 times the measurement) catches any."""
        problem = build_problem(kirkwood_config(h=0.5, ic="zero"))
        tracemalloc.start()
        try:
            split = build_split_operators(
                problem.data, problem.atoms, problem.params, problem.boundary
            )
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert split.ops[0].edge_coeff.nbytes <= live
        assert (peak - live) / problem.boundary.values.nbytes <= 0.5
