"""Tests for problem assembly, the run loop, schedules, studies, and exports."""

import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import spsolve

from gfmpbe import driver, steady, stepping
from gfmpbe.control import POST_MIN_STEPS, ControllerConfig
from gfmpbe.driver import (
    RunConfig,
    build_problem,
    convergence_study,
    export_potential,
    initial_condition,
    kirkwood_config,
    reference_config,
    run,
    run_schedule,
    scaling_study,
)
from gfmpbe.errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    InitializationError,
    NumericalError,
)
from gfmpbe.grid import (
    Field,
    Grid,
    read_field_binary,
    trilinear_stencil,
    write_field_binary,
)
from gfmpbe.molecule import (
    Atom,
    AtomSet,
    CHARGE_FACTOR,
    SINGULARITY_GUARD,
    PhysicalParams,
    solvation_energy,
)
from gfmpbe.steady import CG_RTOL, linearized_steady_state
from gfmpbe.surface import InterfaceData, export_interface


def _coarse_kirkwood(**ctrl_overrides):
    defaults = dict(kind="Constant", dt0=0.1, tol=1e-4, t_end=1.0, t_min_stop=5.0)
    defaults.update(ctrl_overrides)
    return kirkwood_config(
        h=0.5, controller=ControllerConfig(**defaults), ic="zero", box_half=4.0
    )


class TestRunLoop:
    def test_zero_horizon_zero_steps(self):
        cfg = _coarse_kirkwood(t_end=0.0)
        prob = build_problem(cfg)
        ic = initial_condition("zero", prob)
        e_ic = solvation_energy(ic, prob.atoms)
        trace = run(cfg, problem=prob)
        assert trace.steps == 0
        assert len(trace.rows) == 1
        assert trace.rows[0].step == 0
        assert trace.final_energy == e_ic

    def test_zero_horizon_stop_reason(self):
        trace = run(_coarse_kirkwood(t_end=0.0))
        assert (trace.steps, trace.stop_reason) == (0, "horizon")

    @pytest.mark.parametrize(
        "overrides, reason, steps",
        [
            (dict(t_end=0.5), "horizon", 5),
            (dict(t_end=50.0, t_min_stop=0.2, tol=1e-2), "tolerance", None),
            (
                dict(kind="FastPID", dt_min=0.1, dt_max=0.1, t_min_stop=0.0,
                     tol=1e-12, t_end=50.0),
                "post_min_steps",
                POST_MIN_STEPS,
            ),
        ],
        ids=["horizon", "tolerance", "post_min_steps"],
    )
    def test_stop_reason(self, overrides, reason, steps):
        cfg = _coarse_kirkwood(**overrides)
        trace = run(cfg)
        assert trace.stop_reason == reason
        if steps is not None:
            assert trace.steps == steps
        if reason == "tolerance":
            assert trace.rows[-1].de < cfg.controller.tol
            assert all(r.de >= cfg.controller.tol for r in trace.rows[1:-1])

    def test_nonincreasing_stops_on_tolerance_only_after_min_dt(self):
        cfg = _coarse_kirkwood(
            kind="NonincreasingPID", dt0=0.4, dt_min=0.05, dt_max=0.4, tol=10.0,
            t_min_stop=0.0, t_end=50.0,
        )
        trace = run(cfg)
        assert trace.stop_reason == "tolerance"
        dt_min = cfg.controller.dt_min
        # earlier steps met the tolerance, yet the run went on until a step
        # was taken at dt_min
        assert sum(r.de < 10.0 for r in trace.rows[1:-1]) > 10
        assert trace.rows[-1].dt <= dt_min * (1 + 1e-12)
        assert all(r.dt > dt_min * (1 + 1e-12) for r in trace.rows[1:-1])

    def test_first_row_holds_ic_energy(self):
        cfg = _coarse_kirkwood(t_end=0.3)
        trace = run(cfg)
        r0 = trace.rows[0]
        assert (r0.step, r0.t) == (0, 0.0)
        assert r0.dt == 0.1
        assert math.isnan(r0.err) and math.isnan(r0.factor) and math.isnan(r0.de)
        assert trace.rows[1].step == 1

    def test_deterministic_traces(self):
        cfg = _coarse_kirkwood(t_end=0.5)
        a = run(cfg)
        b = run(cfg)
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.step == rb.step
            np.testing.assert_equal(
                [ra.t, ra.dt, ra.energy, ra.de], [rb.t, rb.dt, rb.energy, rb.de]
            )
        assert a.final_energy == b.final_energy

    def test_time_strictly_increasing(self):
        cfg = _coarse_kirkwood(t_end=1.0)
        trace = run(cfg)
        ts = [r.t for r in trace.rows]
        assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))

    def test_runaway_energy_is_typed_divergence(self):
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1e6, 2.0)])
        cfg = _coarse_kirkwood(t_end=2.0)
        cfg = RunConfig(
            atoms=atoms,
            h=cfg.h,
            surface="sphere",
            controller=cfg.controller,
            ic="zero",
            params=cfg.params,
            box=cfg.box,
        )
        with pytest.raises(DivergenceError) as exc_info:
            run(cfg)
        assert exc_info.value.step >= 1
        assert not isinstance(exc_info.value, InitializationError)
        assert "t=" in str(exc_info.value) and "dt=0.1" in str(exc_info.value)
        assert exc_info.value.dt == 0.1
        assert exc_info.value.t == pytest.approx(0.1 * exc_info.value.step)
        assert exc_info.value.max_abs_u > 1.0
        assert str(exc_info.value).endswith(f", max|u|={exc_info.value.max_abs_u:g})")

    def test_schedule_runaway_energy_is_typed_divergence(self):
        base = _coarse_kirkwood(t_end=2.0)
        cfg = RunConfig(
            atoms=AtomSet([Atom((0.0, 0.0, 0.0), 1e6, 2.0)]),
            h=base.h,
            surface="sphere",
            controller=base.controller,
            ic="zero",
            params=base.params,
            box=base.box,
        )
        with pytest.raises(DivergenceError) as exc_info:
            run_schedule(cfg, [(0.0, 0.05), (0.5, 0.1)])
        exc = exc_info.value
        assert not isinstance(exc, InitializationError)
        assert exc.step >= 1
        assert "dt=" in str(exc)
        assert f"(step {exc.step}, t=" in str(exc)

    def test_lpb_presolve_divergence_is_initialization_error(self):
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1e6, 2.0)])
        base = _coarse_kirkwood(t_end=2.0)
        cfg = RunConfig(
            atoms=atoms,
            h=base.h,
            surface="sphere",
            controller=base.controller,
            ic="lpb",
            params=base.params,
            box=base.box,
        )
        with pytest.raises(InitializationError):
            run(cfg)

    def test_trace_and_field_outputs(self, tmp_path, monkeypatch):
        # run writes no file; the caller writes the trace and the field
        monkeypatch.chdir(tmp_path)
        cfg = _coarse_kirkwood(t_end=0.3)
        trace = run(cfg)
        assert list(tmp_path.iterdir()) == []
        trace.write_csv(tmp_path / "trace.csv")
        export_potential(trace.final_field, cfg.atoms, cfg.params, "u",
                         tmp_path / "field.bin")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,t,dt,e_n,F,E_sol,dE"
        assert len(lines) == len(trace.rows) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "nan"
        assert float(lines[2].split(",")[6]) == trace.rows[1].de
        dumped = read_field_binary(tmp_path / "field.bin")
        np.testing.assert_array_equal(dumped.values, trace.final_field.values)


class TestDivergenceErrorPickling:
    @pytest.mark.parametrize(
        "exc",
        [DivergenceError("x", 3, 0.3, 0.1, 2.0), InitializationError("y", 7)],
        ids=["divergence", "initialization"],
    )
    def test_round_trip_keeps_message_and_context(self, exc):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert (back.step, back.t, back.dt, back.max_abs_u) == (
            exc.step,
            exc.t,
            exc.dt,
            exc.max_abs_u,
        )


class TestNonFiniteField:
    """A non-finite value that a step writes away from the atom, where the
    energy cannot see it, stops the march with a DivergenceError naming that
    step; the field is scanned once a step, by the next step's substep or
    after the last step."""

    @pytest.mark.parametrize("scheme", ["ADI", "LOD"])
    @pytest.mark.parametrize("bad_step", [3, 10])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_injected_value_is_typed_divergence(self, monkeypatch, scheme, bad_step, value):
        cfg = _coarse_kirkwood(t_end=1.0)
        cfg.scheme = scheme
        original = driver._step_once
        steps = []

        def poisoned(u, dt, split, scheme):
            steps.append(dt)
            out = original(u, dt, split, scheme)
            if len(steps) == bad_step:
                out[1, 1, 1] = value
            return out

        monkeypatch.setattr(driver, "_step_once", poisoned)
        with pytest.raises(DivergenceError, match="non-finite field value") as exc_info:
            run(cfg)
        exc = exc_info.value
        assert not isinstance(exc, InitializationError)
        assert (exc.step, exc.dt) == (bad_step, 0.1)
        assert exc.t == pytest.approx(0.1 * bad_step)
        # the next step's substep finds it; step 10 is the horizon's last
        assert len(steps) == min(bad_step + 1, 10)
        # an inf is the largest |u|; a NaN is left out of it
        if np.isinf(value):
            assert exc.max_abs_u == np.inf
        else:
            assert 0 < exc.max_abs_u < np.inf
        assert str(exc).endswith(f"dt=0.1, max|u|={exc.max_abs_u:g})")

    def test_nan_from_an_lod_sweep_names_the_step_that_made_it(self, monkeypatch):
        # LOD's trailing half substep scans the sweeps' output, not the
        # step's input, so the step that fails is the one being taken.
        cfg = _coarse_kirkwood(t_end=1.0)
        cfg.scheme = "LOD"
        original = stepping.AxisOperator.solve
        sweeps = []

        def poisoned(self, tau, rhs, boundary, *, out=None):
            sweeps.append(tau)
            x = original(self, tau, rhs, boundary, out=out)
            if len(sweeps) == 3 * 4:  # the last sweep of step 4
                x[1, 1, 1] = np.nan
            return x

        monkeypatch.setattr(stepping.AxisOperator, "solve", poisoned)
        with pytest.raises(DivergenceError) as exc_info:
            run(cfg)
        exc = exc_info.value
        assert isinstance(exc.__cause__, NumericalError)
        assert (exc.step, exc.dt, exc.max_abs_u) == (4, 0.1, None)
        assert exc.t == pytest.approx(0.4)
        assert len(sweeps) == 12
        assert str(exc) == (
            "step failed: non-finite field entering nonlinear substep"
            f" (step 4, t={exc.t:g}, dt=0.1)"
        )

    def test_max_abs_u_leaves_out_nan(self, monkeypatch):
        cfg = _coarse_kirkwood(t_end=1.0)
        original = driver._step_once

        def poisoned(u, dt, split, scheme):
            out = original(u, dt, split, scheme)
            out[1, 1, 1] = np.nan
            out[1, 1, 2] = -1e200
            return out

        monkeypatch.setattr(driver, "_step_once", poisoned)
        with pytest.raises(DivergenceError) as exc_info:
            run(cfg)
        exc = exc_info.value
        assert str(exc).startswith("non-finite field value (step 1, t=0.1, dt=0.1, ")
        assert exc.max_abs_u == 1e200
        assert str(exc).endswith(", max|u|=1e+200)")


class TestInitialCondition:
    def test_zero_kind_is_boundary_only(self):
        cfg = _coarse_kirkwood()
        prob = build_problem(cfg)
        u = initial_condition("zero", prob)
        np.testing.assert_array_equal(u.values, prob.boundary.values)
        assert np.all(u.values[1:-1, 1:-1, 1:-1] == 0.0)

    @pytest.mark.parametrize("kind", ["zero", "lpb"])
    def test_boundary_is_one_read_only_array(self, kind):
        prob = build_problem(_coarse_kirkwood())
        held = (prob.boundary.values, prob.split.boundary)
        assert np.shares_memory(*held)
        assert not any(a.flags.writeable for a in held)
        with pytest.raises(ValueError, match="read-only"):
            prob.boundary.values[0, 0, 0] = 1.0
        u = initial_condition(kind, prob).values
        assert u.flags.writeable and not np.shares_memory(u, prob.boundary.values)
        # the LPB start lends its matrix-vector products the step workspace
        # and gives it back
        assert prob.split._pool == []

    def test_unknown_kind_rejected(self):
        cfg = _coarse_kirkwood()
        prob = build_problem(cfg)
        with pytest.raises(ConfigError):
            initial_condition("warm", prob)

    def test_lpb_equals_steady_state_when_kappa_zero(self):
        ctrl = ControllerConfig(
            kind="Constant", dt0=0.05, tol=1e-7, t_end=100.0, t_min_stop=1.0
        )
        cfg = kirkwood_config(h=0.5, controller=ctrl, ic="lpb", box_half=4.0)
        cfg.params = PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=0.0)
        prob = build_problem(cfg)
        u_ic = initial_condition("lpb", prob)
        e_ic = solvation_energy(u_ic, prob.atoms)
        final = run(cfg, problem=prob).final_energy
        assert abs(e_ic - final) < 0.1

    def test_lpb_close_to_nonlinear_energy(self):
        ctrl = ControllerConfig(
            kind="Constant", dt0=0.05, tol=1e-7, t_end=100.0, t_min_stop=1.0
        )
        cfg = kirkwood_config(h=0.5, controller=ctrl, ic="lpb", box_half=4.0)
        prob = build_problem(cfg)
        u_ic = initial_condition("lpb", prob)
        e_ic = solvation_energy(u_ic, prob.atoms)
        final = run(cfg, problem=prob).final_energy
        assert abs(e_ic - final) < 0.1

    def test_zero_and_lpb_runs_share_the_steady_state(self):
        deep = ControllerConfig(
            kind="Constant", dt0=0.05, tol=1e-9, t_end=200.0, t_min_stop=1.0
        )
        prob = build_problem(kirkwood_config(h=0.5, controller=deep, box_half=4.0))
        e_zero = run(
            kirkwood_config(h=0.5, controller=deep, ic="zero", box_half=4.0),
            problem=prob,
        ).final_energy
        e_lpb = run(
            kirkwood_config(h=0.5, controller=deep, ic="lpb", box_half=4.0),
            problem=prob,
        ).final_energy
        assert abs(e_zero - e_lpb) / abs(e_lpb) <= 1e-6


def _two_sphere_config():
    atoms = AtomSet(
        [Atom((0.0, 0.0, 0.0), 1.0, 1.6), Atom((1.4, 0.6, -0.4), -0.5, 1.2)]
    )
    params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.3)
    return RunConfig(atoms=atoms, h=0.5, surface="vdw", probe_radius=0.5, params=params)


def _desk_config():
    """The four-atom SES solute of acceptance criteria 5 and 6, 0.15 M."""
    atoms = AtomSet(
        [
            Atom((0.0, 0.0, 0.0), 1.0, 2.0),
            Atom((2.8, 0.0, 0.0), -0.7, 1.7),
            Atom((0.0, 2.9, 0.4), 0.5, 1.8),
            Atom((-2.7, 0.3, -0.6), -0.8, 1.6),
        ]
    )
    params = PhysicalParams(eps_in=1.0, eps_out=80.0, ionic_strength=0.15)
    return RunConfig(atoms=atoms, h=0.5, params=params)


def _interior_kappa_sq(split):
    kappa = np.full(split.shape, split.kappa_sq)
    kappa.flat[split.inside] = 0.0
    return kappa[1:-1, 1:-1, 1:-1].ravel()


def _sparse_steady_state(split):
    """(sum_a M_a + kappa^2, sum_a (c_a + Dirichlet_a)) on the interior
    nodes, assembled entry by entry from the AxisOperator arrays; the
    Dirichlet fold from split.boundary's faces and the end edges' weights."""
    shape = tuple(n - 2 for n in split.shape)
    idx = np.arange(np.prod(shape)).reshape(shape)
    rows, cols = [idx.ravel()], [idx.ravel()]
    vals = [_interior_kappa_sq(split)]
    b = np.zeros(idx.size)
    for op in split.ops:
        lines = np.moveaxis(idx, op.axis, 0).reshape(op.n - 2, -1)
        off = -op.weights[1:-1].ravel()
        rows += [lines.ravel(), lines[:-1].ravel(), lines[1:].ravel()]
        cols += [lines.ravel(), lines[1:].ravel(), lines[:-1].ravel()]
        vals += [op.diag.ravel(), off, off]
        np.add.at(b, lines.ravel(), op.corr.ravel())
        ends = np.moveaxis(split.boundary, op.axis, 0)[[0, -1], 1:-1, 1:-1]
        np.add.at(b, lines[0], op.weights[0] * ends[0].ravel())
        np.add.at(b, lines[-1], op.weights[-1] * ends[1].ravel())
    mat = sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(idx.size, idx.size),
    )
    return mat, b


class TestLinearizedSteadyState:
    """The lpb initial condition against a sparse direct solve of the same
    discrete linearized steady state."""

    @pytest.mark.parametrize(
        "make",
        [lambda: kirkwood_config(h=0.5, box_half=4.0), _two_sphere_config],
        ids=["kirkwood", "two-sphere"],
    )
    def test_matches_direct_solve(self, make):
        prob = build_problem(make())
        assert max(prob.grid.shape) <= 17
        mat, b = _sparse_steady_state(prob.split)
        want = spsolve(mat, b)
        u = initial_condition("lpb", prob).values
        np.testing.assert_array_equal(u[0], prob.boundary.values[0])
        got = u[1:-1, 1:-1, 1:-1].ravel()
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        # Steady-state residual sum_a delta2_a u - kappa^2 u on the interior.
        res = sum(op.apply(u) for op in prob.split.ops)[1:-1, 1:-1, 1:-1].ravel()
        res -= _interior_kappa_sq(prob.split) * got
        assert np.abs(res).max() <= np.linalg.norm(res) <= CG_RTOL * np.linalg.norm(b)

    def test_missed_tolerance_is_initialization_error(self, monkeypatch):
        monkeypatch.setattr(steady, "CG_MAXITER", 1)
        prob = build_problem(kirkwood_config(h=0.5, box_half=4.0))
        with pytest.raises(InitializationError, match="after 1 iterations") as exc:
            initial_condition("lpb", prob)
        assert exc.value.step == 1
        assert "relative residual" in str(exc.value)

    @pytest.mark.parametrize(
        "make, iterations",
        [
            (lambda: kirkwood_config(h=0.5, box_half=4.0), 39),
            (lambda: kirkwood_config(h=0.5), 71),
            (_desk_config, 82),
        ],
        ids=["kirkwood-17", "kirkwood-33", "desk"],
    )
    def test_pinned_iteration_counts(self, make, iterations):
        """The Jacobi CG's iteration counts: a change to the operator, the
        right-hand side, the preconditioner or the CG moves them."""
        prob = build_problem(make())
        x, got, rel = linearized_steady_state(prob.split)
        assert x.shape == tuple(n - 2 for n in prob.grid.shape)
        assert (got, rel <= CG_RTOL) == (iterations, True)
        assert prob.split._pool == []


class TestSchedule:
    def test_single_segment_matches_constant_run(self):
        cfg = _coarse_kirkwood(t_end=0.5)
        prob = build_problem(cfg)
        const = run(cfg, problem=prob)
        sched = run_schedule(cfg, [(0.0, 0.1)], problem=prob)
        assert len(const.rows) == len(sched.rows)
        for rc, rs in zip(const.rows, sched.rows):
            assert rc.step == rs.step
            np.testing.assert_equal(
                [rc.t, rc.dt, rc.energy, rc.de], [rs.t, rs.dt, rs.energy, rs.de]
            )

    def test_switch_applies_at_first_step_reaching_time(self):
        cfg = _coarse_kirkwood(t_end=1.0)
        trace = run_schedule(cfg, [(0.0, 0.25), (0.5, 0.125)])
        np.testing.assert_allclose(
            trace.dts, [0.25, 0.25, 0.125, 0.125, 0.125, 0.125]
        )

    def test_schedule_validation(self):
        cfg = _coarse_kirkwood()
        prob = build_problem(cfg)
        with pytest.raises(ConfigError):
            run_schedule(cfg, [], problem=prob)
        with pytest.raises(ConfigError):
            run_schedule(cfg, [(1.0, 0.1)], problem=prob)
        with pytest.raises(ConfigError):
            run_schedule(cfg, [(0.0, 0.1), (0.0, 0.05)], problem=prob)
        with pytest.raises(ConfigError):
            run_schedule(cfg, [(0.0, 0.1), (0.5, -0.1)], problem=prob)

    def test_validation_precedes_assembly(self, monkeypatch):
        def no_build(cfg):
            raise AssertionError("problem built before the schedule was checked")

        monkeypatch.setattr(driver, "build_problem", no_build)
        cfg = _coarse_kirkwood()
        for bad in ([], [(1.0, 0.1)], [(0.0, 0.1), (0.5, -0.1)]):
            with pytest.raises(ConfigError):
                run_schedule(cfg, bad)

    @pytest.mark.parametrize(
        "switches, t_end, want",
        [
            # 0.1 + 0.1 + 0.1 = 0.30000000000000004
            ([(0.0, 0.1), (0.3, 0.05)], 0.5, [0.1] * 3 + [0.05] * 4),
            # ten steps of 0.1 reach 0.9999999999999999, short of 1.0
            ([(0.0, 0.1), (1.0, 0.05)], 1.2, [0.1] * 10 + [0.05] * 4),
            # t = 0.5 falls short of the switch by 5e-10 < 1e-9
            ([(0.0, 0.25), (0.5 + 5e-10, 0.125)], 1.0, [0.25] * 2 + [0.125] * 4),
        ],
        ids=["over-by-roundoff", "short-by-roundoff", "short-within-slack"],
    )
    def test_switch_reached_within_slack(self, switches, t_end, want):
        trace = run_schedule(_coarse_kirkwood(t_end=t_end), switches)
        assert trace.dts.tolist() == want
        assert trace.rows[0].dt == switches[0][1]
        assert trace.stop_reason == "horizon"

    def test_trace_csv_has_nan_error_and_factor(self, tmp_path):
        cfg = _coarse_kirkwood(t_end=0.5)
        trace = run_schedule(cfg, [(0.0, 0.25), (0.25, 0.125)])
        trace.write_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == len(trace.rows) + 1 == 5
        for line in lines[1:]:
            cols = line.split(",")
            assert (cols[3], cols[4]) == ("nan", "nan")
            assert cols[5] != "nan"


class TestConvergenceStudy:
    def test_degenerate_identical_energies(self):
        cfg = _coarse_kirkwood(t_end=0.0)
        res = convergence_study(cfg, "dt", [0.04, 0.02, 0.01])
        assert math.isnan(res.rate)
        assert "degenerate" in res.message
        assert math.isnan(res.rows[-1].error)  # reference row
        assert all(r.error == 0.0 for r in res.rows[:-1])

    def test_rows_sorted_coarse_to_fine(self):
        cfg = _coarse_kirkwood(t_end=0.0)
        res = convergence_study(cfg, "dt", [0.01, 0.04, 0.02])
        assert [r.value for r in res.rows] == [0.04, 0.02, 0.01]

    def test_dt_study_builds_one_problem(self, monkeypatch):
        # The members share the problem and give the energies of runs that
        # each build their own, bit for bit.
        cfg = _coarse_kirkwood(t_end=0.3)
        values = [0.1, 0.05, 0.025]
        alone = [run(driver._member_config(cfg, "dt", v)).final_energy for v in values]
        builds = []

        def counting(c):
            builds.append(c)
            return build_problem(c)

        monkeypatch.setattr(driver, "build_problem", counting)
        res = convergence_study(cfg, "dt", values)
        assert builds == [cfg]
        assert [r.energy for r in res.rows] == alone

    def test_validation(self):
        cfg = _coarse_kirkwood()
        with pytest.raises(ConfigError):
            convergence_study(cfg, "x", [1.0, 0.5, 0.25])
        with pytest.raises(ConfigError):
            convergence_study(cfg, "h", [1.0, 0.5])


class TestExportPotential:
    def _small_run(self):
        atoms = AtomSet([Atom((0.13, -0.07, 0.21), 1.0, 1.7)])
        params = PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=1.0)
        cfg = RunConfig(
            atoms=atoms,
            h=0.5,
            surface="sphere",
            controller=ControllerConfig(
                kind="Constant", dt0=0.1, t_end=0.3, t_min_stop=5.0
            ),
            ic="zero",
            params=params,
            box=(-2.0,) * 3 + (2.0,) * 3,
        )
        prob = build_problem(cfg)
        trace = run(cfg, problem=prob)
        return prob, trace.final_field

    def test_mode_u_bit_identical_to_field_dump(self, tmp_path):
        prob, u = self._small_run()
        p1 = tmp_path / "direct.bin"
        p2 = tmp_path / "export.bin"
        write_field_binary(u, p1)
        export_potential(u, prob.atoms, prob.params, "u", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mode_phi_zero_charges_equals_u(self, tmp_path):
        prob, u = self._small_run()
        atoms0 = AtomSet([Atom((0.13, -0.07, 0.21), 0.0, 1.7)])
        path = tmp_path / "phi.bin"
        export_potential(
            u, atoms0, prob.params, "phi", path, inside=prob.data.inside
        )
        got = read_field_binary(path)
        np.testing.assert_array_equal(got.values, u.values)

    def test_mode_phi_adds_coulomb_inside_only(self, tmp_path):
        prob, u = self._small_run()
        path = tmp_path / "phi.bin"
        export_potential(
            u, prob.atoms, prob.params, "phi", path, inside=prob.data.inside
        )
        got = read_field_binary(path).values
        inside = prob.data.inside
        np.testing.assert_array_equal(got[~inside], u.values[~inside])
        pts = prob.grid.nodes()[inside]
        center = prob.atoms.centers[0]
        d = np.sqrt(((pts - center) ** 2).sum(axis=1))
        coulomb = CHARGE_FACTOR / prob.params.eps_in * 1.0 / d
        np.testing.assert_allclose(
            got[inside], u.values[inside] + coulomb, rtol=0, atol=1e-12
        )
        # bit for bit as the dump built from every node's coordinates was
        g = np.zeros(len(pts))
        for center, charge in zip(prob.atoms.centers, prob.atoms.charges):
            d = np.sqrt(((pts - center) ** 2).sum(axis=1))
            with np.errstate(divide="ignore"):
                g += np.where(
                    d < SINGULARITY_GUARD,
                    np.inf,
                    charge / np.where(d < SINGULARITY_GUARD, 1.0, d),
                )
        want = u.values.copy()
        want[inside] += (CHARGE_FACTOR / prob.params.eps_in) * g
        assert got.tobytes() == want.tobytes()

    def test_csv_extension_writes_text(self, tmp_path):
        prob, u = self._small_run()
        path = tmp_path / "field.csv"
        export_potential(u, prob.atoms, prob.params, "u", path)
        assert path.read_text().splitlines()[0] == "i,j,k,value"

    def test_phi_needs_inside_mask(self, tmp_path):
        prob, u = self._small_run()
        with pytest.raises(ConfigError):
            export_potential(u, prob.atoms, prob.params, "phi", tmp_path / "x.bin")


class TestRunConfig:
    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(h=math.nan), "h must be finite, got nan"),
            (dict(h=math.inf), "h must be finite, got inf"),
            (dict(probe_radius=math.nan), "probe_radius must be finite, got nan"),
            (dict(box=(-8.0, -8.0, -8.0, 8.0, math.inf, 8.0)),
             r"box corners must be finite, got \(-8.0, -8.0, -8.0, 8.0, inf, 8.0\)"),
        ],
    )
    def test_nonfinite_number_is_config_error(self, change, message):
        cfg = _coarse_kirkwood()
        with pytest.raises(ConfigError, match=message):
            replace(cfg, **change)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(h=0.0), "h must be positive, got 0.0"),
            (dict(h=-1.0), "h must be positive, got -1.0"),
            (dict(probe_radius=-1.0), "probe_radius must be nonnegative, got -1.0"),
            (dict(box=(-4.0, -4.0, -4.0)),
             "box must be (x0, y0, z0, x1, y1, z1), got (-4.0, -4.0, -4.0)"),
            (dict(box=(1, 1, 1, 0, 0, 0)),
             "box upper corner must exceed lower corner, got (1, 1, 1, 0, 0, 0)"),
            (dict(box=(-8.0, -8.0, -8.0, 8.0, -8.0, 8.0)),
             "box upper corner must exceed lower corner, got"
             " (-8.0, -8.0, -8.0, 8.0, -8.0, 8.0)"),
        ],
    )
    def test_bad_geometry_is_config_error_at_construction(self, change, message):
        cfg = _coarse_kirkwood()
        with pytest.raises(ConfigError) as exc:
            replace(cfg, **change)
        assert str(exc.value) == message


class TestProblemAssembly:
    def test_sphere_needs_single_atom(self):
        atoms = AtomSet(
            [Atom((0.0, 0.0, 0.0), 1.0, 2.0), Atom((3.0, 0.0, 0.0), -1.0, 1.5)]
        )
        cfg = RunConfig(atoms=atoms, h=0.5, surface="sphere")
        with pytest.raises(ConfigError):
            build_problem(cfg)

    def test_imported_surface_matches_direct(self, tmp_path):
        cfg = _coarse_kirkwood(t_end=0.3)
        prob = build_problem(cfg)
        path = tmp_path / "iface.srf"
        export_interface(prob.data, path)
        cfg_imp = RunConfig(
            atoms=cfg.atoms,
            h=cfg.h,
            surface=f"import:{path}",
            controller=cfg.controller,
            ic="zero",
            params=cfg.params,
        )
        direct = run(cfg, problem=prob)
        imported = run(cfg_imp)
        assert imported.final_energy == direct.final_energy

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"h": 0.25}, "h 0.25 does not match the imported interface's spacing 0.5"),
            ({"h": 0.5 * (1 + 1e-8)}, "h 0.500000005 does not match"),
            (
                {"box": (-8.0,) * 3 + (8.0,) * 3},
                "box (-8.0, -8.0, -8.0, 8.0, 8.0, 8.0) does not match the imported"
                " interface's corners (-4.0, -4.0, -4.0, 4.0, 4.0, 4.0)",
            ),
            ({"box": (-4.0,) * 3 + (4.0, 4.0, 4.5)}, "does not match the imported"),
        ],
        ids=["h", "h-1e-8", "box", "box-one-corner"],
    )
    def test_imported_surface_rejects_another_grid(self, tmp_path, change, message):
        # The file holds h = 0.5 over +-4; a run on another grid would build
        # on the file's grid without saying so.
        cfg = _coarse_kirkwood()
        path = tmp_path / "iface.srf"
        export_interface(build_problem(cfg).data, path)
        base = replace(cfg, surface=f"import:{path}", box=None)
        for same in ({}, {"h": 0.5 * (1 + 1e-12)}, {"box": cfg.box}):
            assert build_problem(replace(base, **same)).grid == Grid(
                (-4.0,) * 3, 0.5, (17, 17, 17)
            )
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_problem(replace(base, **change))

    @pytest.mark.parametrize("surface", ["sphere", "vdw", "ses-grid", "import"])
    def test_interface_checked_once_where_it_is_made(
        self, monkeypatch, tmp_path, surface
    ):
        cfg = _coarse_kirkwood()
        if surface == "import":
            path = tmp_path / "iface.srf"
            export_interface(build_problem(cfg).data, path)
            surface = f"import:{path}"
        calls = []
        validate, build = InterfaceData.validate, driver.build_split_operators

        def counted(self):
            calls.append("validate")
            return validate(self)

        def building(*args):
            calls.append("build")
            split = build(*args)
            calls.append("built")
            return split

        monkeypatch.setattr(InterfaceData, "validate", counted)
        monkeypatch.setattr(driver, "build_split_operators", building)
        build_problem(replace(cfg, surface=surface))
        assert calls == ["validate", "build", "built"]

    @pytest.mark.parametrize("surface", ["sphere", "ses-grid"])
    def test_atom_outside_the_box_fails_at_build(self, monkeypatch, surface):
        def never(*args, **kwargs):
            raise AssertionError("surface classified before the box check")

        for name in ("classify_sphere", "classify_ses_grid"):
            monkeypatch.setattr(driver, name, never)
        atoms = AtomSet([Atom((5.2, 0.0, 0.0), 1.0, 1.5)])
        cfg = RunConfig(atoms=atoms, h=0.5, surface=surface, box=(-4.0,) * 3 + (4.0,) * 3)
        with pytest.raises(DomainError, match=r"point \(5\.2, 0\.0, 0\.0\)") as exc:
            build_problem(cfg)
        assert "np.float64" not in str(exc.value)

    @pytest.mark.parametrize("scheme", ["ADI", "LOD"])
    def test_final_energy_is_the_energy_of_the_final_field(self, scheme):
        cfg = replace(_coarse_kirkwood(t_end=0.3), ic="lpb", scheme=scheme)
        problem = build_problem(cfg)
        trace = run(cfg, problem=problem)
        u = trace.final_field
        assert trace.final_energy == solvation_energy(u, cfg.atoms)
        stencil = trilinear_stencil(u.grid, cfg.atoms.centers)
        assert trace.final_energy == solvation_energy(u, cfg.atoms, stencil=stencil)

    def test_stencil_of_another_grid_rejected(self):
        cfg = _coarse_kirkwood()
        problem = build_problem(cfg)
        other = build_problem(replace(cfg, box=(-4.5,) * 3 + (4.5,) * 3))
        with pytest.raises(ConfigError, match="stencil grid"):
            solvation_energy(problem.boundary, cfg.atoms, stencil=other.stencil)

    def test_config_validation(self):
        atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1.0, 2.0)])
        with pytest.raises(ConfigError):
            RunConfig(atoms=atoms, h=0.5, scheme="IMEX")
        with pytest.raises(ConfigError):
            RunConfig(atoms=atoms, h=0.5, ic="warm")
        with pytest.raises(ConfigError):
            RunConfig(atoms=atoms, h=0.5, surface="msms")
        # slotted: a misspelt or removed field fails rather than doing nothing
        cfg = RunConfig(atoms=atoms, h=0.5)
        for name in ("trace_path", "field_path", "field_mode"):
            with pytest.raises(AttributeError):
                setattr(cfg, name, "x")


class TestBenchmarkConfigs:
    def test_kirkwood_defaults(self):
        cfg = kirkwood_config()
        assert cfg.h == 0.25
        assert cfg.surface == "sphere"
        assert cfg.box == (-8.0,) * 3 + (8.0,) * 3
        assert cfg.atoms.radii[0] == 2.0
        assert cfg.params.kappa_sq == 1.0
        ctrl = cfg.controller
        assert (ctrl.kind, ctrl.dt0, ctrl.tol, ctrl.t_min_stop) == (
            "Constant",
            0.001,
            1e-4,
            1.0,
        )

    def test_reference_config_protocol(self):
        ref = reference_config(_coarse_kirkwood())
        assert ref.controller.kind == "Constant"
        assert ref.controller.dt0 == 0.01
        assert ref.controller.t_end == 50.0
        assert ref.ic == "lpb"

    def test_scaling_validation(self):
        with pytest.raises(ConfigError):
            scaling_study([33])
        with pytest.raises(ConfigError):
            scaling_study([33, 49], steps=2)
        with pytest.raises(ConfigError):
            scaling_study([3, 9])
