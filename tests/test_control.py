"""Tests for time-step controllers, error norms, and stopping predicates."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfmpbe.control import (
    EPS_P,
    F_HI,
    F_LO,
    K_D,
    K_I,
    K_P,
    KINDS,
    POST_MIN_STEPS,
    Controller,
    ControllerConfig,
    ControllerState,
    Schedule,
    error_norm,
    manual_update,
    pid_factor,
    stop_reason,
)
from gfmpbe.errors import ConfigError


class TestErrorNorm:
    def test_identical_fields_zero(self):
        u = np.ones((3, 3, 3))
        assert error_norm("U", u, u.copy(), 0.0, 0.0) == 0.0

    def test_energy_ratio_example(self):
        assert error_norm("E", None, None, -100.0, -101.0) == pytest.approx(
            0.01, abs=1e-15
        )

    def test_random_fields_vs_direct(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5, 6))
        b = rng.normal(size=(4, 5, 6))
        got = error_norm("U", a, b, 0.0, 0.0)
        want = math.sqrt(((a - b) ** 2).sum()) / math.sqrt((a**2).sum())
        assert abs(got - want) < 1e-13

    def test_zero_denominator_is_inf(self):
        assert error_norm("U", np.zeros(4), np.ones(4), 0.0, 0.0) == float("inf")
        assert error_norm("E", None, None, 0.0, 1.0) == float("inf")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            error_norm("X", None, None, 1.0, 1.0)


def _state_with(errors, dt=0.5):
    st_ = ControllerState(dt=dt)
    st_.errors = list(errors)
    return st_


class TestPidFactor:
    def test_flat_history_gives_one(self):
        cfg = ControllerConfig(kind="PID1")
        e = EPS_P
        assert pid_factor(_state_with([e, e, e]), cfg) == 1.0

    def test_shrinking_errors_factor(self):
        cfg = ControllerConfig(kind="PID1")
        e = EPS_P
        st_ = _state_with([4 * e, 2 * e, e])
        f = pid_factor(st_, cfg)
        assert f == pytest.approx(2**0.075, rel=1e-12)
        assert f == pytest.approx(1.0534, abs=1e-4)
        # dt update divides by F, so shrinking error still shrinks dt
        assert st_.dt / f < st_.dt

    def test_warmup_short_history(self):
        cfg = ControllerConfig(kind="PID1")
        assert pid_factor(_state_with([]), cfg) == 1.0
        assert pid_factor(_state_with([0.1]), cfg) == 1.0
        assert pid_factor(_state_with([0.1, 0.2]), cfg) == 1.0

    def test_nonincreasing_floors_at_one(self):
        e = 0.0025
        # growing errors make the raw factor exactly 0.5
        e0 = e * 2 ** (1.0 / 0.26)
        raw_cfg = ControllerConfig(kind="PID1")
        nip_cfg = ControllerConfig(kind="NonincreasingPID", dt_min=0.01, tol=0.01)
        hist = [e, e, e0]
        assert pid_factor(_state_with(hist), raw_cfg) == pytest.approx(0.5, rel=1e-12)
        assert pid_factor(_state_with(hist), nip_cfg) == 1.0

    def test_clamped_to_bounds(self):
        cfg = ControllerConfig(kind="PID1")
        e = EPS_P
        assert pid_factor(_state_with([e, e, 1e-6 * e]), cfg) == F_HI
        assert pid_factor(_state_with([e, e, 1e6 * e]), cfg) == F_LO

    def test_nonpositive_errors_fall_back_to_setpoint(self):
        cfg = ControllerConfig(kind="PID1")
        e = EPS_P
        assert pid_factor(_state_with([e, e, 0.0]), cfg) == 1.0
        assert pid_factor(_state_with([e, float("nan"), e]), cfg) == 1.0


class TestManualUpdate:
    def test_condition_not_met(self):
        cfg = ControllerConfig(kind="Manual1")
        st_ = ControllerState(dt=1.0, delta=1.0)
        assert manual_update(st_, cfg, 2.0) == (1.0, 1.0)

    def test_halving(self):
        cfg = ControllerConfig(kind="Manual1")
        st_ = ControllerState(dt=1.0, delta=1.0)
        assert manual_update(st_, cfg, 0.5) == (0.5, 0.5)

    def test_floor_at_dt_min(self):
        cfg = ControllerConfig(kind="Manual1", dt_min=0.25)
        st_ = ControllerState(dt=0.25, delta=1.0)
        new_dt, new_delta = manual_update(st_, cfg, 0.1)
        assert new_dt == 0.25
        assert new_delta == 0.5


class TestShouldStop:
    def test_early_dip_guard(self):
        cfg = ControllerConfig(kind="Constant", t_min_stop=5.0)
        st_ = ControllerState(dt=0.1)
        assert stop_reason(3.0, 1e-9, st_, cfg) is None

    def test_horizon_stops_every_kind(self):
        for kind in KINDS:
            cfg = ControllerConfig.for_kind(kind, t_end=7.0, t_min_stop=100.0)
            st_ = ControllerState(dt=0.1)
            assert stop_reason(7.0, None, st_, cfg) == "horizon"
            assert Controller(cfg).stop_reason(7.0, None) == "horizon"

    def test_tolerance_stop_after_guard(self):
        cfg = ControllerConfig(kind="Constant", tol=1e-4, t_min_stop=5.0)
        st_ = ControllerState(dt=0.1)
        assert stop_reason(6.0, 1e-5, st_, cfg) == "tolerance"
        assert stop_reason(6.0, 1e-3, st_, cfg) is None

    def test_nonincreasing_needs_min_dt(self):
        cfg = ControllerConfig(
            kind="NonincreasingPID", dt_min=0.01, tol=0.01, t_min_stop=5.0
        )
        st_ = ControllerState(dt=0.05)
        assert stop_reason(6.0, 1e-5, st_, cfg) is None
        st_.reached_min = True
        assert stop_reason(6.0, 1e-5, st_, cfg) == "tolerance"

    def test_fastpid_step_count_stop(self):
        cfg = ControllerConfig(kind="FastPID", t_min_stop=5.0)
        st_ = ControllerState(dt=0.001)
        st_.steps_at_min = POST_MIN_STEPS - 1
        assert stop_reason(6.0, 1.0, st_, cfg) is None
        st_.steps_at_min = POST_MIN_STEPS
        assert stop_reason(6.0, 1.0, st_, cfg) == "post_min_steps"

    def test_missing_de_only_horizon(self):
        cfg = ControllerConfig(kind="Constant", tol=1e-4, t_min_stop=0.0, t_end=50.0)
        st_ = ControllerState(dt=0.1)
        assert stop_reason(10.0, None, st_, cfg) is None
        assert stop_reason(50.0, None, st_, cfg) == "horizon"


class TestStopReason:
    def test_each_reason(self):
        st_ = ControllerState(dt=0.1)
        cfg = ControllerConfig(kind="Constant", tol=1e-4, t_end=50.0, t_min_stop=5.0)
        assert stop_reason(50.0, None, st_, cfg) == "horizon"
        assert stop_reason(6.0, 1e-5, st_, cfg) == "tolerance"
        assert stop_reason(6.0, 1e-3, st_, cfg) is None
        assert stop_reason(3.0, 1e-9, st_, cfg) is None
        fast = ControllerConfig(kind="FastPID", t_min_stop=5.0)
        st_.steps_at_min = POST_MIN_STEPS
        assert stop_reason(6.0, 1.0, st_, fast) == "post_min_steps"

    def test_zero_horizon_stops_before_any_step(self):
        cfg = ControllerConfig(kind="Constant", t_end=0.0)
        assert stop_reason(0.0, None, ControllerState(dt=0.1), cfg) == "horizon"

    def test_nonincreasing_tolerance_only_after_min_dt(self):
        cfg = ControllerConfig(
            kind="NonincreasingPID", dt_min=0.01, tol=0.01, t_min_stop=5.0
        )
        st_ = ControllerState(dt=0.05)
        assert stop_reason(6.0, 1e-5, st_, cfg) is None
        st_.reached_min = True
        assert stop_reason(6.0, 1e-5, st_, cfg) == "tolerance"


class TestSchedule:
    def test_first_dt_is_the_lookup_at_zero(self):
        sched = Schedule([(0.0, 0.1), (5e-10, 0.2), (1.0, 0.3)], ControllerConfig())
        assert sched.dt == 0.2
        assert math.isnan(sched.state.last_error) and math.isnan(sched.state.last_factor)

    def test_switch_reached_through_roundoff(self):
        # ten steps of 0.1 sum to 0.9999999999999999, short of 1.0 by 1e-16
        sched = Schedule([(0.0, 0.1), (1.0, 0.05)], ControllerConfig())
        dts = []
        for _ in range(10):
            dts.append(sched.dt)
            sched.observe(None, None, 0.0, 0.0)
        assert sched.t < 1.0
        assert dts == [0.1] * 10
        assert sched.dt == 0.05

    def test_switch_within_slack_applies(self):
        sched = Schedule([(0.0, 0.25), (0.5 + 5e-10, 0.125)], ControllerConfig())
        dts = []
        for _ in range(3):
            dts.append(sched.dt)
            sched.observe(None, None, 0.0, 0.0)
        assert dts == [0.25, 0.25, 0.125]

    def test_stops_as_constant_kind(self):
        cfg = ControllerConfig.for_kind("NonincreasingPID", t_min_stop=1.0, t_end=9.0)
        sched = Schedule([(0.0, 0.5)], cfg)
        assert not sched.state.reached_min
        assert sched.stop_reason(2.0, 1e-5) == "tolerance"
        assert sched.stop_reason(9.0, None) == "horizon"
        assert sched.stop_reason(0.5, 1e-5) is None

    @pytest.mark.parametrize(
        "switches, message",
        [
            ([], "at least one"),
            ([(1.0, 0.1)], "start at t = 0"),
            ([(0.0, 0.1), (0.0, 0.05)], "strictly increasing"),
            ([(0.0, 0.1), (0.5, -0.1)], "must be positive"),
            ([(0.0, math.nan)], "positive and finite, got nan"),
            ([(0.0, math.inf)], "positive and finite, got inf"),
            ([(0.0, 0.1), (math.nan, 0.05)], "switch time must be a number"),
        ],
    )
    def test_validation(self, switches, message):
        with pytest.raises(ConfigError, match=message):
            Schedule(switches, ControllerConfig())


class TestControllerWrapper:
    def test_initial_dt_defaults_to_max(self):
        c = Controller(ControllerConfig(kind="PID1", dt_max=0.7))
        assert c.dt == 0.7

    def test_dt0_override(self):
        c = Controller(ControllerConfig(kind="Constant", dt0=0.05))
        assert c.dt == 0.05

    def test_warmup_keeps_dt(self):
        c = Controller(ControllerConfig(kind="PID1", dt0=0.5))
        u0 = np.ones(8)
        u1 = np.full(8, 1.1)
        c.observe(u1, u0, -10.0, -11.0)
        assert c.dt == 0.5
        c.observe(u1, u0, -10.0, -11.0)
        assert c.dt == 0.5

    def test_pid_moves_after_three(self):
        c = Controller(ControllerConfig(kind="PID1", dt0=0.5))
        rng = np.random.default_rng(1)
        u_prev = rng.normal(size=16)
        for _ in range(3):
            u_next = u_prev + rng.normal(scale=0.01, size=16)
            c.observe(u_next, u_prev, -10.0, -10.1)
            u_prev = u_next
        assert c.dt != 0.5
        assert c.cfg.dt_min <= c.dt <= c.cfg.dt_max

    def test_manual1_uses_raw_field_norm(self):
        # raw L2 change 0.5 < delta 1.0 triggers halving right away
        c = Controller(ControllerConfig(kind="Manual1", dt0=1.0))
        u0 = np.zeros(4)
        u1 = np.array([0.5, 0.0, 0.0, 0.0])
        c.observe(u1, u0, -1.0, -1.0)
        assert c.dt == 0.5
        assert c.state.delta == 0.5

    def test_manual2_uses_raw_energy_difference(self):
        c = Controller(ControllerConfig(kind="Manual2", dt0=1.0))
        c.observe(np.ones(3), np.ones(3), -100.0, -100.5)
        assert c.dt == 0.5

    def test_manual_dt_nonincreasing(self):
        c = Controller(ControllerConfig(kind="Manual1", dt0=1.0, dt_min=0.01))
        rng = np.random.default_rng(9)
        prev_dt = c.dt
        u_prev = rng.normal(size=8)
        for _ in range(40):
            u_next = u_prev + rng.normal(scale=rng.uniform(0.001, 2.0), size=8)
            c.observe(u_next, u_prev, -10.0, -10.0)
            assert c.dt <= prev_dt
            prev_dt = c.dt
            u_prev = u_next

    def test_nonincreasing_pid_dt_nonincreasing(self):
        c = Controller(ControllerConfig.for_kind("NonincreasingPID"))
        rng = np.random.default_rng(10)
        prev_dt = c.dt
        u_prev = rng.normal(size=8)
        for _ in range(60):
            u_next = u_prev + rng.normal(scale=rng.uniform(1e-5, 1.0), size=8)
            c.observe(u_next, u_prev, -10.0, -10.001)
            assert c.dt <= prev_dt + 1e-15
            prev_dt = c.dt
            u_prev = u_next

    def test_steps_at_min_counts_executed_steps(self):
        cfg = ControllerConfig(kind="FastPID", dt0=0.01, dt_min=0.01, dt_max=1.0)
        c = Controller(cfg)
        u = np.ones(4)
        for k in range(3):
            c.observe(u + 0.01 * k, u, -1.0, -1.0)
        assert c.state.steps_at_min == 3
        assert c.state.reached_min

    def test_determinism(self):
        def run_one():
            c = Controller(ControllerConfig(kind="PID2", dt0=0.5))
            rng = np.random.default_rng(77)
            es = -100.0 + np.cumsum(rng.uniform(0, 0.1, size=30))
            for i in range(1, 30):
                c.observe(np.ones(3), np.ones(3), es[i], es[i - 1])
            return c.dt, c.state.last_factor

        assert run_one() == run_one()

    @given(
        errs=st.lists(
            st.floats(1e-12, 1e3, allow_nan=False), min_size=3, max_size=30
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_dt_always_in_bounds(self, errs):
        cfg = ControllerConfig(kind="PID1", dt0=0.5, dt_min=0.01, dt_max=1.0)
        st_ = ControllerState(dt=cfg.dt0)
        for e in errs:
            st_.errors.append(e)
            f = pid_factor(st_, cfg)
            assert F_LO <= f <= F_HI
            st_.dt = min(max(st_.dt / f, cfg.dt_min), cfg.dt_max)
            assert cfg.dt_min <= st_.dt <= cfg.dt_max


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ControllerConfig(kind="PID3")

    def test_bad_dt_bounds(self):
        with pytest.raises(ConfigError):
            ControllerConfig(dt_min=1.0, dt_max=0.5)
        with pytest.raises(ConfigError):
            ControllerConfig(dt_min=0.0)

    def test_bad_tol(self):
        with pytest.raises(ConfigError):
            ControllerConfig(tol=0.0)

    def test_dt0_out_of_range(self):
        with pytest.raises(ConfigError):
            ControllerConfig(dt0=2.0, dt_max=1.0)

    @pytest.mark.parametrize(
        "name", ["dt_max", "dt_min", "dt0", "tol", "t_end", "t_min_stop"]
    )
    def test_nan_rejected_naming_the_field(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            ControllerConfig(**{name: math.nan})

    @pytest.mark.parametrize("name", ["dt_max", "dt_min", "dt0"])
    def test_infinite_step_rejected_naming_the_field(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got inf"):
            ControllerConfig(**{name: math.inf})

    def test_infinite_horizon_and_tolerance_allowed(self):
        cfg = ControllerConfig(tol=math.inf, t_end=math.inf)
        assert stop_reason(1e300, 1.0, ControllerState(dt=0.1), cfg) == "tolerance"

    def test_for_kind_recommended_row(self):
        cfg = ControllerConfig.for_kind("NonincreasingPID")
        assert (cfg.dt_max, cfg.dt_min, cfg.tol) == (1.0, 0.01, 0.01)
        base = ControllerConfig.for_kind("PID1")
        assert base.dt_min == 0.001 and base.tol == 1e-4

    def test_defaults_table(self):
        cfg = ControllerConfig()
        assert cfg.dt_max == 1.0
        assert cfg.t_end == 50.0
        assert cfg.t_min_stop == 5.0
        assert [f.name for f in fields(cfg)] == [
            "kind", "dt_max", "dt_min", "dt0", "tol", "t_end", "t_min_stop"
        ]
        assert POST_MIN_STEPS == 100
        assert (K_P, K_I, K_D) == (0.075, 0.175, 0.01)
        assert EPS_P == 0.0025
        assert (F_LO, F_HI) == (0.2, 5.0)
