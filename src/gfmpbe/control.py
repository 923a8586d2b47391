"""Adaptive time-step controllers and stopping predicates.

Seven kinds are supported.  Constant keeps dt fixed.  Manual1/Manual2 halve
dt and a threshold delta whenever the step's change measure drops below
delta.  PID1/PID2 scale dt by a three-term factor built from the last three
relative changes of the field (PID1) or the energy (PID2); FastPID is PID1
with a step-count stop after dt_min is first reached; NonincreasingPID is
PID1 with the factor floored at one so dt never grows.  Schedule is a
Controller whose dt follows a piecewise-constant table of switch times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

KINDS = (
    "Constant",
    "Manual1",
    "Manual2",
    "PID1",
    "PID2",
    "FastPID",
    "NonincreasingPID",
)

_T_EPS = 1e-12
"""Slack when comparing times against the horizon or switch points."""

K_P, K_I, K_D = 0.075, 0.175, 0.01
"""PID gains of Valli, Carey & Coutinho (Int. J. Numer. Meth. Fluids, 2005)."""

EPS_P = 0.0025
"""PID setpoint: the relative change per step that keeps dt as it is."""

F_LO, F_HI = 0.2, 5.0
"""Clamp of the PID factor."""

POST_MIN_STEPS = 100
"""FastPID stops after this many steps taken at dt_min."""


@dataclass(frozen=True)
class ControllerConfig:
    """Controller kind plus its numeric parameters; the PID gains, setpoint,
    clamp and FastPID's step count are the module constants above.  A NaN
    field, or an infinite dt_min, dt_max or dt0, raises ConfigError naming
    it."""

    kind: str = "Constant"
    dt_max: float = 1.0
    dt_min: float = 0.001
    dt0: float | None = None
    tol: float = 1e-4
    t_end: float = 50.0
    t_min_stop: float = 5.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown controller kind {self.kind!r}")
        for name in ("dt_max", "dt_min", "dt0", "tol", "t_end", "t_min_stop"):
            value = getattr(self, name)
            if value is None:
                continue
            if name.startswith("dt") and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if math.isnan(value):
                raise ConfigError(f"{name} must be a number, got {value}")
        if not (0 < self.dt_min <= self.dt_max):
            raise ConfigError(
                f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}"
            )
        if self.tol <= 0:
            raise ConfigError(f"tolerance must be positive, got {self.tol}")
        if self.t_end < 0 or self.t_min_stop < 0:
            raise ConfigError("time horizon and stop guard must be nonnegative")
        if self.dt0 is not None and not (
            self.dt_min <= self.dt0 <= self.dt_max
        ):
            raise ConfigError(
                f"dt0 must lie in [dt_min, dt_max], got {self.dt0}"
            )

    @staticmethod
    def for_kind(kind: str, **overrides) -> "ControllerConfig":
        """Config with the per-kind defaults (NonincreasingPID uses the
        recommended dt_max=1.0, dt_min=0.01, tol=0.01 triple)."""
        base: dict = {"kind": kind}
        if kind == "NonincreasingPID":
            base.update(dt_max=1.0, dt_min=0.01, tol=0.01)
        base.update(overrides)
        return ControllerConfig(**base)


@dataclass
class ControllerState:
    """Mutable per-run controller memory."""

    dt: float
    delta: float = 1.0
    errors: list = field(default_factory=list)
    reached_min: bool = False
    steps_at_min: int = 0
    last_factor: float = float("nan")
    last_error: float = float("nan")


def error_norm(kind: str, u_n, u_nm1, e_n: float, e_nm1: float) -> float:
    """Relative change measure: kind U compares fields, kind E energies.

    U: ||u_n - u_nm1||_2 / ||u_n||_2;  E: |e_n - e_nm1| / |e_n|.
    A zero denominator yields inf; callers substitute their setpoint.
    """
    if kind == "U":
        num_sq, denom_sq = _change_sum_sq(u_n, u_nm1)
        denom = math.sqrt(denom_sq)
        num = math.sqrt(num_sq)
    elif kind == "E":
        denom = abs(float(e_n))
        num = abs(float(e_n) - float(e_nm1))
    else:
        raise ConfigError(f"unknown error norm kind {kind!r}")
    if denom == 0.0:
        return float("inf")
    return num / denom


def _change_sum_sq(u_n, u_nm1) -> tuple[float, float]:
    """Sums of squares of u_n - u_nm1 and of u_n (fields or arrays).

    Summed by einsum's own loop, not BLAS: np.linalg.norm and dot call
    OpenBLAS, whose thread wake-up can cost more than the sum on a small
    field.
    """
    a = np.asarray(getattr(u_n, "values", u_n), dtype=float).ravel()
    d = a - np.asarray(getattr(u_nm1, "values", u_nm1), dtype=float).ravel()
    return float(np.einsum("i,i->", d, d)), float(np.einsum("i,i->", a, a))


def _sanitize(e: float) -> float:
    if not np.isfinite(e) or e <= 0.0:
        return EPS_P
    return e


def pid_factor(state: ControllerState, cfg: ControllerConfig) -> float:
    """Three-term scaling factor from the last three errors, clamped.

    F = (e_{n-1}/e_n)^K_P * (EPS_P/e_n)^K_I * (e_{n-1}^2/(e_n e_{n-2}))^K_D,
    clamped to [F_LO, F_HI].  With fewer than three observations F = 1.
    NonincreasingPID floors the clamped factor at one.
    """
    if len(state.errors) < 3:
        f = 1.0
    else:
        e0 = _sanitize(state.errors[-1])
        e1 = _sanitize(state.errors[-2])
        e2 = _sanitize(state.errors[-3])
        f = (e1 / e0) ** K_P * (EPS_P / e0) ** K_I * (e1 * e1 / (e0 * e2)) ** K_D
        f = min(max(f, F_LO), F_HI)
    if cfg.kind == "NonincreasingPID":
        f = max(f, 1.0)
    return f


def manual_update(
    state: ControllerState, cfg: ControllerConfig, e: float
) -> tuple[float, float]:
    """Halve dt (floored at dt_min) and delta whenever e < delta."""
    if e < state.delta:
        return max(state.dt / 2.0, cfg.dt_min), state.delta / 2.0
    return state.dt, state.delta


def stop_reason(
    t: float, de: float | None, state: ControllerState, cfg: ControllerConfig
) -> str | None:
    """Why cfg.kind stops at time t after an energy change de, or None to go
    on: "horizon" always, "post_min_steps" (FastPID's POST_MIN_STEPS at
    dt_min) or "tolerance" only after t_min_stop and with a finite de."""
    if t >= cfg.t_end - _T_EPS:
        return "horizon"
    if t < cfg.t_min_stop - _T_EPS:
        return None
    if de is None or not np.isfinite(de):
        return None
    if cfg.kind == "FastPID" and state.steps_at_min >= POST_MIN_STEPS:
        return "post_min_steps"
    if de < cfg.tol and (cfg.kind != "NonincreasingPID" or state.reached_min):
        return "tolerance"
    return None


class Controller:
    """Stateful wrapper: observe one executed step, expose the next dt."""

    def __init__(self, cfg: ControllerConfig):
        self.cfg = cfg
        dt0 = cfg.dt0 if cfg.dt0 is not None else cfg.dt_max
        self.state = ControllerState(dt=dt0)

    @property
    def dt(self) -> float:
        return self.state.dt

    def observe(self, u_n, u_nm1, e_n: float, e_nm1: float) -> None:
        """Record the step just executed and update dt for the next one."""
        cfg = self.cfg
        st = self.state
        if st.dt <= cfg.dt_min * (1.0 + 1e-12):
            st.reached_min = True
            st.steps_at_min += 1
        if cfg.kind == "Constant":
            return
        if cfg.kind == "Manual1":
            e = math.sqrt(_change_sum_sq(u_n, u_nm1)[0])
        elif cfg.kind == "Manual2":
            e = abs(float(e_n) - float(e_nm1))
        elif cfg.kind == "PID2":
            e = error_norm("E", u_n, u_nm1, e_n, e_nm1)
        else:
            e = error_norm("U", u_n, u_nm1, e_n, e_nm1)
        st.last_error = e
        if cfg.kind in ("Manual1", "Manual2"):
            st.dt, st.delta = manual_update(st, cfg, e)
            return
        st.errors.append(e)
        f = pid_factor(st, cfg)
        st.last_factor = f
        st.dt = min(max(st.dt / f, cfg.dt_min), cfg.dt_max)

    def stop_reason(self, t: float, de: float | None) -> str | None:
        return stop_reason(t, de, self.state, self.cfg)


class Schedule(Controller):
    """A Constant-kind Controller whose dt follows a piecewise-constant table.

    switches is a list of (t_switch, dt) with strictly increasing times
    starting at 0; each dt applies from the first step, the first one too,
    whose start time t (accumulated from the steps observed) satisfies
    t >= t_switch - 1e-9.  Stopping is the Constant kind's under cfg.  A NaN
    time, or a dt that is not positive and finite, raises ConfigError.
    """

    def __init__(self, switches: list[tuple[float, float]], cfg: ControllerConfig):
        if not switches:
            raise ConfigError("schedule needs at least one (t, dt) switch")
        for t, dt in switches:
            if math.isnan(t):
                raise ConfigError(f"switch time must be a number, got {t}")
            if not 0 < dt < math.inf:
                raise ConfigError(
                    f"schedule time steps must be positive and finite, got {dt} at t={t}"
                )
        times = [s[0] for s in switches]
        if times[0] > _T_EPS:
            raise ConfigError("first switch must start at t = 0")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ConfigError("switch times must be strictly increasing")
        self.switches = list(switches)
        self.t = 0.0
        self.cfg = replace(cfg, kind="Constant")
        self.state = ControllerState(dt=self._lookup(0.0))

    def _lookup(self, t: float) -> float:
        return [dt for t_sw, dt in self.switches if t >= t_sw - 1e-9][-1]

    def observe(self, u_n, u_nm1, e_n: float, e_nm1: float) -> None:
        """Advance the start time by the step just executed; look up dt."""
        self.t += self.state.dt
        self.state.dt = self._lookup(self.t)
