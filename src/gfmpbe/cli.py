"""Command-line interface: solve, benchmarks, and parameter studies."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .control import ControllerConfig, Schedule
from .driver import (
    RunConfig,
    build_problem,
    convergence_study,
    kirkwood_config,
    reference_config,
    run,
    run_schedule,
    scaling_study,
)
from .errors import (
    AssemblyError,
    ConfigError,
    DivergenceError,
    DomainError,
    SingularityError,
)
from .molecule import PhysicalParams, parse_atoms

_CONTROLLER_NAMES = {
    "constant": "Constant",
    "manual1": "Manual1",
    "manual2": "Manual2",
    "pid1": "PID1",
    "pid2": "PID2",
    "fastpid": "FastPID",
    "nipid": "NonincreasingPID",
}


def _add_problem_flags(p: argparse.ArgumentParser, atoms_required: bool) -> None:
    p.add_argument("--atoms", required=atoms_required, metavar="FILE",
                   help="atom file, one `x y z q r` record per line")
    p.add_argument("--h", type=float, default=0.5, help="grid spacing (A)")
    p.add_argument("--surface", default="ses-grid",
                   help="sphere | vdw | ses-grid | import:PATH")
    p.add_argument("--probe", type=float, default=1.4, help="probe radius (A)")
    p.add_argument("--scheme", choices=("adi", "lod"), default="adi")
    p.add_argument("--controller", choices=sorted(_CONTROLLER_NAMES),
                   default="constant")
    p.add_argument("--dt", type=float, help="initial time step")
    p.add_argument("--dt-min", type=float)
    p.add_argument("--dt-max", type=float)
    p.add_argument("--tol", type=float, help="energy-change stop tolerance")
    p.add_argument("--tend", type=float, help="time horizon")
    p.add_argument("--tmin-stop", type=float, help="earliest stop time")
    p.add_argument("--ic", choices=("zero", "lpb"), default="lpb")
    p.add_argument("--ionic", type=float, default=0.0,
                   help="ionic strength (molar)")
    p.add_argument("--eps-in", type=float, default=1.0)
    p.add_argument("--eps-out", type=float, default=80.0)
    p.add_argument("--box", type=float, nargs=6,
                   metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"))
    _add_output_flags(p)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="CSV", help="energy trace output")
    p.add_argument("--field", metavar="FILE",
                   help="final field dump (.csv or binary)")
    p.add_argument("--field-mode", choices=("u", "phi"), default="u")


def _controller_from_args(args) -> ControllerConfig:
    overrides = {}
    if args.dt_min is not None:
        overrides["dt_min"] = args.dt_min
    if args.dt_max is not None:
        overrides["dt_max"] = args.dt_max
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.tend is not None:
        overrides["t_end"] = args.tend
    if args.tmin_stop is not None:
        overrides["t_min_stop"] = args.tmin_stop
    kind = _CONTROLLER_NAMES[args.controller]
    cfg = ControllerConfig.for_kind(kind, **overrides)
    if args.dt is not None:
        cfg = replace(
            cfg,
            dt0=args.dt,
            dt_min=min(cfg.dt_min, args.dt),
            dt_max=max(cfg.dt_max, args.dt),
        )
    return cfg


def _config_from_args(args) -> RunConfig:
    with open(args.atoms) as f:
        atoms = parse_atoms(f.read())
    params = PhysicalParams(
        eps_in=args.eps_in, eps_out=args.eps_out, ionic_strength=args.ionic
    )
    return RunConfig(
        atoms=atoms,
        h=args.h,
        surface=args.surface,
        probe_radius=args.probe,
        scheme=args.scheme.upper(),
        controller=_controller_from_args(args),
        ic=args.ic,
        params=params,
        box=tuple(args.box) if args.box else None,
        trace_path=args.trace,
        field_path=args.field,
        field_mode=args.field_mode,
    )


def _timed(fn, *args):
    """fn(*args) and the wall time it took, in s."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _timed_run(march, cfg: RunConfig, *args):
    """march(cfg, *args, problem=...) on a problem built here: the trace, the
    whole run's wall time and the build's, in s."""
    start = time.perf_counter()
    problem = build_problem(cfg)
    setup = time.perf_counter() - start
    trace = march(cfg, *args, problem=problem)
    return trace, time.perf_counter() - start, setup


def _print_trace_summary(trace, wall: float, setup: float) -> None:
    """wall is the whole run's time: build, initial condition and march;
    setup is the build alone and the march alone is trace.wall_time."""
    print(f"final energy: {trace.final_energy:.6f} kcal/mol")
    print(f"steps: {trace.steps}")
    print(f"wall time: {wall:.3f} s")
    print(f"setup time: {setup:.3f} s")
    print(f"march time: {trace.wall_time:.3f} s")
    print(f"stopped: {trace.stop_reason}")


def _cmd_solve(args) -> int:
    _print_trace_summary(*_timed_run(run, _config_from_args(args)))
    return 0


def _cmd_kirkwood(args) -> int:
    ctrl = ControllerConfig(
        kind="Constant",
        dt0=args.dt,
        dt_min=min(0.001, args.dt),
        dt_max=max(1.0, args.dt),
        tol=args.tol,
        t_end=args.tend,
        t_min_stop=args.tmin_stop,
    )
    cfg = kirkwood_config(h=args.h, scheme=args.scheme.upper(), controller=ctrl,
                          ic=args.ic)
    cfg = replace(cfg, trace_path=args.trace, field_path=args.field,
                  field_mode=args.field_mode)
    _print_trace_summary(*_timed_run(run, cfg))
    return 0


def _base_config(args) -> RunConfig:
    if args.atoms:
        return _config_from_args(args)
    ctrl = _controller_from_args(args)
    return kirkwood_config(h=args.h, scheme=args.scheme.upper(), controller=ctrl,
                           ic=args.ic)


def _cmd_convergence(args) -> int:
    cfg = _base_config(args)
    result = convergence_study(cfg, args.vary, args.values)
    print(f"{args.vary:>10}  {'energy':>14}  {'error':>12}")
    for row in result.rows:
        if row.diverged:
            print(f"{row.value:>10.4g}  {'diverged':>14}")
        else:
            print(f"{row.value:>10.4g}  {row.energy:>14.6f}  {row.error:>12.4e}")
    if result.message:
        print(f"rate: {result.rate} ({result.message})")
    else:
        print(f"rate: {result.rate:.3f}")
    return 0


def _parse_switches(specs: list[str]) -> list[tuple[float, float]]:
    switches = []
    for spec in specs:
        try:
            t_s, dt_s = spec.split(":")
            switches.append((float(t_s), float(dt_s)))
        except ValueError as exc:
            raise ConfigError(f"switch must be t:dt, got {spec!r}") from exc
    return switches


def _cmd_schedule(args) -> int:
    cfg = _base_config(args)
    switches = _parse_switches(args.switch)
    Schedule(switches, cfg.controller)  # a bad table fails before the build
    _print_trace_summary(*_timed_run(run_schedule, cfg, switches))
    return 0


def _cmd_compare(args) -> int:
    """One row a controller on one shared problem: wall(s) times the member's
    run, its initial condition and march; march(s) is the march alone."""
    cfg = _base_config(args)
    problem = build_problem(cfg)
    members = [("reference(0.01)", reference_config(cfg))]
    for name in sorted(_CONTROLLER_NAMES):
        kind = _CONTROLLER_NAMES[name]
        ctrl = ControllerConfig.for_kind(kind)
        if kind == "Constant":
            ctrl = replace(ctrl, dt0=0.01, dt_min=0.01)
        members.append((name, replace(cfg, controller=ctrl)))
    print(f"{'controller':>18}  {'energy':>14}  {'steps':>6}  {'wall(s)':>8}  {'march(s)':>8}")
    for name, member in members:
        trace, wall = _timed(run, member, problem)
        print(f"{name:>18}  {trace.final_energy:>14.6f}  {trace.steps:>6}  "
              f"{wall:>8.2f}  {trace.wall_time:>8.2f}")
    return 0


def _cmd_scaling(args) -> int:
    rows, slope = scaling_study(args.sizes, scheme=args.scheme.upper(),
                                steps=args.steps)
    print(f"{'n':>6}  {'nodes':>10}  {'s/step':>10}")
    for n, t in rows:
        print(f"{n:>6}  {n**3:>10}  {t:>10.4f}")
    print(f"slope: {slope:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfmpbe",
        description="Pseudo-transient ghost-fluid solver for the regularized"
        " nonlinear Poisson-Boltzmann equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one problem from an atom file")
    _add_problem_flags(p, atoms_required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("kirkwood", help="built-in unit-charge sphere benchmark")
    p.add_argument("--h", type=float, default=0.25)
    p.add_argument("--scheme", choices=("adi", "lod"), default="adi")
    p.add_argument("--dt", type=float, default=0.001)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--tend", type=float, default=50.0)
    p.add_argument("--tmin-stop", type=float, default=1.0)
    p.add_argument("--ic", choices=("zero", "lpb"), default="lpb")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_kirkwood)

    p = sub.add_parser("convergence", help="self-convergence study")
    p.add_argument("--vary", choices=("h", "dt"), required=True)
    p.add_argument("--values", type=float, nargs="+", required=True,
                   help="resolutions, finest used as reference")
    _add_problem_flags(p, atoms_required=False)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("schedule", help="piecewise-constant dt run")
    p.add_argument("--switch", action="append", required=True, metavar="T:DT",
                   help="dt taking effect at time T (repeatable)")
    _add_problem_flags(p, atoms_required=False)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("compare-controllers",
                       help="run every controller kind on one problem")
    _add_problem_flags(p, atoms_required=False)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("scaling", help="per-step wall-time scaling")
    p.add_argument("--sizes", type=int, nargs="+", default=[33, 49, 65])
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--scheme", choices=("adi", "lod"), default="adi")
    p.set_defaults(func=_cmd_scaling)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AssemblyError, DomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
