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
    export_potential,
    kirkwood_config,
    reference_config,
    run,
    run_schedule,
    scaling_study,
)
from .errors import ConfigError, DivergenceError, GfmpbeError, ParseError
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

# The solute flags by dest, with the values an --atoms run takes for those not
# given.  They default to None, so that the Kirkwood problem can reject them.
_SOLUTE_DEFAULTS = {"surface": "ses-grid", "probe": 1.4, "ionic": 0.0,
                    "eps_in": 1.0, "eps_out": 80.0, "box": None}


def _add_problem_flags(p: argparse.ArgumentParser, atoms_required: bool) -> None:
    note = "" if atoms_required else (
        "; without it, the built-in Kirkwood sphere, which takes no solute flag")
    p.add_argument("--atoms", required=atoms_required, metavar="FILE",
                   help="atom file, one `x y z q r` record per line" + note)
    p.add_argument("--h", type=float, default=0.5, help="grid spacing (A)")
    p.add_argument("--surface",
                   help="sphere | vdw | ses-grid | import:PATH (default ses-grid)")
    p.add_argument("--probe", type=float, help="probe radius (A, default 1.4)")
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
    p.add_argument("--ionic", type=float, help="ionic strength (molar, default 0)")
    p.add_argument("--eps-in", type=float, help="solute dielectric (default 1)")
    p.add_argument("--eps-out", type=float, help="solvent dielectric (default 80)")
    p.add_argument("--box", type=float, nargs=6,
                   metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"),
                   help="grid box corners (default: fitted to the atoms)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="CSV", help="energy trace output")
    p.add_argument("--field", metavar="FILE",
                   help="final field dump (.csv or binary)")
    p.add_argument("--field-mode", choices=("u", "phi"), default="u")


def _controller_from_args(args) -> ControllerConfig:
    given = {"dt_min": args.dt_min, "dt_max": args.dt_max, "tol": args.tol,
             "t_end": args.tend, "t_min_stop": args.tmin_stop}
    overrides = {name: value for name, value in given.items() if value is not None}
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
    """The run that args ask for: the solute of --atoms, or without it the
    built-in Kirkwood problem, which rejects any solute flag given."""
    controller = _controller_from_args(args)
    scheme = args.scheme.upper()
    if args.atoms is None:
        for dest in _SOLUTE_DEFAULTS:
            if getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                raise ConfigError(
                    f"{flag} needs --atoms: the built-in Kirkwood problem fixes it"
                )
        return kirkwood_config(h=args.h, scheme=scheme, controller=controller,
                               ic=args.ic)
    flags = {dest: default if getattr(args, dest) is None else getattr(args, dest)
             for dest, default in _SOLUTE_DEFAULTS.items()}
    if flags["surface"].startswith("import:") and args.probe is not None:
        raise ConfigError("--probe does not apply to --surface import:, whose"
                          " file fixes the surface")
    try:
        with open(args.atoms, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"atom file {args.atoms} is not UTF-8 text: {exc}") from exc
    atoms = parse_atoms(text)
    params = PhysicalParams(eps_in=flags["eps_in"], eps_out=flags["eps_out"],
                            ionic_strength=flags["ionic"])
    return RunConfig(
        atoms=atoms, h=args.h, surface=flags["surface"], probe_radius=flags["probe"],
        scheme=scheme, controller=controller, ic=args.ic, params=params,
        box=tuple(flags["box"]) if flags["box"] else None,
    )


def _timed(fn, *args):
    """fn(*args) and the wall time it took, in s."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _run_and_write(args, cfg: RunConfig, march, *march_args) -> None:
    """march(cfg, *march_args, problem=...) on a problem built here; writes
    --trace and --field, then prints the summary.  wall time covers the
    build, the initial condition and the march, not the writes; setup time
    is the build alone and march time the march alone."""
    start = time.perf_counter()
    problem = build_problem(cfg)
    setup = time.perf_counter() - start
    trace = march(cfg, *march_args, problem=problem)
    wall = time.perf_counter() - start
    if args.trace:
        trace.write_csv(args.trace)
    if args.field:
        export_potential(trace.final_field, problem.atoms, problem.params,
                         args.field_mode, args.field, inside=problem.data.inside)
    print(f"final energy: {trace.final_energy:.6f} kcal/mol")
    print(f"steps: {trace.steps}")
    print(f"wall time: {wall:.3f} s")
    print(f"setup time: {setup:.3f} s")
    print(f"march time: {trace.wall_time:.3f} s")
    print(f"stopped: {trace.stop_reason}")


def _cmd_solve(args) -> int:
    _run_and_write(args, _config_from_args(args), run)
    return 0


def _cmd_convergence(args) -> int:
    cfg = _config_from_args(args)
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
    cfg = _config_from_args(args)
    switches = _parse_switches(args.switch)
    Schedule(switches, cfg.controller)  # a bad table fails before the build
    _run_and_write(args, cfg, run_schedule, switches)
    return 0


def _cmd_compare(args) -> int:
    """One row a controller on one shared problem: wall(s) times the member's
    run, its initial condition and march; march(s) is the march alone."""
    cfg = _config_from_args(args)
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
    _add_output_flags(p)
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
    p.set_defaults(func=_cmd_solve, atoms=None, controller="constant", dt_min=None,
                   dt_max=None, **dict.fromkeys(_SOLUTE_DEFAULTS))

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
    _add_output_flags(p)
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
    except DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except GfmpbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
