"""Problem assembly, the pseudo-time loop, studies, and exports.

run and run_schedule march the same loop under a different step-size policy
(a Controller, a Schedule); each trace records its stop_reason."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .control import Controller, ControllerConfig, Schedule
from .errors import ConfigError, DivergenceError, InitializationError, NumericalError
from .grid import (
    Field,
    Grid,
    TrilinearStencil,
    build_grid,
    trilinear_stencil,
    write_field_binary,
    write_field_csv,
)
from .molecule import (
    AtomSet,
    CHARGE_FACTOR,
    PhysicalParams,
    SINGULARITY_GUARD,
    dirichlet_boundary,
    solvation_energy,
)
from .steady import CG_RTOL, linearized_steady_state
from .stepping import SplitOperators, adi_step, build_split_operators, lod_step
from .surface import (
    InterfaceData,
    classify_sphere,
    classify_ses_grid,
    classify_union,
    import_interface,
)

ENERGY_GUARD = 1e8
"""Absolute energies beyond this abort the run as divergent."""


@dataclass(slots=True)
class RunConfig:
    """Everything needed to assemble and run one problem: h must be positive
    and finite, probe_radius nonnegative and finite, and the box's corners
    finite, the upper above the lower on each axis.  A run writes no file:
    see EnergyTrace.write_csv and export_potential."""

    atoms: AtomSet
    h: float
    surface: str = "ses-grid"  # sphere | vdw | ses-grid | import:PATH
    probe_radius: float = 1.4
    scheme: str = "ADI"  # ADI | LOD
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    ic: str = "lpb"  # zero | lpb
    params: PhysicalParams = field(default_factory=PhysicalParams)
    box: tuple[float, float, float, float, float, float] | None = None

    def __post_init__(self):
        for name, value in (("h", self.h), ("probe_radius", self.probe_radius)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.h <= 0:
            raise ConfigError(f"h must be positive, got {self.h}")
        if self.probe_radius < 0:
            raise ConfigError(f"probe_radius must be nonnegative, got {self.probe_radius}")
        if self.box is not None:
            if len(self.box) != 6:
                raise ConfigError(f"box must be (x0, y0, z0, x1, y1, z1), got {self.box}")
            if not all(map(math.isfinite, self.box)):
                raise ConfigError(f"box corners must be finite, got {self.box}")
            if not all(hi > lo for lo, hi in zip(self.box[:3], self.box[3:])):
                raise ConfigError(
                    f"box upper corner must exceed lower corner, got {self.box}"
                )
        if self.scheme not in ("ADI", "LOD"):
            raise ConfigError(f"scheme must be ADI or LOD, got {self.scheme!r}")
        if self.ic not in ("zero", "lpb"):
            raise ConfigError(f"ic must be zero or lpb, got {self.ic!r}")
        ok = self.surface in ("sphere", "vdw", "ses-grid") or self.surface.startswith(
            "import:"
        )
        if not ok:
            raise ConfigError(f"unknown surface kind {self.surface!r}")


@dataclass
class Problem:
    """Assembled discrete problem ready to step; stencil reads the field at
    the atom centers for the energy."""

    grid: Grid
    data: InterfaceData
    atoms: AtomSet
    params: PhysicalParams
    split: SplitOperators
    boundary: Field
    stencil: TrilinearStencil


@dataclass(frozen=True)
class TraceRow:
    step: int
    t: float
    dt: float
    err: float
    factor: float
    energy: float
    de: float


@dataclass
class EnergyTrace:
    """Per-step history of one run plus the final state and stop_reason:
    "horizon", "tolerance" or "post_min_steps" (control.stop_reason)."""

    rows: list[TraceRow]
    final_energy: float
    steps: int
    wall_time: float
    final_field: Field | None = None
    stop_reason: str | None = None

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("step,t,dt,e_n,F,E_sol,dE\n")
            for r in self.rows:
                f.write(
                    f"{r.step},{r.t!r},{r.dt!r},{r.err!r},{r.factor!r},"
                    f"{r.energy!r},{r.de!r}\n"
                )

    @property
    def dts(self) -> np.ndarray:
        return np.array([r.dt for r in self.rows[1:]])


def build_problem(cfg: RunConfig) -> Problem:
    """Build grid, classify the surface, and assemble the axis operators.

    An imported surface brings its own grid: an h that differs from its
    spacing by more than 1e-9 relative, or a box that differs from its
    corners, raises ConfigError.  An atom center outside the grid box raises
    DomainError before the surface is classified."""
    if cfg.surface == "sphere" and len(cfg.atoms) != 1:
        raise ConfigError("sphere surface requires exactly one atom")
    if cfg.surface.startswith("import:"):
        data = import_interface(cfg.surface[len("import:") :])
        grid = data.grid
        _check_imported_grid(cfg, grid)
    else:
        grid = build_grid(cfg.atoms, cfg.h, cfg.probe_radius, box=cfg.box)
    stencil = trilinear_stencil(grid, cfg.atoms.centers)
    if cfg.surface == "sphere":
        data = classify_sphere(grid, cfg.atoms.centers[0], cfg.atoms.radii[0])
    elif cfg.surface == "vdw":
        data = classify_union(grid, cfg.atoms)
    elif cfg.surface == "ses-grid":
        data = classify_ses_grid(grid, cfg.atoms, cfg.probe_radius)
    boundary = _boundary_field(grid, cfg.atoms, cfg.params)
    split = build_split_operators(data, cfg.atoms, cfg.params, boundary)
    return Problem(grid, data, cfg.atoms, cfg.params, split, boundary, stencil)


def _check_imported_grid(cfg: RunConfig, grid: Grid) -> None:
    """ConfigError when cfg's h or box disagrees with an imported grid."""
    if abs(cfg.h - grid.h) > 1e-9 * grid.h:
        raise ConfigError(
            f"h {cfg.h} does not match the imported interface's spacing {grid.h}"
        )
    if cfg.box is not None:
        corners = (*grid.origin, *grid.upper)
        tol = 1e-9 * max(1.0, *(hi - lo for lo, hi in zip(grid.origin, grid.upper)))
        if any(abs(a - b) > tol for a, b in zip(cfg.box, corners)):
            raise ConfigError(
                f"box {tuple(cfg.box)} does not match the imported interface's"
                f" corners {corners}"
            )


def _boundary_field(grid: Grid, atoms: AtomSet, params: PhysicalParams) -> Field:
    """Field holding the far-field Dirichlet values on the six box faces."""
    mask = np.zeros(grid.shape, dtype=bool)
    mask[0, :, :] = mask[-1, :, :] = True
    mask[:, 0, :] = mask[:, -1, :] = True
    mask[:, :, 0] = mask[:, :, -1] = True
    values = np.zeros(grid.shape)
    values[mask] = dirichlet_boundary(atoms, grid.nodes_at(mask), params)
    # the split holds a view of these values in place of a copy
    values.flags.writeable = False
    return Field(grid, values)


def _step_once(u: np.ndarray, dt: float, split: SplitOperators, scheme: str) -> np.ndarray:
    if scheme == "ADI":
        return adi_step(u, dt, split)
    return lod_step(u, dt, split)


def _check_finite(u: np.ndarray, step: int, t=None, dt=None) -> None:
    """DivergenceError on a non-finite u, naming step, max|u| and, when
    given, t and dt."""
    if not np.all(np.isfinite(u)):
        raise _divergence("non-finite field value", u, step, t, dt)


def _checked_energy(u: np.ndarray, problem: Problem, step: int, t=None, dt=None) -> float:
    """Solvation energy of u; DivergenceError on a runaway energy, naming
    step, max|u| and, when given, t and dt."""
    e = _energy(u, problem)
    if not math.isfinite(e) or abs(e) > ENERGY_GUARD:
        raise _divergence(f"runaway energy {e}", u, step, t, dt)
    return e


def _energy(u: np.ndarray, problem: Problem) -> float:
    field = Field(problem.grid, u)
    return solvation_energy(field, problem.atoms, stencil=problem.stencil)


def _divergence(message: str, u: np.ndarray, step: int, t, dt) -> DivergenceError:
    """DivergenceError naming step, t, dt and max|u| over the entries of u
    that are not NaN (NaN when all are)."""
    mag = np.abs(u[~np.isnan(u)])
    peak = float(mag.max()) if mag.size else math.nan
    return DivergenceError(message, step, t, dt, peak)


def initial_condition(kind: str, problem: Problem) -> Field:
    """Starting field: zeros, or ("lpb") the linearized steady state of
    steady.linearized_steady_state, where a non-finite field, a runaway
    energy or a solve that misses CG_RTOL raises InitializationError.  The
    start field, a copy of the boundary field, is made after the solve, so
    that the solve's peak holds one field fewer."""
    if kind == "zero":
        return Field(problem.grid, problem.boundary.values.copy())
    if kind != "lpb":
        raise ConfigError(f"unknown initial condition kind {kind!r}")
    x, iterations, rel = linearized_steady_state(problem.split, problem.boundary.values)
    u = problem.boundary.values.copy()
    u[1:-1, 1:-1, 1:-1] = x
    try:
        _check_finite(u, iterations)
        _checked_energy(u, problem, iterations)
    except DivergenceError as exc:
        raise InitializationError(
            "linearized steady-state solve diverged", exc.step
        ) from exc
    if not rel <= CG_RTOL:
        raise InitializationError(
            f"linearized steady-state CG stopped after {iterations} iterations at"
            f" relative residual {rel:.3e}, tolerance {CG_RTOL:g}",
            iterations,
        )
    return Field(problem.grid, u)


def run(cfg: RunConfig, problem: Problem | None = None) -> EnergyTrace:
    """Pseudo-time iteration under cfg's controller until the stop predicate.

    Reuses a prebuilt Problem when given (the assembly is the expensive
    part of parameter studies).
    """
    return _march(cfg, Controller(cfg.controller), problem)


def run_schedule(
    cfg: RunConfig,
    switches: list[tuple[float, float]],
    problem: Problem | None = None,
) -> EnergyTrace:
    """As run, with dt from the (t_switch, dt) table switches: see
    control.Schedule, which validates it before any assembly.  Stopping
    follows cfg.controller's horizon, tolerance, and guard."""
    return _march(cfg, Schedule(switches, cfg.controller), problem)


def _march(cfg: RunConfig, policy, problem: Problem | None) -> EnergyTrace:
    """Step from cfg's initial condition under policy (a Controller or a
    Schedule) until it gives a stop_reason."""
    if problem is None:
        problem = build_problem(cfg)
    u = initial_condition(cfg.ic, problem).values
    energy = _energy(u, problem)
    rows = [TraceRow(0, 0.0, policy.dt, math.nan, math.nan, energy, math.nan)]
    t = 0.0
    step = 0
    start = time.perf_counter()
    reason = policy.stop_reason(t, None)
    try:
        while reason is None:
            dt = policy.dt
            try:
                u_new = _step_once(u, dt, problem.split, cfg.scheme)
            except NumericalError as exc:
                # The step's substep scans u, the field of the last row, so
                # that the loop need not scan it again.  A finite u leaves
                # this step as the one that failed.
                _check_finite(u, step, rows[-1].t, rows[-1].dt)
                raise DivergenceError(
                    f"step failed: {exc}", step + 1, t + dt, dt
                ) from exc
            step += 1
            t += dt
            e_new = _checked_energy(u_new, problem, step, t, dt)
            de = abs(e_new - energy)
            policy.observe(u_new, u, e_new, energy)
            st = policy.state
            rows.append(TraceRow(step, t, dt, st.last_error, st.last_factor, e_new, de))
            u, energy = u_new, e_new
            reason = policy.stop_reason(t, de)
    finally:
        # A kept Problem holds no step workspace between runs.
        problem.split._release_workspace()
    _check_finite(u, step, rows[-1].t, rows[-1].dt)
    wall = time.perf_counter() - start
    return EnergyTrace(rows, energy, step, wall, Field(problem.grid, u), reason)


@dataclass(frozen=True)
class ConvergenceRow:
    value: float
    energy: float
    error: float
    diverged: bool


@dataclass
class ConvergenceResult:
    rows: list[ConvergenceRow]
    rate: float
    message: str


def convergence_study(
    cfg: RunConfig, vary: str, values: list[float]
) -> ConvergenceResult:
    """Self-convergence: rerun at each resolution, fit log error vs log value.

    The finest value (smallest h or dt) serves as the reference; its row
    carries a NaN error.  Divergent members are flagged and excluded from
    the fit.  Not available for imported surfaces when varying h.  The
    members of a dt study differ only in their controller, so they share
    one built problem.
    """
    if vary not in ("h", "dt"):
        raise ConfigError(f"vary must be h or dt, got {vary!r}")
    if len(values) < 3:
        raise ConfigError("need at least three resolutions")
    if vary == "h" and cfg.surface.startswith("import:"):
        raise ConfigError("cannot vary h with an imported surface")
    order = sorted(values, reverse=True)
    problem = build_problem(cfg) if vary == "dt" else None
    energies: dict[float, float | None] = {}
    for v in order:
        member = _member_config(cfg, vary, v)
        try:
            energies[v] = run(member, problem=problem).final_energy
        except DivergenceError:
            energies[v] = None
    ref_value = order[-1]
    e_ref = energies[ref_value]
    if e_ref is None:
        return ConvergenceResult([], math.nan, "reference run diverged")
    rows = []
    pts = []
    for v in order:
        e = energies[v]
        if e is None:
            rows.append(ConvergenceRow(v, math.nan, math.nan, True))
            continue
        if v == ref_value:
            rows.append(ConvergenceRow(v, e, math.nan, False))
            continue
        err = abs(e - e_ref)
        rows.append(ConvergenceRow(v, e, err, False))
        if err > 0:
            pts.append((math.log(v), math.log(err)))
    if len(pts) < 2:
        return ConvergenceResult(
            rows, math.nan, "degenerate fit: fewer than two nonzero errors"
        )
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ConvergenceResult(rows, slope, "")


def _member_config(cfg: RunConfig, vary: str, value: float) -> RunConfig:
    if vary == "h":
        return replace(cfg, h=value)
    ctrl = replace(
        cfg.controller,
        kind="Constant",
        dt0=value,
        dt_min=min(value, cfg.controller.dt_min),
        dt_max=max(value, cfg.controller.dt_max),
    )
    return replace(cfg, controller=ctrl)


def export_potential(
    u: Field,
    atoms: AtomSet,
    params: PhysicalParams,
    mode: str,
    path,
    inside: np.ndarray | None = None,
) -> None:
    """Dump the field; mode phi adds the Coulomb part on inside nodes.

    Nodes within the singularity guard of an atom center receive inf in
    phi mode.  The format follows the file extension: .csv is the text
    dump, anything else the binary layout.
    """
    if mode == "u":
        out = u
    elif mode == "phi":
        if inside is None:
            raise ConfigError("phi mode needs the inside mask")
        values = u.values.copy()
        pts = u.grid.nodes_at(inside)
        if len(pts):
            g = np.zeros(len(pts))
            for center, charge in zip(atoms.centers, atoms.charges):
                d = np.sqrt(((pts - center) ** 2).sum(axis=1))
                with np.errstate(divide="ignore"):
                    g += np.where(
                        d < SINGULARITY_GUARD,
                        np.inf,
                        charge / np.where(d < SINGULARITY_GUARD, 1.0, d),
                    )
            values[inside] += (CHARGE_FACTOR / params.eps_in) * g
        out = Field(u.grid, values)
    else:
        raise ConfigError(f"potential mode must be u or phi, got {mode!r}")
    if str(path).endswith(".csv"):
        write_field_csv(out, path)
    else:
        write_field_binary(out, path)


def kirkwood_config(
    h: float = 0.25,
    scheme: str = "ADI",
    controller: ControllerConfig | None = None,
    ic: str = "lpb",
    box_half: float = 8.0,
) -> RunConfig:
    """Built-in benchmark: unit charge in a radius-2 sphere, kappa^2 = 1."""
    from .molecule import Atom

    atoms = AtomSet([Atom((0.0, 0.0, 0.0), 1.0, 2.0)])
    params = PhysicalParams(eps_in=1.0, eps_out=80.0, kappa_sq=1.0)
    if controller is None:
        controller = ControllerConfig(
            kind="Constant", dt0=0.001, tol=1e-4, t_min_stop=1.0
        )
    return RunConfig(
        atoms=atoms,
        h=h,
        surface="sphere",
        scheme=scheme,
        controller=controller,
        ic=ic,
        params=params,
        box=(-box_half,) * 3 + (box_half,) * 3,
    )


def reference_config(cfg: RunConfig) -> RunConfig:
    """The fixed protocol used as E_ref: constant dt = 0.01, LPB start."""
    ctrl = ControllerConfig(
        kind="Constant",
        dt0=0.01,
        dt_min=min(0.01, cfg.controller.dt_min),
        dt_max=max(0.01, cfg.controller.dt_max),
        tol=1e-4,
        t_end=50.0,
        t_min_stop=5.0,
    )
    return replace(cfg, controller=ctrl, ic="lpb")


def scaling_study(
    sizes: list[int],
    scheme: str = "ADI",
    steps: int = 6,
) -> tuple[list[tuple[int, float]], float]:
    """Median per-step wall time across grid sizes; returns rows and slope.

    Each size n runs the built-in benchmark on an n^3 grid over its +-8 A
    box; the first step (cache warm-up) is excluded from the median.  The
    slope is fitted on log(time) vs log(total nodes).
    """
    if len(sizes) < 2:
        raise ConfigError("scaling study needs at least two sizes")
    if steps < 3:
        raise ConfigError("scaling study needs at least three steps per size")
    rows = []
    for n in sizes:
        if n < 5:
            raise ConfigError(f"grid size too small for scaling: {n}")
        cfg = kirkwood_config(h=16.0 / (n - 1), scheme=scheme, ic="zero")
        problem = build_problem(cfg)
        u = initial_condition("zero", problem).values
        times = []
        for _ in range(steps):
            t0 = time.perf_counter()
            u = _step_once(u, 0.01, problem.split, scheme)
            times.append(time.perf_counter() - t0)
        rows.append((n, float(np.median(times[1:]))))
    xs = np.log([float(n) ** 3 for n, _ in rows])
    ys = np.log([t for _, t in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope
