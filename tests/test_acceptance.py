"""Benchmark acceptance gate: eight criteria, one PASS/FAIL line each.

Run with -s to see the lines as they complete; the whole module takes a few
minutes because several criteria require deeply converged 65^3 runs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gfmpbe.control import ControllerConfig
from gfmpbe.driver import (
    RunConfig,
    build_problem,
    convergence_study,
    kirkwood_config,
    reference_config,
    run,
    run_schedule,
    scaling_study,
)
from gfmpbe.grid import Field, build_grid
from gfmpbe.molecule import Atom, AtomSet, PhysicalParams
from gfmpbe.stepping import build_split_operators, compute_jumps, nonlinear_substep
from gfmpbe.surface import (
    classify_sphere,
    classify_ses_grid,
    classify_union,
    export_interface,
    import_interface,
)
from line_arrays import axis_lines, line_split, neg_matrix

pytestmark = pytest.mark.acceptance

TABLE_ENERGY = -82.051117
"""Benchmark grid value the Kirkwood run must approach (kcal/mol)."""

ANALYTIC_ENERGY = -81.9782
"""Closed-form series value for the same sphere (kcal/mol)."""


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def kirkwood_problem():
    cfg = kirkwood_config()
    return cfg, build_problem(cfg)


@pytest.fixture(scope="module")
def desk_problem():
    atoms = AtomSet(
        [
            Atom((0.0, 0.0, 0.0), 1.0, 2.0),
            Atom((2.8, 0.0, 0.0), -0.7, 1.7),
            Atom((0.0, 2.9, 0.4), 0.5, 1.8),
            Atom((-2.7, 0.3, -0.6), -0.8, 1.6),
        ]
    )
    params = PhysicalParams(eps_in=1.0, eps_out=80.0, ionic_strength=0.15)
    cfg = RunConfig(
        atoms=atoms,
        h=0.5,
        surface="ses-grid",
        probe_radius=1.4,
        scheme="ADI",
        controller=ControllerConfig(
            kind="Constant", dt0=0.01, tol=1e-15, t_end=5.0, t_min_stop=100.0
        ),
        ic="lpb",
        params=params,
    )
    return cfg, build_problem(cfg)


def test_criterion_1_kirkwood_benchmark(kirkwood_problem):
    cfg, problem = kirkwood_problem
    energy = run(cfg, problem=problem).final_energy
    d_table = abs(energy - TABLE_ENERGY)
    d_exact = abs(energy - ANALYTIC_ENERGY)
    _report(
        1,
        d_table <= 0.3 and d_exact <= 0.5,
        f"E={energy:.6f}, |d_table|={d_table:.4f} (<=0.3), "
        f"|d_exact|={d_exact:.4f} (<=0.5)",
    )


def test_criterion_2_adi_lod_agreement(kirkwood_problem):
    cfg, problem = kirkwood_problem
    deep = ControllerConfig(
        kind="Constant", dt0=0.001, tol=1e-6, t_end=10.0, t_min_stop=1.0
    )
    e = {}
    for scheme in ("ADI", "LOD"):
        member = replace(cfg, scheme=scheme, controller=deep)
        e[scheme] = run(member, problem=problem).final_energy
    diff = abs(e["ADI"] - e["LOD"])
    _report(
        2,
        diff <= 0.01,
        f"E_ADI={e['ADI']:.6f}, E_LOD={e['LOD']:.6f}, |diff|={diff:.2e} (<=0.01)",
    )


def test_criterion_3_spatial_convergence():
    ctrl = ControllerConfig(
        kind="Constant", dt0=0.001, tol=1e-7, t_end=15.0, t_min_stop=5.0
    )
    cfg = kirkwood_config(h=0.25, controller=ctrl, ic="lpb", box_half=4.0)
    result = convergence_study(cfg, "h", [1.0, 0.5, 0.25, 0.125])
    errs = [f"{r.value}:{r.error:.2e}" for r in result.rows if not math.isnan(r.error)]
    _report(
        3,
        result.rate >= 1.5 and not any(r.diverged for r in result.rows),
        f"rate={result.rate:.3f} (>=1.5), errors {errs}",
    )


def test_criterion_4_temporal_order():
    ctrl = ControllerConfig(
        kind="Constant", dt0=0.01, tol=1e-15, t_end=1.0, t_min_stop=10.0
    )
    cfg = kirkwood_config(h=0.5, controller=ctrl, ic="zero", box_half=4.0)
    result = convergence_study(cfg, "dt", [0.04, 0.02, 0.01, 0.0025])
    errs = [r.error for r in result.rows if not math.isnan(r.error)]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = len(ratios) == 2 and all(1.5 <= r <= 3.0 for r in ratios)
    _report(
        4,
        ok,
        f"successive error ratios {[f'{r:.2f}' for r in ratios]} (each in [1.5,3]), "
        f"fitted rate {result.rate:.2f}",
    )


def test_criterion_5_schedule_ordering(desk_problem):
    cfg, problem = desk_problem
    lines = []
    ok = True
    for scheme in ("ADI", "LOD"):
        member = replace(cfg, scheme=scheme)
        ref_ctrl = replace(member.controller, dt0=0.001, dt_min=0.001)
        e_ref = run(
            replace(member, controller=ref_ctrl), problem=problem
        ).final_energy
        # equal step counts: 450+500 vs 500+450
        tr_a = run_schedule(member, [(0.0, 0.01), (4.5, 0.001)], problem=problem)
        tr_b = run_schedule(member, [(0.0, 0.001), (0.5, 0.01)], problem=problem)
        assert tr_a.steps == tr_b.steps
        err_a = abs(tr_a.final_energy - e_ref)
        err_b = abs(tr_b.final_energy - e_ref)
        ok &= err_a < err_b
        # three schedules sharing the final dt agree
        finals = [
            run_schedule(member, sw, problem=problem).final_energy
            for sw in (
                [(0.0, 0.01)],
                [(0.0, 0.001), (1.0, 0.01)],
                [(0.0, 0.005), (2.5, 0.01)],
            )
        ]
        spread = (max(finals) - min(finals)) / abs(finals[0])
        ok &= spread <= 5e-3
        lines.append(
            f"{scheme}: err(large->small)={err_a:.2e} < err(small->large)={err_b:.2e},"
            f" shared-final spread {spread:.1e} (<=5e-3)"
        )
    _report(5, ok, "; ".join(lines))


def test_criterion_6_nonincreasing_pid(desk_problem):
    cfg, problem = desk_problem
    ref = run(reference_config(cfg), problem=problem)
    nipid = replace(cfg, controller=ControllerConfig.for_kind("NonincreasingPID"))
    trace = run(nipid, problem=problem)
    dts = trace.dts
    monotone = bool(np.all(np.diff(dts) <= 1e-15))
    rel = abs(trace.final_energy - ref.final_energy) / abs(ref.final_energy)
    frac = trace.steps / ref.steps
    _report(
        6,
        monotone and rel <= 2e-3 and frac <= 0.40,
        f"monotone={monotone}, rel_err={rel:.2e} (<=2e-3), "
        f"steps {trace.steps}/{ref.steps} = {frac:.1%} (<=40%)",
    )


def _check_manufactured(rng) -> float:
    n = int(rng.integers(8, 16))
    h = 1.0 / (n - 1)
    cut = int(rng.integers(1, n - 2))
    theta = float(rng.uniform(0.05, 0.95))
    alpha, beta, gamma, delta = rng.uniform(-2, 2, size=4)
    eps_in = float(rng.uniform(0.5, 4.0))
    eps_out = float(rng.uniform(eps_in, 100.0))
    low_inside = bool(rng.integers(0, 2))
    x = np.arange(n) * h
    x_i = (cut + theta) * h
    u = np.where(np.arange(n) <= cut, alpha * x + beta, gamma * x + delta)
    hi_minus_lo = (gamma * x_i + delta) - (alpha * x_i + beta)
    if low_inside:
        a, b = hi_minus_lo, eps_out * gamma - eps_in * alpha
    else:
        a, b = -hi_minus_lo, eps_out * alpha - eps_in * gamma
    flags = np.zeros(n, dtype=bool)
    flags[: cut + 1] = low_inside
    flags[cut + 1 :] = not low_inside
    # the operator build_split_operators makes along a line of these flags
    op = line_split(flags, (eps_in, eps_out), {cut: (theta, a, b)}, (u[0], u[-1]), h).ops[0]
    m = n - 2
    fold = np.zeros(m)
    # the Dirichlet fold from the end edges' weights and the end values
    fold[0], fold[-1] = op.weights[0, 0] * u[0], op.weights[-1, 0] * u[-1]
    mat = neg_matrix(op.diag[:, 0], op.weights[:, 0])
    x_sol = np.linalg.solve(mat, op.corr[:, 0] + fold)
    scale = max(1.0, np.abs(u).max())
    solve_err = np.abs(x_sol - u[1:-1]).max() / scale
    field = np.broadcast_to(u[:, None, None], op.shape).copy()
    resid = np.abs(op.apply(field)[:, 1, 1]).max() * h * h / scale
    return max(solve_err, resid)


def _substep_worst_error() -> float:
    rng = np.random.default_rng(42)
    w0 = rng.uniform(-6.0, 6.0, size=100)
    kappa = rng.uniform(0.0, 10.0, size=100)
    dt = rng.uniform(0.0, 0.5, size=100)
    strength = np.where(np.arange(100) % 2 == 0, 1.0, 0.5)
    lam = strength * kappa * dt

    def rk4(n):
        h = 1.0 / n
        w = w0.copy()
        for _ in range(n):
            k1 = -lam * np.sinh(w)
            k2 = -lam * np.sinh(w + 0.5 * h * k1)
            k3 = -lam * np.sinh(w + 0.5 * h * k2)
            k4 = -lam * np.sinh(w + h * k3)
            w = w + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        return w

    n = 1024
    ref = rk4(n)
    while n < 2**17:
        n *= 2
        nxt = rk4(n)
        done = np.abs(nxt - ref).max() < 1e-12
        ref = nxt
        if done:
            break
    got = np.array(
        [
            nonlinear_substep(np.array([w0[i]]), kappa[i], dt[i], strength[i])[0]
            for i in range(100)
        ]
    )
    return float(np.abs(got - ref).max())


def _two_sphere_line_check() -> tuple[float, int]:
    """Worst sweep-vs-dense residual and the number of lines checked, on the
    operators build_split_operators makes."""
    rng = np.random.default_rng(2025)
    atoms = AtomSet(
        [Atom((0.0, 0.0, 0.0), 1.0, 1.8), Atom((2.1, 0.5, -0.2), -0.6, 1.4)]
    )
    grid = build_grid(atoms, h=0.5, probe_radius=1.0)
    data = classify_union(grid, atoms)
    params = PhysicalParams(eps_in=2.0, eps_out=80.0, kappa_sq=1.0)
    # Dirichlet values 0.3 and -0.2 at the low and high end of every line
    bvals = np.zeros(grid.shape)
    for axis in range(3):
        lo, hi = [slice(1, -1)] * 3, [slice(1, -1)] * 3
        lo[axis], hi[axis] = 0, -1
        bvals[tuple(lo)], bvals[tuple(hi)] = 0.3, -0.2
    split = build_split_operators(data, atoms, params, Field(grid, bvals))
    jumps = compute_jumps(data, atoms, params)
    worst = 0.0
    n_lines = 0
    dt = 0.37
    for op in split.ops:
        w = op.weights
        # symmetry is structural; assert dominance on every line
        assert np.all(w >= 0.0) and np.all(op.diag >= 0.0)
        assert np.all(op.diag >= (w[:-1] + w[1:]) * (1 - 1e-13))
        n_lines += op.diag.shape[1]
        # dense comparison on the diagonal subset, a1 == a2, against the
        # reference arrays of assemble_lines
        t1, t2 = (grid.shape[a] - 2 for a in range(3) if a != op.axis)
        subset = np.arange(min(t1, t2)) * (t2 + 1)
        diag, weights, corr, dir_lo, dir_hi = axis_lines(
            data, params, jumps, bvals, op.axis, subset
        )
        m = len(diag)
        rhs = rng.normal(size=grid.shape)
        got = op.solve(dt, rhs, split.boundary)
        rhs, got = (
            np.moveaxis(v, op.axis, 0)[1:-1, 1:-1, 1:-1].reshape(m, -1) for v in (rhs, got)
        )
        for k, line in enumerate(subset):
            mat = np.eye(m) + dt * neg_matrix(diag[:, k], weights[:, k])
            fold = np.zeros(m)
            fold[0], fold[-1] = dir_lo[k], dir_hi[k]
            want = np.linalg.solve(mat, rhs[:, line] + dt * (corr[:, k] + fold))
            worst = max(worst, float(np.abs(got[:, line] - want).max()))
    return worst, n_lines


def _consistency_exhaustive() -> int:
    """Crossing/classification agreement on 17^3 grids, four generators."""
    atoms1 = AtomSet([Atom((0.05, -0.1, 0.02), 1.0, 2.0)])
    atoms2 = AtomSet(
        [Atom((-0.8, 0.0, 0.2), 0.5, 1.6), Atom((1.1, 0.4, -0.3), -0.5, 1.3)]
    )
    grid = build_grid(atoms1, h=0.5, probe_radius=1.4, box=(-4.0,) * 3 + (4.0,) * 3)
    assert grid.shape == (17, 17, 17)
    variants = [
        classify_sphere(grid, atoms1.centers[0], 2.0),
        classify_union(grid, atoms2),
        classify_ses_grid(grid, atoms2, 1.4),
        classify_ses_grid(grid, atoms1, 0.0),
    ]
    # single atom with zero probe reduces to the union classification
    assert variants[3] == classify_union(grid, atoms1)
    checked = 0
    for data in variants:
        keys = set(map(tuple, data.crossings.tolist()))
        n_mixed = 0
        for axis in range(3):
            sl_lo = [slice(None)] * 3
            sl_hi = [slice(None)] * 3
            sl_lo[axis] = slice(0, -1)
            sl_hi[axis] = slice(1, None)
            mixed = data.inside[tuple(sl_lo)] != data.inside[tuple(sl_hi)]
            for idx in np.argwhere(mixed):
                assert (axis, *map(int, idx)) in keys
                n_mixed += 1
        # crossings and sign-change edges are in bijection
        assert n_mixed == len(keys)
        checked += n_mixed
    return checked


def test_criterion_7_property_suites(tmp_path):
    rng = np.random.default_rng(2024)
    worst_manufactured = max(_check_manufactured(rng) for _ in range(20))
    worst_substep = _substep_worst_error()
    worst_thomas, n_lines = _two_sphere_line_check()
    n_crossings = _consistency_exhaustive()

    # interchange round trip on the ses variant
    atoms = AtomSet(
        [Atom((-0.8, 0.0, 0.2), 0.5, 1.6), Atom((1.1, 0.4, -0.3), -0.5, 1.3)]
    )
    grid = build_grid(atoms, h=0.5, probe_radius=1.4, box=(-4.0,) * 3 + (4.0,) * 3)
    data = classify_ses_grid(grid, atoms, 1.4)
    path = tmp_path / "round.srf"
    export_interface(data, path)
    round_trip = import_interface(path) == data

    # zero vs LPB initial condition share the steady state
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
    ic_rel = abs(e_zero - e_lpb) / abs(e_lpb)

    ok = (
        worst_manufactured <= 1e-12
        and worst_substep <= 1e-10
        and worst_thomas <= 1e-12
        and round_trip
        and ic_rel <= 1e-6
    )
    _report(
        7,
        ok,
        f"manufactured {worst_manufactured:.1e} (<=1e-12), "
        f"substep-vs-RK4 {worst_substep:.1e} (<=1e-10), "
        f"thomas-vs-dense {worst_thomas:.1e} (<=1e-12) over {n_lines} lines, "
        f"{n_crossings} crossings consistent, round-trip={round_trip}, "
        f"ic agreement {ic_rel:.1e} (<=1e-6)",
    )


def test_criterion_8_per_step_scaling():
    rows, slope = scaling_study([33, 49, 65, 81], scheme="ADI", steps=6)
    times = ", ".join(f"{n}^3:{t * 1e3:.1f}ms" for n, t in rows)
    _report(8, 0.8 <= slope <= 1.3, f"slope={slope:.3f} (in [0.8,1.3]); {times}")
