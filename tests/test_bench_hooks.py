"""The solver names the benchmark's tracer patches and reads.

bench/tracing.py wraps AxisOperator.apply and solve, reads op.diag,
counts an interface's crossings as len(data.crossings) and replays the
factor cache through stepping._FACTOR_CACHE_SIZE.  A small
traced solve here fails on a rename in the solver before the benchmark does.
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest

from gfmpbe import driver, stepping
from gfmpbe.control import ControllerConfig
from gfmpbe.driver import build_problem, kirkwood_config, run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_yields_every_layer_metric_and_restores_the_solver():
    tracing = _tracing()
    ctrl = ControllerConfig(kind="Constant", dt0=0.01, t_end=0.05)
    cfg = kirkwood_config(h=1.0, controller=ctrl, ic="zero", box_half=4.0)

    def hooked():
        return stepping.AxisOperator.apply, stepping.AxisOperator.solve, driver.adi_step

    originals = hooked()
    with tracing.Tracer() as tracer:
        trace = run(cfg)
    assert hooked() == originals
    metrics = tracing.layer_metrics(tracer)
    # bench/run.py adds the overhead from a traced and an untraced repetition.
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
    assert set(metrics) == names
    assert metrics["assembly.lines"][0] == 3 * 7 * 7  # a 9^3 grid
    assert metrics["surface.crossings"][0] == len(build_problem(cfg).data.theta) > 0
    # The one interface check runs where the interface is made, so
    # surface.validate_s measures it inside the classification.
    checks = [i for i, name in enumerate(tracer.names) if name == "surface.validate"]
    assert [tracer.names[tracer.parents[i]] for i in checks] == ["surface.classify"]
    steps = trace.steps
    assert metrics["apply.calls"][0] == 2 * steps
    sweeps = metrics["sweep.calls"][0]
    assert sweeps == 3 * steps > 0
    # One dt under Constant: the first step's three sweeps miss, every
    # other sweep hits.
    assert metrics["sweep.factor_hit_ratio"][0] == pytest.approx((sweeps - 3) / sweeps)
    assert metrics["apply.gbps_computed"][0] > 0
    assert metrics["sweep.gbps_computed"][0] > 0


def test_traced_lpb_start_is_one_ic_span_per_run(monkeypatch):
    """bench/tracing.py times the LPB start by wrapping
    driver.initial_condition, which the march looks up in driver's globals:
    each run has one ic span, and the linearized solve runs inside it."""
    tracing = _tracing()
    solves = []

    def timed(*args):
        start = time.perf_counter_ns()
        result = solve(*args)
        solves.append((start, time.perf_counter_ns()))
        return result

    solve = driver.linearized_steady_state
    monkeypatch.setattr(driver, "linearized_steady_state", timed)
    ctrl = ControllerConfig(kind="Constant", dt0=0.01, t_end=0.02)
    cfg = kirkwood_config(h=1.0, controller=ctrl, ic="lpb", box_half=4.0)
    with tracing.Tracer() as tracer:
        for _ in range(2):
            run(cfg)
    spans = [i for i, name in enumerate(tracer.names) if name == "ic"]
    assert len(spans) == len(solves) == 2
    for i, (start, end) in zip(spans, solves):
        assert tracer.starts[i] <= start < end <= tracer.ends[i]
    assert tracing.layer_metrics(tracer)["ic.s"][0] > 0


@pytest.mark.parametrize("scheme", ["ADI", "LOD"])
def test_replayed_misses_are_three_per_factorization(monkeypatch, scheme):
    """The tracer replays the factor cache as one LRU of
    stepping._FACTOR_CACHE_SIZE taus per operator, where the solver keeps
    one per split.  The three sweeps of a step share a tau, so the replay
    misses exactly three times per factorization of the split's table, on
    an adaptive march as under Constant."""
    tracing = _tracing()
    factorizations = []

    def counting(diag, o, tau):
        factorizations.append(tau)
        return factor(diag, o, tau)

    factor = stepping.ldlt_factor_into
    monkeypatch.setattr(stepping, "ldlt_factor_into", counting)
    ctrl = ControllerConfig.for_kind("NonincreasingPID")
    cfg = kirkwood_config(h=0.5, scheme=scheme, controller=ctrl, box_half=4.0)
    with tracing.Tracer() as tracer:
        trace = run(cfg)
    misses = tracer.counts["sweep.factor_lookups"] - tracer.counts["sweep.factor_hits"]
    assert len(set(trace.dts)) > stepping._FACTOR_CACHE_SIZE
    assert misses == 3 * len(factorizations) > 0
