"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import json
from pathlib import Path

import pytest

import run as bench
from gfmpbe import driver, stepping
from tracing import Tracer
from workloads import Reference, Workload, kirkwood_65, solute_batch

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)


def _tiny_kirkwood() -> Workload:
    return kirkwood_65(seed=5, h=1.0)  # 17^3 grid


def _tiny_batch() -> Workload:
    return solute_batch(seed=5, n_poses=1)


def _emitted(workload: Workload, trace: bool) -> dict:
    result = bench.measure(workload, seconds=0.0, trace=trace)
    return bench.report(workload, 5, trace, result, bench.environment())


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("make", [_tiny_kirkwood, _tiny_batch])
def test_every_declared_metric_is_emitted_with_its_unit(make, trace, section):
    line = _emitted(make(), trace)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want
    assert line["attempted"] >= 1
    json.dumps(line)


def test_solute_pose_is_correct_against_its_reference():
    line = _emitted(_tiny_batch(), trace=False)
    assert line["correct"] and line["failed"] == 0


def test_wrong_reference_fails_the_check():
    workload = _tiny_kirkwood()
    workload.reference = Reference(-10.0, ((-10.0, 0.3),))
    line = _emitted(workload, trace=False)
    assert not line["correct"]
    assert line["failed"] == line["attempted"]


def test_constant_controller_computes_no_norm_and_always_hits_the_factor_cache():
    metrics = _emitted(_tiny_kirkwood(), trace=True)["metrics"]
    assert metrics["control.calls"]["value"] == 0
    sweeps = metrics["sweep.calls"]["value"]
    assert metrics["sweep.factor_hit_ratio"]["value"] == pytest.approx((sweeps - 3) / sweeps)
    assert metrics["ic.steps"]["value"] == 0


def test_self_times_account_for_the_traced_repetition_and_wrappers_are_removed():
    workload = _tiny_batch()
    refs = bench.reference_energies(workload)
    originals = (driver.adi_step, stepping.nonlinear_substep, stepping.AxisOperator.solve)
    with Tracer() as tracer:
        rep = bench.repetition(workload, refs, tracer)
    assert (driver.adi_step, stepping.nonlinear_substep, stepping.AxisOperator.solve) == originals
    dur, own = tracer.self_times()
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(tracer.root_time(), rel=1e-12)
    assert 0.0 <= 1.0 - tracer.root_time() / rep.wall < 0.05
    assert tracer.counts["ic.steps"] > 0
