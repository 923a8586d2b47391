"""Time to a converged energy, end to end and layer by layer.

    python3 bench/run.py --workload kirkwood-65 --seed 1 --seconds 40 --trace 0

Runs one workload from one process through the public API
(build_problem, run, reference_config).  With --trace 0 it repeats the
workload's solves until --seconds have passed and reports the end-to-end
metrics as medians over repetitions.  With --trace 1 it runs an untraced
warm-up, a traced and an untraced repetition and reports the per-layer
metrics of the traced one.  Every energy is checked against its reference.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Spans, environment and per-solve detail go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "gfmpbe" / "__init__.py").is_file():
    sys.exit(f"error: no solver sources at {SRC / 'gfmpbe'}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from gfmpbe import GfmpbeError, build_problem, run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CRITERION_6_REL,
    WORKLOADS,
    Reference,
    Workload,
    reference_energies,
)

OUT_DIR = ROOT / ".bench_out"

IMPORT_RSS_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
"""Peak resident memory once Python, numpy, scipy and the solver are
imported: the part of peak_rss_mb that no solve causes."""

SETUP_PASSES = 2
"""Set-up-only passes before the timed repetitions, so that setup_s is a
median over several builds even when one repetition takes most of a run."""


@dataclass
class Repetition:
    """Outcome of running every solve of a workload once."""

    wall: float = 0.0
    setup: float = 0.0
    march: float = 0.0
    steps: int = 0
    solve_times: list[float] = field(default_factory=list)
    solves: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not s["ok"] for s in self.solves)


def repetition(
    workload: Workload, refs: list[Reference | None], tracer: Tracer | None = None
) -> Repetition:
    """Build and solve every configuration once, checking each energy.

    A solve that raises or misses its reference bound counts as failed and
    the repetition goes on.  With a tracer, build_problem and run each get
    a root span, and each solve gets its own solve id.
    """

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    rep = Repetition()
    start = time.perf_counter()
    for i, (cfg, ref) in enumerate(zip(workload.configs, refs)):
        if tracer is not None:
            tracer.solve_id = i
        record = {"solve": i, "ok": False}
        try:
            t0 = time.perf_counter()
            problem = call("setup", build_problem, cfg)
            t1 = time.perf_counter()
            trace = call("driver.run", run, cfg, problem=problem)
            t2 = time.perf_counter()
        except GfmpbeError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            rep.solves.append(record)
            continue
        rep.setup += t1 - t0
        rep.solve_times.append(t2 - t1)
        rep.march += trace.wall_time
        rep.steps += trace.steps
        e = trace.final_energy
        record.update(energy=e, steps=trace.steps, solve_s=t2 - t1)
        if ref is None:
            record["error"] = "reference run raised"
        else:
            record.update(e_ref=ref.energy, energy_err=ref.error(e), ok=ref.holds(e))
        rep.solves.append(record)
    rep.wall = time.perf_counter() - start
    return rep


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, or None
    when that percentile would not lie above the median."""
    n = len(samples)
    q = math.floor(100 * (1 - 10 / n)) if n else 0
    if q < 50:
        return None
    return q, float(np.percentile(samples, q))


def _median(values) -> float:
    """Median, or NaN when every solve raised and there is nothing to time."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end_metrics(
    reps: list[Repetition], setups: list[float]
) -> dict[str, tuple[float, str]]:
    """Medians over repetitions; setup_s also counts the set-up-only passes."""
    return {
        "wall_s": (_median(r.wall for r in reps), "s"),
        "setup_s": (_median(setups + [r.setup for r in reps]), "s"),
        "solve_s": (_median(t for r in reps for t in r.solve_times), "s"),
        "steps": (_median(r.steps for r in reps), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "solver_rss_mb": (peak_rss_mb() - IMPORT_RSS_MB, "MB"),
    }


def step_ms(reps: list[Repetition]) -> float:
    """Median over repetitions of summed march wall time per step."""
    return _median(1e3 * r.march / r.steps for r in reps if r.steps)


def setup_passes(workload: Workload, passes: int) -> list[float]:
    """Summed build_problem time of each set-up-only pass over the workload."""
    out = []
    for _ in range(passes):
        t0 = time.perf_counter()
        try:
            for cfg in workload.configs:
                build_problem(cfg)
        except GfmpbeError:
            break  # the repetitions record the failure
        out.append(time.perf_counter() - t0)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def environment() -> dict:
    """Cores, versions, BLAS and its threads, and *_NUM_THREADS as found."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Untimed reference pass, then the timed or traced repetitions."""
    refs = reference_energies(workload)
    result: dict = {"references": [r and r.energy for r in refs]}
    if not trace:
        start = time.perf_counter()
        setups = setup_passes(workload, SETUP_PASSES)
        reps = []
        while not reps or time.perf_counter() - start < seconds:
            reps.append(repetition(workload, refs))
        result["reps"] = reps
        result["setups"] = setups
        result["metrics"] = end_to_end_metrics(reps, setups)
        return result
    # The first repetition in a process runs slower (allocator growth), so
    # the untraced baseline is the repetition after the traced one.
    warm = repetition(workload, refs)
    with Tracer() as tracer:
        traced = repetition(workload, refs, tracer)
    plain = repetition(workload, refs)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = ((traced.wall - plain.wall) / plain.wall, "ratio")
    result["reps"] = [warm, traced, plain]
    result["metrics"] = metrics
    result["tracer"] = tracer
    result["unaccounted_frac"] = 1.0 - tracer.root_time() / traced.wall
    return result


def report(workload: Workload, seed: int, trace: bool, result: dict, env: dict) -> dict:
    """Print the human-readable lines and write the detail file; return the
    final JSON line's object."""
    name = workload.name
    reps: list[Repetition] = result["reps"]
    attempted = sum(len(r.solves) for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = result["metrics"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  repetitions {len(reps)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<24} {value:>14.6g} {unit}")
    errors = [s["energy_err"] for r in reps for s in r.solves if "energy_err" in s]
    worst = max(errors, default=math.nan)
    print(f"  {'energy_err':<24} {worst:>14.6g} relative (worst solve)")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    if not trace:
        print(f"  {'step_ms':<24} {step_ms(reps):>14.6g} ms")
        samples = [t for r in reps for t in r.solve_times]
        tail = tail_percentile(samples)
        text = f"p{tail[0]} {tail[1]:.6g} s" if tail else "no percentile with 10 beyond"
        print(f"  solve_s tail: {text} over {len(samples)} solves")
        if workload.reference is None:
            over = sum(s.get("energy_err", 0.0) > CRITERION_6_REL for s in reps[0].solves)
            print(f"  {over} of {len(reps[0].solves)} solves exceed criterion 6's 2e-3")
    else:
        print(f"  trace unaccounted_frac {result['unaccounted_frac']:.3g}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    detail = {
        "workload": name,
        "seed": seed,
        "environment": env,
        "references": result["references"],
        "repetitions": [
            {
                "wall_s": r.wall,
                "setup_s": r.setup,
                "march_s": r.march,
                "steps": r.steps,
                "solves": r.solves,
            }
            for r in reps
        ],
        "setup_only_s": result.get("setups", []),
        "energy_err": worst,
        "import_rss_mb": IMPORT_RSS_MB,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if trace:
        result["tracer"].write_csv(OUT_DIR / f"{stem}-spans.csv")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    result = measure(workload, args.seconds, bool(args.trace))
    line = report(workload, args.seed, bool(args.trace), result, environment())
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
