"""Per-layer spans recorded from outside the solver.

Tracer wraps the public callables of each layer where the solver looks
them up, keeps one span per call in memory (name, start, end, parent span,
solve id) and puts every original back on exit.  Nothing in the package is
edited; with no Tracer active the solver runs its own code.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter, OrderedDict

import numpy as np

from gfmpbe import control, driver, stepping
from gfmpbe.stepping import AxisOperator
from gfmpbe.surface import InterfaceData

_F8 = 8
"""Bytes per float64 element."""


def _apply_bytes(args) -> int:
    """Computed bytes of one AxisOperator.apply: the field read and the
    zero-filled result written, plus diag, off, corr and the line result."""
    op, v = args[0], args[1]
    return _F8 * (2 * v.size + 4 * op.diag.size)


def _sweep_bytes(args) -> int:
    """Computed bytes of one AxisOperator.solve: the boundary copy read and
    written, plus rhs, corr, the three factor arrays and the solution lines."""
    op, boundary = args[0], args[3]
    return _F8 * (2 * boundary.size + 6 * op.diag.size)


class Tracer:
    """Context manager that installs the wrappers and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.solve_ids: list[int] = []
        self.counts: Counter = Counter()
        self.solve_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._factor_lru: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.solve_ids.append(self.solve_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        c = self.counts

        def crossings(args, kwargs, result):
            c["surface.crossings"] += len(result.crossings)

        def lines(args, kwargs, result):
            c["assembly.lines"] += sum(op.diag.shape[1] for op in result.ops)

        def step(args, kwargs, result):
            if kwargs.get("linearized", args[3] if len(args) > 3 else False):
                c["ic.steps"] += 1

        def apply(args, kwargs, result):
            c["apply.bytes"] += _apply_bytes(args)

        def sweep(args, kwargs, result):
            c["sweep.bytes"] += _sweep_bytes(args)
            self._replay_factor(args[0], args[1])

        for attr in ("classify_sphere", "classify_union", "classify_ses_grid"):
            self._wrap(driver, attr, "surface.classify", crossings)
        self._wrap(InterfaceData, "validate", "surface.validate")
        self._wrap(stepping, "compute_jumps", "jumps")
        self._wrap(driver, "build_split_operators", "assembly", lines)
        self._wrap(driver, "dirichlet_boundary", "boundary")
        self._wrap(driver, "initial_condition", "ic")
        self._wrap(driver, "adi_step", "step", step)
        self._wrap(driver, "lod_step", "step", step)
        self._wrap(stepping, "nonlinear_substep", "substep")
        self._wrap(AxisOperator, "apply", "apply", apply)
        self._wrap(AxisOperator, "solve", "sweep", sweep)
        self._wrap(driver, "solvation_energy", "energy")
        # Controller.observe computes no norm under Constant; the norm is
        # the controller's cost, so the span sits on error_norm.
        self._wrap(control, "error_norm", "control")
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _replay_factor(self, op: AxisOperator, tau: float) -> None:
        """Replay AxisOperator's factor cache: an LRU of
        stepping._FACTOR_CACHE_SIZE entries keyed by tau, per operator."""
        if tau == 0.0:
            return
        lru = self._factor_lru.setdefault(op, OrderedDict())
        self.counts["sweep.factor_lookups"] += 1
        if tau in lru:
            lru.move_to_end(tau)
            self.counts["sweep.factor_hits"] += 1
            return
        lru[tau] = None
        if len(lru) > stepping._FACTOR_CACHE_SIZE:
            lru.popitem(last=False)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Durations and self times (duration minus direct children), in s."""
        dur = (np.array(self.ends) - np.array(self.starts)) * 1e-9
        parents = np.array(self.parents, dtype=int)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        return dur, dur - covered

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total duration s, total self time s)."""
        dur, own = self.self_times()
        names = np.array(self.names)
        out = {}
        for name in dict.fromkeys(self.names):
            sel = names == name
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out

    def root_time(self) -> float:
        dur, _ = self.self_times()
        return float(dur[np.array(self.parents) < 0].sum())

    def write_csv(self, path) -> None:
        """One row per span: index, name, start and end in ns, parent, solve."""
        with open(path, "w") as f:
            f.write("span,name,start_ns,end_ns,parent,solve\n")
            for i, row in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.solve_ids)
            ):
                f.write(f"{i},{','.join(map(str, row))}\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repetition, as (value, unit)."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def per_call_ms(name):
        return 1e3 * own(name) / calls(name) if calls(name) else 0.0

    def gbps(name):
        return counts[f"{name}.bytes"] / own(name) * 1e-9 if own(name) else 0.0

    lookups = counts["sweep.factor_lookups"]
    return {
        "surface.classify_s": (own("surface.classify"), "s"),
        "surface.validate_s": (own("surface.validate"), "s"),
        "surface.crossings": (counts["surface.crossings"], "count"),
        "jumps.s": (own("jumps"), "s"),
        "assembly.s": (own("assembly"), "s"),
        "assembly.lines": (counts["assembly.lines"], "count"),
        "boundary.s": (own("boundary"), "s"),
        "setup.self_s": (own("setup"), "s"),
        "ic.s": (incl("ic"), "s"),
        "ic.steps": (counts["ic.steps"], "count"),
        "substep.s": (own("substep"), "s"),
        "substep.calls": (calls("substep"), "count"),
        "substep.ms_per_call": (per_call_ms("substep"), "ms"),
        "apply.s": (own("apply"), "s"),
        "apply.calls": (calls("apply"), "count"),
        "apply.ms_per_call": (per_call_ms("apply"), "ms"),
        "apply.gbps_computed": (gbps("apply"), "GB/s"),
        "sweep.s": (own("sweep"), "s"),
        "sweep.calls": (calls("sweep"), "count"),
        "sweep.ms_per_call": (per_call_ms("sweep"), "ms"),
        "sweep.gbps_computed": (gbps("sweep"), "GB/s"),
        "sweep.factor_hit_ratio": (
            counts["sweep.factor_hits"] / lookups if lookups else 0.0,
            "ratio",
        ),
        "step.self_s": (own("step"), "s"),
        "energy.s": (own("energy"), "s"),
        "energy.calls": (calls("energy"), "count"),
        "control.s": (own("control"), "s"),
        "control.calls": (calls("control"), "count"),
        "control.ms_per_call": (per_call_ms("control"), "ms"),
        "driver.self_s": (own("driver.run"), "s"),
    }
