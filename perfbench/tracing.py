"""In-memory span recorder for the traced benchmark run.

The recorder wraps public cyclefield functions at every name a caller
looks them up by (a module attribute, a name imported into another
module, or a class attribute), records one span per call (name, start,
end, parent) and a few work counters, and restores the originals when it
is removed.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time its child spans cover.
Per-op figures are taken between :meth:`Tracer.begin_op` and
:meth:`Tracer.end_op`; the spans of one op share the op's root span.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from array import array

import numpy as np

NOISE_BYTES_PER_DRAW = 3 * 8  # three float64 normals per path and step

# Counter hooks read the call's arguments by name.  When a signature change
# removes one, the hook skips its counters and notes the name in
# ``Tracer.missing``; it never fails the traced call.


def _args(tr, fn, args, kwargs, *names):
    """Values of the named arguments of one call, or None if one is gone."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    gone = [n for n in names if n not in ba.arguments]
    if gone:
        tr.missing.add(f"{fn.__qualname__}({', '.join(gone)}): counters skipped")
        return None
    return [ba.arguments[n] for n in names]


def _rk4_steps(horizon: float, n_steps) -> int:
    if horizon == 0.0:
        return 0
    return n_steps if n_steps is not None else max(1, math.ceil(1000.0 * horizon))


def _count_sample_paths(tr, fn, args, kwargs, result):
    tr.add("montecarlo.n_negative_K", result.n_negative_K)
    got = _args(tr, fn, args, kwargs, "t", "mc", "block_size")
    if got is None:
        return
    t, mc, block_size = got
    n_steps = round(t / mc.dt)
    tr.add("montecarlo.path_steps", mc.n_paths * n_steps)
    # noise the call asks for per block, from its arguments: not the size of
    # any buffer the program allocates
    tr.peak("montecarlo.noise_bytes_computed", min(block_size, mc.n_paths) * n_steps * NOISE_BYTES_PER_DRAW)


def _count_appendix5(tr, fn, args, kwargs, result):
    got = _args(tr, fn, args, kwargs, "T", "dt", "n_paths")
    if got is None:
        return
    T, dt, n_paths = got
    n_steps = round(T / dt)
    tr.add("montecarlo.path_steps", n_paths * n_steps)
    tr.peak("montecarlo.noise_bytes_computed", n_paths * n_steps * NOISE_BYTES_PER_DRAW)


def _count_mean_state(tr, fn, args, kwargs, result):
    got = _args(tr, fn, args, kwargs, "t", "n_steps")
    if got is not None:
        tr.add("green.rk4_steps", _rk4_steps(*got))


def _count_covariance_ode(tr, fn, args, kwargs, result):
    got = _args(tr, fn, args, kwargs, "s", "n_steps")
    if got is not None:
        tr.add("green.rk4_steps", _rk4_steps(*got))


def _count_rows(tr, fn, args, kwargs, result):
    tr.add("paths.rows_read", len(result))


def patch_table():
    """(span name, [(owner, attribute), ...], counter hook) per traced function."""
    from cyclefield import cli, corrections, green, montecarlo, params, paths, phases, weights

    return [
        ("cli.run", [(cli, "run")], None),
        ("params.load_config", [(params, "load_config"), (cli, "load_config")], None),
        ("params.replace", [(params.ModelParams, "replace")], None),
        ("phases.solve_phase", [(phases, "solve_phase"), (cli, "solve_phase")], None),
        ("phases.gamma3_fixed_point", [(phases, "gamma3_fixed_point")], None),
        ("phases.boundary_shifts", [(phases, "boundary_shifts")], None),
        ("montecarlo.sample_paths", [(montecarlo, "sample_paths")], _count_sample_paths),
        ("montecarlo.compare_to_green", [(montecarlo, "compare_to_green")], None),
        ("montecarlo.appendix5_negligibility", [(montecarlo, "appendix5_negligibility")], _count_appendix5),
        ("green.mean_state", [(green, "mean_state"), (montecarlo, "mean_state")], _count_mean_state),
        ("green.covariance_ode", [(green, "covariance_ode"), (montecarlo, "covariance_ode")], _count_covariance_ode),
        ("green.coefficients", [(green, "coefficients"), (corrections, "coefficients")], None),
        ("green.transition_density", [(green, "transition_density"), (corrections, "transition_density")], None),
        ("green.laplace_propagator", [(green, "laplace_propagator")], None),
        ("corrections.corrected_density", [(corrections, "corrected_density")], None),
        ("corrections.correction_potential", [(corrections, "correction_potential")], None),
        ("weights.log_weight_total", [(weights, "log_weight_total")], None),
        ("weights.log_weight_intertemporal_constraint", [(weights, "log_weight_intertemporal_constraint")], None),
        ("paths.from_csv", [(paths.AgentPath, "from_csv")], _count_rows),
    ]


# Per-layer metrics reported by a traced run.  Self times and counters are
# per op (median over the traced ops).
SELF_TIMES = [
    "montecarlo.sample_paths", "montecarlo.compare_to_green", "montecarlo.appendix5_negligibility",
    "green.mean_state", "green.covariance_ode", "green.transition_density",
    "green.laplace_propagator", "green.coefficients",
    "corrections.corrected_density", "corrections.correction_potential",
    "weights.log_weight_total", "weights.log_weight_intertemporal_constraint",
    "paths.from_csv", "phases.solve_phase", "phases.gamma3_fixed_point",
    "params.replace", "params.load_config", "cli.run",
]
CALLS = ["green.transition_density", "green.coefficients", "phases.solve_phase", "phases.boundary_shifts"]
RAISED = [("phases.solve_phase", "InfeasiblePhaseError"), ("phases.solve_phase", "ConvergenceError")]
COUNTERS = [
    ("montecarlo.path_steps", "count"),
    ("montecarlo.n_negative_K", "count"),
    ("montecarlo.noise_bytes_computed", "bytes"),
    ("green.rk4_steps", "count"),
    ("paths.rows_read", "count"),
    ("cli.bytes_written", "bytes"),
]


def per_layer_metric_units() -> dict:
    """Name -> unit of the per-layer metrics in the JSON result.

    Self time enters as its share of the op's wall time, which compares
    across workloads and across machines of different speed; the seconds
    are in :func:`report_metric_units`.
    """
    units = {f"{n}.self_share": "ratio" for n in SELF_TIMES}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({f"{n}.raised.{e}": "count" for n, e in RAISED})
    units.update(dict(COUNTERS))
    units["trace.overhead_frac"] = "ratio"
    return units


def report_metric_units() -> dict:
    """Everything a traced run prints: self seconds plus the per-layer metrics."""
    return {**{f"{n}.self_s": "s" for n in SELF_TIMES}, **per_layer_metric_units()}


class Tracer:
    """Span recorder: parallel arrays of (name id, parent index, start, end)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: set[str] = set()  # traced names no longer found, counters that failed
        self._counts: dict[str, float] = {}
        self._op_first = 0
        self.op_summaries: list[dict] = []

    # -- counters -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self._counts[key] = self._counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self._counts[key] = max(self._counts.get(key, 0), value)

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped to record one span per call (and ``hook``'s counters)."""
        nid = self._id(name)
        clock = time.perf_counter
        stack, end = self._stack, self.end
        name_append, parent_append = self.name.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append

        def traced(*args, **kwargs):
            idx = len(end)
            name_append(nid)
            parent_append(stack[-1] if stack else -1)
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.add(f"{name}.raised.{type(exc).__name__}", 1)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, fn, args, kwargs, result)
                except Exception as exc:  # a counter must never fail the traced call
                    self.missing.add(f"{name}: counters failed ({type(exc).__name__}: {exc})")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function at every site that still exists."""
        for name, sites, hook in patch_table():
            present = [(o, a) for o, a in sites if a in vars(o)]
            self.missing.update(f"{getattr(o, '__name__', o)}.{a}" for o, a in sites if a not in vars(o))
            if not present:
                continue
            original = vars(present[0][0])[present[0][1]]
            is_cm = isinstance(original, classmethod)
            wrapped = self.span(name, original.__func__ if is_cm else original, hook)
            if is_cm:
                wrapped = classmethod(wrapped)
            for owner, attr in present:
                current = vars(owner)[attr]
                if current is not original:
                    raise RuntimeError(f"{name}: site {attr} of {owner!r} holds another object")
                self._saved.append((owner, attr, current))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-op aggregation ---------------------------------------------------

    def begin_op(self, label: str) -> None:
        """Open the op's root span; every span until :meth:`end_op` descends from it."""
        self._counts = {}
        self._op_first = len(self.start)
        self.name.append(self._id(label))
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(self._op_first)
        self.start.append(time.perf_counter())

    def end_op(self) -> dict:
        """Close the op's root span; return its self times, call counts and counters."""
        self.end[self._op_first] = time.perf_counter()
        self._stack.pop()
        lo = self._op_first
        name = np.frombuffer(self.name, dtype=np.int32)[lo:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:] - lo
        dur = np.frombuffer(self.end)[lo:] - np.frombuffer(self.start)[lo:]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        summary = dict(self._counts)
        for nid, n in enumerate(self.names):
            summary[f"{n}.self_s"] = float(self_s[nid])
            summary[f"{n}.self_share"] = float(self_s[nid] / dur[0])
            summary[f"{n}.calls"] = int(calls[nid])
        self.op_summaries.append(summary)
        return summary

    def write(self, path: str) -> None:
        """Write every recorded span to an .npz file (names as a JSON list)."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def per_layer_metrics(op_summaries: list[dict], traced_op_s: list[float], untraced_op_s: list[float]) -> dict:
    """Median over traced ops of each reported metric, plus the tracing overhead.

    A metric with no samples (no op of that kind completed) is left out.
    """
    out = {}
    if op_summaries:
        for key in report_metric_units():
            if key != "trace.overhead_frac":
                out[key] = float(np.median([s.get(key, 0) for s in op_summaries]))
    if traced_op_s and untraced_op_s:
        out["trace.overhead_frac"] = statistics.median(traced_op_s) / statistics.median(untraced_op_s) - 1.0
    return out
