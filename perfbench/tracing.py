"""Spans around the public functions of the zenodecay layers.

``Tracer.install`` replaces every public function of ``cli``, ``scenarios``,
``dynamics``, ``rates`` and ``spectral`` with a timing shim, in every
zenodecay module namespace that holds it (``from ... import`` copies the
name, so ``zenodecay.scenarios.propagate`` and ``zenodecay.cli.dynamic_gamma``
are patched as well as the defining modules).  Each thread keeps its own
stack of open spans; the ``cli`` thread pool is replaced by one that hands
the submitting thread's open span to the worker, so rows evaluated with
``--jobs`` nest under their ``run_sweep``.  Spans stay in memory until
``write`` is called.

The library itself is not modified: everything here lives in the
benchmark and is installed at run time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "scenarios", "dynamics", "rates", "spectral")


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    layer: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _steps(args, kwargs):
    horizon = args[1] if len(args) > 1 else kwargs.get("horizon")
    dt = args[2] if len(args) > 2 else kwargs.get("dt")
    if horizon is None or not dt:
        return None
    return max(1, int(round(abs(horizon / dt))))


def _model_attrs(args, kwargs, result):
    model = args[0] if args else kwargs.get("model")
    attrs = {"dim": int(model.dimension)}
    steps = _steps(args, kwargs)
    if steps is not None:
        attrs["steps"] = steps
    return attrs


def _propagate_attrs(args, kwargs, result):
    import numpy as np

    attrs = _model_attrs(args, kwargs, result)
    norms = np.linalg.norm(result.states, axis=1)
    attrs["state_bytes"] = int(result.states.nbytes)
    attrs["norm_drift"] = float(np.abs(norms - norms[0]).max())
    return attrs


def _fit_attrs(args, kwargs, result):
    return {"residual_rms": float(result[1].residual_rms)}


def _sweep_attrs(args, kwargs, result):
    return {"jobs": args[1] if len(args) > 1 else kwargs.get("jobs", 1)}


def _kernel_attrs(args, kwargs, result):
    return {"points": int(result.eps.size)}


def _rate_attrs(args, kwargs, result):
    err = result.quadrature_error_estimate
    if err is None or result.gamma <= 0:
        return {}
    return {"rel_err_est": float(err) / result.gamma}


# facts read from the arguments and results of a call; computing them is
# tracer work and is timed as its own span in the "trace" layer
_PROBES = {
    "dynamics.propagate": _propagate_attrs,
    "dynamics.dissipation_trace": _model_attrs,
    "dynamics.fit_decay": _fit_attrs,
    "cli.run_sweep": _sweep_attrs,
    "spectral.kernel_from_dissipation": _kernel_attrs,
    "rates.perturbed_gamma": _rate_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hooked: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _call(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else None, name, layer,
                    threading.get_ident(), time.perf_counter(), 0.0)
        stack.append(span.span_id)
        try:
            return fn(*args, **kwargs), span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def run(self, name: str, layer: str, fn, *args, **kwargs):
        """Call fn inside a span; shimmed calls it makes become its children."""
        return self._call(name, layer, fn, args, kwargs)

    def _wrap(self, name: str, layer: str, fn):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            result, span = self._call(name, layer, fn, args, kwargs)
            if probe is not None:
                start = time.perf_counter()
                try:
                    span.attrs = probe(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass  # signature or result changed: metrics read from it go absent
                self.spans.append(Span(next(self._ids), span.parent_id, "trace.probe", "trace",
                                       span.thread, start, time.perf_counter()))
            return result

        return shim

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(task)

        return TracedThreadPoolExecutor

    def shim_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds a shim adds to one call, measured around a no-op (best of repeats)."""
        def noop():
            return None

        shim = self._wrap("trace.calibrate", "trace", noop)
        kept = len(self.spans)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                shim()
            best = min(best, (time.perf_counter() - start - bare) / calls)
            del self.spans[kept:]
        return best

    def install(self) -> None:
        """Shim every public function of the layer modules, wherever imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "zenodecay" or key.startswith("zenodecay."))]
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"zenodecay.{layer}")
            except ModuleNotFoundError:
                continue
            for fname in getattr(module, "__all__", ()):
                fn = getattr(module, fname, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                shim = self._wrap(f"{layer}.{fname}", layer, fn)
                self.hooked.add(f"{layer}.{fname}")
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            self._restore.append((namespace, attr, value))
                            setattr(namespace, attr, shim)
        cli = sys.modules.get("zenodecay.cli")
        if getattr(cli, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            self._restore.append((cli, "ThreadPoolExecutor", ThreadPoolExecutor))
            cli.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children evaluated in parallel threads overlap; the union of their
    intervals, clipped to the parent, is what is subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    out = {}
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(span.span_id, ())]
        out[span.span_id] = span.duration - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


# metric -> the hooked functions it is computed from; a metric whose
# functions are not all hooked, or whose probe no longer reads, is absent
_REQUIRES = {
    "dynamics.propagate_s": ("dynamics.propagate",),
    "dynamics.propagate_calls": ("dynamics.propagate",),
    "dynamics.steps_requested": ("dynamics.propagate", "dynamics.dissipation_trace"),
    "dynamics.s_per_requested_step": ("dynamics.propagate", "dynamics.dissipation_trace"),
    "dynamics.dissipation_trace_s": ("dynamics.dissipation_trace",),
    "dynamics.fit_decay_s": ("dynamics.fit_decay",),
    "dynamics.state_mb_max": ("dynamics.propagate",),
    "dynamics.dim_max": ("dynamics.propagate", "dynamics.dissipation_trace"),
    "dynamics.norm_drift_max": ("dynamics.propagate",),
    "dynamics.fit_residual_max": ("dynamics.fit_decay",),
    "cli.run_sweep_s": ("cli.run_sweep",),
    "cli.pool_sweep_s": ("cli.run_sweep",),
    "cli.render_rows_s": ("cli.render_rows",),
    "cli.rows_in_flight": ("cli.run_sweep",),
    "scenarios.dynamic_gamma_s": ("scenarios.dynamic_gamma",),
    "scenarios.build_dynamic_s": ("scenarios.build_dynamic",),
    "scenarios.scenario_trace_s": ("scenarios.scenario_trace",),
    "scenarios.analytic_gamma_calls": ("scenarios.analytic_gamma",),
    "scenarios.build_analytic_calls": ("scenarios.build_analytic",),
    "spectral.kernel_from_dissipation_s": ("spectral.kernel_from_dissipation",),
    "spectral.kernel_from_dissipation_calls": ("spectral.kernel_from_dissipation",),
    "spectral.kernel_points": ("spectral.kernel_from_dissipation",),
    "rates.perturbed_gamma_s": ("rates.perturbed_gamma",),
    "rates.perturbed_gamma_calls": ("rates.perturbed_gamma",),
    "rates.quad_err_est_max": ("rates.perturbed_gamma",),
}

# every per-layer metric not listed here is in seconds
UNITS = {
    "dynamics.propagate_calls": "count", "dynamics.steps_requested": "count",
    "dynamics.dim_max": "count", "dynamics.state_mb_max": "MB",
    "dynamics.norm_drift_max": "ratio", "dynamics.fit_residual_max": "ratio",
    "cli.rows_in_flight": "ratio", "scenarios.analytic_gamma_calls": "count",
    "scenarios.build_analytic_calls": "count", "spectral.kernel_from_dissipation_calls": "count",
    "spectral.kernel_points": "count", "rates.perturbed_gamma_calls": "count",
    "rates.quad_err_est_max": "ratio", "trace.spans": "count",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "s")


def layer_metrics(spans: list[Span], hooked: set[str], root_id: int,
                  shim_cost: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    root_id is the span around the whole measured loop, whose self time is
    the harness's own.  On one thread the layer self times sum to the root
    span's wall time; rows run by the --jobs pool add the time they overlap.
    shim_cost is the calibrated cost of one span.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    selfs = self_times(spans)

    def total(name):
        return float(sum(s.duration for s in by_name[name]))

    def attrs(names, key):
        """Values of one probed fact; None when calls were made but none gave it."""
        calls = [s for n in names for s in by_name[n]]
        values = [s.attrs[key] for s in calls if key in s.attrs]
        return None if calls and not values else values

    def attr_max(names, key):
        values = attrs(names, key)
        return None if values is None else max(values, default=0)

    stepping = ["dynamics.propagate", "dynamics.dissipation_trace"]
    step_counts = attrs(stepping, "steps")
    steps = None if step_counts is None else sum(step_counts)
    stepping_s = total("dynamics.propagate") + total("dynamics.dissipation_trace")
    state_bytes = attr_max(["dynamics.propagate"], "state_bytes")
    points = attrs(["spectral.kernel_from_dissipation"], "points")
    sweeps = by_name["cli.run_sweep"]
    sweep_ids = {s.span_id for s in sweeps}
    row_time = sum(s.duration for s in spans if s.parent_id in sweep_ids)
    sweep_time = sum(s.duration for s in sweeps)

    metrics = {
        "dynamics.propagate_s": total("dynamics.propagate"),
        "dynamics.propagate_calls": len(by_name["dynamics.propagate"]),
        "dynamics.steps_requested": steps,
        "dynamics.s_per_requested_step": None if steps is None else stepping_s / max(steps, 1),
        "dynamics.dissipation_trace_s": total("dynamics.dissipation_trace"),
        "dynamics.fit_decay_s": total("dynamics.fit_decay"),
        "dynamics.state_mb_max": None if state_bytes is None else state_bytes / 2**20,
        "dynamics.dim_max": attr_max(stepping, "dim"),
        "dynamics.norm_drift_max": attr_max(["dynamics.propagate"], "norm_drift"),
        "dynamics.fit_residual_max": attr_max(["dynamics.fit_decay"], "residual_rms"),
        "cli.run_sweep_s": sweep_time,
        "cli.pool_sweep_s": float(sum(s.duration for s in sweeps if s.attrs.get("jobs", 1) > 1)),
        "cli.render_rows_s": total("cli.render_rows"),
        "cli.rows_in_flight": row_time / sweep_time if sweep_time else 0.0,
        "scenarios.dynamic_gamma_s": total("scenarios.dynamic_gamma"),
        "scenarios.build_dynamic_s": total("scenarios.build_dynamic"),
        "scenarios.scenario_trace_s": total("scenarios.scenario_trace"),
        "scenarios.analytic_gamma_calls": len(by_name["scenarios.analytic_gamma"]),
        "scenarios.build_analytic_calls": len(by_name["scenarios.build_analytic"]),
        "spectral.kernel_from_dissipation_s": total("spectral.kernel_from_dissipation"),
        "spectral.kernel_from_dissipation_calls": len(by_name["spectral.kernel_from_dissipation"]),
        "spectral.kernel_points": None if points is None else sum(points),
        "rates.perturbed_gamma_s": total("rates.perturbed_gamma"),
        "rates.perturbed_gamma_calls": len(by_name["rates.perturbed_gamma"]),
        "rates.quad_err_est_max": attr_max(["rates.perturbed_gamma"], "rel_err_est"),
    }
    metrics = {k: v for k, v in metrics.items()
               if v is not None and all(r in hooked for r in _REQUIRES[k])}

    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span.layer] += selfs[span.span_id]
    for layer in LAYERS:
        if any(h.startswith(layer + ".") for h in hooked):
            metrics[f"{layer}.self_s"] = layer_self[layer]
    root = next(s for s in spans if s.span_id == root_id)
    metrics["bench.self_s"] = layer_self["bench"]
    metrics["trace.probe_s"] = layer_self["trace"]
    metrics["trace.wall_s"] = root.duration
    metrics["trace.self_sum_s"] = sum(layer_self.values())
    metrics["trace.spans"] = len(spans)
    metrics["trace.shim_cost_s"] = len(spans) * shim_cost + layer_self["trace"]
    return metrics
