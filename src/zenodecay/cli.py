"""Command-line front end: declarative configs, sweeps, sample dumps.

A single JSON config describes one scenario, the parameter to sweep and the
route(s) to evaluate.  ``zeno run`` emits one report row per sweep value as
CSV or JSON, never aborting the sweep on a row failure; ``zeno validate``
checks the config only; ``zeno kernel`` and ``zeno trace`` dump the
broadening kernel and the time-domain amplitudes for external plotting.

The library's dataclasses are the config schema.  Each scenario, density
and ``dynamic`` block is read through the class it builds (``kind`` picks
the class): its keys are the class's field names, each value is read by its
field's annotation, and a field without a default is required.

Units follow the library convention: hbar = 1, energies in one user-chosen
unit, times in its inverse.  ``--jobs N`` evaluates up to N rows at once,
on threads of the calling process; all outputs are deterministic for a
given config and byte-identical for every --jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, ZenoError
from .scenarios import (
    DynamicControls,
    RabiDriveScenario,
    ScatteringScenario,
    UnstableLevelScenario,
    analytic_gamma,
    build_analytic,
    dynamic_gamma,
    scenario_amplitude,
    scenario_trace,
)
from .spectral import FlatDensity, PowerLawDensity, TabulatedDensity

__all__ = ["main", "parse_config", "run_sweep", "render_rows", "sweep_columns"]

SCHEMA_VERSION = 1

_log = logging.getLogger(__name__)

_ROUTES = ("analytic", "dynamic", "both")

# sweep path -> (scenario class or None for any, attribute name)
_SWEEP_PATHS = {
    "omega_f": (None, "omega_f"),
    "rabi.omega": (RabiDriveScenario, "omega"),
    "rabi.omega_21": (RabiDriveScenario, "omega_21"),
    "unstable.lambda_r": (UnstableLevelScenario, "lambda_r"),
    "unstable.lambda_i": (UnstableLevelScenario, "lambda_i"),
    "scattering.rate": (ScatteringScenario, "rate"),
}

# the most points a sweep or a kernel grid may have, checked before any
# grid is allocated
_MAX_POINTS = 10**6

# schema-1 keys of the dynamic block that still load, as ints, but choose
# nothing any more: key -> why it is ignored
_IGNORED_CONTROLS = {
    "eig_cutoff": "static models have one propagator",
    "sample_stride": "the stride is set by the horizon and dt",
    "dim_budget": "one allocation cap bounds every array",
}


def _typed(value, path, types):
    """value, if it is of one of types; a bool is not taken for an int."""
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        names = " or ".join(t.__name__ for t in types)
        raise ConfigError(path, f"expected {names}, got {type(value).__name__}")
    return value


def _get(mapping, key, path, types, required=True, default=None):
    if not isinstance(mapping, dict):
        raise ConfigError(path, "expected an object")
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return _typed(mapping[key], f"{path}.{key}", types)


def _finite(value) -> bool:
    # an int compares with a float exactly, so a JSON integer beyond the
    # double range fails here instead of overflowing in float()
    return abs(value) <= sys.float_info.max


def _number(value, path):
    if not _finite(_typed(value, path, (int, float))):
        raise ConfigError(path, "must be finite")
    return float(value)


def _get_number(mapping, key, path):
    return _number(_get(mapping, key, path, (int, float)), f"{path}.{key}")


def _check_known_keys(mapping, known, path):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _parse_array(value, path):
    """A list of finite numbers as a float array; the message names a bad entry."""
    for index, entry in enumerate(_typed(value, path, (list,))):
        if not isinstance(entry, (int, float)) or isinstance(entry, bool) or not _finite(entry):
            raise ConfigError(path, f"entry {index} must be a finite number, got {entry!r:.40}")
    return np.asarray(value, dtype=float)


def _parse_pair(value, path):
    pair = _parse_array(value, path)
    if pair.size != 2:
        raise ConfigError(path, f"expected a [low, high] pair, got {pair.size} entries")
    return float(pair[0]), float(pair[1])


def _parse_kind(obj, path, classes, what):
    """An instance of the class that obj's "kind" names, read from obj's keys."""
    kind = _get(obj, "kind", path, (str,))
    if kind not in classes:
        raise ConfigError(f"{path}.kind", f"unknown {what} kind {kind!r}")
    return _read_fields(classes[kind], obj, path, ("kind",))


_DENSITIES = {"flat": FlatDensity, "power_law": PowerLawDensity, "tabulated": TabulatedDensity}
_SCENARIOS = {
    "rabi": RabiDriveScenario,
    "unstable": UnstableLevelScenario,
    "scattering": ScatteringScenario,
}

# field annotation, less any "| None" -> reader(value, path) of its JSON value
_READERS = {
    "float": _number,
    "int": lambda value, path: _typed(value, path, (int,)),
    "str": lambda value, path: _typed(value, path, (str,)),
    "tuple[float, float]": _parse_pair,
    "SpectralDensity": lambda value, path: _parse_kind(value, path, _DENSITIES, "density"),
    "np.ndarray": _parse_array,
}
# annotations whose JSON null counts as a key left out
_NULL_IS_ABSENT = ("tuple[float, float]", "SpectralDensity")


def _read_fields(cls, obj, path, extra):
    """An instance of the dataclass cls from the JSON object obj.

    The keys are cls's field names plus extra, and each value is read by its
    field's annotation.  A field without a default is required; one with a
    default keeps it when its key is left out.  A ValueError or TypeError
    from building the instance is reported at path.
    """
    _check_known_keys(obj, {f.name for f in fields(cls)} | set(extra), path)
    kwargs = {}
    try:
        for field in fields(cls):
            key, annotation = f"{path}.{field.name}", field.type.removesuffix(" | None")
            value = obj.get(field.name)
            if field.name in obj and (value is not None or annotation not in _NULL_IS_ABSENT):
                kwargs[field.name] = _READERS[annotation](value, key)
            elif field.default is MISSING:
                raise ConfigError(key, "missing required field")
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_sweep(obj, scenario, path):
    sweep_path = _get(obj, "path", path, (str,))
    if sweep_path not in _SWEEP_PATHS:
        known = ", ".join(sorted(_SWEEP_PATHS))
        raise ConfigError(f"{path}.path", f"unknown sweep path; known paths: {known}")
    cls, attr = _SWEEP_PATHS[sweep_path]
    if cls is not None and not isinstance(scenario, cls):
        raise ConfigError(
            f"{path}.path",
            f"{sweep_path!r} applies to {cls.__name__}, config has "
            f"{type(scenario).__name__}",
        )
    if cls is not None and getattr(scenario, attr, None) is None and attr != "lambda_i":
        raise ConfigError(
            f"{path}.path",
            f"scenario does not use the {attr!r} form, so it cannot be swept",
        )
    if "values" in obj:
        _check_known_keys(obj, {"path", "values"}, path)
        values = _parse_array(obj["values"], f"{path}.values")
        if not values.size:
            raise ConfigError(f"{path}.values", "must be nonempty")
        # compared, not subtracted: a difference can overflow
        if not np.all(values[1:] > values[:-1]):
            raise ConfigError(f"{path}.values", "must be strictly increasing")
    else:
        _check_known_keys(obj, {"path", "start", "stop", "count", "spacing"}, path)
        start = _get_number(obj, "start", path)
        stop = _get_number(obj, "stop", path)
        count = _get(obj, "count", path, (int,))
        spacing = _get(obj, "spacing", path, (str,), required=False, default="linear")
        if not 1 <= count <= _MAX_POINTS:
            raise ConfigError(f"{path}.count", f"must be at least 1 and at most {_MAX_POINTS}")
        if not start < stop:
            raise ConfigError(f"{path}.start", "start must be below stop")
        if spacing == "linear":
            values = _grid(np.linspace, start, stop, count, f"{path}.stop")
        elif spacing == "log":
            if start <= 0:
                raise ConfigError(f"{path}.start", "log spacing needs start > 0")
            values = _grid(np.geomspace, start, stop, count, f"{path}.stop")
        else:
            raise ConfigError(f"{path}.spacing", "must be 'linear' or 'log'")
    return sweep_path, attr, values


def _grid(spread, start, stop, count, path):
    """spread(start, stop, count), whose points must all come out finite."""
    with np.errstate(all="ignore"):
        points = spread(start, stop, count)
    if not np.all(np.isfinite(points)):
        raise ConfigError(path, "grid points leave the double range")
    return points


def _parse_controls(obj, path):
    if obj is None:
        return DynamicControls()
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    controls = _read_fields(DynamicControls, obj, path, _IGNORED_CONTROLS)
    for key, reason in _IGNORED_CONTROLS.items():
        if _get(obj, key, path, (int,), required=False) is not None:
            _log.warning("%s.%s is ignored: %s", path, key, reason)
    for key, low in (("n_y", 100), ("n_z", 50)):
        if getattr(controls, key) < low:
            raise ConfigError(f"{path}.{key}", f"must be at least {low}")
    for key in ("horizon", "dt"):
        value = getattr(controls, key)
        if value is not None and value <= 0:
            raise ConfigError(f"{path}.{key}", "must be positive")
    window = controls.fit_window
    if window is not None and not window[0] < window[1]:
        raise ConfigError(f"{path}.fit_window", "must satisfy low < high")
    return controls


@dataclass(frozen=True)
class ParsedConfig:
    scenario: object
    sweep_path: str
    sweep_attr: str
    sweep_values: np.ndarray
    routes: str
    controls: DynamicControls
    out_path: str | None
    out_format: str


def parse_config(raw: dict, require_sweep: bool = True) -> ParsedConfig:
    """Validate a loaded JSON document; raises ConfigError with a field path."""
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    _check_known_keys(
        raw, {"schema_version", "scenario", "sweep", "routes", "dynamic", "output"}, "$"
    )
    version = _get(raw, "schema_version", "$", (int,))
    if version != SCHEMA_VERSION:
        raise ConfigError("$.schema_version", f"unsupported version {version}, this build reads {SCHEMA_VERSION}")
    scenario = _parse_kind(_get(raw, "scenario", "$", (dict,)), "$.scenario",
                           _SCENARIOS, "scenario")
    routes = _get(raw, "routes", "$", (str,), required=False, default="analytic")
    if routes not in _ROUTES:
        raise ConfigError("$.routes", f"must be one of {', '.join(_ROUTES)}")
    controls = _parse_controls(raw.get("dynamic"), "$.dynamic")
    sweep = raw.get("sweep")
    if sweep is None:
        if require_sweep:
            raise ConfigError("$.sweep", "missing required field")
        sweep_path, attr, values = "", "", np.empty(0)
    else:
        sweep_path, attr, values = _parse_sweep(
            _get(raw, "sweep", "$", (dict,)), scenario, "$.sweep"
        )
    # only a left-out key means no output block; null, false, 0, [] and ""
    # are values of the wrong type
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("$.output", "expected an object")
    _check_known_keys(output, {"path", "format"}, "$.output")
    out_format = _get(output, "format", "$.output", (str,), required=False, default="csv")
    if out_format not in ("csv", "json"):
        raise ConfigError("$.output.format", "must be 'csv' or 'json'")
    out_path = _get(output, "path", "$.output", (str,), required=False)
    return ParsedConfig(
        scenario=scenario,
        sweep_path=sweep_path,
        sweep_attr=attr,
        sweep_values=values,
        routes=routes,
        controls=controls,
        out_path=out_path,
        out_format=out_format,
    )


def load_config(path: str, require_sweep: bool = True) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    return parse_config(raw, require_sweep=require_sweep)


def sweep_columns(routes: str) -> list[str]:
    cols = ["sweep_param", "sweep_value"]
    if routes in ("analytic", "both"):
        cols.append("gamma_analytic")
    if routes in ("dynamic", "both"):
        cols.append("gamma_dynamic")
    cols += ["gamma0", "ratio"]
    if routes == "both":
        cols.append("route_discrepancy")
    cols.append("status")
    if routes in ("dynamic", "both"):
        cols.append("fit_residual")
    if routes in ("analytic", "both"):
        cols.append("normalization_defect")
    cols.append("warnings")
    return cols


def _evaluate_row(config: ParsedConfig, value: float) -> dict:
    routes = config.routes
    row = {key: None for key in sweep_columns(routes)}
    row["sweep_param"] = config.sweep_path
    row["sweep_value"] = value
    flags: list[str] = []
    try:
        scenario = replace(config.scenario, **{config.sweep_attr: value})
        gamma0 = None
        ratio = None
        if routes in ("analytic", "both"):
            kernel = build_analytic(scenario)
            result = analytic_gamma(scenario, kernel)
            row["gamma_analytic"] = result.gamma
            row["normalization_defect"] = kernel.normalization_defect()
            gamma0, ratio = result.gamma0, result.ratio
            flags.extend(result.warnings)
        if routes in ("dynamic", "both"):
            result, diagnostics = dynamic_gamma(scenario, config.controls)
            row["gamma_dynamic"] = result.gamma
            row["fit_residual"] = diagnostics.residual_rms
            if gamma0 is None:
                gamma0, ratio = result.gamma0, result.ratio
            for flag in result.warnings:
                if flag not in flags:
                    flags.append(flag)
        if routes == "both" and row["gamma_analytic"]:
            row["route_discrepancy"] = (
                abs(row["gamma_dynamic"] - row["gamma_analytic"]) / row["gamma_analytic"]
            )
        row["gamma0"] = gamma0
        row["ratio"] = ratio
        row["status"] = "ok"
    except Exception as exc:  # row-level failure must not abort the sweep
        for key in row:
            if key not in ("sweep_param", "sweep_value", "warnings"):
                row[key] = None
        row["status"] = exc.slug if isinstance(exc, ZenoError) else "error"
        flags.append(str(exc))
    row["warnings"] = ";".join(flags)
    return row


def run_sweep(config: ParsedConfig, jobs: int = 1) -> list[dict]:
    """One row per sweep value, assembled in sweep order.

    With jobs > 1, up to jobs rows, and no more than the machine has cores,
    are evaluated at once on a thread pool in the calling process; the rows
    are the same as those of the serial sweep.  The threads overlap because
    a row's FFTs and array passes release the GIL.  This holds only while
    the rows share nothing they write: they read the frozen config and
    scenarios, the densities' private grids, which ``np.interp`` only reads,
    and scipy.fft's plan cache, which takes a lock; and no row uses
    ``warnings.catch_warnings``, which swaps the process-wide filters.
    """
    values = [float(v) for v in config.sweep_values]
    workers = min(jobs, len(values), os.cpu_count() or 1)
    if workers <= 1:
        return [_evaluate_row(config, v) for v in values]
    # the module's name, read at call time: an executor put in its place
    # runs the rows
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(functools.partial(_evaluate_row, config), values))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def render_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Serialize report rows; CSV floats use shortest round-trip decimals."""
    if fmt == "json":
        payload = [{col: row.get(col) for col in columns} for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(col)) for col in columns])
    return buffer.getvalue()


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("--range", "expected a:b:n")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError("--range", str(exc)) from exc
    if not (lo < hi and 2 <= count <= _MAX_POINTS):
        raise ConfigError("--range", f"need a < b and 2 <= n <= {_MAX_POINTS}")
    return _grid(np.linspace, lo, hi, count, "--range")


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs", "must be at least 1")
    config = load_config(args.config)
    rows = run_sweep(config, jobs=args.jobs)
    columns = sweep_columns(config.routes)
    text = render_rows(rows, columns, args.format or config.out_format)
    _write_output(text, args.out or config.out_path)
    return 0 if all(row["status"] == "ok" for row in rows) else 1


def _cmd_validate(args) -> int:
    load_config(args.config, require_sweep=False)
    print(f"{args.config}: ok")
    return 0


@contextlib.contextmanager
def _buildable():
    """Raise a scenario that cannot be built for the command as a ZenoError."""
    try:
        yield
    except ValueError as exc:
        raise ZenoError(str(exc)) from exc


def _cmd_kernel(args) -> int:
    config = load_config(args.config, require_sweep=False)
    with _buildable():
        kernel = build_analytic(config.scenario)
    if kernel.is_distributional:
        rows = [{"position": pos, "weight": wt} for pos, wt in kernel.atoms]
        columns = ["position", "weight"]
    else:
        if args.range is None:
            raise ConfigError("--range", "required for kernels with a pointwise density")
        eps = _parse_range(args.range)
        dens = kernel.density(eps)
        rows = [{"epsilon": float(e), "density": float(d)} for e, d in zip(eps, dens)]
        columns = ["epsilon", "density"]
    text = render_rows(rows, columns, args.format or config.out_format)
    _write_output(text, args.out or config.out_path)
    return 0


def _cmd_trace(args) -> int:
    config = load_config(args.config, require_sweep=False)
    if args.horizon <= 0 or not np.isfinite(args.horizon):
        raise ConfigError("--horizon", "must be positive and finite")
    controls = config.controls
    with _buildable():
        if args.quantity == "D":
            trace = scenario_trace(config.scenario, args.horizon, controls)
        else:
            trace, _ = scenario_amplitude(config.scenario, args.horizon, controls)
    for flag in trace.warnings:
        print(f"warning: {flag}", file=sys.stderr)
    rows = [
        {"time": float(t), "real": v.real, "imag": v.imag, "abs": abs(v)}
        for t, v in zip(trace.times, trace.values)
    ]
    text = render_rows(rows, ["time", "real", "imag", "abs"], args.format or config.out_format)
    _write_output(text, args.out or config.out_path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeno",
        description="Decay constants under final-state dissipation, two independent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("config", help="JSON config file")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    p_run = sub.add_parser("run", help="evaluate the sweep and report one row per value")
    add_io(p_run)
    p_run.add_argument("--jobs", type=int, default=1,
                       help="rows evaluated at once, on threads of this process, "
                            "at most one per core (default 1)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check the config and exit")
    p_val.add_argument("config", help="JSON config file")
    p_val.set_defaults(func=_cmd_validate)

    p_ker = sub.add_parser("kernel", help="emit broadening-kernel samples")
    add_io(p_ker)
    p_ker.add_argument("--range", help="epsilon grid as a:b:n")
    p_ker.set_defaults(func=_cmd_kernel)

    p_tr = sub.add_parser("trace", help="emit F(t) or D(tau) samples")
    add_io(p_tr)
    p_tr.add_argument("--quantity", choices=("F", "D"), default="D")
    p_tr.add_argument("--horizon", type=float, required=True)
    p_tr.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ZenoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
