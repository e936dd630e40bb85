"""Command-line front end: declarative configs, sweeps, sample dumps.

A single JSON config describes one scenario, the parameter to sweep and the
route(s) to evaluate.  ``zeno run`` emits one report row per sweep value as
CSV or JSON, never aborting the sweep on a row failure; ``zeno validate``
checks the config only; ``zeno kernel`` and ``zeno trace`` dump the
broadening kernel and the time-domain amplitudes for external plotting.

Units follow the library convention: hbar = 1, energies in one user-chosen
unit, times in its inverse.  ``--jobs N`` evaluates up to N rows at once,
each in its own worker process; all outputs are deterministic for a given
config and byte-identical for every --jobs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
# unused here since rows run in processes; perfbench/tracing.py and its
# test still patch cli.ThreadPoolExecutor, so the name stays importable
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import survival_amplitude
from .errors import ConfigError, ZenoError
from .scenarios import (
    DynamicControls,
    RabiDriveScenario,
    ScatteringScenario,
    UnstableLevelScenario,
    analytic_gamma,
    build_analytic,
    build_dynamic,
    dynamic_gamma,
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


def _type_name(types) -> str:
    names = [t.__name__ for t in types]
    return " or ".join(names)


def _get(mapping, key, path, types, required=True, default=None):
    if not isinstance(mapping, dict):
        raise ConfigError(path, "expected an object")
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = mapping[key]
    if isinstance(value, bool) and bool not in types:
        raise ConfigError(f"{path}.{key}", f"expected {_type_name(types)}, got bool")
    if not isinstance(value, types):
        raise ConfigError(
            f"{path}.{key}", f"expected {_type_name(types)}, got {type(value).__name__}"
        )
    return value


def _get_number(mapping, key, path, required=True, default=None):
    value = _get(mapping, key, path, (int, float), required=required, default=default)
    if value is None:
        return None
    if not np.isfinite(value):
        raise ConfigError(f"{path}.{key}", "must be finite")
    return float(value)


def _check_known_keys(mapping, known, path):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _parse_pair(value, path):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ConfigError(path, "expected a [low, high] pair of numbers")
    return float(value[0]), float(value[1])


def _parse_density(obj, path):
    kind = _get(obj, "kind", path, (str,))
    try:
        if kind == "flat":
            _check_known_keys(obj, {"kind", "level", "support"}, path)
            return FlatDensity(
                level=_get_number(obj, "level", path),
                support=_parse_pair(_get(obj, "support", path, (list,)), f"{path}.support"),
            )
        if kind == "power_law":
            _check_known_keys(obj, {"kind", "amplitude", "exponent", "support"}, path)
            return PowerLawDensity(
                amplitude=_get_number(obj, "amplitude", path),
                exponent=_get_number(obj, "exponent", path),
                support=_parse_pair(_get(obj, "support", path, (list,)), f"{path}.support"),
            )
        if kind == "tabulated":
            _check_known_keys(obj, {"kind", "omega", "values"}, path)
            return TabulatedDensity(
                omega=np.asarray(_get(obj, "omega", path, (list,)), dtype=float),
                values=np.asarray(_get(obj, "values", path, (list,)), dtype=float),
            )
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown density kind {kind!r}")


def _parse_scenario(obj, path):
    kind = _get(obj, "kind", path, (str,))
    common = {
        "m_y": _parse_density(_get(obj, "m_y", path, (dict,)), f"{path}.m_y"),
        "omega_f": _get_number(obj, "omega_f", path),
        "label": _get(obj, "label", path, (str,), required=False, default=""),
    }
    try:
        if kind == "rabi":
            _check_known_keys(
                obj, {"kind", "m_y", "omega_f", "label", "omega", "omega_21"}, path
            )
            return RabiDriveScenario(
                omega=_get_number(obj, "omega", path),
                omega_21=_get_number(obj, "omega_21", path),
                **common,
            )
        if kind == "unstable":
            _check_known_keys(
                obj,
                {"kind", "m_y", "omega_f", "label", "lambda_r", "lambda_i", "m_z", "z_resonance"},
                path,
            )
            m_z = obj.get("m_z")
            return UnstableLevelScenario(
                lambda_r=_get_number(obj, "lambda_r", path, required=False),
                lambda_i=_get_number(obj, "lambda_i", path, required=False, default=0.0),
                m_z=None if m_z is None else _parse_density(m_z, f"{path}.m_z"),
                z_resonance=_get_number(obj, "z_resonance", path, required=False),
                **common,
            )
        if kind == "scattering":
            _check_known_keys(
                obj, {"kind", "m_y", "omega_f", "label", "rate", "m_z", "z_resonance"}, path
            )
            m_z = obj.get("m_z")
            return ScatteringScenario(
                rate=_get_number(obj, "rate", path, required=False),
                m_z=None if m_z is None else _parse_density(m_z, f"{path}.m_z"),
                z_resonance=_get_number(obj, "z_resonance", path, required=False),
                **common,
            )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown scenario kind {kind!r}")


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
        raw = _get(obj, "values", path, (list,))
        if not raw:
            raise ConfigError(f"{path}.values", "must be nonempty")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
            raise ConfigError(f"{path}.values", "must all be numbers")
        values = np.asarray(raw, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{path}.values", "must all be finite")
        if not np.all(np.diff(values) > 0):
            raise ConfigError(f"{path}.values", "must be strictly increasing")
    else:
        _check_known_keys(obj, {"path", "start", "stop", "count", "spacing"}, path)
        start = _get_number(obj, "start", path)
        stop = _get_number(obj, "stop", path)
        count = _get(obj, "count", path, (int,))
        spacing = _get(obj, "spacing", path, (str,), required=False, default="linear")
        if count < 1:
            raise ConfigError(f"{path}.count", "must be at least 1")
        if not start < stop:
            raise ConfigError(f"{path}.start", "start must be below stop")
        if spacing == "linear":
            values = np.linspace(start, stop, count)
        elif spacing == "log":
            if start <= 0:
                raise ConfigError(f"{path}.start", "log spacing needs start > 0")
            values = np.geomspace(start, stop, count)
        else:
            raise ConfigError(f"{path}.spacing", "must be 'linear' or 'log'")
    return sweep_path, attr, values


def _parse_controls(obj, path):
    if obj is None:
        return DynamicControls()
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    known = {"n_y", "n_z", "horizon", "dt", "fit_window", "sample_stride",
             "eig_cutoff", "dim_budget"}
    _check_known_keys(obj, known, path)
    defaults = DynamicControls()
    window = obj.get("fit_window")
    if window is not None:
        window = _parse_pair(window, f"{path}.fit_window")
        if not window[0] < window[1]:
            raise ConfigError(f"{path}.fit_window", "must satisfy low < high")
    kwargs = dict(
        n_y=_get(obj, "n_y", path, (int,), required=False, default=defaults.n_y),
        n_z=_get(obj, "n_z", path, (int,), required=False, default=defaults.n_z),
        horizon=_get_number(obj, "horizon", path, required=False),
        dt=_get_number(obj, "dt", path, required=False),
        fit_window=window,
        sample_stride=_get(obj, "sample_stride", path, (int,), required=False),
        dim_budget=_get(obj, "dim_budget", path, (int,), required=False,
                        default=defaults.dim_budget),
    )
    # schema version 1 still accepts eig_cutoff; every static model now takes
    # the same propagator, so the value has nothing left to choose
    if _get(obj, "eig_cutoff", path, (int,), required=False) is not None:
        _log.warning("%s.eig_cutoff is ignored: static models have one propagator", path)
    if kwargs["n_y"] < 100:
        raise ConfigError(f"{path}.n_y", "must be at least 100")
    if kwargs["n_z"] < 50:
        raise ConfigError(f"{path}.n_z", "must be at least 50")
    for key in ("horizon", "dt"):
        if kwargs[key] is not None and kwargs[key] <= 0:
            raise ConfigError(f"{path}.{key}", "must be positive")
    if kwargs["sample_stride"] is not None and kwargs["sample_stride"] < 1:
        raise ConfigError(f"{path}.sample_stride", "must be at least 1")
    return DynamicControls(**kwargs)


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
    scenario = _parse_scenario(_get(raw, "scenario", "$", (dict,)), "$.scenario")
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
    output = raw.get("output") or {}
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

    With jobs > 1, up to jobs rows are evaluated at once in worker
    processes; the rows are the same as those of the serial sweep.
    """
    values = [float(v) for v in config.sweep_values]
    workers = min(jobs, len(values))
    if workers <= 1:
        return [_evaluate_row(config, v) for v in values]
    # spawned workers import the library afresh; fork would copy the
    # caller's threads' locks in whatever state they hold
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(functools.partial(_evaluate_row, config), values))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_rows(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Serialize report rows; CSV floats use shortest round-trip decimals."""
    if fmt == "json":
        payload = []
        for row in rows:
            entry = {}
            for col in columns:
                value = row.get(col)
                if isinstance(value, (np.integer,)):
                    value = int(value)
                elif isinstance(value, (np.floating,)):
                    value = float(value)
                entry[col] = value
            payload.append(entry)
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
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi and count >= 2):
        raise ConfigError("--range", "need finite a < b and n >= 2")
    return lo, hi, count


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


def _cmd_kernel(args) -> int:
    config = load_config(args.config, require_sweep=False)
    kernel = build_analytic(config.scenario)
    if kernel.is_distributional:
        rows = [{"position": pos, "weight": wt} for pos, wt in kernel.atoms]
        columns = ["position", "weight"]
    else:
        if args.range is None:
            raise ConfigError("--range", "required for kernels with a pointwise density")
        lo, hi, count = _parse_range(args.range)
        eps = np.linspace(lo, hi, count)
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
    if args.quantity == "D":
        trace = scenario_trace(config.scenario, args.horizon, controls)
        times, values = trace.times, trace.values
        for flag in trace.warnings:
            print(f"warning: {flag}", file=sys.stderr)
    else:
        model = build_dynamic(config.scenario, controls)
        trace = survival_amplitude(
            model,
            args.horizon,
            controls.dt,
            sample_stride=controls.sample_stride,
            dim_budget=controls.dim_budget,
        )
        times, values = trace.times, trace.values
    rows = [
        {"time": float(t), "real": v.real, "imag": v.imag, "abs": abs(v)}
        for t, v in zip(times, values)
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
                       help="rows evaluated at once, each in a worker process (default 1)")
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
