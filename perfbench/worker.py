"""One benchmark process: import zenodecay, parse the configs, run the units.

Started by run.py in a fresh interpreter with the workload units as JSON on
stdin.  After set-up it times a fixed reference loop (``ref_s``), which
run.py uses to scale the set-up time; ``--probe`` stops there.  Otherwise the units run in rounds
until ``--seconds`` have passed (or exactly ``--rounds`` rounds), every gamma
is checked against its closed-form oracle, and one JSON record goes to the
last line of stdout.  ``--trace`` installs the layer shims first and adds
per-layer metrics to the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import oracles


def _parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter of the parent just before it started this process")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--spans", help="file for the trace spans")
    return parser.parse_args()


def _import_library(root: str):
    import zenodecay
    from zenodecay import cli

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(zenodecay.__file__).startswith(src):
        raise ImportError(f"zenodecay resolved to {zenodecay.__file__}, not under {src}")
    return cli


def _run_sweep(cli, unit, config):
    rows = cli.run_sweep(config, jobs=unit["jobs"])
    text = cli.render_rows(rows, cli.sweep_columns(config.routes), "csv")
    outcomes = []
    for row in rows:
        passed, errors = oracles.check_row(row, config.sweep_path, unit["config"]["scenario"],
                                           unit["tolerances"])
        outcomes.append({"passed": passed, "errors": errors, "status": row["status"]})
    return text, outcomes


def _run_chain(unit, config):
    from zenodecay import rates, scenarios, spectral

    scenario = config.scenario
    trace = scenarios.scenario_trace(scenario, unit["horizon"], config.controls)
    kernel = spectral.kernel_from_dissipation(trace)
    gamma = rates.perturbed_gamma(scenario.m_y, kernel, scenario.omega_f).gamma
    oracle = oracles.expected_gamma(unit["config"]["scenario"])
    error = oracles.relative_error(gamma, oracle)
    passed = error <= unit["tolerances"]["gamma"]
    return repr(gamma), [{"passed": passed, "errors": {"gamma": error}, "status": "ok"}]


def _run_unit(cli, unit, config):
    """(output text, one outcome per decay constant) of one unit."""
    try:
        if unit["kind"] == "sweep":
            return _run_sweep(cli, unit, config)
        return _run_chain(unit, config)
    except Exception:
        # a unit that raises fails every decay constant it would have given
        traceback.print_exc(file=sys.stderr)
        count = len(config.sweep_values) if unit["kind"] == "sweep" else 1
        return "", [{"passed": False, "errors": {}, "status": "exception"} for _ in range(count)]


def reference_seconds() -> float:
    """Time a fixed loop of interpreter work.

    It uses nothing from zenodecay and allocates nothing, so its time
    tracks only the speed the shared machine gives this process at that
    moment.
    """
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    return time.perf_counter() - start


def _rounds(cli, units, configs, seconds, rounds):
    """Run every unit once per round.

    Later rounds must reproduce round one, and a unit with
    ``same_output_as`` must reproduce that unit's output of the same round.
    """
    samples, outcomes, reference = [], [], []
    start = time.perf_counter()
    done = 0
    while True:
        texts = []
        for index, (unit, config) in enumerate(zip(units, configs)):
            unit_start = time.perf_counter()
            text, unit_outcomes = _run_unit(cli, unit, config)
            elapsed = time.perf_counter() - unit_start
            texts.append(text)
            if done == 0:
                reference.append(text)
            mismatch = None
            if text != reference[index]:
                mismatch = "nondeterministic"
            elif "same_output_as" in unit and text != texts[unit["same_output_as"]]:
                mismatch = "jobs_mismatch"
            if mismatch:
                for outcome in unit_outcomes:
                    outcome.update(passed=False, status=mismatch)
            outcomes.extend(unit_outcomes)
            samples.append({"round": done, "unit": index, "seconds": elapsed,
                            "passed": sum(o["passed"] for o in unit_outcomes)})
        done += 1
        wall = time.perf_counter() - start
        if (rounds and done >= rounds) or (not rounds and wall >= seconds):
            break
    digest = hashlib.sha256("\n".join(reference).encode()).hexdigest()
    return {"wall_s": wall, "rounds": done, "samples": samples,
            "outcomes": outcomes, "outputs_sha256": digest}


def main() -> int:
    args = _parse_args()
    root = os.getcwd()
    units = json.load(sys.stdin)
    cli = _import_library(root)
    configs = [cli.parse_config(unit["config"], require_sweep=unit["kind"] == "sweep")
               for unit in units]
    setup_s = time.perf_counter() - args.t0
    record = {"setup_s": setup_s,
              "ref_s": statistics.median(reference_seconds() for _ in range(5))}
    if not args.probe:
        import numpy
        import scipy

        record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            result, root_span = tracer.run("bench.run", "bench", _rounds, cli, units, configs,
                                           args.seconds, args.rounds)
            tracer.uninstall()
            record["layers"] = tracing.layer_metrics(tracer.spans, tracer.hooked,
                                                     root_span.span_id, tracer.shim_cost())
            record["hooked"] = sorted(tracer.hooked)
            if args.spans:
                tracer.write(args.spans)
        else:
            result = _rounds(cli, units, configs, args.seconds, args.rounds)
        record.update(result)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
