"""Two-route benchmark for zenodecay.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload driven --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py for the inputs and BENCHMARK.json for why each
was chosen): ``driven``, ``cascade`` and ``zeno_scan``.

Every run starts fresh interpreters with BLAS and OpenMP pinned to one
thread, so the ``--jobs`` threads of the pooled ``driven`` sweep are the
only parallelism.  Two set-up probes and the worker each time the span from
process start to ``zenodecay`` imported and configs parsed; ``setup_s`` is
their median, each scaled by a reference loop timed in the same process
(see REFERENCE_S).  The worker repeats the workload's units until ``--seconds``
have passed (at least once) and checks every decay constant against its
closed-form oracle (oracles.py).

``--trace 0`` prints the end-to-end metrics, each by name and unit with its
median, the highest percentile that has ten samples beyond it, and the
sample count.  ``--trace 1`` runs the same rounds once untraced and once
with the layer shims of tracing.py and prints the per-layer metrics;
``trace.overhead_s`` is the wall-time difference between the two runs and
``trace.shim_cost_s`` the calibrated cost of the spans themselves.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the run environment, is
written to ``.perfbench/`` in the checkout, next to the trace spans.

Exit status: 0 when every decay constant met its oracle, 1 when any missed,
2 when the checkout has no zenodecay sources or a process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_DEADLINE_S = 175.0
# Reference-loop time that set-up times are scaled to.  Over tens of
# minutes the shared machine's speed drifts by more than the set-up bound;
# the import-bound set-up and the interpreter-bound loop drift together.
REFERENCE_S = 0.05
SETUP_PROBES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

END_TO_END_UNITS = {"gammas_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "gamma_rel_err_max": "ratio"}


class RunError(Exception):
    """A benchmark process failed or ran out of time; no result is printed."""


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(units, env, deadline, *flags) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise RunError("run deadline passed")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--t0", repr(t0), *flags],
            input=json.dumps(units), capture_output=True, text=True, env=env,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(flags)} exceeded the run deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(flags)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if n else None, "n": n,
           "tail_pct": None, "tail": None}
    if n >= 11:
        rank = n - 10
        out["tail_pct"] = 100.0 * rank / n
        out["tail"] = ordered[rank - 1]
    return out


def _outcome_counts(records) -> tuple[int, int]:
    outcomes = [o for r in records for o in r["outcomes"]]
    return len(outcomes), sum(not o["passed"] for o in outcomes)


def end_to_end(run: dict, setups: list[dict]) -> dict[str, tuple[float, dict]]:
    """metric -> (value for the result line, sample summary).

    Throughput is taken per round (every unit once) and the median round is
    reported, so one slow stretch of the machine moves it less.  Set-up time is scaled to a machine on which the reference
    loop of worker.py takes REFERENCE_S, using the loop timed in the same
    process right after set-up.
    """
    rounds = {}
    for sample in run["samples"]:
        passed, seconds = rounds.get(sample["round"], (0, 0.0))
        rounds[sample["round"]] = (passed + sample["passed"], seconds + sample["seconds"])
    rates = [passed / seconds for passed, seconds in rounds.values()]
    setup = [s["setup_s"] * REFERENCE_S / s["ref_s"] for s in setups]
    errors = [e for o in run["outcomes"] for e in o["errors"].values() if e != float("inf")]
    return {
        "gammas_per_s": (statistics.median(rates), summarize(rates)),
        "setup_s": (statistics.median(setup), summarize(setup)),
        "peak_rss_mb": (run["peak_rss_mb"], summarize([run["peak_rss_mb"]])),
        "gamma_rel_err_max": (max(errors) if errors else float("inf"), summarize(errors)),
    }


def _line(name, unit, value, summary=None) -> str:
    text = f"  {name:40s} {value!r:>24} {unit}"
    if summary is not None:
        tail = "n/a" if summary["tail"] is None else \
            f"p{summary['tail_pct']:.4g}={summary['tail']!r}"
        text += f"   median={summary['median']!r} tail {tail} n={summary['n']}"
    return text


def main() -> int:
    args = _parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zenodecay", "__init__.py")):
        print(f"no zenodecay sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    units = workloads.build(args.workload, args.seed, nproc)
    env = _child_env(root)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = [_worker(units, env, deadline, "--probe") for _ in range(SETUP_PROBES)]
        run = _worker(units, env, deadline, "--seconds", repr(args.seconds))
        setups.append(run)
        records = [run]
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            traced = _worker(units, env, deadline, "--trace", "--rounds", str(run["rounds"]),
                             "--spans", spans)
            records.append(traced)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed = _outcome_counts(records)
    environment = {
        "nproc": nproc, "machine": platform.machine(), **run["versions"],
        **{var: env[var] for var in THREAD_VARS},
        "jobs": [u["jobs"] for u in units if u["kind"] == "sweep"],
    }
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={run['rounds']} wall_s={run['wall_s']:.3f}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(f"outputs_sha256 {run['outputs_sha256']}")
    print(_line("fail_frac", "ratio", failed / attempted)
          + f"   ({failed} of {attempted} decay constants)")

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - run["wall_s"]
        units_of = {name: tracing.unit_of(name) for name in metrics}
        for name in sorted(metrics):
            print(_line(name, units_of[name], metrics[name]))
        reported = {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()}
    else:
        e2e = end_to_end(run, setups)
        for name, (value, summary) in e2e.items():
            print(_line(name, END_TO_END_UNITS[name], value, summary))
        reported = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, (value, _) in e2e.items()}

    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "environment": environment,
                   "setups": [{k: s[k] for k in ("setup_s", "ref_s")} for s in setups],
                   "metrics": reported,
                   "records": records}, handle)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
