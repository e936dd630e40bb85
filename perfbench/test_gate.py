"""Checks that the benchmark's oracle gate and trace accounting can fail.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math
from types import SimpleNamespace

import pytest

import oracles
import run
import tracing
import worker
import workloads


def _sweep_units():
    for name in workloads.WORKLOADS:
        for unit in workloads.build(name, seed=3, nproc=2):
            if unit["kind"] == "sweep":
                yield name, unit


def _row(unit, value):
    sweep = unit["config"]["sweep"]
    oracle = oracles.expected_gamma(unit["config"]["scenario"], sweep["path"], value)
    row = {"sweep_value": value, "status": "ok"}
    row.update({col: oracle for col in unit["tolerances"]})
    return row


@pytest.mark.parametrize("name,unit", list(_sweep_units()))
def test_row_gate_trips_past_tolerance(name, unit):
    path = unit["config"]["sweep"]["path"]
    scenario = unit["config"]["scenario"]
    value = unit["config"]["sweep"].get("values", [unit["config"]["sweep"].get("start")])[0]
    exact = _row(unit, value)
    for col, tol in unit["tolerances"].items():
        inside = dict(exact, **{col: exact[col] * (1.0 + 0.5 * tol)})
        assert oracles.check_row(inside, path, scenario, unit["tolerances"])[0]
        outside = dict(exact, **{col: exact[col] * (1.0 + 2.5 * tol)})
        passed, errors = oracles.check_row(outside, path, scenario, unit["tolerances"])
        assert not passed and errors[col] > tol
    failed_status = dict(exact, status="quadrature_error")
    assert not oracles.check_row(failed_status, path, scenario, unit["tolerances"])[0]


def test_oracles_match_closed_forms():
    rabi = {"kind": "rabi", "m_y": workloads.CUBIC_Y, "omega_f": 1.0, "omega": 0.2,
            "omega_21": 5.0}
    # criterion 3: ratio 1 + (3/4)(0.2)^2 over gamma0 = 2 pi M(1)
    assert oracles.expected_gamma(rabi) == pytest.approx(1.03 * 2 * math.pi * 5e-4, rel=1e-12)
    cascade = workloads.build("cascade", seed=0, nproc=1)[0]["config"]["scenario"]
    lorentz = dict(cascade, lambda_r=0.3)
    del lorentz["m_z"], lorentz["z_resonance"]
    assert oracles.expected_gamma(cascade) == pytest.approx(oracles.expected_gamma(lorentz))


def test_perturbed_gamma_fails_the_run():
    unit = workloads.build("driven", seed=0, nproc=1)[0]
    values = unit["config"]["sweep"]["values"]
    rows = [_row(unit, v) for v in values]
    rows[1]["gamma_dynamic"] *= 1.0 + 2.0 * oracles.TOL_RABI_DYNAMIC
    fake_cli = SimpleNamespace(run_sweep=lambda config, jobs: rows,
                               render_rows=lambda rows, columns, fmt: "csv",
                               sweep_columns=lambda routes: [])
    config = SimpleNamespace(sweep_path="rabi.omega", routes="both")
    _, outcomes = worker._run_sweep(fake_cli, unit, config)
    assert [o["passed"] for o in outcomes] == [True, False]
    assert run._outcome_counts([{"outcomes": outcomes}]) == (2, 1)


def _span(span_id, parent, start, end, layer="x"):
    return tracing.Span(span_id, parent, f"{layer}.f", layer, 0, start, end)


def test_self_time_subtracts_union_of_parallel_children():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 6.0), _span(3, 1, 4.0, 9.0),
             _span(4, 2, 2.0, 3.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: pytest.approx(2.0), 2: pytest.approx(4.0), 3: pytest.approx(5.0),
                     4: pytest.approx(1.0)}


def test_shims_patch_every_namespace_and_nest_pool_rows():
    pytest.importorskip("zenodecay")
    from zenodecay import cli, dynamics, scenarios

    original = dynamics.propagate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert scenarios.propagate is dynamics.propagate is not original
        assert cli.dynamic_gamma is scenarios.dynamic_gamma
        pool = cli.ThreadPoolExecutor(max_workers=2)
        with pool:
            (_, root) = tracer.run("bench.run", "bench", lambda: list(
                pool.map(lambda x: cli.sweep_columns(x), ["analytic", "both"])))
    finally:
        tracer.uninstall()
    assert dynamics.propagate is original
    rows = [s for s in tracer.spans if s.name == "cli.sweep_columns"]
    assert len(rows) == 2 and all(s.parent_id == root.span_id for s in rows)


def test_missing_hooks_and_unreadable_results_give_absent_metrics():
    root = tracing.Span(1, None, "bench.run", "bench", 0, 0.0, 4.0)
    # a propagate whose result the probe could not read carries no attrs
    propagate = tracing.Span(2, 1, "dynamics.propagate", "dynamics", 0, 1.0, 3.0)
    hooked = {"dynamics.propagate", "dynamics.fit_decay"}
    metrics = tracing.layer_metrics([root, propagate], hooked, root_id=1, shim_cost=0.0)
    assert metrics["dynamics.propagate_s"] == pytest.approx(2.0)
    assert metrics["dynamics.fit_residual_max"] == 0
    for absent in ("dynamics.state_mb_max", "dynamics.steps_requested", "cli.run_sweep_s"):
        assert absent not in metrics
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"])


def test_pooled_sweep_must_reproduce_the_serial_one():
    serial, pooled = workloads.build("driven", seed=0, nproc=2)[:2]
    rows = [_row(serial, v) for v in serial["config"]["sweep"]["values"]]
    fake_cli = SimpleNamespace(
        run_sweep=lambda config, jobs: [dict(r, warnings=str(jobs)) for r in rows],
        render_rows=lambda rows, columns, fmt: repr(rows), sweep_columns=lambda routes: [])
    config = SimpleNamespace(sweep_path="rabi.omega", routes="both",
                             sweep_values=serial["config"]["sweep"]["values"])
    result = worker._rounds(fake_cli, [serial, pooled], [config, config], seconds=0, rounds=1)
    assert [o["status"] for o in result["outcomes"]] == ["ok", "ok", "jobs_mismatch", "jobs_mismatch"]
