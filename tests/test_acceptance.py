"""Acceptance suite: every release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL report
lines on passing runs as well.  Criteria with a runtime budget time the
whole computation, not just the assertion.
"""

import json
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

from zenodecay.dynamics import (
    DiscretizedModel,
    build_decay_model,
    dissipation_trace,
    fit_decay,
    survival_amplitude,
)
from zenodecay.rates import (
    golden_rule_gamma,
    perturbed_gamma,
    rabi_enhancement_ratio,
)
from zenodecay.scenarios import (
    DynamicControls,
    RabiDriveScenario,
    UnstableLevelScenario,
    analytic_gamma,
    dynamic_gamma,
    scenario_trace,
)
from zenodecay.spectral import (
    DiracKernel,
    DissipationTrace,
    DoubleDeltaKernel,
    FlatDensity,
    LorentzianKernel,
    PowerLawDensity,
    kernel_from_dissipation,
)

FLAT_Y = FlatDensity(level=0.05 / (2.0 * np.pi), support=(-5.0, 5.0))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def rabi_sweep():
    """Shared dynamic-route sweep for the Rabi agreement and ratio criteria."""
    cubic = PowerLawDensity(amplitude=5e-4, exponent=3.0, support=(0.0, 2.0))
    controls = DynamicControls(
        n_y=400, dt=0.0035, horizon=300.0, fit_window=(126.0, 299.0)
    )
    start = perf_counter()
    results = {}
    for omega in (0.1, 0.2, 0.4):
        scen = RabiDriveScenario(m_y=cubic, omega_f=1.0, omega=omega,
                                 omega_21=5.0)
        results[omega], _ = dynamic_gamma(scen, controls)
    elapsed = perf_counter() - start
    return cubic, results, elapsed


def test_criterion_1_golden_rule_recovery():
    start = perf_counter()
    dens = FlatDensity(level=0.01 / (2.0 * np.pi), support=(-5.0, 5.0))
    model = build_decay_model(dens, 0.0, 2000)
    horizon = 0.4 * model.recurrence_time
    trace = survival_amplitude(model, horizon)
    result, _ = fit_decay(
        trace, (1.0, 0.999 * horizon), recurrence_time=model.recurrence_time
    )
    elapsed = perf_counter() - start
    rel = abs(result.gamma - 0.01) / 0.01
    ok = rel <= 0.02 and elapsed < 30.0
    _report(
        "criterion 1 (golden-rule recovery)",
        ok,
        f"rel err {rel:.2e} vs 2e-2, runtime {elapsed:.1f}s vs 30s",
    )


def test_criterion_2_rabi_two_route_agreement(rabi_sweep):
    cubic, results, elapsed = rabi_sweep
    rels = {}
    for omega, result in results.items():
        oracle = np.pi * (cubic(1.0 - omega / 2.0) + cubic(1.0 + omega / 2.0))
        rels[omega] = abs(result.gamma - oracle) / oracle
    ok = all(rel <= 0.05 for rel in rels.values()) and elapsed < 120.0
    detail = ", ".join(f"omega={o}: {r:.2e}" for o, r in rels.items())
    _report(
        "criterion 2 (Rabi two-route agreement)",
        ok,
        f"{detail} vs 5e-2, runtime {elapsed:.1f}s vs 120s",
    )


def test_criterion_3_enhancement_ratio(rabi_sweep):
    cubic, results, _ = rabi_sweep
    exact = rabi_enhancement_ratio(0.2, 1.0)
    scen = RabiDriveScenario(m_y=cubic, omega_f=1.0, omega=0.2, omega_21=5.0)
    analytic = analytic_gamma(scen).ratio
    rel_analytic = max(abs(exact - 1.03), abs(analytic - 1.03)) / 1.03
    rel_dynamic = abs(results[0.2].ratio - 1.03) / 1.03
    ok = rel_analytic <= 1e-12 and rel_dynamic <= 0.05
    _report(
        "criterion 3 (enhancement ratio 1.03)",
        ok,
        f"analytic rel {rel_analytic:.1e} vs 1e-12, "
        f"dynamic rel {rel_dynamic:.2e} vs 5e-2",
    )


def test_criterion_4_lorentzian_convolution_oracle():
    start = perf_counter()
    level, support, e0 = 0.05, (-4.0, 4.0), 0.5
    dens = FlatDensity(level=level, support=support)
    worst = 0.0
    for width in (0.1, 1.0, 10.0):
        for shift in (-2.0, 0.0, 2.0):
            got = perturbed_gamma(dens, LorentzianKernel(width, shift), e0).gamma
            center = e0 + shift
            want = 2.0 * level * (
                np.arctan((support[1] - center) / width)
                - np.arctan((support[0] - center) / width)
            )
            worst = max(worst, abs(got - want) / want)
    elapsed = perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(
        "criterion 4 (arctan convolution oracle)",
        ok,
        f"worst rel {worst:.2e} vs 1e-8, runtime {elapsed:.2f}s vs 1s",
    )


def test_criterion_5_zeno_freezing():
    start = perf_counter()
    dens = FlatDensity(level=0.2, support=(-0.5, 0.5))
    width_m = 1.0
    gammas = [
        perturbed_gamma(dens, LorentzianKernel(w), 0.0).gamma
        for w in np.logspace(0.0, 4.0, 17) * width_m
    ]
    decreasing = all(a > b for a, b in zip(gammas, gammas[1:]))
    gamma0 = golden_rule_gamma(dens, 0.0).gamma
    frozen = perturbed_gamma(dens, LorentzianKernel(10.0 * width_m), 0.0).gamma
    elapsed = perf_counter() - start
    ok = decreasing and frozen < 0.2 * gamma0 and elapsed < 1.0
    _report(
        "criterion 5 (Zeno freezing)",
        ok,
        f"strictly decreasing over 4 decades: {decreasing}, "
        f"gamma(10 W_M)/gamma0 = {frozen / gamma0:.3f} vs 0.2, "
        f"runtime {elapsed:.2f}s vs 1s",
    )


def test_criterion_6_kernel_normalization():
    analytic = (
        DiracKernel(),
        DoubleDeltaKernel(0.8),
        LorentzianKernel(1.0),
        LorentzianKernel(0.5, 2.0),
    )
    analytic_defects = [k.normalization_defect() for k in analytic]

    t_exp = np.arange(0.0, 200.0 + 0.01, 0.02)
    t_cos = np.arange(0.0, 500.0 + 0.01, 500.0 / 16383)
    t_one = np.linspace(0.0, 100.0, 4097)
    numeric_defects = [
        kernel_from_dissipation(
            DissipationTrace(times=t_exp, values=np.exp(-t_exp))
        ).normalization_defect(),
        kernel_from_dissipation(
            DissipationTrace(times=t_cos, values=np.cos(0.8 * t_cos / 2.0))
        ).normalization_defect(),
        kernel_from_dissipation(
            DissipationTrace(times=t_one, values=np.ones(t_one.size, complex))
        ).normalization_defect(),
    ]
    ok = all(d == 0.0 for d in analytic_defects) and all(
        d <= 1e-3 for d in numeric_defects
    )
    _report(
        "criterion 6 (kernel normalization)",
        ok,
        f"analytic defects {analytic_defects}, numeric defects "
        + ", ".join(f"{d:.1e}" for d in numeric_defects)
        + " vs 1e-3",
    )


def test_criterion_7_dissipation_function_oracles():
    # no interaction: D stays at unity
    model = DiscretizedModel(
        h0_diag=np.array([0.0, 0.3, 1.1 * np.sqrt(2.0), np.e]),
        v_xi=np.array([0.5, 0.4, 0.3], dtype=complex),
    )
    unity_err = np.abs(dissipation_trace(model, 10.0).values - 1.0).max()

    # weak resonant drive against the rotating-wave cosine
    omega = 0.02
    rabi = RabiDriveScenario(m_y=FLAT_Y, omega_f=0.0, omega=omega, omega_21=1.0)
    trace = scenario_trace(rabi, 2.0 * np.pi / omega)
    rwa_err = np.abs(trace.values - np.cos(omega * trace.times / 2.0)).max()

    # cascade into a flat secondary continuum: |D| is log-linear with
    # slope width = pi m_z(z_resonance) = 0.1
    m_z = FlatDensity(level=0.2 / (2.0 * np.pi), support=(-4.0, 4.0))
    cascade = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, m_z=m_z,
                                    z_resonance=0.0)
    ctrace = scenario_trace(cascade, 30.0, DynamicControls(n_z=1500))
    mask = (ctrace.times >= 1.0) & (ctrace.times <= 25.0)
    t = ctrace.times[mask]
    log_mag = np.log(np.abs(ctrace.values[mask]))
    slope, intercept = np.polyfit(t, log_mag, 1)
    fitted = intercept + slope * t
    r_squared = 1.0 - np.sum((log_mag - fitted) ** 2) / np.sum(
        (log_mag - log_mag.mean()) ** 2
    )
    width_rel = abs(-slope - 0.1) / 0.1

    ok = unity_err <= 1e-10 and rwa_err <= 0.05 and (
        r_squared >= 0.999 and width_rel <= 0.05
    )
    _report(
        "criterion 7 (dissipation-function oracles)",
        ok,
        f"W=0 max|D-1| {unity_err:.1e} vs 1e-10; RWA sup err {rwa_err:.3f} "
        f"vs 0.05; cascade width rel {width_rel:.2e} vs 5e-2 with "
        f"R^2 {r_squared:.6f} vs 0.999",
    )


def test_criterion_8_fourier_route():
    lam = 1.0
    t = np.arange(0.0, 200.0 / lam + 0.01, 0.02)
    kernel = kernel_from_dissipation(
        DissipationTrace(times=t, values=np.exp(-lam * t))
    )
    ref = LorentzianKernel(lam).density(kernel.eps)
    near = np.abs(kernel.eps) <= 5.0 * lam
    sup = np.max(np.abs(kernel.values[near] - ref[near]))
    ok = sup <= 1e-3
    _report(
        "criterion 8 (Fourier kernel route)",
        ok,
        f"sup err {sup:.2e} vs 1e-3 on |eps| <= 5 lambda at T = 200/lambda",
    )


def test_criterion_9_cli_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "scenario": {
            "kind": "rabi",
            "m_y": {
                "kind": "power_law",
                "amplitude": 5e-4,
                "exponent": 3.0,
                "support": [0.0, 2.0],
            },
            "omega_f": 1.0,
            "omega": 0.1,
            "omega_21": 5.0,
        },
        "sweep": {"path": "rabi.omega", "values": [0.1, 0.2, 0.4]},
        "routes": "both",
        "dynamic": {
            "n_y": 400,
            "dt": 0.0035,
            "horizon": 300.0,
            "fit_window": [126.0, 299.0],
        },
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    outputs = {}
    codes = {}
    for jobs in (1, 8):
        out = tmp_path / f"report_jobs{jobs}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "zenodecay", "run", str(cfg),
             "--out", str(out), "--jobs", str(jobs)],
            capture_output=True, text=True,
        )
        codes[jobs] = proc.returncode
        outputs[jobs] = out.read_bytes() if out.exists() else b""
    identical = outputs[1] == outputs[8] and len(outputs[1]) > 0
    ok = codes == {1: 0, 8: 0} and identical
    _report(
        "criterion 9 (CLI determinism across --jobs)",
        ok,
        f"exit codes {codes}, byte-identical: {identical}, "
        f"{len(outputs[1])} bytes",
    )
