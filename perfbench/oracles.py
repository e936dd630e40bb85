"""Closed-form decay constants that every benchmark gamma is checked against.

The oracles read the raw JSON configs, not the parsed library objects, so a
defect in the library's config handling cannot hide itself from the gate.
Tolerances are the ones the acceptance suite and scenario tests already
apply to the same routes; the one route without a gamma-level tolerance (the
synthesized scattering-rate kernel) takes its bound from the Fourier-route
acceptance criterion, as explained next to the constant.
"""

from __future__ import annotations

import math

# criterion 3: the analytic two-sideband rate is exact to rounding
TOL_SIDEBAND_ANALYTIC = 1e-12
# criterion 2: Rabi two-route agreement
TOL_RABI_DYNAMIC = 5e-2
# criterion 4: adaptive Lorentzian quadrature against the arctan oracle
TOL_ARCTAN_QUADRATURE = 1e-8
# tests/test_scenarios.py TestTwoRouteAgreement.test_unstable_level
TOL_CASCADE_DYNAMIC = 7e-2
# Criterion 8 allows a kernel sup error of 1e-3 against a Lorentzian whose
# peak is 1/pi, i.e. pi * 1e-3 relative to the peak.  A flat density folds
# that relative kernel error straight into gamma.  The seed's FFT route
# peaks at about 1.1e-3 where the kernel grid spacing approaches the support
# width, inside this bound but far beyond the quadrature's own estimate.
TOL_FOURIER_RATE = math.pi * 1e-3


def density(spec: dict, omega: float) -> float:
    """Evaluate a flat or power-law density given as a config object."""
    lo, hi = spec["support"]
    if not lo <= omega <= hi:
        return 0.0
    if spec["kind"] == "flat":
        return float(spec["level"])
    if spec["kind"] == "power_law":
        return float(spec["amplitude"]) * omega ** float(spec["exponent"])
    raise ValueError(f"no oracle for density kind {spec['kind']!r}")


def two_sideband(scenario: dict) -> float:
    """pi [M(omega_f - Omega/2) + M(omega_f + Omega/2)] for a driven final level."""
    m_y, center, half = scenario["m_y"], scenario["omega_f"], 0.5 * scenario["omega"]
    return math.pi * (density(m_y, center - half) + density(m_y, center + half))


def arctan_convolution(scenario: dict, width: float) -> float:
    """Flat M folded with a unit Lorentzian of half-width ``width``."""
    m_y = scenario["m_y"]
    if m_y["kind"] != "flat":
        raise ValueError("the arctan oracle needs a flat m_y")
    lo, hi = m_y["support"]
    center = scenario["omega_f"] + scenario.get("lambda_i", 0.0)
    return 2.0 * m_y["level"] * (
        math.atan((hi - center) / width) - math.atan((lo - center) / width)
    )


_SWEEP_KEYS = {
    "omega_f": "omega_f",
    "rabi.omega": "omega",
    "rabi.omega_21": "omega_21",
    "unstable.lambda_r": "lambda_r",
    "unstable.lambda_i": "lambda_i",
    "scattering.rate": "rate",
}


def expected_gamma(scenario: dict, sweep_path: str | None = None,
                   value: float | None = None) -> float:
    """Closed-form gamma of a scenario config, with one swept field replaced."""
    scenario = dict(scenario)
    if sweep_path:
        scenario[_SWEEP_KEYS[sweep_path]] = value
    kind = scenario["kind"]
    if kind == "rabi":
        return two_sideband(scenario)
    if kind in ("unstable", "scattering"):
        width = scenario.get("lambda_r", scenario.get("rate"))
        if width is None:
            width = math.pi * density(scenario["m_z"], scenario["z_resonance"])
        return arctan_convolution(scenario, width)
    raise ValueError(f"no oracle for scenario kind {kind!r}")


def relative_error(gamma, oracle: float) -> float:
    """|gamma - oracle| / oracle; infinite for a missing gamma."""
    if gamma is None or not math.isfinite(gamma):
        return math.inf
    return abs(gamma - oracle) / oracle


def check_row(row: dict, sweep_path: str, scenario: dict,
              tolerances: dict) -> tuple[bool, dict]:
    """Gate one report row: status ok and every gamma column within tolerance.

    Returns (passed, {column: relative error}).
    """
    oracle = expected_gamma(scenario, sweep_path, row["sweep_value"])
    errors = {col: relative_error(row.get(col), oracle) for col in tolerances}
    passed = row.get("status") == "ok" and all(
        errors[col] <= tol for col, tol in tolerances.items()
    )
    return passed, errors
