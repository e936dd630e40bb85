"""Workload inputs, drawn from the workload seed.

Each workload is a list of units.  A ``sweep`` unit is a ``zeno run`` config
evaluated by ``cli.run_sweep`` and rendered as CSV; a ``chain`` unit is a
config without a sweep whose D(tau) is sampled by ``scenario_trace``,
transformed by ``kernel_from_dissipation`` and folded by
``perturbed_gamma``, as ``zeno trace`` would sample it.  The library only
ever sees these configs.

Every drawn value comes from a stated range [lo, hi]: seed 0 takes lo, the
value of an acceptance or scenario test (criterion 2's drives 0.2 and 0.4,
test_unstable_level's width 0.3), and any other seed draws uniformly.
The ranges are narrow so that run cost and accuracy stay comparable across
seeds; step counts, dimensions and row counts do not depend on the seed.
"""

from __future__ import annotations

import math
import random

import oracles

WORKLOADS = ("driven", "cascade", "zeno_scan")

# density of the scenario and acceptance tests' flat continuum
FLAT_Y = {"kind": "flat", "level": 0.05 / (2.0 * math.pi), "support": [-5.0, 5.0]}
# criterion 2 and 9 cubic density
CUBIC_Y = {"kind": "power_law", "amplitude": 5e-4, "exponent": 3.0, "support": [0.0, 2.0]}

# Criterion 9 density, n_y and dt with half its horizon: the fit window
# starts after two Rabi periods of the slowest drive (4 pi / 0.2 < 63)
RABI_CONTROLS = {"n_y": 400, "dt": 0.0035, "horizon": 150.0, "fit_window": [63.0, 149.0]}
# D(tau) of the fastest drive over two of its Rabi periods (4 pi / 0.4 < 32)
RABI_TRACE_HORIZON = 32.0

# test_unstable_level grid; dt and horizon are explicit so the step count is
# fixed, and the horizon clears the default fit window end 0.4 T_rec = 30.2
CASCADE_CONTROLS = {"n_y": 120, "n_z": 80, "dt": 0.002, "horizon": 31.0}
# criterion 7 cascade trace grid: dimension 1502 stays on the eigh path
CASCADE_TRACE_CONTROLS = {"n_z": 1500, "dt": 0.002}
CASCADE_TRACE_HORIZON = 30.0

# Row counts that give the two zeno_scan halves comparable shares of a
# round: a scattering.rate row builds and transforms a 128k-point kernel
# twice (about 180 ms), an unstable.lambda_r row is one adaptive quadrature
# (about 1 ms).
ZENO_RATE_ROWS = 13
ZENO_LAMBDA_ROWS = 2200


def _drawer(seed: int):
    rng = random.Random(seed)

    def draw(lo: float, hi: float) -> float:
        return lo if seed == 0 else rng.uniform(lo, hi)

    return draw


def _config(scenario: dict, dynamic: dict, sweep: dict | None = None,
            routes: str = "analytic") -> dict:
    config = {"schema_version": 1, "scenario": scenario, "routes": routes, "dynamic": dynamic}
    if sweep is not None:
        config["sweep"] = sweep
    return config


def _driven(draw, nproc: int) -> list[dict]:
    """The Rabi sweep at --jobs 1, the same sweep at --jobs nproc, one D(tau).

    The pooled sweep must print the serial sweep's CSV byte for byte.
    """
    omegas = [draw(0.20, 0.21), draw(0.40, 0.42)]
    scenario = {"kind": "rabi", "m_y": CUBIC_Y, "omega_f": 1.0,
                "omega": omegas[-1], "omega_21": 5.0}
    sweep = {"kind": "sweep", "config": _config(scenario, RABI_CONTROLS,
                                                 {"path": "rabi.omega", "values": omegas},
                                                 routes="both"),
             "tolerances": {"gamma_analytic": oracles.TOL_SIDEBAND_ANALYTIC,
                            "gamma_dynamic": oracles.TOL_RABI_DYNAMIC}}
    return [
        dict(sweep, jobs=1),
        dict(sweep, jobs=nproc, same_output_as=0),
        {"kind": "chain", "horizon": RABI_TRACE_HORIZON,
         "config": _config(scenario, {"n_y": 400, "dt": RABI_CONTROLS["dt"]}),
         "tolerances": {"gamma": oracles.TOL_RABI_DYNAMIC}},
    ]


def _cascade(draw) -> list[dict]:
    width = draw(0.30, 0.33)
    omega_f = draw(0.0, 0.1)
    # the explicit form of the band the library synthesizes for a bare width
    m_z = {"kind": "flat", "level": width / math.pi, "support": [-40.0 * width, 40.0 * width]}
    scenario = {"kind": "unstable", "m_y": FLAT_Y, "omega_f": omega_f,
                "m_z": m_z, "z_resonance": 0.0}
    sweep = {"path": "omega_f", "values": [omega_f]}
    return [
        {"kind": "sweep", "jobs": 1,
         "config": _config(scenario, CASCADE_CONTROLS, sweep, routes="both"),
         "tolerances": {"gamma_analytic": oracles.TOL_ARCTAN_QUADRATURE,
                        "gamma_dynamic": oracles.TOL_CASCADE_DYNAMIC}},
        {"kind": "chain", "horizon": CASCADE_TRACE_HORIZON,
         "config": _config(scenario, CASCADE_TRACE_CONTROLS),
         "tolerances": {"gamma": oracles.TOL_CASCADE_DYNAMIC}},
    ]


def _zeno_scan(draw) -> list[dict]:
    rate_shift = draw(0.0, 0.05)
    lambda_shift = draw(0.0, 0.05)
    rate = {"kind": "scattering", "m_y": FLAT_Y, "omega_f": 0.0, "rate": 1.0}
    lorentz = {"kind": "unstable", "m_y": FLAT_Y, "omega_f": 0.0, "lambda_r": 1.0}
    # six decades of rate and eight of width, both centred near the Zeno
    # crossover at the support width 10; widths below 1e-2 take the
    # arctan-substitution branch of the quadrature
    rate_sweep = {"path": "scattering.rate", "start": 10.0 ** (-2.0 + rate_shift),
                  "stop": 10.0 ** (4.0 + rate_shift), "count": ZENO_RATE_ROWS,
                  "spacing": "log"}
    lambda_sweep = {"path": "unstable.lambda_r", "start": 10.0 ** (-4.0 + lambda_shift),
                    "stop": 10.0 ** (4.0 + lambda_shift), "count": ZENO_LAMBDA_ROWS,
                    "spacing": "log"}
    return [
        {"kind": "sweep", "jobs": 1, "config": _config(rate, {}, rate_sweep),
         "tolerances": {"gamma_analytic": oracles.TOL_FOURIER_RATE}},
        {"kind": "sweep", "jobs": 1, "config": _config(lorentz, {}, lambda_sweep),
         "tolerances": {"gamma_analytic": oracles.TOL_ARCTAN_QUADRATURE}},
    ]


def build(workload: str, seed: int, nproc: int) -> list[dict]:
    """The units of one workload for one seed."""
    draw = _drawer(seed)
    if workload == "driven":
        return _driven(draw, nproc)
    if workload == "cascade":
        return _cascade(draw)
    if workload == "zeno_scan":
        return _zeno_scan(draw)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
