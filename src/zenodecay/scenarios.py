"""Concrete dissipation scenarios realized along both routes.

Each scenario bundles a decay continuum m_y with one mechanism that makes
the final state lose coherence: a resonant drive to a partner level, decay
of the final level into a secondary continuum m_z, or elastic scattering at
a fixed rate.  ``build_analytic`` maps the scenario onto a broadening
kernel for the rate integral; ``build_dynamic`` realizes the same physics
as a finite Hermitian model for direct simulation, so the two decay
constants can be compared with no shared approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .dynamics import (
    _DEFAULT_DIM_BUDGET,
    DiscretizedModel,
    DriveTerm,
    FitDiagnostics,
    discretize_continuum,
    dissipation_trace,
    fit_decay,
    survival_amplitude,
)
# unused here since dynamic_gamma keeps only the survival amplitude;
# perfbench/test_gate.py still checks that scenarios.propagate is patched
from .dynamics import propagate  # noqa: F401
from .errors import DimensionOverBudgetError, NonUniformGridError
from .rates import DecayRateResult, perturbed_gamma
from .spectral import (
    DiracKernel,
    DissipationKernel,
    DissipationTrace,
    DoubleDeltaKernel,
    FlatDensity,
    LorentzianKernel,
    SpectralDensity,
    kernel_from_dissipation,
)

__all__ = [
    "RabiDriveScenario",
    "UnstableLevelScenario",
    "ScatteringScenario",
    "DynamicControls",
    "build_analytic",
    "build_dynamic",
    "build_trace_model",
    "analytic_gamma",
    "dynamic_gamma",
    "scenario_trace",
]

LEVEL_OFF_SUPPORT = "level_off_support"
STRONG_DRIVE = "strong_drive"

# flat stand-in band for a bare width: wide enough that the truncation
# shifts the realized width by under 2% (checked against the closed form)
_BAND_HALFWIDTHS = 40.0


def _check_energy(value, name):
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


@dataclass(frozen=True)
class RabiDriveScenario:
    """Final level resonantly driven to a partner at splitting omega_21.

    The drive dresses the final level, splitting the line into two
    sidebands separated by the on-resonance flopping frequency ``omega``.
    """

    m_y: SpectralDensity
    omega_f: float
    omega: float
    omega_21: float
    label: str = ""

    def __post_init__(self):
        _check_energy(self.omega_f, "omega_f")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (np.isfinite(self.omega_21) and self.omega_21 > 0):
            raise ValueError(f"omega_21 must be positive, got {self.omega_21}")


def _check_secondary(lambda_r, rate, m_z, z_resonance, forms):
    given_direct = lambda_r is not None or rate is not None
    if given_direct == (m_z is not None):
        raise ValueError(f"give exactly one of {forms}")
    if m_z is not None:
        if z_resonance is None:
            raise ValueError("m_z requires z_resonance")
        _check_energy(z_resonance, "z_resonance")
    elif z_resonance is not None:
        raise ValueError("z_resonance only applies together with m_z")


@dataclass(frozen=True)
class UnstableLevelScenario:
    """Final level that drains into a secondary continuum.

    Either give the amplitude half-width lambda_r (with an optional line
    shift lambda_i) directly, or give the secondary density m_z and the
    resonance energy z_resonance; the realized half-width is then
    pi * m_z(z_resonance).
    """

    m_y: SpectralDensity
    omega_f: float
    lambda_r: float | None = None
    lambda_i: float = 0.0
    m_z: SpectralDensity | None = None
    z_resonance: float | None = None
    label: str = ""

    def __post_init__(self):
        _check_energy(self.omega_f, "omega_f")
        _check_energy(self.lambda_i, "lambda_i")
        _check_secondary(self.lambda_r, None, self.m_z, self.z_resonance,
                         "lambda_r or (m_z, z_resonance)")
        if self.lambda_r is not None and not (
            np.isfinite(self.lambda_r) and self.lambda_r >= 0
        ):
            raise ValueError(f"lambda_r must be nonnegative, got {self.lambda_r}")

    @property
    def width(self) -> float:
        """Realized amplitude half-width."""
        if self.lambda_r is not None:
            return self.lambda_r
        return math.pi * self.m_z(self.z_resonance)


@dataclass(frozen=True)
class ScatteringScenario:
    """Final level dephased by elastic scattering.

    Either give the coherence-loss rate directly (the dissipation function
    is then exp(-rate * tau) and the kernel is produced numerically through
    the trace transform), or give the scatterer continuum m_z with its
    resonance energy, which yields the width pi * m_z(z_resonance) in
    closed form.
    """

    m_y: SpectralDensity
    omega_f: float
    rate: float | None = None
    m_z: SpectralDensity | None = None
    z_resonance: float | None = None
    label: str = ""

    def __post_init__(self):
        _check_energy(self.omega_f, "omega_f")
        _check_secondary(None, self.rate, self.m_z, self.z_resonance,
                         "rate or (m_z, z_resonance)")
        if self.rate is not None and not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be nonnegative, got {self.rate}")

    @property
    def width(self) -> float:
        if self.rate is not None:
            return self.rate
        return math.pi * self.m_z(self.z_resonance)


@dataclass(frozen=True)
class DynamicControls:
    """Knobs for the simulation route; None means an automatic choice."""

    n_y: int = 400
    n_z: int = 100
    horizon: float | None = None
    dt: float | None = None
    fit_window: tuple[float, float] | None = None
    dim_budget: int = _DEFAULT_DIM_BUDGET


def _synthesize_exponential(rate: float, dt: float, steps: int, label: str) -> DissipationTrace:
    """Sampled exp(-rate * tau) at steps + 1 points of spacing dt from tau = 0.

    Raises NonUniformGridError before allocating a grid whose last time has
    an ulp above DissipationTrace's 1e-9 uniformity tolerance of the
    spacing: past about 4.5e6 samples dt * arange cannot be relied on to
    stay uniform.
    """
    if np.spacing(dt * steps) > 1e-9 * dt:
        raise NonUniformGridError(
            f"{steps + 1} samples at spacing {dt:.3g} cannot stay uniform to 1e-9 "
            "in double precision; shorten the horizon"
        )
    times = dt * np.arange(steps + 1)
    return DissipationTrace(times=times, values=np.exp(-rate * times), label=label)


def build_analytic(scenario) -> DissipationKernel:
    """Broadening kernel equivalent to the scenario's dissipation."""
    if isinstance(scenario, RabiDriveScenario):
        return DoubleDeltaKernel(scenario.omega)
    if isinstance(scenario, UnstableLevelScenario):
        if scenario.width == 0.0:
            if scenario.lambda_i != 0.0:
                raise ValueError(
                    "zero width with a nonzero shift has no kernel; fold the "
                    "shift into omega_f instead"
                )
            return DiracKernel()
        return LorentzianKernel(width=scenario.width, shift=scenario.lambda_i)
    if isinstance(scenario, ScatteringScenario):
        if scenario.width == 0.0:
            return DiracKernel()
        if scenario.rate is not None:
            # the grid the transform was tuned for
            trace = _synthesize_exponential(scenario.rate, 0.005 / scenario.rate, 8000,
                                            scenario.label)
            return kernel_from_dissipation(trace)
        return LorentzianKernel(width=scenario.width)
    raise TypeError(f"unknown scenario type {type(scenario).__name__}")


def _scenario_warnings(scenario) -> tuple[str, ...]:
    flags = []
    lo, hi = scenario.m_y.support
    if not lo <= scenario.omega_f <= hi:
        flags.append(LEVEL_OFF_SUPPORT)
    if isinstance(scenario, RabiDriveScenario) and scenario.omega > 0.5 * scenario.omega_21:
        flags.append(STRONG_DRIVE)
    return tuple(flags)


def analytic_gamma(scenario, kernel: DissipationKernel | None = None) -> DecayRateResult:
    """Decay constant by the rate integral with the scenario's kernel.

    kernel, when given, must be ``build_analytic(scenario)``; passing it
    saves building it again.
    """
    if kernel is None:
        kernel = build_analytic(scenario)
    result = perturbed_gamma(scenario.m_y, kernel, scenario.omega_f)
    flags = _scenario_warnings(scenario)
    if flags:
        result = replace(result, warnings=result.warnings + flags)
    return result


def _secondary_density(scenario) -> tuple[SpectralDensity, float]:
    """The m_z continuum and its resonance, synthesizing one for bare widths."""
    if scenario.m_z is not None:
        return scenario.m_z, scenario.z_resonance
    width = scenario.width
    if width <= 0:
        raise ValueError("nothing to build: the secondary width is zero")
    half_band = _BAND_HALFWIDTHS * width
    return FlatDensity(level=width / math.pi, support=(-half_band, half_band)), 0.0


def _cascade_model(
    scenario, n_y: int, n_z: int, dim_budget: int, single_mode: bool
) -> DiscretizedModel:
    """Level + Y continuum, each Y mode carrying its own copy of the Z chain.

    A bare zero width means there is no secondary continuum at all, so the
    model degrades to pure decay (plus the diagonal shift when one is set).
    """
    lambda_i = getattr(scenario, "lambda_i", 0.0)
    if scenario.m_z is None and scenario.width == 0.0:
        n_z = 0
        zeta = np.empty(0)
        w_z = np.empty(0)
        z_res = 0.0
    else:
        m_z, z_res = _secondary_density(scenario)
        zeta, w_z, _ = discretize_continuum(m_z, n_z)
    if single_mode:
        omega, v, dy = np.array([scenario.omega_f]), np.array([1.0]), None
    else:
        omega, v, dy = discretize_continuum(scenario.m_y, n_y)
    n_modes = omega.size
    n = 1 + n_modes * (1 + n_z)
    if n > dim_budget:
        raise DimensionOverBudgetError(
            f"cascade model needs {n} states, budget is {dim_budget}"
        )
    xi = 1 + np.arange(n_modes) * (1 + n_z)
    h0 = np.empty(n)
    h0[0] = scenario.omega_f
    rows, cols, vals = [], [], []
    for k in range(n_modes):
        base = xi[k]
        # the diagonal W entry below shifts the dressed xi level to
        # omega_k - lambda_i; the Z band recenters there to stay resonant
        h0[base] = omega[k]
        h0[base + 1 : base + 1 + n_z] = (omega[k] - lambda_i) + (zeta - z_res)
        rows.append(np.full(n_z, base))
        cols.append(np.arange(base + 1, base + 1 + n_z))
        vals.append(w_z)
    up_rows = np.concatenate(rows)
    up_cols = np.concatenate(cols)
    up_vals = np.concatenate(vals).astype(complex)
    all_rows = [up_rows, up_cols]
    all_cols = [up_cols, up_rows]
    all_vals = [up_vals, np.conj(up_vals)]
    if lambda_i:
        all_rows.append(xi)
        all_cols.append(xi)
        all_vals.append(np.full(xi.size, -lambda_i, dtype=complex))
    w_static = sparse.csr_matrix(
        (np.concatenate(all_vals), (np.concatenate(all_rows), np.concatenate(all_cols))),
        shape=(n, n),
    )
    if w_static.nnz == 0:
        w_static = None
    return DiscretizedModel(
        h0_diag=h0,
        xi_indices=xi,
        v_xi=v.astype(complex),
        w_static=w_static,
        label=scenario.label,
        xi_spacing=dy,
    )


def _rabi_model(scenario, n_y: int, dim_budget: int, single_mode: bool) -> DiscretizedModel:
    omega_d = scenario.omega_21
    if single_mode:
        omega, v, dy = np.array([scenario.omega_f]), np.array([1.0]), None
    else:
        omega, v, dy = discretize_continuum(scenario.m_y, n_y)
    n_modes = omega.size
    n = 1 + 2 * n_modes
    if n > dim_budget:
        raise DimensionOverBudgetError(
            f"driven model needs {n} states, budget is {dim_budget}"
        )
    xi = np.arange(1, n_modes + 1)
    eta = np.arange(n_modes + 1, n)
    h0 = np.concatenate(([scenario.omega_f], omega, omega + omega_d))
    amp_vals = np.full(2 * n_modes, scenario.omega, dtype=complex)
    amp = sparse.csr_matrix(
        (amp_vals, (np.concatenate([xi, eta]), np.concatenate([eta, xi]))),
        shape=(n, n),
    )
    return DiscretizedModel(
        h0_diag=h0,
        xi_indices=xi,
        v_xi=v.astype(complex),
        drive=DriveTerm(amplitude=amp, frequency=omega_d),
        label=scenario.label,
        xi_spacing=dy,
    )


def build_dynamic(scenario, controls: DynamicControls | None = None) -> DiscretizedModel:
    """Finite Hermitian realization of the scenario for direct simulation."""
    controls = controls or DynamicControls()
    if isinstance(scenario, RabiDriveScenario):
        return _rabi_model(scenario, controls.n_y, controls.dim_budget, False)
    if isinstance(scenario, UnstableLevelScenario):
        return _cascade_model(scenario, controls.n_y, controls.n_z,
                              controls.dim_budget, False)
    if isinstance(scenario, ScatteringScenario):
        if scenario.m_z is None:
            raise ValueError(
                "the bare-rate scattering form has no explicit environment to "
                "simulate; give m_z and z_resonance for the dynamic route"
            )
        return _cascade_model(scenario, controls.n_y, controls.n_z,
                              controls.dim_budget, False)
    raise TypeError(f"unknown scenario type {type(scenario).__name__}")


def build_trace_model(
    scenario, horizon: float, controls: DynamicControls | None = None
) -> DiscretizedModel:
    """Minimal model for sampling D(tau): one fiducial decay mode.

    The dissipation function does not depend on the decay continuum, so a
    single mode at omega_f keeps the free-evolution denominator away from
    zero.  For cascades the secondary grid is refined until its recurrence
    clears 2.5 times the requested horizon.
    """
    controls = controls or DynamicControls()
    if isinstance(scenario, RabiDriveScenario):
        return _rabi_model(scenario, 1, controls.dim_budget, True)
    if isinstance(scenario, ScatteringScenario) and scenario.m_z is None:
        raise ValueError("the bare-rate scattering form is synthesized, not simulated")
    m_z, _ = _secondary_density(scenario)
    n_z = max(controls.n_z, int(np.ceil(m_z.width * 2.5 * horizon / (2.0 * math.pi))))
    return _cascade_model(scenario, 1, n_z, controls.dim_budget, True)


def scenario_trace(
    scenario, horizon: float, controls: DynamicControls | None = None
) -> DissipationTrace:
    """Sampled dissipation function D(tau) out to the horizon."""
    controls = controls or DynamicControls()
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    no_loss = (
        isinstance(scenario, (UnstableLevelScenario, ScatteringScenario))
        and scenario.m_z is None
        and scenario.width == 0.0
        and getattr(scenario, "lambda_i", 0.0) == 0.0
    )
    if no_loss:
        return _synthesize_exponential(0.0, horizon / 2000.0, 2000, scenario.label)
    if isinstance(scenario, ScatteringScenario) and scenario.m_z is None:
        dt = 0.005 / scenario.rate
        steps = max(64, int(np.ceil(horizon / dt)))
        return _synthesize_exponential(scenario.rate, dt, steps, scenario.label)
    model = build_trace_model(scenario, horizon, controls)
    return dissipation_trace(model, horizon, controls.dt, dim_budget=controls.dim_budget)


def _default_window(scenario, model, expected: float) -> tuple[float, float]:
    t_rec = model.recurrence_time
    span = scenario.m_y.width
    t_a = 10.0 / span
    if isinstance(scenario, RabiDriveScenario):
        t_a = max(t_a, 2.0 * 2.0 * math.pi / scenario.omega)
    else:
        width = scenario.width
        if width > 0:
            t_a = max(t_a, 3.0 / width)
    t_a = min(t_a, 0.2 * t_rec)
    t_b = 0.4 * t_rec
    if expected > 0:
        t_b = min(t_b, t_a + 3.0 / expected)
    if not t_a < t_b:
        raise ValueError(
            f"no usable fit window: transient end {t_a:g} meets the "
            f"recurrence limit {t_b:g}; refine the grid (larger n_y)"
        )
    return t_a, t_b


def dynamic_gamma(
    scenario, controls: DynamicControls | None = None
) -> tuple[DecayRateResult, FitDiagnostics]:
    """Decay constant by direct simulation and a log-linear fit.

    The fit window defaults to clearing both the short-time transient
    (kernel memory or two drive periods) and the discretization recurrence;
    the horizon stretches to the window end.
    """
    controls = controls or DynamicControls()
    model = build_dynamic(scenario, controls)
    expected = analytic_gamma(scenario).gamma
    window = controls.fit_window or _default_window(scenario, model, expected)
    horizon = controls.horizon or window[1]
    trace = survival_amplitude(model, horizon, controls.dt, dim_budget=controls.dim_budget)
    gamma0 = 2.0 * math.pi * scenario.m_y(scenario.omega_f)
    result, diagnostics = fit_decay(
        trace, window, recurrence_time=model.recurrence_time, gamma0=gamma0
    )
    flags = _scenario_warnings(scenario)
    if flags:
        result = replace(result, warnings=result.warnings + flags)
    return result, diagnostics
