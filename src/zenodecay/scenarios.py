"""Concrete dissipation scenarios realized along both routes.

Each scenario bundles a decay continuum m_y with one mechanism that makes
the final state lose coherence: a resonant drive to a partner level, decay
of the final level into a secondary continuum m_z, or elastic scattering at
a fixed rate.  ``build_analytic`` maps the scenario onto a broadening
kernel for the rate integral; ``build_dynamic`` realizes the same physics
as a finite Hermitian model for direct simulation, so the two decay
constants can be compared with no shared approximations.

Every dynamic model is one star: the level couples to the Y modes, and
each Y mode carries an identical copy of one final-state sector, shifted
by the mode's energy.  The sector is what makes the final state lose
coherence: the mode and its driven partner, or the mode and its Z chain.
``_sector`` gives it once and ``_star_model`` lays it out per Y mode,
with the decay modes at states 1..n_y.

``scenario_amplitude`` gives the level amplitude F(t) of that model.  A
driven model is propagated whole.  A cascade's F obeys the memory-kernel
equation F' = -int C D F with no approximation: C(tau) sums the Y
couplings and D(tau) is the dissipation function of one Y mode in its
sector.  That D obeys its own memory-kernel equation, D = exp(i lambda_i
tau) G with G' = -int K_z G and K_z summing the Z couplings, so no model
is propagated for it either; ``scenario_trace`` gives a cascade's D the
same way.  C, K_z and F are taken at every dt step (K_z and G on finer
sub-steps where the Z band needs them), and F is kept on the samples a
propagation would keep.  No model is built on that route.  On either
route one cap (dynamics._capped) bounds each array sized, before it is
allocated.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .dynamics import (
    _DRIVE_PHASE_STEP,
    _MIN_FIT_SAMPLES,
    AmplitudeTrace,
    DiscretizedModel,
    DriveTerm,
    FitDiagnostics,
    _capped,
    _chirp_sums,
    _energy_scale,
    _grid_steps,
    _uniform_grid,
    _volterra_solve,
    discretize_continuum,
    dissipation_trace,
    fit_decay,
    survival_amplitude,
)
# unused here since dynamic_gamma keeps only the survival amplitude;
# perfbench/test_gate.py still checks that scenarios.propagate is patched
from .dynamics import propagate  # noqa: F401
from .errors import IllConditionedFitError, NonUniformGridError, StepTooLargeError
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
    "scenario_amplitude",
    "scenario_trace",
]

LEVEL_OFF_SUPPORT = "level_off_support"
STRONG_DRIVE = "strong_drive"
WIDTH_BEYOND_BAND = "width_beyond_band"
STEP_ERROR_WARNING = "step_error"

# relative step error of a memory-kernel gamma above which the row is flagged
_STEP_ERROR_LIMIT = 1e-4

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
    m_z = getattr(scenario, "m_z", None)
    # the Lorentzian of an explicit band spills past the band's nearer edge
    if m_z is not None and scenario.width > min(scenario.z_resonance - m_z.support[0],
                                                m_z.support[1] - scenario.z_resonance):
        flags.append(WIDTH_BEYOND_BAND)
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


def _z_chain(scenario, n_z: int):
    """(eps, w_z, spacing): a cascade's Z chain, energies above z_resonance.

    Empty, with spacing 0, for a bare zero width.  n_z is capped first.
    """
    if scenario.m_z is None and scenario.width == 0.0:
        return np.empty(0), np.empty(0), 0.0
    m_z, z_res = _secondary_density(scenario)
    zeta, w_z, spacing = discretize_continuum(m_z, _capped(n_z, "Z chain"))
    return zeta - z_res, w_z, spacing


def _sector(scenario, n_z: int):
    """(offsets, w, drive): the final-state sector every Y mode carries.

    offsets are the sector's energies above its Y mode, which is entry 0;
    w is its static coupling and drive its (amplitude, frequency), each
    None when absent.  A driven sector is the mode and its partner at
    omega_21.  A cascade's is the mode and its Z chain of n_z states, with
    -lambda_i on the mode when set; a bare zero width has no chain.
    """
    if isinstance(scenario, RabiDriveScenario):
        pair = sparse.csr_matrix([[0.0, scenario.omega], [scenario.omega, 0.0]])
        return np.array([0.0, scenario.omega_21]), None, (pair, scenario.omega_21)
    lambda_i = getattr(scenario, "lambda_i", 0.0)
    eps, w_z, _ = _z_chain(scenario, n_z)
    chain = np.arange(1, eps.size + 1)
    shift = np.zeros(1 if lambda_i else 0, dtype=int)
    w = sparse.csr_matrix(
        (np.concatenate([w_z, w_z, np.full(shift.size, -lambda_i)]).astype(complex),
         (np.concatenate([np.zeros_like(chain), chain, shift]),
          np.concatenate([chain, np.zeros_like(chain), shift]))),
        shape=(1 + eps.size, 1 + eps.size),
    )
    # -lambda_i shifts the dressed mode to omega_k - lambda_i; the Z band
    # recenters there to stay resonant
    offsets = np.concatenate(([0.0], eps - lambda_i))
    return offsets, (w if w.nnz else None), None


def _star_model(scenario, y_modes, sector) -> DiscretizedModel:
    """Level + the Y modes (omega, v, dy), each carrying a copy of the sector.

    The copies are laid out by sector state: state a of Y mode k is
    1 + a n_y + k, so the decay modes are states 1..n_y.  The model's
    stored entries are capped before any copy is laid out.
    """
    omega, v, dy = y_modes
    offsets, w, drive = sector
    n = 1 + omega.size * offsets.size
    per_copy = (0 if w is None else w.nnz) + (0 if drive is None else drive[0].nnz)
    _capped(n + v.size + omega.size * per_copy, "model")
    eye = sparse.identity(omega.size, format="csr")

    def copies(mat):
        kron = sparse.kron(mat, eye, format="coo")
        return sparse.csr_matrix((kron.data, (kron.row + 1, kron.col + 1)), shape=(n, n))

    return DiscretizedModel(
        h0_diag=np.concatenate(([scenario.omega_f], (omega + offsets[:, None]).ravel())),
        v_xi=v.astype(complex),
        w_static=None if w is None else copies(w),
        drive=None if drive is None else DriveTerm(amplitude=copies(drive[0]),
                                                   frequency=drive[1]),
        label=scenario.label,
        xi_spacing=dy,
    )


def _step_flags(error: float | None) -> tuple[str, ...]:
    """The step_error warning of an error estimate above 1e-4, else none."""
    if error is not None and error > _STEP_ERROR_LIMIT:
        return (f"{STEP_ERROR_WARNING}={error:.3g}",)
    return ()


def _chain_dissipation(scenario, n_z: int, horizon: float, dt, y_modes):
    """(n_dt, stride, D at step h, D at step 2h or None) of one Y mode's cascade sector.

    The grid is propagation's of the model whose Y modes, y_modes =
    (energies, couplings), each carry the sector; its energy scale is read
    off the sector's offsets from the extreme energies.  D(tau) is
    exp(i lambda_i tau) G, G' = -int K_z G, K_z(tau) = sum_z w_z^2
    exp(-i eps_z tau).  K_z and K_z' are chirp-z sums on r sub-steps a
    step, each at most 0.5 / max |eps_z|, where G is solved at fourth order
    and, for D at 2h, again on every other one (None on under 3 steps or
    when that lifts |G| above 1).  Every array is capped before allocation.
    """
    lambda_i = getattr(scenario, "lambda_i", 0.0)
    eps, w_z, spacing = _z_chain(scenario, n_z)
    energies, couplings = y_modes
    offsets = np.concatenate(([0.0], eps - lambda_i))  # as _sector's
    h0 = np.concatenate(([scenario.omega_f], (energies + offsets[:, None]).ravel()))
    n_dt, stride = _grid_steps(horizon, dt,
                               _energy_scale(h0, np.concatenate((couplings, w_z, [lambda_i]))))
    step = horizon / n_dt
    sub = max(1, math.ceil(step * np.abs(eps).max(initial=0.0) / _DRIVE_PHASE_STEP))
    n = _capped(n_dt * sub + 1, "memory-kernel solve")
    _capped(n + eps.size, "chirp-z sum")
    weights = w_z * w_z
    first = eps[0] if eps.size else 0.0
    kernel, slope = _chirp_sums(first, spacing, [weights, -1j * eps * weights], step / sub, n)
    # exact for lambda_i = 0, where the phase is 1
    phase = np.exp(1j * lambda_i * _uniform_grid(horizon, n_dt))
    d_h = phase * _volterra_solve(step / sub, kernel, slope)[::sub]
    d_2h = None
    if n_dt >= 2:
        with contextlib.suppress(StepTooLargeError):
            d_2h = phase[::2] * _volterra_solve(2.0 * step / sub, kernel[::2],
                                                slope[::2])[::sub]
    return n_dt, stride, d_h, d_2h


def _cascade_amplitude(scenario, horizon: float, controls: DynamicControls):
    """scenario_amplitude of a cascade, by its memory kernel K = C D.

    F is solved on every step of _chain_dissipation's grid for the Y band,
    and at twice that step from D at 2h.  Every array is capped first.
    """
    omega, v, dy = discretize_continuum(scenario.m_y, _capped(controls.n_y, "Y band"))
    n_dt, stride, d_h, d_2h = _chain_dissipation(scenario, controls.n_z, horizon, controls.dt,
                                                 (omega[[0, -1]], v))
    steps = _uniform_grid(horizon, n_dt)
    _capped(steps.size + omega.size, "chirp-z sum")
    # C(tau) = sum_k |v_k|^2 exp(-i (omega_k - E0) tau)
    correlation = _chirp_sums(omega[0] - scenario.omega_f, dy, v * v, horizon / n_dt,
                              steps.size)
    fine = _volterra_solve(horizon / n_dt, correlation * d_h)
    trace = AmplitudeTrace(times=steps[::stride], values=fine[::stride])
    if steps.size < 3:
        return trace, None
    # both on every (2 thin)-th step, about as many points as the samples
    thin = max(1, stride // 2)
    times, f_h = steps[:: 2 * thin], fine[:: 2 * thin]
    # a doubled step that breaks |D| <= 1 or |F| <= 1 bounds nothing
    f_2h, error = None, math.inf
    if d_2h is not None:
        twice = steps[::2]  # one step short of the horizon on an odd n_dt
        with contextlib.suppress(StepTooLargeError):
            f_2h = _volterra_solve(twice[-1] / (twice.size - 1), correlation[::2] * d_2h)[::thin]
            error = float(np.abs(f_h - f_2h).max()) / 3.0
    return replace(trace, warnings=_step_flags(error)), (times, f_h, f_2h)


def _check_simulable(scenario) -> None:
    """Raise unless the scenario has a finite model to simulate."""
    if not isinstance(scenario, (RabiDriveScenario, UnstableLevelScenario, ScatteringScenario)):
        raise TypeError(f"unknown scenario type {type(scenario).__name__}")
    if isinstance(scenario, ScatteringScenario) and scenario.m_z is None:
        raise ValueError(
            "the bare-rate scattering form has no explicit environment to "
            "simulate; give m_z and z_resonance for the dynamic route"
        )


def build_dynamic(scenario, controls: DynamicControls | None = None) -> DiscretizedModel:
    """Finite Hermitian realization of the scenario for direct simulation."""
    controls = controls or DynamicControls()
    _check_simulable(scenario)
    y_modes = discretize_continuum(scenario.m_y, _capped(controls.n_y, "Y band"))
    return _star_model(scenario, y_modes, _sector(scenario, controls.n_z))


def scenario_amplitude(scenario, horizon: float, controls: DynamicControls | None = None):
    """(F(t) of build_dynamic(scenario, controls) out to the horizon, step check).

    A driven model is propagated by survival_amplitude.  A cascade's F is
    solved from its exact memory kernel, without building the full model,
    on every step of the grid propagation would take and returned on the
    samples propagation would keep.  The step check is (times, F at step h,
    F at step 2h) on about as many times as the samples, the last None when
    the doubled step lifts |F| above 1; when sup |F_h - F_2h| / 3 exceeds
    1e-4 the trace carries a step_error warning.  The check is None for a
    driven model, whose propagation the norm-drift guard covers, and on a
    grid of under 3 steps.  The horizon must be finite and positive.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    controls = controls or DynamicControls()
    if isinstance(scenario, RabiDriveScenario):
        model = build_dynamic(scenario, controls)
        return survival_amplitude(model, horizon, controls.dt), None
    _check_simulable(scenario)
    return _cascade_amplitude(scenario, horizon, controls)


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
    _check_simulable(scenario)
    return _star_model(scenario, (np.array([scenario.omega_f]), np.array([1.0]), None),
                       _sector(scenario, _trace_n_z(scenario, horizon, controls.n_z)))


def _trace_n_z(scenario, horizon: float, n_z: int) -> int:
    """n_z, refined for a cascade until the Z recurrence clears 2.5 horizons."""
    if isinstance(scenario, RabiDriveScenario):
        return n_z
    m_z, _ = _secondary_density(scenario)
    return max(n_z, int(np.ceil(m_z.width * 2.5 * horizon / (2.0 * math.pi))))


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
    if isinstance(scenario, RabiDriveScenario):
        return dissipation_trace(build_trace_model(scenario, horizon, controls), horizon,
                                 controls.dt)
    _check_simulable(scenario)
    # the trace model's grid: its one mode at omega_f, its decay coupling off
    n_dt, stride, d_h, d_2h = _chain_dissipation(
        scenario, _trace_n_z(scenario, horizon, controls.n_z), horizon, controls.dt,
        (np.array([scenario.omega_f]), ()))
    error = None
    if n_dt >= 2:
        # fourth order: the gap is about 15 times the error of D at step h;
        # a doubled step that breaks |D| <= 1 bounds nothing
        error = math.inf if d_2h is None else float(np.abs(d_h[::2] - d_2h).max()) / 15.0
    return DissipationTrace(times=_uniform_grid(horizon, n_dt, stride), values=d_h[::stride],
                            label=scenario.label, warnings=_step_flags(error))


def _recurrence_time(scenario, controls: DynamicControls) -> float:
    """T_rec of build_dynamic(scenario, controls): 2 pi over discretize_continuum's spacing."""
    _check_simulable(scenario)
    if controls.n_y < 1:
        raise ValueError("need at least one mode")
    return 2.0 * np.pi / (scenario.m_y.width / controls.n_y)


def _default_window(scenario, t_rec: float, expected: float) -> tuple[float, float]:
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


def _step_error(check, window) -> float | None:
    """|gamma(h) - gamma(2h)| / 3 relative to gamma(h), or None without a check.

    Both are fitted on the check's times, the window clipped to their end;
    None as well when the clipped window holds too few of them for a fit,
    and inf when F at 2h left |F| <= 1 or either fit fails, so it fails no
    row.  The trapezoid rule is second order: the gap is about 3 times the
    error of gamma(h).
    """
    if check is None:
        return None
    times, f_h, f_2h = check
    t_a, t_b = window[0], min(window[1], times[-1])
    if np.count_nonzero((times >= t_a) & (times <= t_b)) < _MIN_FIT_SAMPLES:
        return None
    if f_2h is None:
        return math.inf
    # Re gamma_complex: gamma's factor 2 cancels in the ratio
    try:
        g_h, g_2h = (fit_decay(AmplitudeTrace(times=times, values=f), (t_a, t_b))[1]
                     .gamma_complex.real for f in (f_h, f_2h))
    except (IllConditionedFitError, ValueError):
        return math.inf
    gap = abs(g_h - g_2h)
    return gap / (3.0 * abs(g_h)) if gap else 0.0


def dynamic_gamma(
    scenario, controls: DynamicControls | None = None
) -> tuple[DecayRateResult, FitDiagnostics]:
    """Decay constant by direct simulation and a log-linear fit.

    The fit window defaults to clearing both the short-time transient
    (kernel memory or two drive periods) and the discretization recurrence;
    the horizon stretches to the window end.  F(t) comes from
    scenario_amplitude.  For a cascade, the fit is repeated on F solved at
    twice the step; diagnostics.step_error is the resulting relative error
    estimate, and above 1e-4 it flags the row, which stays ok.  It is None
    for a driven model and when the window holds too few of the check's
    samples for a fit.
    """
    controls = controls or DynamicControls()
    t_rec = _recurrence_time(scenario, controls)
    window = controls.fit_window or _default_window(scenario, t_rec,
                                                    analytic_gamma(scenario).gamma)
    horizon = controls.horizon or window[1]
    trace, check = scenario_amplitude(scenario, horizon, controls)
    gamma0 = 2.0 * math.pi * scenario.m_y(scenario.omega_f)
    result, diagnostics = fit_decay(trace, window, recurrence_time=t_rec, gamma0=gamma0)
    diagnostics = replace(diagnostics, step_error=_step_error(check, window))
    flags = _scenario_warnings(scenario) + _step_flags(diagnostics.step_error)
    if flags:
        result = replace(result, warnings=result.warnings + flags)
    return result, diagnostics
