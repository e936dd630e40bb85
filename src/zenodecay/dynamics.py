"""Time-domain route: discretized continua, propagation, decay fits.

A DiscretizedModel holds the initial level (index 0), the decay modes it
couples to (the xi sector, indices 1..len(v_xi)) and any further modes,
reached only through the final-state interaction W.  Propagating the
Schroedinger equation and fitting ln F(t) over a window clear of both the
short-time transient and the discretization recurrence gives the dynamic
decay constant; evolving V|psi0> under H0 + W alone, the same propagation
with the decay coupling switched off, gives the sampled dissipation
function D(tau).

The reference propagator evolves every model by a truncated Taylor series
of the matrix exponential (Al-Mohy and Higham, SIAM J. Sci. Comput. 33 (2011) 488)
over a uniform sample grid; a driven model takes 4th-order
commutator-free Magnus steps (CF4:2), each two such exponentials.  Each
exponential is evaluated by Horner's rule in two vectors, one sparse
product added into a scaled copy of the state per power, with no dense
product and no BLAS call.  Every model runs one sample loop, which keeps
the static part of an exponential and the drive amplitude (empty for a
static model) on one sparsity pattern, so its matrix is one data array.
The propagator hands its samples over one state at a time, so
survival_amplitude and dissipation_trace keep one reduced value per
sample and never the full state matrix; propagate stacks the states.

When every decay mode carries its own copy of one final-state sector, the
level amplitude obeys the memory-kernel equation
F'(t) = -int_0^t K(t, s) F(s) ds exactly (Kofman and Kurizki, Nature 405
(2000) 546), so the full model is never propagated.  A static sector gives
K(t - s); memory_kernel_amplitude solves it on a uniform grid from K
alone.  Given K' as well, the same solve with Euler-Maclaurin end terms is
fourth order; that gives the dissipation function of a decay mode whose
sector is a chain, again with no propagation.  Both solves
(_lower_toeplitz_solve) and the kernel sums over equally spaced energies,
chirp-z transforms (_chirp_sums), are O(N log N) by FFT, with no BLAS
call.  A driven 2x2 sector gives the separable K(t, s) = C(t - s)
(a(t) conj(a(s)) + b(t) conj(b(s))), (a, b) the row 0 of the sector's
propagator: _sector_rows composes it from the sector's closed-form CF4:2
steps by a prefix scan, and _separable_solve solves for F by divide and
conquer in O(N log^2 N), again with no BLAS call.  So no production path
propagates: propagate, survival_amplitude and dissipation_trace are the
references that both routes' solves are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import fft, sparse
# the kernel behind `A @ x`, called without the per-product dispatch that
# costs more than the product itself on small models
from scipy.sparse._sparsetools import csr_matvec

from .errors import (
    DimensionOverBudgetError,
    IllConditionedFitError,
    NonUniformGridError,
    StepTooLargeError,
    VanishingDenominatorError,
    WindowBeyondRecurrenceError,
)
from .rates import DecayRateResult, _make_result
from .spectral import DissipationTrace, SpectralDensity

__all__ = [
    "DriveTerm",
    "DiscretizedModel",
    "Trajectory",
    "AmplitudeTrace",
    "FitDiagnostics",
    "discretize_continuum",
    "build_decay_model",
    "propagate",
    "survival_amplitude",
    "no_decay_amplitude",
    "fit_decay",
    "dissipation_trace",
    "memory_kernel_amplitude",
]

MICROMOTION_WARNING = "micromotion_spread"

_HERMITICITY_TOL = 1e-12
_NORM_DRIFT_LIMIT = 1e-6
_DENOMINATOR_FLOOR = 1e-12
_MIN_FIT_SAMPLES = 8
# |F| may exceed 1 by this much in rounding
_UNITARITY_TOL = 1e-9
# points of any array either route sizes, at most, each counted before it
# is allocated: a model's stored entries (states, couplings and the
# nonzeros of W and the drive), propagate's samples x states, D's samples
# x coupled modes, and the memory-kernel route's modes, solve steps,
# chirp-z sums and sector-row scans (four points a step).  A memory-kernel
# solve peaks at about 160 bytes a step, a driven one at about 400;
# building a model and taking its survival amplitude peaks at 441 bytes a
# state driven (n_y 20,000) and 477 for a cascade (400 x 100), 159-177
# bytes a stored entry (tracemalloc, numpy 2.4, scipy 1.17).  So either
# route peaks near 0.7 GB at the cap
_MAX_ARRAY_POINTS = 4_000_000
# drive phase omega_d h of one CF4:2 step at most
_DRIVE_PHASE_STEP = 0.5
# CF4:2 weights of the drive at the two Gauss points of a step, and those
# points as fractions of the step
_CF4_WEIGHTS = ((3.0 + 2.0 * math.sqrt(3.0)) / 12.0, (3.0 - 2.0 * math.sqrt(3.0)) / 12.0)
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


def _check_hermitian(mat, name):
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got {mat.shape}")
    defect = mat - mat.conj().T
    if defect.nnz and np.abs(defect.data).max() > _HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian within {_HERMITICITY_TOL}")
    row0 = mat.getrow(0)
    col0 = mat.getcol(0)
    if (row0.nnz and np.abs(row0.data).max() > 0) or (
        col0.nnz and np.abs(col0.data).max() > 0
    ):
        raise ValueError(f"{name} must not touch the initial level (row/col 0)")


@dataclass(frozen=True)
class DriveTerm:
    """Oscillating part of W: amplitude * cos(frequency * t)."""

    amplitude: sparse.csr_matrix
    frequency: float

    def __post_init__(self):
        amp = sparse.csr_matrix(self.amplitude, dtype=complex)
        if not (np.isfinite(self.frequency) and self.frequency >= 0):
            raise ValueError("drive frequency must be finite and nonnegative")
        _check_hermitian(amp, "drive amplitude")
        object.__setattr__(self, "amplitude", amp)


@dataclass(frozen=True)
class DiscretizedModel:
    """Finite Hermitian model of level + continua.

    h0_diag: diagonal energies, entry 0 is the initial level.
    v_xi: decay amplitudes <k|V|psi0> of the modes k = 1..len(v_xi); the
        other indices in 1..n-1 are reached only through W.
    w_static: Hermitian final-state interaction (row/col 0 empty).
    drive: optional oscillating part of W.
    xi_spacing: grid spacing of the xi continuum, sets the recurrence time.

    Instances are treated as immutable after construction.
    """

    h0_diag: np.ndarray
    v_xi: np.ndarray
    w_static: sparse.csr_matrix | None = None
    drive: DriveTerm | None = None
    label: str = ""
    xi_spacing: float | None = None

    def __post_init__(self):
        h0 = np.array(self.h0_diag, dtype=float)
        v = np.array(self.v_xi, dtype=complex)
        n = h0.size
        if h0.ndim != 1 or n < 2:
            raise ValueError("h0_diag must be a 1-d array with at least 2 entries")
        if not np.all(np.isfinite(h0)):
            raise ValueError("h0_diag must be finite")
        if v.ndim != 1 or v.size >= n:
            raise ValueError("v_xi must be a 1-d array of at most n - 1 amplitudes")
        if not np.all(np.isfinite(v)):
            raise ValueError("v_xi must be finite")
        for arr in (h0, v):
            arr.setflags(write=False)
        object.__setattr__(self, "h0_diag", h0)
        object.__setattr__(self, "v_xi", v)
        if self.w_static is not None:
            w = sparse.csr_matrix(self.w_static, dtype=complex)
            if w.shape != (n, n):
                raise ValueError(f"w_static must be {n} x {n}")
            _check_hermitian(w, "w_static")
            object.__setattr__(self, "w_static", w)
        if self.drive is not None and self.drive.amplitude.shape != (n, n):
            raise ValueError(f"drive amplitude must be {n} x {n}")

    @property
    def dimension(self) -> int:
        return self.h0_diag.size

    @property
    def recurrence_time(self) -> float | None:
        if self.xi_spacing:
            return 2.0 * np.pi / self.xi_spacing
        return None


@dataclass(frozen=True)
class Trajectory:
    """Sampled state vectors psi(t_j), row j is the state at times[j]."""

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class AmplitudeTrace:
    """No-decay amplitude F(t) = <psi0|psi(t)> exp(i E0 t)."""

    times: np.ndarray
    values: np.ndarray
    # flags of the amplitude's accuracy, such as a step error
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=complex)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("times and values must be matching 1-d arrays")
        if times[0] != 0.0 or values[0] != 1.0:
            raise ValueError("amplitude trace must start with F(0) = 1 at t = 0")
        if np.abs(values).max() > 1.0 + _UNITARITY_TOL:
            raise ValueError("|F| exceeds 1 beyond rounding tolerance")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FitDiagnostics:
    """Complex log-slope fit byproducts; gamma = 2 Re(gamma_complex)."""

    gamma_complex: complex
    window: tuple[float, float]
    residual_rms: float
    recurrence_time: float | None
    # relative error of gamma from the memory-kernel solver's step, None
    # when the fit was given no such estimate
    step_error: float | None = None


def discretize_continuum(density: SpectralDensity, n_modes: int):
    """Uniform midpoint grid on the support with couplings sqrt(M * spacing).

    Returns (omega, couplings, spacing).  The midpoint convention keeps the
    edge modes off the support boundary where power laws may vanish.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    lo, hi = density.support
    spacing = (hi - lo) / n_modes
    omega = lo + (np.arange(n_modes) + 0.5) * spacing
    couplings = np.sqrt(np.asarray(density(omega), dtype=float) * spacing)
    return omega, couplings, spacing


def build_decay_model(
    density: SpectralDensity, e0: float, n_modes: int, label: str = ""
) -> DiscretizedModel:
    """Bare decay reference: one level against a discretized continuum, no W."""
    omega, couplings, spacing = discretize_continuum(density, n_modes)
    h0 = np.concatenate(([e0], omega))
    return DiscretizedModel(
        h0_diag=h0,
        v_xi=couplings.astype(complex),
        label=label,
        xi_spacing=spacing,
    )


def _static_matrix(model: DiscretizedModel):
    """H0 + V + W, converted to CSR from one coordinate list."""
    n = model.dimension
    w = sparse.coo_matrix(model.w_static if model.w_static is not None else (n, n))
    diag = np.arange(n)
    xi = np.arange(1, model.v_xi.size + 1)
    zeros = np.zeros_like(xi)
    rows = np.concatenate([diag, xi, zeros, w.row])
    cols = np.concatenate([diag, zeros, xi, w.col])
    data = np.concatenate([model.h0_diag, model.v_xi, np.conj(model.v_xi), w.data])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def _energy_scale(h0, v, w=None, drive=None) -> float:
    """Largest |entry| of H0, V, W and the drive amplitude, or the drive frequency if larger."""
    parts = [h0, v, () if w is None else w.data]
    if drive is not None:
        parts += [drive.amplitude.data, [drive.frequency]]
    return max(float(np.abs(part).max(initial=0.0)) for part in parts)


def _grid_steps(horizon, dt, scale):
    """(n_dt, stride): the steps of spacing about dt to the horizon, and the stride.

    dt defaults to 0.02 over the energy scale.  The stride is
    max(1, steps // 2000) for a grid of that many steps, and n_dt is
    rounded up to a stride multiple, so every stride-th step gives fewer
    than 4000 uniform sample intervals ending at the horizon.  More than
    2**53 steps, past which a float no longer counts them exactly, raise
    DimensionOverBudgetError before any array is sized by the count.
    """
    if horizon == 0 or not np.isfinite(horizon):
        raise ValueError("horizon must be finite and nonzero")
    if dt is None:
        step = 0.02 / scale if scale > 0 else abs(horizon) / 1000.0
        dt = np.copysign(step, horizon)
    if dt == 0 or np.sign(dt) != np.sign(horizon):
        raise ValueError("dt must be nonzero and share the sign of horizon")
    steps = horizon / dt
    if steps > 2.0**53:
        raise DimensionOverBudgetError(f"time grid needs {steps:.3g} steps, at most 2**53")
    n_dt = max(1, int(round(steps)))
    stride = max(1, n_dt // 2000)
    return stride * ((n_dt + stride - 1) // stride), stride


def _uniform_grid(horizon, n_dt, stride=1):
    """Every stride-th of the times k * horizon / n_dt, k = 0 .. n_dt."""
    times = np.arange(0, n_dt + 1, stride) * (horizon / n_dt)
    # k * (horizon / n_dt) can miss the horizon by an ulp
    times[-1] = horizon
    return times


def _time_grid(horizon, dt, scale):
    """Sample times: every stride-th point of a grid of spacing dt."""
    return _uniform_grid(horizon, *_grid_steps(horizon, dt, scale))


# theta_m: the largest ||A||_1 t for which the degree-m truncated Taylor
# series of exp(tA) has backward error below 2^-53 (double precision).
# m = 1..30 from N. J. Higham, Functions of Matrices (SIAM, 2008), Table A.3;
# m = 35..55 from A. H. Al-Mohy and N. J. Higham, SIAM J. Sci. Comput. 33
# (2011) 488, Table 3.1.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def _taylor_plan(x):
    """Degree m and substeps s of the Taylor series for ||A||_1 t = x.

    s = ceil(x / theta_m) substeps keep each expansion within theta_m; the
    plan with the fewest sparse products m s wins, ties going to the lower
    degree.
    """
    return min(((m, max(1, math.ceil(x / theta))) for m, theta in _TAYLOR_THETA.items()),
               key=lambda plan: plan[0] * plan[1])


def _shared_pattern(a, b):
    """(indptr, indices, a data, b data): a and b on the union of their patterns.

    Both are converted from one coordinate list in which the other's
    entries are explicit zeros, so the two share indptr and indices.
    """
    a, b = a.tocoo(), b.tocoo()
    coords = (np.concatenate([a.row, b.row]), np.concatenate([a.col, b.col]))
    on_a = sparse.csr_matrix((np.concatenate([a.data, np.zeros_like(b.data)]), coords), a.shape)
    on_b = sparse.csr_matrix((np.concatenate([np.zeros_like(a.data), b.data]), coords), a.shape)
    return on_a.indptr, on_a.indices, on_a.data, on_b.data


def _taylor_states(static, drive, psi0, times, t_offset=0.0):
    """exp(-i H t_j) psi0 on the uniform grid times, one state per sample.

    Truncated Taylor series (Al-Mohy and Higham 2011) of the generator
    shifted by its mean diagonal, whose exponential is an exact scalar
    phase.  A driven sample takes ceil(omega_d spacing / 0.5) CF4:2 steps,
    each two exponentials of H_s/2 + c X with c drawn from the drive at the
    step's Gauss points (Blanes and Moan, Appl. Numer. Math. 56 (2006)
    1519); a static sample is one exponential of H_s over the sample
    spacing, with an empty X.  H_s and X share one sparsity pattern, so
    the matrix of an exponential is one data array, rewritten per
    exponential only when the drive has a frequency.
    Every exponential, taken in s substeps, applies the degree-m series of
    exp(B) by Horner's rule in two vectors: from v_m = psi,
    v_{p-1} = (m!/(p-1)!) psi + B v_p, and exp(B) psi = v_0 / m!, so each
    power is one sparse product added into a scaled copy of psi.  A state
    whose norm drifted beyond 1e-6 of psi0's raises StepTooLargeError.  The
    yielded states are fresh arrays.
    """
    n = psi0.size
    horizon = times[-1]
    shift = float(static.diagonal().real.mean())
    # the horizon's sign sits in the generator, so the series always runs
    # forward over |t|
    generator = (-1j * np.sign(horizon)) * (static - shift * sparse.identity(n, format="csr"))
    spacing = abs(horizon) / (times.size - 1)
    # the weights of the drive at the two Gauss points, one pair per
    # exponential of a step
    exponentials = ((1.0, 0.0),) if drive is None else (_CF4_WEIGHTS, _CF4_WEIGHTS[::-1])
    drive = drive or DriveTerm(sparse.csr_matrix((n, n)), 0.0)
    steps = max(1, math.ceil(drive.frequency * spacing / _DRIVE_PHASE_STEP))
    amplitude = (-1j * np.sign(horizon)) * drive.amplitude
    h = spacing / steps
    # |c| <= a + |b| = 1/sqrt(3) for a driven model
    norm = (float(abs(generator).sum(axis=0).max()) / len(exponentials)
            + float(abs(amplitude).sum(axis=0).max()) / math.sqrt(3.0))
    m, s = _taylor_plan(norm * h)
    # m!/(p-1)! for p = m .. 1, the last m!
    scales = np.cumprod(np.arange(m, 0, -1, dtype=float))
    # H_s, halved for a driven model, and X, both over one substep
    indptr, indices, h_data, x_data = _shared_pattern(
        (h / len(exponentials) / s) * generator, (h / s) * amplitude
    )
    # the matrix of an exponential, which a drive of frequency 0 leaves fixed
    data = h_data + sum(exponentials[0]) * x_data
    psi = np.array(psi0, dtype=complex, copy=True)
    buffers = np.empty((2, n), dtype=complex)
    # along an axis, norm sums by ufunc rather than by a BLAS dot
    norm0 = float(np.linalg.norm(psi0, axis=0))
    tau = math.copysign(h, horizon)
    yield psi.copy()
    for j in range(1, times.size):
        for k in range(steps):
            t = t_offset + times[j - 1] + k * tau
            c1, c2 = ((math.cos(drive.frequency * (t + node * tau)) for node in _CF4_NODES)
                      if drive.frequency else (1.0, 1.0))
            for a, b in exponentials:
                if drive.frequency:
                    np.multiply(x_data, a * c1 + b * c2, out=data)
                    np.add(data, h_data, out=data)
                for _ in range(s):
                    v, w = buffers
                    np.copyto(v, psi)
                    for scale in scales:
                        np.multiply(psi, scale, out=w)
                        # csr_matvec adds B v to w
                        csr_matvec(n, n, indptr, indices, data, v, w)
                        v, w = w, v
                    np.divide(v, scales[-1], out=psi)
        state = psi * np.exp(-1j * shift * times[j])
        drift = abs(float(np.linalg.norm(state, axis=0)) - norm0)
        if drift > _NORM_DRIFT_LIMIT * max(norm0, 1e-300):
            raise StepTooLargeError(
                f"norm drifted by {drift:.3e}; a Taylor step outran its series"
            )
        yield state


def _capped(points: int, what: str) -> int:
    """points, refused with DimensionOverBudgetError above _MAX_ARRAY_POINTS."""
    if points > _MAX_ARRAY_POINTS:
        raise DimensionOverBudgetError(f"{what} needs {points} points, "
                                       f"at most {_MAX_ARRAY_POINTS}")
    return points


def _sampled_states(model, times, initial_state=None, t_offset=0.0):
    """Lazy states sampled at times, of every propagation.

    The states are a generator, so a caller can check the times before any
    state is propagated.  t_offset shifts the drive's clock.  The model's
    stored entries are capped before its matrix is built.
    """
    n = model.dimension
    w = 0 if model.w_static is None else model.w_static.nnz
    drive = 0 if model.drive is None else model.drive.amplitude.nnz
    _capped(n + model.v_xi.size + w + drive, "model")
    if initial_state is None:
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
    else:
        psi0 = np.asarray(initial_state, dtype=complex)
        if psi0.shape != (n,) or not np.all(np.isfinite(psi0)):
            raise ValueError("initial_state must be a finite length-n vector")
    return _taylor_states(_static_matrix(model), model.drive, psi0, times, t_offset)


def propagate(
    model: DiscretizedModel,
    horizon: float,
    dt: float | None = None,
    *,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the Schroedinger equation from t = 0 to t = horizon.

    Static models are evolved by a truncated Taylor series of the matrix
    exponential (Al-Mohy and Higham 2011), one expansion per sample,
    substepped where one sample spacing is too long for a degree-55
    series.  Driven models take CF4:2 commutator-free Magnus steps (Blanes
    and Moan 2006), each two such exponentials of H_s/2 + c X with c read
    from the drive at the step's Gauss points, and as many steps per sample
    as keep the drive phase of a step at or below 0.5.  Each exponential is
    a Horner sum in two vectors, one sparse product per power.  dt defaults to
    0.02 over the largest energy scale and sets only the sample grid: every
    stride-th point of a grid of spacing dt, the stride max(1, steps // 2000)
    for a grid of that many steps.  A negative horizon (with negative dt)
    integrates backwards.  Norm drift beyond 1e-6 raises
    StepTooLargeError.  Every sampled state is kept; survival_amplitude
    keeps only the initial level's amplitude.  A model of more than 4
    million stored entries, or a state matrix of more than 4 million
    points (samples x states), raises DimensionOverBudgetError before it
    is allocated.
    """
    times = _time_grid(horizon, dt, _energy_scale(model.h0_diag, model.v_xi, model.w_static,
                                                   model.drive))
    sampled = _sampled_states(model, times, initial_state)
    _capped(times.size * model.dimension, "state matrix")
    states = np.empty((times.size, model.dimension), dtype=complex)
    for row, state in enumerate(sampled):
        states[row] = state
    return Trajectory(times=times, states=states)


def survival_amplitude(
    model: DiscretizedModel,
    horizon: float,
    dt: float | None = None,
) -> AmplitudeTrace:
    """No-decay amplitude of the initial level, F(t) = <0|psi(t)> exp(i E0 t).

    Propagates as propagate does, from the initial level, on the same
    sample grid and to the same bits as
    no_decay_amplitude(propagate(...), E0), but keeps only the first
    component of each state.  Memory therefore grows with the number of
    samples or with the dimension, never with their product.
    """
    times = _time_grid(horizon, dt, _energy_scale(model.h0_diag, model.v_xi, model.w_static,
                                                   model.drive))
    states = _sampled_states(model, times)
    column = np.fromiter((state[0] for state in states), complex, times.size)
    values = column * np.exp(1j * model.h0_diag[0] * times)
    return AmplitudeTrace(times=times, values=values)


def no_decay_amplitude(trajectory: Trajectory, e0: float) -> AmplitudeTrace:
    """Survival amplitude of the initial level, free phase removed."""
    values = trajectory.states[:, 0] * np.exp(1j * e0 * trajectory.times)
    return AmplitudeTrace(times=trajectory.times, values=values)


def fit_decay(
    trace: AmplitudeTrace,
    window: tuple[float, float],
    *,
    recurrence_time: float | None = None,
    gamma0: float = 0.0,
) -> tuple[DecayRateResult, FitDiagnostics]:
    """Complex least-squares line through ln F(t) on the window.

    The slope gives the amplitude constant gamma_complex; the probability
    decay constant is gamma = 2 Re(gamma_complex).  The window must end
    before half the recurrence time when one is supplied, and the fit is
    rejected when the residual RMS exceeds 0.1.
    """
    t_a, t_b = float(window[0]), float(window[1])
    if not t_a < t_b:
        raise ValueError("window must satisfy t_a < t_b")
    if t_a < trace.times[0] or t_b > trace.times[-1]:
        raise ValueError("window must lie inside the sampled trace")
    if recurrence_time is not None and t_b >= 0.5 * recurrence_time:
        raise WindowBeyondRecurrenceError(
            f"window end {t_b:g} reaches into the recurrence region "
            f"(T_rec = {recurrence_time:g})"
        )
    mask = (trace.times >= t_a) & (trace.times <= t_b)
    if mask.sum() < _MIN_FIT_SAMPLES:
        raise ValueError(f"window contains fewer than {_MIN_FIT_SAMPLES} samples")
    t = trace.times[mask]
    f = trace.values[mask]
    magnitude = np.abs(f)
    if magnitude.min() < 1e-6:
        raise ValueError("|F| falls below 1e-6 inside the window")
    log_f = np.log(magnitude) + 1j * np.unwrap(np.angle(f))
    design = np.column_stack([np.ones_like(t), t])
    coeffs, *_ = np.linalg.lstsq(design, log_f, rcond=None)
    residual_rms = float(np.sqrt(np.mean(np.abs(design @ coeffs - log_f) ** 2)))
    if residual_rms > 0.1:
        raise IllConditionedFitError(
            f"log-linear fit residual RMS {residual_rms:.3g} exceeds 0.1"
        )
    gamma_complex = complex(-coeffs[1])
    result = _make_result(2.0 * gamma_complex.real, gamma0, "dynamic_fit")
    diagnostics = FitDiagnostics(
        gamma_complex=gamma_complex,
        window=(t_a, t_b),
        residual_rms=residual_rms,
        recurrence_time=recurrence_time,
    )
    return result, diagnostics


def dissipation_trace(
    model: DiscretizedModel,
    horizon: float,
    dt: float | None = None,
) -> DissipationTrace:
    """Sample D(tau): interacting versus free evolution of V|psi0>.

    The numerator propagates the normalized V|psi0> as propagate does,
    under the model with its decay coupling switched off (H0 + W), and
    projects each sample back onto it; the denominator is the closed-form
    free evolution, checked for zeros before anything is propagated.  For
    driven models the run is repeated with the drive's clock shifted by a
    quarter period, and the spread between the two traces (micromotion) is
    attached as a warning when it is visible.  |D| <= 1 holds for one coupled
    mode; a model of several whose D leaves it raises ValueError.  The
    denominator's samples x coupled modes and the model's stored entries
    are capped at 4 million points each, before they are allocated.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    # the grid of the propagation, which runs with the decay coupling off
    scale = _energy_scale(model.h0_diag, (), model.w_static, model.drive)
    return _sampled_dissipation(model, _time_grid(horizon, dt, scale))


def _quarter_period(frequency):
    """A quarter period of a drive, the clock shift of the micromotion check."""
    return 0.25 * (2.0 * np.pi / frequency)


def _micromotion_flags(values, shifted):
    """The micromotion warning when D and D with the drive's clock shifted differ by over 0.01."""
    micromotion = float(np.abs(shifted - values).max())
    return (f"{MICROMOTION_WARNING}={micromotion:.3g}",) if micromotion > 0.01 else ()


def _sampled_dissipation(model, times) -> DissipationTrace:
    """dissipation_trace on a given uniform grid from tau = 0."""
    if np.linalg.norm(model.v_xi) == 0:
        raise ValueError("model has no decay coupling; D is undefined")
    _capped(times.size * model.v_xi.size, "denominator")
    xi = slice(1, 1 + model.v_xi.size)
    phi = np.zeros(model.dimension, dtype=complex)
    phi[xi] = model.v_xi
    phi /= np.linalg.norm(phi)
    weights = np.abs(phi[xi]) ** 2
    energies = model.h0_diag[xi]
    denominator = np.exp(-1j * np.outer(times, energies)) @ weights
    if np.abs(denominator).min() < _DENOMINATOR_FLOOR:
        raise VanishingDenominatorError(
            "free-evolution overlap passes through zero on the sample grid"
        )
    uncoupled = replace(model, v_xi=np.zeros_like(model.v_xi))
    bra = np.conj(phi)

    def overlap(states):
        return np.fromiter((state @ bra for state in states), complex, times.size)

    values = overlap(_sampled_states(uncoupled, times, phi)) / denominator
    coupled, peak = np.count_nonzero(model.v_xi), np.abs(values).max()
    if coupled > 1 and peak > 1.0 + 1e-8:
        raise ValueError(f"|D| reaches {peak:.4g}: the level couples to "
                         f"{coupled} modes, and |D| <= 1 holds for one coupled mode")
    flags = ()
    if model.drive is not None and model.drive.frequency > 0:
        shifted = _sampled_states(uncoupled, times, phi, _quarter_period(model.drive.frequency))
        flags = _micromotion_flags(values, overlap(shifted) / denominator)
    return DissipationTrace(
        times=times, values=values, label=model.label, warnings=flags
    )


def _fft_product(a, spectrum):
    """ifft(fft(a) * spectrum), a zero-padded to the spectrum's length."""
    work = fft.fft(a, spectrum.size)
    work *= spectrum
    return fft.ifft(work, overwrite_x=True)


def _lower_toeplitz_solve(w, r):
    """x with x_i + sum_{p < i} w[i - p] x_p = r_i, for w[0] = 0; r is overwritten.

    The inverse is lower-triangular Toeplitz with first column u = 1/(1 + w(z)).
    Newton doubling (Kung, Numer. Math. 22 (1974) 341) takes u from k to
    m <= 2k terms as u[k:m] = -(u * e)[:m - k], e = (w * u)[k:m], by FFT
    products of length m, whose cyclic wrap lands below k.  u to ceil(n/2)
    terms inverts each half of the system in turn, and the first half's
    share of the second's sums is one more product.  O(N log N), with no
    BLAS call, so the bits do not depend on the BLAS build or its threads.
    """
    n = r.size
    h = (n + 1) // 2
    # u is padded to the transform length, so its transform can replace it
    u = np.zeros(fft.next_fast_len(n), dtype=complex)
    u[0] = 1.0
    k = 1
    # m runs over ceil(h / 2^s) down to s = 0, so each step at most doubles k
    for shift in range((h - 1).bit_length() - 1, -1, -1):
        m = -(-h >> shift)
        spectrum = fft.fft(u[:k], fft.next_fast_len(m))
        u[k:m] = -_fft_product(_fft_product(w[:m], spectrum)[k:m], spectrum)[: m - k]
        k = m
    spectrum = fft.fft(u, overwrite_x=True)
    r[:h] = _fft_product(r[:h], spectrum)[:h]
    # the wrap of this product lands below h
    r[h:] -= _fft_product(r[:h], fft.fft(w[:n], spectrum.size))[h:n]
    r[h:] = _fft_product(r[h:], spectrum)[: n - h]


def _volterra_solve(h, kernel, slope=None):
    """G at the steps j h of G'(t) = -int_0^t K(t - s) G(s) ds, G(0) = 1.

    kernel[j] is K(j h).  The trapezoid rule on the integrated form
    G(t) = 1 - int_0^t k1(t - s) G(s) ds, with k1(tau) = int_0^tau K, is
    second order in h (Brunner, Collocation Methods for Volterra Integral
    and Related Functional Differential Equations, CUP 2004), and each step
    is explicit because k1(0) = 0.  Given slope[j] = K'(j h), the
    Euler-Maclaurin end terms -(h^2/12)(f'(b) - f'(a)) of both
    quadratures make it fourth order; those of the G integral involve only
    K, because k1(0) = 0 and G'(0) = 0.  The steps form a lower-triangular
    Toeplitz system either way.  A step too coarse for the kernel can lift
    |G| above 1, which raises StepTooLargeError.  The peak memory, k1, h k1,
    G and the solver's three transforms at 16 bytes a point each, is under
    100 bytes a step (next_fast_len(N - 1) <= 1.04 N for N >= 200).
    """
    n = kernel.size
    k1 = np.zeros(n, dtype=complex)
    np.cumsum((0.5 * h) * (kernel[1:] + kernel[:-1]), out=k1[1:])
    # c G_j + sum_{0 < m < j} h k1_{j-m} G_m = 1 - (h/2) k1_j G_0 + e K_j,
    # with e = h^2/12 and c = 1 + e K_0 at fourth order, e = 0 and c = 1
    # at second
    values = np.empty(n, dtype=complex)
    values[0] = 1.0
    if slope is None:
        values[1:] = 1.0 - (0.5 * h) * k1[1:]
        _lower_toeplitz_solve(h * k1, values[1:])
    else:
        end = h * h / 12.0
        k1[1:] -= end * (slope[1:] - slope[0])
        c = 1.0 + end * kernel[0]
        values[1:] = (1.0 - (0.5 * h) * k1[1:] + end * kernel[1:]) / c
        _lower_toeplitz_solve((h / c) * k1, values[1:])
    if np.abs(values).max() > 1.0 + _UNITARITY_TOL:
        raise StepTooLargeError("the amplitude exceeds 1 in modulus; the step is too coarse "
                                "for the kernel")
    return values


def _compose(later, earlier):
    """later @ earlier for stacks of 2x2 matrices on the last axis, by components."""
    return later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]


def _sector_rows(rabi, splitting, starts, h):
    """(a, b): row 0 of u(t0 + j h, t0), j = 0 .. len(starts), of the driven 2x2 sector.

    The sector is [[0, rabi cos(w t)], [rabi cos(w t), w]], w = splitting,
    advanced by the CF4:2 steps of propagate from the times starts (t0 is
    starts[0]).  Each step is the product of the two exponentials of
    A = H_s/2 + c X in closed form: exp(-i h A) = exp(-i h w/4) (cos th -
    i h sin(th)/th (c rabi sigma_x - (w/4) sigma_z)), th = h |(c rabi, w/4)|.
    The steps are composed by a Hillis-Steele prefix scan, log2 N passes of
    2x2 products taken by components, with no BLAS call.
    """
    quarter = 0.25 * splitting
    c1, c2 = (np.cos(splitting * (starts + node * h)) for node in _CF4_NODES)
    steps = []
    for a, b in (_CF4_WEIGHTS, _CF4_WEIGHTS[::-1]):
        x = (a * c1 + b * c2) * rabi
        norm = np.hypot(x, quarter)
        cos, sin = np.cos(h * norm), np.sin(h * norm) / norm
        off = -1j * x * sin
        exp = np.array([[cos + 1j * quarter * sin, off], [off, cos - 1j * quarter * sin]])
        exp *= np.exp(-1j * h * quarter)
        steps.append(exp)
    scan = _compose(*steps[::-1])
    shift = 1
    while shift < starts.size:
        scan[..., shift:] = _compose(scan[..., shift:], scan[..., :-shift])
        shift *= 2
    rows = np.empty((2, starts.size + 1), dtype=complex)
    rows[:, 0] = (1.0, 0.0)
    rows[:, 1:] = scan[0]
    return rows


# steps of a leaf of the separable solve's divide and conquer, at most
_LEAF_STEPS = 64


def _separable_solve(h, correlation, rows):
    """F at the steps j h of F' = -sum_r a_r(t) int_0^t C(t - s) conj(a_r(s)) F(s) ds.

    F(0) = 1, correlation[j] = C(j h) and rows[r, j] = a_r(j h), whose
    squares sum to 1 at every j (row 0 of a unitary).  The trapezoid rule
    takes both the inner integrals y_r and F = 1 + int F', so
    F_n = 1 + h sum_{0 < j < n} P_j + (h/2) P_n, P_j = -sum_r a_r(j) y_r(j).
    The history sums y_r are split by divide and conquer (Hairer, Lubich and
    Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532): once the first
    half of a range is solved, one 2-row FFT product adds its share,
    C * (conj(a_r) F), to the second half's sums.  A leaf of at most 64
    steps is then a lower-triangular system with the constant diagonal
    1 + h^2 C(0)/4, solved by the Neumann series of its strictly lower part,
    which ends once a term falls below rounding.  O(N log^2 N), with no BLAS
    call.  A step too coarse for the kernel can lift |F| above 1, which
    raises StepTooLargeError.
    """
    n = correlation.size
    c0 = correlation[0]
    diagonal = 1.0 + 0.25 * h * h * c0
    lags = np.subtract.outer(np.arange(_LEAF_STEPS), np.arange(_LEAF_STEPS))
    # C_{j-m} below the diagonal of a leaf, 0 on and above it
    toeplitz = np.where(lags > 0, correlation[np.clip(lags, 0, n - 1)], 0.0)
    lower = np.tril(np.ones((_LEAF_STEPS, _LEAF_STEPS)), -1)
    values = np.empty(n, dtype=complex)
    values[0] = 1.0
    # history[r, j] = sum_m C_{j-m} conj(a_r(m)) F_m over the solved m < j,
    # F_0 at the trapezoid's half weight
    weighted = np.conj(rows)
    history = (0.5 * weighted[:, :1]) * correlation
    spectra = {}
    running = 1.0 + 0j  # 1 + h sum P_j over the solved steps
    # (p, q, mid): solve steps p..q-1, or with mid, add the history of the
    # solved p..mid-1 to mid..q-1; a loop, not a recursion, so no closure
    # cycle keeps the arrays alive past the call
    tasks = [(1, n, None)]
    while tasks:
        p, q, mid = tasks.pop()
        if mid is not None:
            span = q - p
            if span not in spectra:
                spectra[span] = fft.fft(correlation[:span], fft.next_fast_len(span))
            history[:, mid:q] += _fft_product(weighted[:, p:mid], spectra[span])[:, mid - p:span]
        elif q - p > _LEAF_STEPS:
            mid = (p + q) // 2
            tasks += [(mid, q, None), (p, q, mid), (p, mid, None)]
        else:
            size = q - p
            a = rows[:, p:q]
            past = np.einsum("rj,rj->j", a, history[:, p:q], optimize=False)
            local = toeplitz[:size, :size] * np.einsum("rj,rm->jm", a, weighted[:, p:q],
                                                       optimize=False)
            before = np.cumsum(local, axis=0)
            before[1:] = before[:-1]
            before[0] = 0.0
            system = (h * h) * (0.5 * c0 * lower[:size, :size] + before + 0.5 * local)
            term = (running - (h * h) * (np.cumsum(past) - 0.5 * past)) / diagonal
            x = term.copy()
            # rounding of the leading term, near that of the sum
            rounding = 2.0**-53 * np.abs(term).max()
            while np.abs(term).max() > rounding:
                term = np.einsum("jm,m->j", system, term, optimize=False) / -diagonal
                x += term
            values[p:q] = x
            slope = (-h * (past + np.einsum("jm,m->j", local, x, optimize=False))
                     - 0.5 * h * c0 * x)
            running += h * slope.sum()
            weighted[:, p:q] *= x
    if np.abs(values).max() > 1.0 + _UNITARITY_TOL:
        raise StepTooLargeError("the amplitude exceeds 1 in modulus; the step is too coarse "
                                "for the kernel")
    return values


def memory_kernel_amplitude(times: np.ndarray, kernel: np.ndarray) -> AmplitudeTrace:
    """F(t) of F'(t) = -int_0^t K(t - s) F(s) ds, F(0) = 1, on a uniform grid.

    kernel[j] is K(times[j]), and times starts at 0.  The trapezoid rule on
    the integrated form (_volterra_solve) is second order in the spacing,
    and its lower-triangular Toeplitz system is solved in O(N log N) for
    N samples.  A step too coarse for the kernel can lift |F| above 1,
    which raises StepTooLargeError.
    """
    times = np.asarray(times, dtype=float)
    kernel = np.asarray(kernel, dtype=complex)
    n = times.size
    if times.ndim != 1 or kernel.shape != times.shape or n < 2 or times[0] != 0.0:
        raise ValueError("times and kernel must be matching 1-d arrays starting at t = 0")
    h = times[-1] / (n - 1)
    if not (np.isfinite(h) and h > 0) or np.abs(np.diff(times) - h).max() > 1e-9 * h:
        raise NonUniformGridError("the memory-kernel solver needs a uniform time grid")
    return AmplitudeTrace(times=times, values=_volterra_solve(h, kernel))


def _phases(turns, n):
    """exp(2 pi i turns n) for integer-valued floats n below 2^53.

    turns n can run to millions of turns, where one rounding of the
    product costs 1e-9 rad.  turns is split into a head short enough that
    head n is exact, whose whole turns drop out exactly, and a rest whose
    product is small; so the phase errs by about 1e-15 at any n.
    """
    mantissa, exponent = math.frexp(turns)
    bits = max(0, 53 - int(n.max()).bit_length())
    head = math.ldexp(math.trunc(math.ldexp(mantissa, bits)), exponent - bits)
    whole = head * n
    return np.exp(2j * np.pi * ((whole - np.floor(whole)) + (turns - head) * n))


def _chirp_sums(first, spacing, weights, step, n):
    """S_j = sum_k weights[..., k] exp(-i (first + k spacing) j step), j < n.

    Chirp-z by Bluestein's method (IEEE Trans. Audio Electroacoust. 18
    (1970) 451): k j = (k^2 + j^2 - (j - k)^2) / 2 turns the sums over an
    equally spaced set of energies into one FFT convolution with the chirp
    exp(i theta l^2 / 2), theta = spacing step, over the lags l = j - k.
    O((n + m) log(n + m)) for m energies, with no BLAS call, so the bits do
    not depend on the BLAS build or its threads.  The chirp's phases are
    reduced to whole turns exactly (_phases), so their rounding does not
    grow with l^2.
    """
    weights = np.asarray(weights, dtype=complex)
    m = weights.shape[-1]
    if m == 0:
        return np.zeros(weights.shape[:-1] + (n,), dtype=complex)
    lags = np.arange(1 - m, n, dtype=float)
    chirp = _phases(spacing * step / (4.0 * np.pi), lags * lags)
    size = fft.next_fast_len(n + m - 1)
    spectrum = fft.fft(weights * np.conj(chirp[m - 1 :: -1]), size) * fft.fft(chirp, size)
    sums = fft.ifft(spectrum)[..., m - 1 : m - 1 + n]
    free = _phases(first * step / (2.0 * np.pi), np.arange(n, dtype=float))
    return sums * np.conj(chirp[m - 1 :] * free)
