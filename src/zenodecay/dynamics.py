"""Time-domain route: discretized continua, propagation, decay fits.

A DiscretizedModel holds the initial level (index 0), the decay modes it
couples to (the xi sector, indices 1..len(v_xi)) and any further modes,
reached only through the final-state interaction W.  Propagating the
Schroedinger equation and fitting ln F(t) over a window clear of both the
short-time transient and the discretization recurrence gives the dynamic
decay constant; evolving V|psi0> under H0 + W alone, the same propagation
with the decay coupling switched off, gives the sampled dissipation
function D(tau).

The reference propagator is dense and small.  A static model is one
eigendecomposition (numpy.linalg.eigh) of its Hermitian matrix; a driven
model takes 4th-order commutator-free Magnus steps (CF4:2) on a uniform
sample grid, each two exponentials from an eigh of the step's dense
generator.  The dense matrix counts against the one allocation cap, so a
reference stops at 2000 states.  dissipation_trace projects each sample
as it comes and keeps one value per sample; propagate stacks the states.

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
propagator: each closed-form CF4:2 step is a phase times an SU(2) matrix,
whose row 0 is all of it, so _sector_rows composes those pairs by a prefix
scan and puts the common phase on once; _separable_solve solves for F by
divide and conquer in O(N log^2 N), again with no BLAS call.  So no
production path propagates: propagate and dissipation_trace are the dense
references that both routes' solves are tested against.  fit_decay takes
its line from centred sums, so no decay constant calls numpy.linalg.
survival_amplitude solves a bare decay model, one with no W and no drive,
by its memory kernel C(tau) alone: the golden-rule reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

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
_DENOMINATOR_FLOOR = 1e-12
_MIN_FIT_SAMPLES = 8
# |F| may exceed 1 by this much in rounding
_UNITARITY_TOL = 1e-9
# points of any array either route sizes, at most, each counted before it
# is allocated: a model's stored entries (states, couplings and the
# nonzeros of W and the drive), a reference's dense matrix (states x
# states), propagate's samples x states, D's samples x coupled modes, and
# the memory-kernel route's modes, solve steps, chirp-z sums and
# sector-row scans (four points a step).  A memory-kernel solve peaks at
# about 160 bytes a step, a driven F at about 290 and a driven D, two
# clocks a step, at about 460 (tracemalloc, numpy 2.4), so either route
# peaks near 0.7 GB at the cap; a dense
# reference holds a few matrices of 64 MB there
_MAX_ARRAY_POINTS = 4_000_000
# points (samples x states) of a block of a static reference's samples
_BLOCK_POINTS = 2**16
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
        from scipy import sparse

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
    xi_spacing: grid spacing of the xi continuum, sets the recurrence time;
        None or finite and positive.

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
            from scipy import sparse

            w = sparse.csr_matrix(self.w_static, dtype=complex)
            if w.shape != (n, n):
                raise ValueError(f"w_static must be {n} x {n}")
            _check_hermitian(w, "w_static")
            object.__setattr__(self, "w_static", w)
        if self.drive is not None and self.drive.amplitude.shape != (n, n):
            raise ValueError(f"drive amplitude must be {n} x {n}")
        if self.xi_spacing is not None and not 0.0 < self.xi_spacing < np.inf:
            raise ValueError(f"xi_spacing must be None or finite and positive, "
                             f"got {self.xi_spacing}")

    @property
    def dimension(self) -> int:
        return self.h0_diag.size

    @property
    def recurrence_time(self) -> float | None:
        return None if self.xi_spacing is None else 2.0 * np.pi / self.xi_spacing


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


def _dense_hamiltonian(model: DiscretizedModel):
    """H0 + V + W as a dense matrix, capped before it is built."""
    _capped(model.dimension**2, "dense matrix")
    h = np.diag(model.h0_diag.astype(complex))
    xi = np.arange(1, model.v_xi.size + 1)
    h[xi, 0] = model.v_xi
    h[0, xi] = np.conj(model.v_xi)
    if model.w_static is not None:
        h += model.w_static.toarray()
    return _real_if_exact(h)


def _real_if_exact(matrix):
    """matrix, as real numbers when it has no imaginary part, where eigh runs up to 6x faster."""
    return matrix if matrix.imag.any() else np.ascontiguousarray(matrix.real)


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


def _capped(points: int, what: str) -> int:
    """points, refused with DimensionOverBudgetError above _MAX_ARRAY_POINTS."""
    if points > _MAX_ARRAY_POINTS:
        raise DimensionOverBudgetError(f"{what} needs {points} points, "
                                       f"at most {_MAX_ARRAY_POINTS}")
    return points


def _initial_state(model, initial_state=None):
    """psi0: the initial level, or initial_state; the model's stored entries are capped first."""
    n = model.dimension
    w = 0 if model.w_static is None else model.w_static.nnz
    drive = 0 if model.drive is None else model.drive.amplitude.nnz
    _capped(n + model.v_xi.size + w + drive, "model")
    if initial_state is None:
        initial_state = np.eye(1, n)[0]
    psi0 = np.asarray(initial_state, dtype=complex)
    if psi0.shape != (n,) or not np.all(np.isfinite(psi0)):
        raise ValueError("initial_state must be a finite length-n vector")
    return psi0


def _evolved(model, times, psi0, bra=None, t_offset=0.0):
    """psi(t_j) on the uniform grid times, or bra @ psi(t_j) given a bra, one sample at a time.

    The first sample is psi0 exactly.  A static model is one eigh of its
    dense matrix, psi(t) = V exp(-i E t) V^H psi0, with the bra folded into
    V first, so a sample costs n products with one and n^2 without, and a
    block of about 2^16 samples x states is one matrix product.  A driven
    sample takes ceil(omega_d spacing / 0.5) CF4:2 steps, each two
    exponentials of H_s/2 + c X with c drawn from the drive at the step's
    Gauss points (Blanes and Moan, Appl. Numer. Math. 56 (2006) 1519), and
    each exponential is an eigh of its dense generator.  t_offset shifts
    the drive's clock.
    """
    static = _dense_hamiltonian(model)
    yield psi0 if bra is None else bra @ psi0
    if model.drive is None:
        energies, vectors = np.linalg.eigh(static)
        weights = vectors.conj().T @ psi0
        # the transposed states of a block are (exp(-i E t) weights) V^T
        basis = vectors.T.astype(complex) if bra is None else vectors.T @ bra
        rows = max(1, _BLOCK_POINTS // psi0.size)
        for j in range(1, times.size, rows):
            yield from (np.exp(-1j * np.outer(times[j:j + rows], energies)) * weights) @ basis
        return
    frequency = model.drive.frequency
    amplitude = _real_if_exact(model.drive.amplitude.toarray())
    spacing = times[-1] / (times.size - 1)
    steps = max(1, math.ceil(frequency * abs(spacing) / _DRIVE_PHASE_STEP))
    h = spacing / steps
    psi = psi0
    for start in times[:-1]:
        for k in range(steps):
            t = t_offset + start + k * h
            c1, c2 = (math.cos(frequency * (t + node * h)) for node in _CF4_NODES)
            for a, b in (_CF4_WEIGHTS, _CF4_WEIGHTS[::-1]):
                energies, vectors = np.linalg.eigh(0.5 * static + (a * c1 + b * c2) * amplitude)
                psi = vectors @ (np.exp(-1j * h * energies) * (vectors.conj().T @ psi))
        yield psi if bra is None else bra @ psi


def propagate(
    model: DiscretizedModel,
    horizon: float,
    dt: float | None = None,
    *,
    initial_state: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the Schroedinger equation from t = 0 to t = horizon, densely.

    The dense reference (_evolved): one eigh of a static model's Hermitian
    matrix, or CF4:2 steps of a driven one, as many a sample as keep the
    drive phase of a step at or below 0.5, each exponential an eigh of its
    dense generator.  dt defaults to 0.02 over the largest energy scale and
    sets only the sample grid: every stride-th point of a grid of spacing
    dt, the stride max(1, steps // 2000) for a grid of that many steps.  A
    negative horizon (with negative dt) integrates backwards.  A model of
    more than 4 million stored entries, a state matrix of more than 4
    million points (samples x states) or a dense matrix of more than 2000
    states raises DimensionOverBudgetError, in that order, before it is
    allocated.
    """
    times = _time_grid(horizon, dt, _energy_scale(model.h0_diag, model.v_xi, model.w_static,
                                                   model.drive))
    psi0 = _initial_state(model, initial_state)
    _capped(times.size * model.dimension, "state matrix")
    states = np.empty((times.size, model.dimension), dtype=complex)
    for row, state in enumerate(_evolved(model, times, psi0)):
        states[row] = state
    return Trajectory(times=times, states=states)


def survival_amplitude(
    model: DiscretizedModel,
    horizon: float,
    dt: float | None = None,
) -> AmplitudeTrace:
    """No-decay amplitude of a bare decay model, F(t) = <0|psi(t)> exp(i E0 t).

    The golden-rule reference.  With no W and no drive, F' = -int C F
    exactly, C(tau) = sum_k |v_k|^2 exp(-i (E_k - E0) tau): the cascade's F
    with D = 1.  C is a chirp-z sum over the coupled modes, whose energies
    must be equally spaced (else NonUniformGridError, before any array is
    sized), and F is solved by the trapezoid rule on every step of
    propagate's grid and returned on its samples: 5e-8 off the propagated
    F on criterion 1's model.  A model with W or a drive raises ValueError,
    and no_decay_amplitude(propagate(...)) is its reference.  The solve and
    its chirp-z sums are capped before they are allocated.
    """
    for name, part in (("W", model.w_static), ("drive", model.drive)):
        if part is not None:
            raise ValueError(f"{model.label or 'the model'} has a {name}; survival_amplitude takes "
                             "neither, and no_decay_amplitude(propagate(...)) is its reference")
    energies = model.h0_diag[1:1 + model.v_xi.size] - model.h0_diag[0]
    first = energies[0] if energies.size else 0.0
    spacing = (energies[-1] - first) / (energies.size - 1) if energies.size > 1 else 0.0
    if np.abs(np.diff(energies) - spacing).max(initial=0.0) > 1e-9 * abs(spacing):
        raise NonUniformGridError("survival_amplitude needs equally spaced mode energies")
    n_dt, stride = _grid_steps(horizon, dt, _energy_scale(model.h0_diag, model.v_xi))
    _capped(n_dt + 1, "memory-kernel solve")
    _capped(n_dt + 1 + energies.size, "chirp-z sum")
    step = horizon / n_dt
    correlation = _chirp_sums(first, spacing, np.abs(model.v_xi) ** 2, step, n_dt + 1)
    return AmplitudeTrace(times=_uniform_grid(horizon, n_dt, stride),
                          values=_volterra_solve(step, correlation)[::stride])


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
    decay constant is gamma = 2 Re(gamma_complex).  The slope is
    sum(tc y) / sum(tc^2), tc and y the times and ln F less their means,
    summed by numpy's pairwise reductions with no BLAS call.  The window
    must end before half the recurrence time when one is supplied, and the
    fit is rejected when the residual RMS exceeds 0.1.
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
    centred_t = t - t.mean()
    centred_f = log_f - log_f.mean()
    slope = (centred_t * centred_f).sum() / (centred_t * centred_t).sum()
    residual_rms = float(np.sqrt(np.mean(np.abs(centred_f - slope * centred_t) ** 2)))
    if residual_rms > 0.1:
        raise IllConditionedFitError(
            f"log-linear fit residual RMS {residual_rms:.3g} exceeds 0.1"
        )
    gamma_complex = complex(-slope)
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

    The numerator evolves the normalized V|psi0> by propagate's dense
    reference under H0 + W, the decay coupling off, and projects each
    sample onto it as it comes; the denominator is the closed-form free
    evolution, checked for zeros before anything is evolved.  A driven
    model is run again with the drive's clock a quarter period on, and the
    spread between the two traces (micromotion) is flagged when visible.
    |D| <= 1 holds for one coupled mode; a model of several whose D leaves
    it raises ValueError.  The denominator (samples x coupled modes), the
    model's stored entries and its dense matrix are capped at 4 million
    points each, in that order, before they are allocated.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    # the grid of the evolution, which runs with the decay coupling off
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
    psi0 = _initial_state(uncoupled, phi)

    def overlap(t_offset=0.0):
        samples = _evolved(uncoupled, times, psi0, np.conj(phi), t_offset)
        return np.fromiter(samples, complex, times.size) / denominator

    values = overlap()
    coupled, peak = np.count_nonzero(model.v_xi), np.abs(values).max()
    if coupled > 1 and peak > 1.0 + 1e-8:
        raise ValueError(f"|D| reaches {peak:.4g}: the level couples to "
                         f"{coupled} modes, and |D| <= 1 holds for one coupled mode")
    flags = ()
    if model.drive is not None and model.drive.frequency > 0:
        flags = _micromotion_flags(values, overlap(_quarter_period(model.drive.frequency)))
    return DissipationTrace(
        times=times, values=values, label=model.label, warnings=flags
    )


@functools.lru_cache(maxsize=1024)
def _fast_len(n):
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n: scipy.fft.next_fast_len(n)'s length.

    Each odd part p = 3^b 5^c 7^d 11^e below the best length so far is
    doubled up to n, to p << ((n - 1) // p).bit_length(), and the least of
    these wins.  The solves ask for the same few lengths again and again,
    so the search is cached.
    """
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p = p5
                while p < n:
                    x = p << ((n - 1) // p).bit_length()
                    if x < best:
                        best = x
                    p *= 3
                if p < best:
                    best = p
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _fft_product(a, spectrum):
    """ifft(fft(a) * spectrum), a zero-padded to the spectrum's length."""
    work = np.fft.fft(a, spectrum.size)
    work *= spectrum
    return np.fft.ifft(work, out=work)


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
    u = np.zeros(_fast_len(n), dtype=complex)
    u[0] = 1.0
    k = 1
    # m runs over ceil(h / 2^s) down to s = 0, so each step at most doubles k
    for shift in range((h - 1).bit_length() - 1, -1, -1):
        m = -(-h >> shift)
        spectrum = np.fft.fft(u[:k], _fast_len(m))
        u[k:m] = -_fft_product(_fft_product(w[:m], spectrum)[k:m], spectrum)[: m - k]
        k = m
    spectrum = np.fft.fft(u, out=u)
    r[:h] = _fft_product(r[:h], spectrum)[:h]
    # the wrap of this product lands below h
    r[h:] -= _fft_product(r[:h], np.fft.fft(w[:n], spectrum.size))[h:n]
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
    100 bytes a step (_fast_len(N - 1) <= 1.04 N for N >= 200).
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
    if not np.abs(values).max() <= 1.0 + _UNITARITY_TOL:
        raise StepTooLargeError("the amplitude exceeds 1 in modulus or is not finite; the "
                                "step is too coarse for the kernel")
    return values


def _compose(later, earlier):
    """later @ earlier for SU(2) matrices [[a, b], [-conj(b), conj(a)]], each the pair (a, b)."""
    (a1, b1), (a2, b2) = later, earlier
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _sector_rows(rabi, splitting, starts, h):
    """(a, b): row 0 of u(t0 + j h, t0), j = 0 .. N, of the driven 2x2 sector.

    The sector is [[0, rabi cos(w t)], [rabi cos(w t), w]], w = splitting,
    advanced by the CF4:2 steps of propagate from the N times on the last
    axis of starts (t0 is the first); a stack of such grids gives a stack
    of rows, shape starts.shape[:-1] + (2, N + 1).  Each step is the
    product of the two exponentials of A = H_s/2 + c X in closed form,
    exp(-i h A) = exp(-i h w/4) [[alpha, beta], [-conj(beta), conj(alpha)]]
    with alpha = cos th + i (w/4) h sin(th)/th, beta = -i c rabi h
    sin(th)/th and th = h |(c rabi, w/4)|.  Row 0 of an SU(2) product is
    its pair (alpha, beta), so a Hillis-Steele prefix scan, log2 N passes,
    composes the pairs, four complex products each, and the common phase
    exp(-2i h (w/4) j) is put on once at the end (_phases), with no BLAS
    call.
    """
    quarter = 0.25 * splitting
    c1, c2 = (np.cos(splitting * (starts + node * h)) for node in _CF4_NODES)
    halves = []
    for a, b in (_CF4_WEIGHTS, _CF4_WEIGHTS[::-1]):
        x = (a * c1 + b * c2) * rabi
        norm = np.hypot(x, quarter)
        sin = np.sin(h * norm) / norm
        halves.append((np.cos(h * norm) + 1j * quarter * sin, -1j * x * sin))
    n = starts.shape[-1]
    rows = np.empty(starts.shape[:-1] + (2, n + 1), dtype=complex)
    rows[..., 0] = (1.0, 0.0)
    alpha, beta = rows[..., 0, 1:], rows[..., 1, 1:]
    alpha[...], beta[...] = _compose(*halves[::-1])
    shift = 1
    while shift < n:
        alpha[..., shift:], beta[..., shift:] = _compose(
            (alpha[..., shift:], beta[..., shift:]), (alpha[..., :-shift], beta[..., :-shift]))
        shift *= 2
    rows[..., 1:] *= _phases(-h * quarter / np.pi, np.arange(1, n + 1, dtype=float))
    return rows


# steps of a leaf of the separable solve's divide and conquer, at most
_LEAF_STEPS = 1024


def _separable_solve(h, correlation, rows):
    """F at the steps j h of F' = -sum_r a_r(t) int_0^t C(t - s) conj(a_r(s)) F(s) ds.

    F(0) = 1, correlation[j] = C(j h) and rows[r, j] = a_r(j h), whose
    squares sum to 1 at every j (row 0 of a unitary).  The trapezoid rule
    takes both the inner integrals y_r and F = 1 + int F', so
    F_n = 1 + h sum_{0 < j < n} P_j + (h/2) P_n, P_j = -sum_r a_r(j) y_r(j).
    The history sums y_r are split by divide and conquer (Hairer, Lubich and
    Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532): once the first
    half of a range is solved, one 2-row FFT product adds its share,
    C * (conj(a_r) F), to the second half's sums.  A leaf of at most 1024
    steps is then a lower-triangular system with the constant diagonal
    1 + h^2 C(0)/4, solved by the Neumann series of its strictly lower
    part, one 2-row FFT product a term, to rounding; a leaf whose terms stop
    shrinking is split, down to one step, which is exact.  O(N log^2 N), no
    BLAS call.  A step too coarse for the kernel can lift |F| above 1 or
    overflow it, which raises StepTooLargeError.
    """
    n = correlation.size
    c0 = correlation[0]
    diagonal = 1.0 + 0.25 * h * h * c0
    lagged = np.concatenate(([0.0], correlation[1:]))  # C at lags over 0 only
    values = np.empty(n, dtype=complex)
    values[0] = 1.0
    # history[r, j] = sum_m C_{j-m} conj(a_r(m)) F_m over the solved m < j,
    # F_0 at the trapezoid's half weight
    weighted = np.conj(rows)
    history = (0.5 * weighted[:, :1]) * correlation
    spectra, leaf_spectra = {}, {}
    running = 1.0 + 0j  # 1 + h sum P_j over the solved steps
    # (p, q, mid): solve steps p..q-1, or with mid, add the history of the
    # solved p..mid-1 to mid..q-1; a loop, not a recursion, so no closure
    # cycle keeps the arrays alive past the call
    tasks = [(1, n, None)]
    while tasks:
        p, q, mid = tasks.pop()
        size = q - p
        if mid is not None:
            if size not in spectra:
                spectra[size] = np.fft.fft(correlation[:size], _fast_len(size))
            history[:, mid:q] += _fft_product(weighted[:, p:mid], spectra[size])[:, mid - p:size]
            continue
        if size <= _LEAF_STEPS:
            a, conj_a = rows[:, p:q], weighted[:, p:q]
            if size not in leaf_spectra:
                leaf_spectra[size] = np.fft.fft(lagged[:size], _fast_len(2 * size - 1))
            past = (a * history[:, p:q]).sum(0)
            term = (running - (h * h) * (np.cumsum(past) - 0.5 * past)) / diagonal
            x = term.copy()
            within = np.zeros(size, dtype=complex)  # the leaf's own sums, L x
            # rounding of the leading term, near that of the sum
            rounding = 2.0**-53 * np.abs(term).max()
            last = np.inf
            while rounding < (peak := np.abs(term).max()) < last:
                last = peak
                inner = (a * _fft_product(conj_a * term, leaf_spectra[size])[:, :size]).sum(0)
                within += inner
                term = (0.5 * c0 * (np.cumsum(term) - term) + np.cumsum(inner) - 0.5 * inner)
                term *= -h * h / diagonal
                x += term
            if not peak > rounding:
                values[p:q] = x
                running -= h * h * (past + within + 0.5 * c0 * x).sum()
                conj_a *= x
                continue
        # a long range, or a leaf whose series stopped contracting
        mid = (p + q) // 2
        tasks += [(mid, q, None), (p, q, mid), (p, mid, None)]
    if not np.abs(values).max() <= 1.0 + _UNITARITY_TOL:
        raise StepTooLargeError("the amplitude exceeds 1 in modulus or is not finite; the "
                                "step is too coarse for the kernel")
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
    size = _fast_len(n + m - 1)
    spectrum = np.fft.fft(weights * np.conj(chirp[m - 1 :: -1]), size) * np.fft.fft(chirp, size)
    sums = np.fft.ifft(spectrum)[..., m - 1 : m - 1 + n]
    free = _phases(first * step / (2.0 * np.pi), np.arange(n, dtype=float))
    return sums * np.conj(chirp[m - 1 :] * free)
