"""Time-domain route: discretized continua, propagation, decay fits.

A DiscretizedModel holds the initial level (index 0), the decay modes it
couples to (xi sector) and any further modes reached only through the
final-state interaction W (eta sector).  Propagating the Schroedinger
equation and fitting ln F(t) over a window clear of both the short-time
transient and the discretization recurrence gives the dynamic decay
constant; evolving V|psi0> under H0 + W alone gives the sampled
dissipation function D(tau).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import (
    DimensionOverBudgetError,
    IllConditionedFitError,
    NonstationaryDissipationError,
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
    "no_decay_amplitude",
    "fit_decay",
    "dissipation_trace",
]

MICROMOTION_WARNING = "micromotion_spread"

_HERMITICITY_TOL = 1e-12
_NORM_DRIFT_LIMIT = 1e-6
_DENOMINATOR_FLOOR = 1e-12
_STATIONARITY_TOL = 1e-3
_DEFAULT_EIG_CUTOFF = 2048
_DEFAULT_DIM_BUDGET = 50_000


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
            raise ValueError(f"drive frequency must be finite and nonnegative")
        _check_hermitian(amp, "drive amplitude")
        object.__setattr__(self, "amplitude", amp)


@dataclass(frozen=True)
class DiscretizedModel:
    """Finite Hermitian model of level + continua.

    h0_diag: diagonal energies, entry 0 is the initial level.
    xi_indices / eta_indices: disjoint sectors covering indices 1..n-1.
    v_xi: decay amplitudes <xi_k|V|psi0>, aligned with xi_indices.
    w_static: Hermitian final-state interaction on xi+eta (row/col 0 empty).
    drive: optional oscillating part of W.
    xi_spacing: grid spacing of the xi continuum, sets the recurrence time.

    Instances are treated as immutable after construction.
    """

    h0_diag: np.ndarray
    xi_indices: np.ndarray
    eta_indices: np.ndarray
    v_xi: np.ndarray
    w_static: sparse.csr_matrix | None = None
    drive: DriveTerm | None = None
    label: str = ""
    xi_spacing: float | None = None

    def __post_init__(self):
        h0 = np.asarray(self.h0_diag, dtype=float)
        xi = np.asarray(self.xi_indices, dtype=np.intp)
        eta = np.asarray(self.eta_indices, dtype=np.intp)
        v = np.asarray(self.v_xi, dtype=complex)
        n = h0.size
        if h0.ndim != 1 or n < 2:
            raise ValueError("h0_diag must be a 1-d array with at least 2 entries")
        if not np.all(np.isfinite(h0)):
            raise ValueError("h0_diag must be finite")
        sectors = np.sort(np.concatenate([xi, eta]))
        if not np.array_equal(sectors, np.arange(1, n)):
            raise ValueError("xi and eta sectors must partition indices 1..n-1")
        if v.shape != xi.shape:
            raise ValueError("v_xi must align with xi_indices")
        if not np.all(np.isfinite(v)):
            raise ValueError("v_xi must be finite")
        for arr in (h0, xi, eta, v):
            arr.setflags(write=False)
        object.__setattr__(self, "h0_diag", h0)
        object.__setattr__(self, "xi_indices", xi)
        object.__setattr__(self, "eta_indices", eta)
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

    @property
    def xi_span(self) -> float:
        energies = self.h0_diag[self.xi_indices]
        return float(energies.max() - energies.min()) if energies.size else 0.0


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

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("times and values must be matching 1-d arrays")
        if times[0] != 0.0 or values[0] != 1.0:
            raise ValueError("amplitude trace must start with F(0) = 1 at t = 0")
        if np.abs(values).max() > 1.0 + 1e-9:
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
        xi_indices=np.arange(1, n_modes + 1),
        eta_indices=np.arange(0),
        v_xi=couplings.astype(complex),
        label=label,
        xi_spacing=spacing,
    )


def _static_matrix(model: DiscretizedModel, include_v: bool = True):
    n = model.dimension
    parts = [sparse.diags(model.h0_diag.astype(complex), format="csr")]
    if include_v and model.v_xi.size:
        xi = model.xi_indices
        zeros = np.zeros_like(xi)
        rows = np.concatenate([xi, zeros])
        cols = np.concatenate([zeros, xi])
        data = np.concatenate([model.v_xi, np.conj(model.v_xi)])
        parts.append(sparse.csr_matrix((data, (rows, cols)), shape=(n, n)))
    if model.w_static is not None:
        parts.append(model.w_static)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total.tocsr()


def _energy_scale(model: DiscretizedModel, include_v: bool = True) -> float:
    scales = [float(np.abs(model.h0_diag).max())]
    if include_v and model.v_xi.size:
        scales.append(float(np.abs(model.v_xi).max()))
    if model.w_static is not None and model.w_static.nnz:
        scales.append(float(np.abs(model.w_static.data).max()))
    if model.drive is not None:
        scales.append(model.drive.frequency)
        if model.drive.amplitude.nnz:
            scales.append(float(np.abs(model.drive.amplitude.data).max()))
    return max(scales)


def _time_grid(horizon, dt, scale, sample_stride):
    if horizon == 0 or not np.isfinite(horizon):
        raise ValueError("horizon must be finite and nonzero")
    if dt is None:
        step = 0.02 / scale if scale > 0 else abs(horizon) / 1000.0
        dt = np.copysign(step, horizon)
    if dt == 0 or np.sign(dt) != np.sign(horizon):
        raise ValueError("dt must be nonzero and share the sign of horizon")
    n_steps = max(1, int(round(horizon / dt)))
    if sample_stride is None:
        sample_stride = max(1, n_steps // 2000)
    sample_stride = int(sample_stride)
    # round the step count up to a stride multiple so the sample grid stays
    # uniform all the way to the horizon
    n_steps = sample_stride * ((n_steps + sample_stride - 1) // sample_stride)
    dt = horizon / n_steps
    if scale > 0 and abs(dt) > 0.05 / scale * (1.0 + 1e-12):
        raise ValueError(
            f"|dt| = {abs(dt):.3e} exceeds the stability bound {0.05 / scale:.3e}"
        )
    idx = np.arange(0, n_steps + 1, sample_stride)
    times = idx * dt
    # idx * (horizon / n_steps) can miss the horizon by an ulp
    times[-1] = horizon
    return dt, n_steps, idx, times


def _eig_evolve(static, psi0, times):
    h = static.toarray()
    energies, modes = np.linalg.eigh(h)
    coeffs = modes.conj().T @ psi0
    phases = np.exp(-1j * np.outer(energies, times))
    states = (modes @ (phases * coeffs[:, None])).T
    states[0] = psi0
    return np.ascontiguousarray(states)


def _rk4_evolve(static, drive, psi0, dt, n_steps, idx, t_offset=0.0):
    psi = np.array(psi0, dtype=complex, copy=True)
    out = np.empty((idx.size, psi.size), dtype=complex)
    out[0] = psi
    # -1j is folded into the generator once; multiplying by it is exact, so
    # every stage keeps the floating-point result of -1j * (H x)
    if drive is not None:
        n = psi.size
        freq = drive.frequency
        # static part on top, drive amplitude below: one product gives both
        generator = -1j * sparse.vstack([static, drive.amplitude], format="csr")

        def rhs(t, x):
            y = generator @ x
            return y[:n] + np.cos(freq * (t + t_offset)) * y[n:]

    else:
        generator = -1j * static

        def rhs(t, x):
            return generator @ x

    ptr = 1
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n_steps):
        t = k * dt
        k1 = rhs(t, psi)
        k2 = rhs(t + half, psi + half * k1)
        k3 = rhs(t + half, psi + half * k2)
        k4 = rhs(t + dt, psi + dt * k3)
        psi = psi + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if ptr < idx.size and k + 1 == idx[ptr]:
            out[ptr] = psi
            ptr += 1
    return out


def _check_norm_drift(states):
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.abs(norms - norms[0]).max())
    if drift > _NORM_DRIFT_LIMIT * max(norms[0], 1e-300):
        raise StepTooLargeError(
            f"norm drifted by {drift:.3e}; reduce dt or shorten the horizon"
        )


def propagate(
    model: DiscretizedModel,
    horizon: float,
    dt: float | None = None,
    *,
    initial_state: np.ndarray | None = None,
    sample_stride: int | None = None,
    eig_cutoff: int = _DEFAULT_EIG_CUTOFF,
    dim_budget: int = _DEFAULT_DIM_BUDGET,
) -> Trajectory:
    """Integrate the Schroedinger equation from t = 0 to t = horizon.

    Static models up to eig_cutoff dimensions use the exact eigenbasis
    propagator; everything else steps with classical RK4, evaluating the
    drive at the substage times.  dt defaults to 0.02 over the largest
    energy scale and must stay below 0.05 over it.  A negative horizon
    (with negative dt) integrates backwards.  Norm drift beyond 1e-6
    raises StepTooLargeError.
    """
    n = model.dimension
    if n > dim_budget:
        raise DimensionOverBudgetError(f"dimension {n} exceeds budget {dim_budget}")
    if initial_state is None:
        psi0 = np.zeros(n, dtype=complex)
        psi0[0] = 1.0
    else:
        psi0 = np.asarray(initial_state, dtype=complex)
        if psi0.shape != (n,) or not np.all(np.isfinite(psi0)):
            raise ValueError("initial_state must be a finite length-n vector")
    scale = _energy_scale(model)
    dt, n_steps, idx, times = _time_grid(horizon, dt, scale, sample_stride)
    if model.drive is None and n <= eig_cutoff:
        states = _eig_evolve(_static_matrix(model), psi0, times)
    else:
        states = _rk4_evolve(_static_matrix(model), model.drive, psi0, dt, n_steps, idx)
    _check_norm_drift(states)
    return Trajectory(times=times, states=states)


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
    if mask.sum() < 8:
        raise ValueError("window contains fewer than 8 samples")
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
    *,
    sample_stride: int | None = None,
    eig_cutoff: int = _DEFAULT_EIG_CUTOFF,
    dim_budget: int = _DEFAULT_DIM_BUDGET,
) -> DissipationTrace:
    """Sample D(tau): interacting versus free evolution of V|psi0>.

    The numerator evolves the normalized V|psi0> under H0 + W with the
    decay coupling switched off; the denominator is the closed-form free
    evolution.  For driven models the run is repeated with the start time
    shifted by one drive period, which must reproduce the same trace
    (Floquet stationarity); the quarter-period micromotion spread is
    attached as a warning when it is visible.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = model.dimension
    if n > dim_budget:
        raise DimensionOverBudgetError(f"dimension {n} exceeds budget {dim_budget}")
    v_norm = np.linalg.norm(model.v_xi)
    if v_norm == 0:
        raise ValueError("model has no decay coupling; D is undefined")
    phi = np.zeros(n, dtype=complex)
    phi[model.xi_indices] = model.v_xi
    phi /= np.linalg.norm(phi)

    scale = _energy_scale(model, include_v=False)
    dt, n_steps, idx, times = _time_grid(horizon, dt, scale, sample_stride)

    weights = np.abs(phi[model.xi_indices]) ** 2
    energies = model.h0_diag[model.xi_indices]
    denominator = np.exp(-1j * np.outer(times, energies)) @ weights
    if np.abs(denominator).min() < _DENOMINATOR_FLOOR:
        raise VanishingDenominatorError(
            "free-evolution overlap passes through zero on the sample grid"
        )

    static = _static_matrix(model, include_v=False)
    driven = model.drive is not None and model.drive.frequency > 0

    def overlap(t_offset=0.0):
        if not driven and model.drive is None and n <= eig_cutoff:
            states = _eig_evolve(static, phi, times)
        else:
            states = _rk4_evolve(
                static, model.drive, phi, dt, n_steps, idx, t_offset=t_offset
            )
        _check_norm_drift(states)
        return states @ np.conj(phi)

    numerator = overlap()
    values = numerator / denominator
    flags = []
    if driven:
        period = 2.0 * np.pi / model.drive.frequency
        shifted = overlap(period) / denominator
        spread = float(np.abs(shifted - values).max())
        if spread > _STATIONARITY_TOL:
            raise NonstationaryDissipationError(
                f"D(t, t1) changes by {spread:.3e} under a full-period shift of t1"
            )
        quarter = overlap(0.25 * period) / denominator
        micromotion = float(np.abs(quarter - values).max())
        if micromotion > 0.01:
            flags.append(f"{MICROMOTION_WARNING}={micromotion:.3g}")
    return DissipationTrace(
        times=times, values=values, label=model.label, warnings=tuple(flags)
    )
