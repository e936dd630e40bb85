"""Coupling densities and broadening kernels.

The coupling-strength density M(omega) collects the squared matrix elements
of the decay coupling per unit final-state energy.  A broadening kernel
Delta(eps) is the unit-mass line shape that replaces the energy-conserving
delta function when the final state loses coherence; it is obtained either
in closed form (Dirac, Lorentzian, symmetric double delta) or numerically
from a sampled dissipation function D(tau) by the half-line transform

    Delta(eps) = (1/pi) Re int_0^T D(tau) exp(-i eps tau) dtau.

Units: hbar = 1 throughout, energies and rates share one scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateTraceError,
    DistributionalKernelError,
    NonUniformGridError,
)

__all__ = [
    "SpectralDensity",
    "FlatDensity",
    "PowerLawDensity",
    "TabulatedDensity",
    "DissipationKernel",
    "DiracKernel",
    "LorentzianKernel",
    "DoubleDeltaKernel",
    "NumericKernel",
    "DissipationTrace",
    "kernel_from_dissipation",
]


def _check_support(support) -> tuple[float, float]:
    lo, hi = float(support[0]), float(support[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"support must be a finite interval with lo < hi, got ({lo}, {hi})")
    return lo, hi


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class SpectralDensity:
    """Nonnegative density on a finite support, zero outside it.

    Subclasses are immutable and evaluate vectorized: calling with an array
    returns an array, calling with a scalar returns a float.
    """

    support: tuple[float, float]

    def __call__(self, omega):
        raise NotImplementedError

    @property
    def sup_value(self) -> float:
        """Least upper bound of the density over its support."""
        raise NotImplementedError

    @property
    def width(self) -> float:
        lo, hi = self.support
        return hi - lo

    def _inside(self, omega):
        lo, hi = self.support
        return (omega >= lo) & (omega <= hi)


@dataclass(frozen=True)
class FlatDensity(SpectralDensity):
    """Constant level on the support interval."""

    level: float
    support: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "support", _check_support(self.support))
        if not (np.isfinite(self.level) and self.level >= 0):
            raise ValueError(f"level must be finite and nonnegative, got {self.level}")

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        out = np.where(self._inside(omega), self.level, 0.0)
        return out if out.ndim else float(out)

    @property
    def sup_value(self) -> float:
        return self.level


@dataclass(frozen=True)
class PowerLawDensity(SpectralDensity):
    """amplitude * omega**exponent on the support, which must sit in omega >= 0."""

    amplitude: float
    exponent: float
    support: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "support", _check_support(self.support))
        lo, _ = self.support
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude must be finite and nonnegative, got {self.amplitude}")
        if lo < 0:
            raise ValueError("power-law support must not extend below omega = 0")
        if self.exponent < 0 and lo == 0:
            raise ValueError("negative exponent diverges at omega = 0; support must start above 0")

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        inside = self._inside(omega)
        safe = np.where(inside, omega, 1.0)
        out = np.where(inside, self.amplitude * safe**self.exponent, 0.0)
        return out if out.ndim else float(out)

    @property
    def sup_value(self) -> float:
        lo, hi = self.support
        edge = hi if self.exponent >= 0 else lo
        return self.amplitude * edge**self.exponent


@dataclass(frozen=True)
class TabulatedDensity(SpectralDensity):
    """Linear interpolation through sampled (omega, value) pairs."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        values = np.array(self.values, dtype=float)
        if omega.ndim != 1 or omega.shape != values.shape or omega.size < 2:
            raise ValueError("omega and values must be matching 1-d arrays with at least 2 points")
        # compared, not subtracted: a difference can overflow
        if not np.all(omega[1:] > omega[:-1]):
            raise ValueError("omega grid must be strictly increasing")
        if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
            raise ValueError("tabulated values must be finite and nonnegative")
        # np.interp copies a read-only grid on every call, so it reads the
        # writeable private copies, and the public fields are read-only views
        object.__setattr__(self, "_grid", (omega, values))
        object.__setattr__(self, "omega", _read_only(omega))
        object.__setattr__(self, "values", _read_only(values))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.omega[0]), float(self.omega[-1])

    def __call__(self, omega):
        out = np.interp(omega, *self._grid, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    @property
    def sup_value(self) -> float:
        return float(self.values.max())

    @property
    def knots(self) -> np.ndarray:
        """Interior grid points, useful as quadrature breakpoints."""
        return self.omega[1:-1]


class DissipationKernel:
    """Unit-mass broadening kernel Delta(eps).

    ``density`` evaluates the pointwise density where one exists; purely
    atomic kernels instead expose their atoms as (position, weight) pairs
    and raise DistributionalKernelError on pointwise evaluation.
    """

    def density(self, eps):
        raise NotImplementedError

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return ()

    @property
    def is_distributional(self) -> bool:
        return bool(self.atoms)

    def normalization_defect(self) -> float:
        """Absolute deviation of the kernel mass from 1."""
        raise NotImplementedError


@dataclass(frozen=True)
class DiracKernel(DissipationKernel):
    """Identity kernel: no dissipation, the bare golden-rule limit."""

    def density(self, eps):
        raise DistributionalKernelError(
            "Dirac kernel has no pointwise density; use its atoms"
        )

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, 1.0),)

    def normalization_defect(self) -> float:
        return 0.0


@dataclass(frozen=True)
class LorentzianKernel(DissipationKernel):
    """(1/pi) width / (width**2 + (eps - shift)**2), from exponential amplitude loss."""

    width: float
    shift: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError(
                f"width must be positive, got {self.width}; the zero-width limit is DiracKernel"
            )
        if not np.isfinite(self.shift):
            raise ValueError("shift must be finite")

    def density(self, eps):
        eps = np.asarray(eps, dtype=float)
        out = self.width / (np.pi * (self.width**2 + (eps - self.shift) ** 2))
        return out if out.ndim else float(out)

    def normalization_defect(self) -> float:
        # arctan antiderivative integrates to exactly 1 over the real line
        return 0.0


@dataclass(frozen=True)
class DoubleDeltaKernel(DissipationKernel):
    """Half-weight atoms at +-rabi_frequency/2, from cosine amplitude oscillation."""

    rabi_frequency: float

    def __post_init__(self):
        if not (np.isfinite(self.rabi_frequency) and self.rabi_frequency > 0):
            raise ValueError(f"rabi_frequency must be positive, got {self.rabi_frequency}")

    def density(self, eps):
        raise DistributionalKernelError(
            "double-delta kernel has no pointwise density; use its atoms"
        )

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        half = 0.5 * self.rabi_frequency
        return ((-half, 0.5), (half, 0.5))

    def normalization_defect(self) -> float:
        return 0.0


@dataclass(frozen=True)
class NumericKernel(DissipationKernel):
    """Sampled kernel on a uniform eps grid, linear interpolation between nodes.

    ``window`` records the trace length T that produced it; the grid spacing
    is pi/T, twice finer than the transform's resolution limit.  The kernel
    keeps one private copy of each grid, 16 bytes a node, and its
    construction peaks at 32 bytes a node (tracemalloc).
    """

    eps: np.ndarray
    values: np.ndarray
    window: float
    defect: float = field(init=False)

    def __post_init__(self):
        eps = np.array(self.eps, dtype=float)
        values = np.array(self.values, dtype=float)
        if eps.ndim != 1 or eps.shape != values.shape or eps.size < 2:
            raise ValueError("eps and values must be matching 1-d arrays with at least 2 points")
        h = eps[1] - eps[0]
        # written so that NaN fails it
        if not (h > 0 and np.abs(np.diff(eps) - h).max() <= 1e-9 * h):
            raise NonUniformGridError("numeric kernel requires a uniform eps grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        # np.interp copies a read-only grid on every call, so it reads the
        # writeable private copies, and the public fields are read-only views
        object.__setattr__(self, "_grid", (eps, values))
        object.__setattr__(self, "eps", _read_only(eps))
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "defect", float(abs(np.trapezoid(values, eps) - 1.0)))

    def density(self, eps):
        out = np.interp(eps, *self._grid, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    @property
    def spacing(self) -> float:
        return float(self.eps[1] - self.eps[0])

    def normalization_defect(self) -> float:
        return self.defect


@dataclass(frozen=True)
class DissipationTrace:
    """Sampled dissipation function D(tau_j) on a uniform grid starting at 0.

    D(0) = 1 by construction and |D| stays below 1 (plus rounding) for traces
    produced by unitary evolution of a closed final sector.
    """

    times: np.ndarray
    values: np.ndarray
    label: str = ""
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=complex)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("times and values must be matching 1-d arrays with at least 2 points")
        if times[0] != 0.0:
            raise ValueError("trace must start at tau = 0")
        steps = np.diff(times)
        h = steps[0]
        if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0):
            raise NonUniformGridError("dissipation trace requires a uniform time grid")
        if abs(values[0] - 1.0) > 1e-10:
            raise ValueError(f"D(0) must equal 1, got {values[0]}")
        peak = float(np.abs(values).max())
        if peak > 1.0 + 1e-8:
            raise ValueError(f"|D| exceeds 1 beyond rounding tolerance (max {peak})")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def kernel_from_dissipation(trace: DissipationTrace) -> NumericKernel:
    """Transform a sampled dissipation function into a numeric kernel.

    Computes (1/pi) Re int_0^T D(tau) exp(-i eps tau) dtau for the
    piecewise-linear interpolant of the tapered samples g_j, on a uniform eps
    grid of spacing pi/T covering [-8 pi / spacing, 8 pi / spacing], that is
    8(n - 1) nodes either side of zero for n samples.  The last 10% of the
    trace is rolled off with a half-cosine taper, so g vanishes at T.
    Linear interpolation convolves the samples with a hat of half-width h,
    whose transform is h W, W = sinc(theta / 2 pi)**2 = 2 (1 - cos theta) /
    theta**2 at theta = eps h: the attenuation factors of W. Gautschi,
    Numer. Math. 18, 373 (1972), which keep the result accurate far beyond
    the naive Nyquist limit that this range exceeds on purpose.  So the
    kernel is (h / pi) W (Re S - Re g_0 / 2), S the node sum
    sum_j g_j exp(-i eps tau_j) by FFT, less the half hat before tau = 0.
    The rest of that half hat, h Q Im g_0 / pi with
    Q = (theta - sin theta) / theta**2, |Q| <= 1/pi, is left out: since
    DissipationTrace holds |D(0) - 1| to 1e-10, it moves no kernel value
    by more than 1e-11 h.  The weights, node sums and eps are built once on
    |k| = 0..k_max and mirrored, so the transform, the kernel's construction
    included, peaks at about 50 bytes a kernel node (tracemalloc; 1.8 MB at
    36,577 nodes).

    Parameters
    ----------
    trace : DissipationTrace
        Uniformly sampled D(tau) with at least 64 points.

    Returns
    -------
    NumericKernel
        Sampled kernel with its normalization defect recorded.
    """
    n = trace.times.size
    if n < 64:
        raise DegenerateTraceError(f"need at least 64 samples, got {n}")
    h = trace.spacing
    t_eff = h * (n - 1)

    g = trace.values.copy()
    tail = trace.times > 0.9 * t_eff
    if np.any(tail):
        s = (trace.times[tail] - 0.9 * t_eff) / (0.1 * t_eff)
        g[tail] *= 0.5 * (1.0 + np.cos(np.pi * s))

    d_eps = np.pi / t_eff
    # about 8 (n - 1); rounding can add one node
    k_max = int(np.ceil(8.0 * np.pi / h / d_eps))
    m_fft = 2 * (n - 1)
    # both grids are even or odd in k, so each is built on |k| = 0..k_max and
    # written into the upper half of the grid and, reversed, into the lower
    eps = np.empty(2 * k_max + 1)
    values = np.empty(2 * k_max + 1)
    k = np.arange(k_max + 1.0)
    np.multiply(k, d_eps, out=eps[k_max:])
    np.negative(eps[k_max + 1:], out=eps[k_max - 1::-1])

    # W = sin^2(theta/2) / (theta/2)^2 at theta = pi k / (n - 1), free of the
    # cancellation in 1 - cos theta; sin^2 repeats with period m_fft in k.
    # It is built in place over k, and times h / pi
    weights = k
    weights *= np.pi / m_fft
    weights *= weights
    weights[0] = 1.0
    sin_sq = np.sin(np.arange(m_fft) * (np.pi / m_fft)) ** 2
    np.divide(np.resize(sin_sq, k_max + 1), weights, out=weights)
    weights[0] = 1.0
    weights *= h / np.pi

    # the node sums repeat with period m_fft in k; the one at -k is that at k
    # of the conjugate trace up to rounding, and taking it so makes a real
    # trace's kernel even bit for bit
    f_pos, f_neg = np.fft.fft(np.stack((g, np.conj(g))), m_fft).real - g[0].real / 2.0
    np.multiply(weights, np.resize(f_pos, k_max + 1), out=values[k_max:])
    np.multiply(weights[1:], np.resize(f_neg, k_max + 1)[1:], out=values[k_max - 1::-1])
    # freed before the kernel copies both grids
    del k, weights, f_pos, f_neg
    return NumericKernel(eps=eps, values=values, window=t_eff)
