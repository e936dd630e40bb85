"""Decay constants from the generalized golden rule.

The bare rate is gamma0 = 2 pi M(E0).  With a broadening kernel Delta the
perturbed rate becomes gamma = 2 pi int M(omega) Delta(omega - E0) domega,
integrated over the declared support of M.  Closed forms cover the atomic
kernels.  Every other kernel takes one adaptive Gauss-Legendre quadrature:
a Lorentzian over an angle in which it is flat, a sampled kernel over omega.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .spectral import (
    DiracKernel,
    DissipationKernel,
    DoubleDeltaKernel,
    LorentzianKernel,
    NumericKernel,
    SpectralDensity,
    TabulatedDensity,
)

__all__ = [
    "DecayRateResult",
    "golden_rule_gamma",
    "perturbed_gamma",
    "unstable_level_gamma",
    "rabi_gamma",
    "rabi_enhancement_ratio",
]

NEGATIVE_RATE_CLAMPED = "negative_rate_clamped"

_REL_TOL = 1e-10
_ACCEPT_REL = 1e-8
_MAX_BISECTIONS = 400

# 8-point Gauss-Legendre nodes and weights on [-1, 1]
_X, _W = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class DecayRateResult:
    """A decay constant together with its bare reference and provenance.

    ratio is gamma/gamma0 and is only present when gamma0 > 0; method is one
    of "closed_form", "quadrature" or "dynamic_fit";
    quadrature_error_estimate is None unless method == "quadrature".
    """

    gamma: float
    gamma0: float
    method: str
    ratio: float | None = None
    quadrature_error_estimate: float | None = None
    warnings: tuple[str, ...] = ()


def _make_result(gamma, gamma0, method, error_estimate=None, extra_warnings=()):
    flags = tuple(extra_warnings)
    if gamma < 0:
        gamma = 0.0
        flags = flags + (NEGATIVE_RATE_CLAMPED,)
    ratio = gamma / gamma0 if gamma0 > 0 else None
    return DecayRateResult(
        gamma=float(gamma),
        gamma0=float(gamma0),
        method=method,
        ratio=ratio,
        quadrature_error_estimate=error_estimate,
        warnings=flags,
    )


def golden_rule_gamma(density: SpectralDensity, e0: float) -> DecayRateResult:
    """Bare rate 2 pi M(E0); zero whenever E0 falls outside the support."""
    gamma0 = 2.0 * np.pi * density(e0)
    return _make_result(gamma0, gamma0, "closed_form")


def _atomic_gamma(density, kernel, e0):
    gamma = 2.0 * np.pi * sum(w * density(e0 + pos) for pos, w in kernel.atoms)
    return _make_result(gamma, 2.0 * np.pi * density(e0), "closed_form")


def _panel_edges(density, lo, hi, points, transform=np.asarray):
    """Sorted, distinct panel edges: lo, hi, and every point or knot between."""
    if isinstance(density, TabulatedDensity):
        points = np.concatenate([points, density.knots])
    inner = points[(points > lo) & (points < hi)]
    return np.unique(transform(np.concatenate(([lo], inner, [hi]))))


def _quadrature(func, edges):
    """Adaptive Gauss-Legendre integral of func over [edges[0], edges[-1]].

    The 8-point rule on each panel is compared with the rule on its two
    halves; the halves stand once that gap is within the panel's width
    share of _REL_TOL |I|, and the panel is bisected otherwise, the nodes of
    every open panel going to func in one call per round.  Returns I and the
    summed gaps; past _MAX_BISECTIONS, gaps above _ACCEPT_REL |I| raise.
    """
    lo, hi = edges[:-1], edges[1:]
    tol = _REL_TOL / (edges[-1] - edges[0])
    value = gap = 0.0
    bisections = 0
    while True:
        mid = 0.5 * (lo + hi)
        # the rule on the whole panel and on its left and right halves
        half = 0.5 * np.concatenate([hi - lo, mid - lo, hi - mid])
        x = (np.concatenate([lo, lo, mid]) + half)[:, None] + half[:, None] * _X
        f = func(x.ravel()).reshape(x.shape)
        whole, left, right = np.split((f * _W).sum(axis=1) * half, 3)
        halves = left + right
        gaps = np.abs(halves - whole)
        total = value + halves.sum()
        open_ = gaps > tol * (hi - lo) * abs(total)
        value += halves[~open_].sum()
        gap += gaps[~open_].sum()
        bisections += np.count_nonzero(open_)
        if not open_.any() or bisections > _MAX_BISECTIONS:
            break
        lo, hi = np.append(lo[open_], mid[open_]), np.append(mid[open_], hi[open_])
    gap += gaps[open_].sum()
    if not gap <= _ACCEPT_REL * abs(total):
        raise QuadratureError(
            f"quadrature did not converge in {_MAX_BISECTIONS} bisections "
            f"(last estimate {total:.6e}, bound {gap:.2e})",
            estimate=total,
            error_bound=gap,
        )
    return total, gap


def _lorentzian_gamma(density, kernel, e0):
    # theta = arctan(x) - arctan(x_lo), x = (omega - center)/lam, as one arctan2
    # so that no two nearly equal arctans are subtracted; integrand inverts it
    lo, hi = density.support
    center = e0 + kernel.shift
    lam = kernel.width
    x_lo = (lo - center) / lam

    def angle(omega):
        return np.arctan2((omega - lo) / lam, 1.0 + (omega - center) / lam * x_lo)

    def integrand(theta):
        s, c = np.sin(theta), np.cos(theta)
        return 2.0 * density(lo + lam * (1.0 + x_lo * x_lo) * s / (c - x_lo * s))

    return _quadrature(integrand, _panel_edges(density, lo, hi, np.array([center]), angle))


def _numeric_gamma(density, kernel, e0):
    lo, hi = density.support
    grid = kernel.eps + e0
    a, b = max(lo, grid[0]), min(hi, grid[-1])
    if not a < b:
        return 0.0, 0.0

    def integrand(omega):
        return 2.0 * np.pi * density(omega) * kernel.density(omega - e0)

    return _quadrature(integrand, _panel_edges(density, a, b, grid))


def perturbed_gamma(
    density: SpectralDensity, kernel: DissipationKernel, e0: float
) -> DecayRateResult:
    """Rate with final-state broadening folded in.

    Atomic kernels reduce to weighted golden-rule evaluations.  A Lorentzian
    centered at c is flat in theta = arctan((omega - c)/lambda) measured from
    the lower support edge, so gamma = 2 int M(omega(theta)) dtheta, split at
    c and every tabulation knot; a sampled kernel is integrated over omega,
    split at its nodes and the knots.  Both bisect their panels until the
    8-point rule on a panel's halves agrees with the whole to the panel's
    share of 1e-10 gamma, and the summed gaps are the error estimate.  The
    result is checked against the kernel-mass bound gamma <= 2 pi sup M.
    """
    if kernel.is_distributional:
        return _atomic_gamma(density, kernel, e0)
    if isinstance(kernel, LorentzianKernel):
        gamma, err = _lorentzian_gamma(density, kernel, e0)
    elif isinstance(kernel, NumericKernel):
        gamma, err = _numeric_gamma(density, kernel, e0)
    else:
        raise TypeError(f"unsupported kernel type {type(kernel).__name__}")
    bound = 2.0 * np.pi * density.sup_value
    if gamma > bound * (1.0 + 1e-9) + 1e-12:
        raise QuadratureError(
            f"rate {gamma:.6e} exceeds the kernel-mass bound {bound:.6e}",
            estimate=gamma,
            error_bound=err,
        )
    return _make_result(
        gamma, 2.0 * np.pi * density(e0), "quadrature", error_estimate=err
    )


def unstable_level_gamma(
    density: SpectralDensity,
    width: float,
    shift: float,
    omega_f: float,
    tail_level: float = 0.0,
) -> DecayRateResult:
    """Rate for decay into a level that itself drains away.

    Convolves M with a Lorentzian of the given half-width, centered at
    omega_f + shift.  ``tail_level`` treats M as continuing at that constant
    value above its upper support edge, adding the arctan tail in closed
    form; use it for truncated half-line supports.
    """
    result = perturbed_gamma(density, LorentzianKernel(width, shift), omega_f)
    if tail_level == 0.0:
        return result
    if tail_level < 0:
        raise ValueError("tail_level must be nonnegative")
    hi = density.support[1]
    center = omega_f + shift
    tail = 2.0 * tail_level * np.arctan2(width, hi - center)
    return _make_result(
        result.gamma + tail,
        result.gamma0,
        "quadrature",
        error_estimate=result.quadrature_error_estimate,
        extra_warnings=result.warnings,
    )


def rabi_gamma(
    density: SpectralDensity, rabi_frequency: float, omega_f: float
) -> DecayRateResult:
    """Two-sideband rate pi [M(omega_f - Omega/2) + M(omega_f + Omega/2)]."""
    return _atomic_gamma(density, DoubleDeltaKernel(rabi_frequency), omega_f)


def rabi_enhancement_ratio(rabi_frequency: float, omega_01: float) -> float:
    """Rate enhancement 1 + (3/4) (Omega/omega_01)**2 for a cubic density.

    Exact for M proportional to omega**3 with both sidebands inside the
    support, since the cubic's even part averages without remainder.
    """
    if not omega_01 > 0:
        raise DomainError(f"omega_01 must be positive, got {omega_01}")
    if not 0 < rabi_frequency < omega_01:
        raise DomainError(
            f"rabi_frequency must lie in (0, omega_01), got {rabi_frequency}"
        )
    if rabi_frequency > 0.5 * omega_01:
        _warnings.warn(
            "rabi_frequency above omega_01/2: the sidebands probe the density "
            "far from the transition and the quadratic form is only exact for "
            "cubic M",
            stacklevel=2,
        )
    x = rabi_frequency / omega_01
    return 1.0 + 0.75 * x * x
