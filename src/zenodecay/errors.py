"""Exception types shared across the package.

Each class carries a short ``slug`` used by the CLI to fill the status
column of report rows.
"""

from __future__ import annotations


class ZenoError(Exception):
    """Base class for all package-specific errors."""

    slug = "error"


class DistributionalKernelError(ZenoError):
    """Pointwise density requested from a purely atomic kernel."""

    slug = "distributional_kernel"


class NonUniformGridError(ZenoError):
    """Sample grid is not uniform to within tolerance."""

    slug = "nonuniform_grid"


class DegenerateTraceError(ZenoError):
    """Dissipation trace too short or too sparse for the requested transform."""

    slug = "degenerate_trace"


class QuadratureError(ZenoError):
    """Adaptive quadrature failed to converge within its refinement budget."""

    slug = "quadrature_nonconvergence"

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class DomainError(ZenoError):
    """Argument outside the validity domain of a closed-form expression."""

    slug = "domain"


class StepTooLargeError(ZenoError):
    """A step too coarse for its numerics.

    Propagation norm drift exceeded budget (a Taylor step outran its
    series), or a memory-kernel solve lifted |G| or |F| above 1.
    """

    slug = "step_too_large"


class DimensionOverBudgetError(ZenoError):
    """An array or time grid larger than its cap.

    An array either route sizes (a model's stored entries, a state matrix,
    a D denominator, a memory-kernel route array) has more than 4,000,000
    points, or a time grid more than 2**53 steps.
    """

    slug = "dimension_over_budget"


class WindowBeyondRecurrenceError(ZenoError):
    """Fit window extends into the recurrence region of a discretized continuum."""

    slug = "window_beyond_recurrence"


class IllConditionedFitError(ZenoError):
    """Log-linear fit residual too large for a trustworthy rate."""

    slug = "ill_conditioned_fit"


class VanishingDenominatorError(ZenoError):
    """Free-evolution reference amplitude too small to divide by."""

    slug = "vanishing_denominator"


class ConfigError(ZenoError):
    """Invalid sweep configuration; ``path`` points at the offending field."""

    slug = "config"

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
