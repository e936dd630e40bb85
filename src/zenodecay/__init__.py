"""Spontaneous-decay constants under dissipation of the final state.

Two independent routes to the same number: a generalized rate integral
folding the coupling density with a broadening kernel, and direct
time-domain simulation of a discretized model.  Units: hbar = 1.
"""

from .errors import (
    ConfigError,
    DegenerateTraceError,
    DimensionOverBudgetError,
    DistributionalKernelError,
    DomainError,
    IllConditionedFitError,
    NonUniformGridError,
    QuadratureError,
    StepTooLargeError,
    VanishingDenominatorError,
    WindowBeyondRecurrenceError,
    ZenoError,
)
from .spectral import (
    DiracKernel,
    DissipationKernel,
    DissipationTrace,
    DoubleDeltaKernel,
    FlatDensity,
    LorentzianKernel,
    NumericKernel,
    PowerLawDensity,
    SpectralDensity,
    TabulatedDensity,
    kernel_from_dissipation,
)
from .rates import (
    DecayRateResult,
    golden_rule_gamma,
    perturbed_gamma,
    rabi_enhancement_ratio,
    rabi_gamma,
    unstable_level_gamma,
)
from .dynamics import (
    AmplitudeTrace,
    DiscretizedModel,
    DriveTerm,
    FitDiagnostics,
    Trajectory,
    build_decay_model,
    discretize_continuum,
    dissipation_trace,
    fit_decay,
    memory_kernel_amplitude,
    no_decay_amplitude,
    propagate,
    survival_amplitude,
)
from .scenarios import (
    DynamicControls,
    RabiDriveScenario,
    ScatteringScenario,
    UnstableLevelScenario,
    analytic_gamma,
    build_analytic,
    build_dynamic,
    build_trace_model,
    dynamic_gamma,
    scenario_amplitude,
    scenario_trace,
)

__version__ = "0.1.0"
