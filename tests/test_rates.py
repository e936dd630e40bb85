import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from zenodecay.errors import DomainError, QuadratureError
from zenodecay.rates import (
    NEGATIVE_RATE_CLAMPED,
    golden_rule_gamma,
    perturbed_gamma,
    rabi_enhancement_ratio,
    rabi_gamma,
    unstable_level_gamma,
)
from zenodecay.scenarios import ScatteringScenario, build_analytic
from zenodecay.spectral import (
    DiracKernel,
    FlatDensity,
    LorentzianKernel,
    NumericKernel,
    PowerLawDensity,
    SpectralDensity,
    TabulatedDensity,
)

SQRT_DENSITY = PowerLawDensity(amplitude=1.0, exponent=0.5, support=(0.0, 3.0))


def flat_lorentzian_oracle(level, support, width, center):
    """Exact rate for a flat density under a Lorentzian kernel."""
    lo, hi = support
    return 2.0 * level * (
        np.arctan((hi - center) / width) - np.arctan((lo - center) / width)
    )


class TestGoldenRule:
    def test_flat_density(self):
        dens = FlatDensity(level=0.01 / (2.0 * np.pi), support=(-5.0, 5.0))
        result = golden_rule_gamma(dens, 0.0)
        assert result.gamma == pytest.approx(0.01, rel=1e-15)
        assert result.method == "closed_form"
        assert result.ratio == pytest.approx(1.0)

    def test_outside_support_gives_zero(self):
        dens = FlatDensity(level=1.0, support=(-1.0, 1.0))
        result = golden_rule_gamma(dens, 3.0)
        assert result.gamma == 0.0
        assert result.gamma0 == 0.0
        assert result.ratio is None


class TestAtomicKernels:
    def test_dirac_reduces_to_golden_rule(self):
        rng = np.random.default_rng(20240817)
        kernel = DiracKernel()
        for _ in range(100):
            lo = rng.uniform(-3.0, 0.0)
            hi = lo + rng.uniform(0.5, 4.0)
            if rng.random() < 0.5:
                dens = FlatDensity(level=rng.uniform(0.1, 2.0), support=(lo, hi))
            else:
                plo = rng.uniform(0.0, 1.0)
                dens = PowerLawDensity(
                    amplitude=rng.uniform(0.1, 2.0),
                    exponent=rng.uniform(0.5, 3.0),
                    support=(plo, plo + rng.uniform(0.5, 3.0)),
                )
            e0 = rng.uniform(lo - 1.0, hi + 1.0)
            bare = golden_rule_gamma(dens, e0)
            perturbed = perturbed_gamma(dens, kernel, e0)
            assert perturbed.gamma == bare.gamma
            assert perturbed.method == "closed_form"

    def test_double_delta_on_cubic_density(self):
        dens = PowerLawDensity(amplitude=1.0, exponent=3.0, support=(0.0, 2.0))
        result = rabi_gamma(dens, rabi_frequency=0.4, omega_f=1.0)
        assert result.gamma == pytest.approx(2.24 * np.pi, rel=1e-12)
        assert result.ratio == pytest.approx(1.12, rel=1e-12)

    def test_double_delta_matches_sideband_sum(self):
        dens = TabulatedDensity(
            omega=np.array([0.0, 0.7, 1.5, 2.0]),
            values=np.array([0.1, 0.9, 0.4, 0.0]),
        )
        omega_f, rabi = 1.1, 0.6
        expected = np.pi * (dens(omega_f - 0.3) + dens(omega_f + 0.3))
        result = rabi_gamma(dens, rabi, omega_f)
        assert result.gamma == pytest.approx(expected, rel=1e-14)


class TestLorentzianQuadrature:
    SUPPORT = (-4.0, 4.0)
    LEVEL = 0.05
    E0 = 0.5

    @pytest.mark.parametrize("width", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("shift", [-2.0, 0.0, 2.0])
    def test_matches_arctan_oracle(self, width, shift):
        dens = FlatDensity(level=self.LEVEL, support=self.SUPPORT)
        result = perturbed_gamma(dens, LorentzianKernel(width, shift), self.E0)
        expected = flat_lorentzian_oracle(
            self.LEVEL, self.SUPPORT, width, self.E0 + shift
        )
        assert result.gamma == pytest.approx(expected, rel=1e-8)
        assert result.method == "quadrature"
        assert result.quadrature_error_estimate is not None

    def test_narrow_width_substitution_path(self):
        dens = FlatDensity(level=self.LEVEL, support=self.SUPPORT)
        result = perturbed_gamma(dens, LorentzianKernel(1e-6), self.E0)
        expected = flat_lorentzian_oracle(self.LEVEL, self.SUPPORT, 1e-6, self.E0)
        assert result.gamma == pytest.approx(expected, rel=1e-8)

    @given(lo=st.floats(-10.0, 10.0), log_support=st.floats(-3.0, 3.0),
           log_ratio=st.floats(-6.0, 4.0), side=st.sampled_from(["inside", "below", "above"]),
           frac=st.floats(0.0, 1.0), log_dist=st.floats(-3.0, 6.0), shift=st.floats(-1.0, 1.0))
    @example(lo=-5.0, log_support=1.0, log_ratio=-6.0, side="above", frac=0.0,
             log_dist=6.0, shift=0.0).via("narrow kernel far above the support")
    @example(lo=-5.0, log_support=1.0, log_ratio=-6.0, side="below", frac=0.0,
             log_dist=6.0, shift=0.5).via("narrow kernel far below the support")
    def test_flat_density_matches_one_angle_oracle(self, lo, log_support, log_ratio, side,
                                                   frac, log_dist, shift):
        support = 10.0**log_support
        hi = lo + support
        width = support * 10.0**log_ratio
        offset = width * 10.0**log_dist
        center = {"inside": lo + frac * support, "below": lo - offset, "above": hi + offset}[side]
        e0 = center - shift
        dens = FlatDensity(level=self.LEVEL, support=(lo, hi))
        result = perturbed_gamma(dens, LorentzianKernel(width, shift), e0)
        # arctan(x_hi) - arctan(x_lo) as one angle, so that nothing cancels
        x_lo = (lo - (e0 + shift)) / width
        x_hi = (hi - (e0 + shift)) / width
        expected = 2.0 * self.LEVEL * np.arctan2((hi - lo) / width, 1.0 + x_lo * x_hi)
        assert result.gamma == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_spike_density_reads_kernel_peak(self):
        # a density much narrower than the kernel samples its peak value
        delta, lam, level = 1e-3, 1.0, 2.0
        dens = FlatDensity(level=level, support=(-delta / 2, delta / 2))
        result = perturbed_gamma(dens, LorentzianKernel(lam), 0.0)
        assert result.gamma == pytest.approx(4 * level * np.arctan(delta / (2 * lam)),
                                             rel=1e-8)
        assert result.gamma == pytest.approx(2 * level * delta / lam, rel=1e-3)

    def test_ratio_absent_off_support(self):
        dens = FlatDensity(level=1.0, support=(1.0, 2.0))
        result = perturbed_gamma(dens, LorentzianKernel(0.5), 0.0)
        assert result.gamma > 0.0
        assert result.gamma0 == 0.0
        assert result.ratio is None

    def test_narrow_kernel_on_square_root_density(self):
        # the reference integrates in u = omega - c, where the peak's
        # abscissae carry no rounding from the centre
        w, c = 1e-4, 1.0
        result = perturbed_gamma(SQRT_DENSITY, LorentzianKernel(w), c)
        value, _ = integrate.quad(
            lambda u: np.sqrt(c + u) * w / (np.pi * (w * w + u * u)), -c, 3.0 - c,
            points=sorted(s * m * w for m in (1, 10, 100) for s in (-1, 1)),
            limit=200, epsabs=0.0, epsrel=1e-13,
        )
        reference = 2.0 * np.pi * value
        assert result.gamma == pytest.approx(reference, rel=1e-10, abs=0.0)
        assert result.quadrature_error_estimate >= abs(result.gamma - reference)

    def test_unresolved_jumps_raise_with_estimate(self):
        class Comb(SpectralDensity):
            """A square wave with 2000 jumps that no knot marks."""

            support = (0.0, 1.0)
            sup_value = 1.0

            def __call__(self, omega):
                omega = np.asarray(omega, dtype=float)
                return np.where(self._inside(omega), np.floor(2000.0 * omega) % 2.0, 0.0)

        with pytest.raises(QuadratureError) as info:
            perturbed_gamma(Comb(), LorentzianKernel(1.0), 0.5)
        assert 0.0 < info.value.estimate < 2.0 * np.pi
        assert info.value.error_bound > 1e-8 * info.value.estimate


class TestNumericKernelQuadrature:
    @pytest.mark.parametrize("rate", [316.0, 1e4])
    def test_square_root_density_matches_panel_integrals(self, rate):
        omega_f = 1.0
        kernel = build_analytic(ScatteringScenario(m_y=SQRT_DENSITY, omega_f=omega_f, rate=rate))
        result = perturbed_gamma(SQRT_DENSITY, kernel, omega_f)
        # sqrt(omega) times the kernel's linear interpolant, panel by panel
        # between the kernel nodes, in closed form
        nodes = kernel.eps + omega_f
        edges = np.concatenate(([0.0], nodes[(nodes > 0.0) & (nodes < 3.0)], [3.0]))
        a, b = edges[:-1], edges[1:]
        k_a = kernel.density(a - omega_f)
        slope = (kernel.density(b - omega_f) - k_a) / (b - a)

        def antiderivative(x):
            return 2.0 / 3.0 * x**1.5 * (k_a - slope * a) + 2.0 / 5.0 * x**2.5 * slope

        exact = 2.0 * np.pi * np.sum(antiderivative(b) - antiderivative(a))
        assert result.gamma == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_sampled_lorentzian_close_to_exact(self):
        lam = 0.5
        eps = np.linspace(-60.0, 60.0, 24001)
        kernel = NumericKernel(
            eps=eps,
            values=(lam / np.pi) / (lam**2 + eps**2),
            window=200.0,
        )
        dens = FlatDensity(level=0.3, support=(-2.0, 2.0))
        result = perturbed_gamma(dens, kernel, 0.1)
        exact = flat_lorentzian_oracle(0.3, (-2.0, 2.0), lam, 0.1)
        assert result.gamma == pytest.approx(exact, rel=1e-4)

    def test_mass_bound_rejects_unnormalized_kernel(self):
        eps = np.linspace(-1.0, 1.0, 51)
        kernel = NumericKernel(eps=eps, values=np.full(51, 100.0), window=10.0)
        dens = FlatDensity(level=1.0, support=(-5.0, 5.0))
        with pytest.raises(QuadratureError) as info:
            perturbed_gamma(dens, kernel, 0.0)
        assert info.value.estimate > 2.0 * np.pi

    def test_negative_kernel_rate_clamps_to_zero(self):
        eps = np.linspace(-1.0, 1.0, 51)
        kernel = NumericKernel(eps=eps, values=np.full(51, -0.1), window=10.0)
        dens = FlatDensity(level=1.0, support=(-5.0, 5.0))
        result = perturbed_gamma(dens, kernel, 0.0)
        assert result.gamma == 0.0
        assert NEGATIVE_RATE_CLAMPED in result.warnings
        assert result.ratio == 0.0

    def test_disjoint_grids_give_zero(self):
        eps = np.linspace(-1.0, 1.0, 51)
        kernel = NumericKernel(eps=eps, values=np.full(51, 0.5), window=10.0)
        dens = FlatDensity(level=1.0, support=(10.0, 11.0))
        result = perturbed_gamma(dens, kernel, 0.0)
        assert result.gamma == 0.0


class TestTabulatedDensityQuadrature:
    """Rates on a 200-knot table, whose panels split at every knot."""

    RNG = np.random.default_rng(3)
    TABLE = TabulatedDensity(
        omega=np.sort(np.concatenate(([0.0, 3.0], RNG.uniform(0.0, 3.0, 198)))),
        values=RNG.uniform(0.0, 0.1, 200))

    @pytest.mark.parametrize("width", [1e-3, 0.1, 10.0])
    @pytest.mark.parametrize("on_knot", [False, True])
    def test_lorentzian_matches_linear_pieces(self, width, on_knot):
        knots, values = self.TABLE.omega, self.TABLE.values
        center = knots[117] if on_knot else 0.5 * (knots[117] + knots[118])
        # on [lo, hi] the table is a + b omega, and the rate integral of
        # (a + b omega) (lam/pi) / ((omega - c)^2 + lam^2) is (a + b c)/pi
        # d arctan((omega - c)/lam) + b lam/(2 pi) d ln((omega - c)^2 + lam^2)
        lo, hi = knots[:-1], knots[1:]
        b = np.diff(values) / (hi - lo)
        at_center = values[:-1] + b * (center - lo)
        # both differences without cancellation
        arctan = np.arctan2((hi - lo) / width, 1.0 + (lo - center) * (hi - center) / width**2)
        log = np.log1p((hi - lo) * (hi + lo - 2.0 * center) / ((lo - center) ** 2 + width**2))
        exact = 2.0 * np.sum(at_center * arctan + 0.5 * b * width * log)
        result = perturbed_gamma(self.TABLE, LorentzianKernel(width), center)
        assert result.gamma == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_sampled_kernel_matches_panel_integrals(self):
        omega_f = 1.3
        kernel = build_analytic(ScatteringScenario(m_y=self.TABLE, omega_f=omega_f, rate=1.0))
        result = perturbed_gamma(self.TABLE, kernel, omega_f)
        # the table times the kernel's interpolant is quadratic between the
        # merged knots and nodes, where Simpson's rule is exact
        nodes = kernel.eps + omega_f
        edges = np.union1d(self.TABLE.omega, nodes[(nodes > 0.0) & (nodes < 3.0)])
        lo, hi = edges[:-1], edges[1:]

        def f(x):
            return self.TABLE(x) * kernel.density(x - omega_f)

        simpson = (hi - lo) / 6.0 * (f(lo) + 4.0 * f(0.5 * (lo + hi)) + f(hi))
        exact = 2.0 * np.pi * np.sum(simpson)
        assert result.gamma == pytest.approx(exact, rel=1e-10, abs=0.0)


class TestUnstableLevel:
    def test_matches_lorentzian_route(self):
        dens = PowerLawDensity(amplitude=0.5, exponent=2.0, support=(0.0, 3.0))
        direct = unstable_level_gamma(dens, width=0.4, shift=0.1, omega_f=1.2)
        kernel = perturbed_gamma(dens, LorentzianKernel(0.4, 0.1), 1.2)
        assert direct.gamma == kernel.gamma

    def test_tail_completes_truncated_support(self):
        level, width = 0.3, 0.2
        dens = FlatDensity(level=level, support=(0.0, 2.0))
        result = unstable_level_gamma(
            dens, width=width, shift=0.1, omega_f=0.9, tail_level=level
        )
        # center sits at 1.0; the tail restores the flat line above omega = 2
        expected = 2.0 * level * (0.5 * np.pi + np.arctan(1.0 / width))
        assert result.gamma == pytest.approx(expected, rel=1e-8)

    def test_tail_far_below_upper_edge(self):
        # the centre sits 1e9 widths below a unit support, so nearly all of
        # the rate is tail; together they are the flat line above omega = 0
        level, x_lo = 0.3, 1e9
        dens = FlatDensity(level=level, support=(0.0, 1.0))
        result = unstable_level_gamma(
            dens, width=1.0, shift=0.0, omega_f=-x_lo, tail_level=level
        )
        expected = 2.0 * level * np.arctan(1.0 / x_lo)
        assert result.gamma == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_negative_tail_rejected(self):
        dens = FlatDensity(level=1.0, support=(0.0, 1.0))
        with pytest.raises(ValueError):
            unstable_level_gamma(dens, 0.1, 0.0, 0.5, tail_level=-1.0)


class TestEnhancementRatio:
    def test_reference_point(self):
        assert rabi_enhancement_ratio(0.2, 1.0) == pytest.approx(1.03, rel=1e-12)

    def test_scale_invariance(self):
        assert rabi_enhancement_ratio(0.8, 4.0) == rabi_enhancement_ratio(0.2, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rabi_enhancement_ratio(0.0, 1.0)
        with pytest.raises(DomainError):
            rabi_enhancement_ratio(1.0, 1.0)
        with pytest.raises(DomainError):
            rabi_enhancement_ratio(0.2, -1.0)

    def test_strong_drive_warns(self):
        with pytest.warns(UserWarning):
            value = rabi_enhancement_ratio(0.6, 1.0)
        assert value == pytest.approx(1.27, rel=1e-12)


class TestFreezing:
    def test_rate_decreases_once_width_passes_support(self):
        support = (-0.5, 0.5)
        dens = FlatDensity(level=0.2, support=support)
        width_m = support[1] - support[0]
        widths = np.logspace(0.0, 4.0, 17) * width_m
        gammas = [
            perturbed_gamma(dens, LorentzianKernel(w), 0.0).gamma for w in widths
        ]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        gamma0 = golden_rule_gamma(dens, 0.0).gamma
        frozen = perturbed_gamma(dens, LorentzianKernel(10.0 * width_m), 0.0)
        assert frozen.gamma < 0.2 * gamma0
