import numpy as np
import pytest

from zenodecay.errors import (
    DegenerateTraceError,
    DistributionalKernelError,
    NonUniformGridError,
)
from zenodecay.spectral import (
    DiracKernel,
    DissipationTrace,
    DoubleDeltaKernel,
    FlatDensity,
    LorentzianKernel,
    NumericKernel,
    PowerLawDensity,
    TabulatedDensity,
    kernel_from_dissipation,
)


def exponential_trace(lam, horizon, dt, shift=0.0):
    t = np.arange(0.0, horizon + dt / 2, dt)
    return DissipationTrace(times=t, values=np.exp(-(lam - 1j * shift) * t))


class TestDensities:
    def test_flat_values_and_support(self):
        dens = FlatDensity(level=0.25, support=(-2.0, 3.0))
        assert dens(0.0) == 0.25
        assert dens(-2.0) == 0.25
        assert dens(3.0001) == 0.0
        assert dens.sup_value == 0.25
        assert dens.width == 5.0
        np.testing.assert_allclose(dens(np.array([-3.0, 1.0])), [0.0, 0.25])

    def test_flat_rejects_bad_support(self):
        with pytest.raises(ValueError):
            FlatDensity(level=1.0, support=(2.0, 2.0))
        with pytest.raises(ValueError):
            FlatDensity(level=-1.0, support=(0.0, 1.0))

    def test_power_law_matches_formula(self):
        dens = PowerLawDensity(amplitude=2.0, exponent=3.0, support=(0.0, 2.0))
        omega = np.linspace(0.0, 2.0, 11)
        np.testing.assert_allclose(dens(omega), 2.0 * omega**3)
        assert dens(2.5) == 0.0
        assert dens.sup_value == 2.0 * 8.0

    def test_power_law_negative_exponent_needs_positive_edge(self):
        with pytest.raises(ValueError):
            PowerLawDensity(amplitude=1.0, exponent=-1.0, support=(0.0, 1.0))
        dens = PowerLawDensity(amplitude=1.0, exponent=-1.0, support=(0.5, 1.0))
        assert dens.sup_value == pytest.approx(2.0)

    def test_power_law_rejects_negative_support(self):
        with pytest.raises(ValueError):
            PowerLawDensity(amplitude=1.0, exponent=2.0, support=(-1.0, 1.0))

    def test_tabulated_interpolates_and_clips(self):
        dens = TabulatedDensity(omega=np.array([0.0, 1.0, 2.0]),
                                values=np.array([0.0, 2.0, 0.0]))
        assert dens(0.5) == pytest.approx(1.0)
        assert dens(-0.1) == 0.0
        assert dens(2.1) == 0.0
        assert dens.support == (0.0, 2.0)
        np.testing.assert_array_equal(dens.knots, [1.0])

    def test_tabulated_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            TabulatedDensity(omega=np.array([0.0, 0.0, 1.0]),
                             values=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            TabulatedDensity(omega=np.array([0.0, 1.0]), values=np.array([1.0, -1.0]))


class TestClosedFormKernels:
    def test_dirac_is_single_unit_atom(self):
        kernel = DiracKernel()
        assert kernel.atoms == ((0.0, 1.0),)
        assert kernel.is_distributional
        assert kernel.normalization_defect() == 0.0
        with pytest.raises(DistributionalKernelError):
            kernel.density(0.0)

    def test_double_delta_atoms(self):
        kernel = DoubleDeltaKernel(rabi_frequency=0.4)
        assert kernel.atoms == ((-0.2, 0.5), (0.2, 0.5))
        with pytest.raises(DistributionalKernelError):
            kernel.density(np.array([0.0]))
        with pytest.raises(ValueError):
            DoubleDeltaKernel(rabi_frequency=0.0)

    def test_lorentzian_peak_and_mass(self):
        kernel = LorentzianKernel(width=0.1)
        assert kernel.density(0.0) == pytest.approx(1.0 / (np.pi * 0.1))
        assert kernel.normalization_defect() == 0.0
        assert not kernel.is_distributional
        # half maximum at one width off center
        assert kernel.density(0.1) == pytest.approx(kernel.density(0.0) / 2.0)

    def test_lorentzian_shift_moves_center(self):
        kernel = LorentzianKernel(width=0.5, shift=2.0)
        eps = np.linspace(-4.0, 6.0, 2001)
        assert eps[np.argmax(kernel.density(eps))] == pytest.approx(2.0, abs=1e-2)

    def test_lorentzian_rejects_zero_width(self):
        with pytest.raises(ValueError):
            LorentzianKernel(width=0.0)


class TestNumericKernel:
    def test_defect_measures_mass(self):
        eps = np.linspace(-1.0, 1.0, 101)
        half = NumericKernel(eps=eps, values=np.full(101, 0.25), window=10.0)
        assert half.normalization_defect() == pytest.approx(0.5)

    def test_interpolation_and_clipping(self):
        eps = np.array([0.0, 1.0, 2.0])
        kernel = NumericKernel(eps=eps, values=np.array([0.0, 1.0, 0.0]), window=5.0)
        assert kernel.density(0.5) == pytest.approx(0.5)
        assert kernel.density(-0.5) == 0.0
        assert kernel.spacing == 1.0

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(NonUniformGridError):
            NumericKernel(eps=np.array([0.0, 1.0, 3.0]),
                          values=np.zeros(3), window=5.0)


class TestDissipationTrace:
    def test_basic_validation(self):
        t = np.linspace(0.0, 1.0, 65)
        DissipationTrace(times=t, values=np.ones(65, dtype=complex))
        with pytest.raises(ValueError):
            DissipationTrace(times=t + 0.5, values=np.ones(65, dtype=complex))
        bad0 = np.ones(65, dtype=complex)
        bad0[0] = 0.9
        with pytest.raises(ValueError):
            DissipationTrace(times=t, values=bad0)
        blowup = np.ones(65, dtype=complex)
        blowup[3] = 1.5
        with pytest.raises(ValueError):
            DissipationTrace(times=t, values=blowup)

    def test_rejects_nonuniform_times(self):
        t = np.linspace(0.0, 1.0, 65)
        t[10] += 1e-3
        with pytest.raises(NonUniformGridError):
            DissipationTrace(times=t, values=np.ones(65, dtype=complex))

    def test_spacing_and_horizon(self):
        trace = exponential_trace(1.0, 2.0, 0.01)
        assert trace.spacing == pytest.approx(0.01)
        assert trace.horizon == pytest.approx(2.0)


class TestKernelFromDissipation:
    def test_exponential_matches_lorentzian(self):
        trace = exponential_trace(1.0, 200.0, 0.02)
        kernel = kernel_from_dissipation(trace)
        ref = LorentzianKernel(1.0).density(kernel.eps)
        near = np.abs(kernel.eps) <= 5.0
        assert np.max(np.abs(kernel.values[near] - ref[near])) < 5e-5
        assert kernel.normalization_defect() < 1e-3

    def test_shifted_exponential_recenters(self):
        trace = exponential_trace(1.0, 200.0, 0.02, shift=2.0)
        kernel = kernel_from_dissipation(trace)
        ref = LorentzianKernel(1.0, 2.0).density(kernel.eps)
        near = np.abs(kernel.eps - 2.0) <= 5.0
        assert np.max(np.abs(kernel.values[near] - ref[near])) < 2e-4
        assert kernel.normalization_defect() < 1e-3

    def test_real_trace_gives_even_kernel(self):
        t = np.arange(0.0, 80.0, 0.02)
        trace = DissipationTrace(times=t, values=np.cos(0.4 * t / 2.0))
        kernel = kernel_from_dissipation(trace)
        mid = kernel.eps.size // 2
        np.testing.assert_array_equal(kernel.values[:mid], kernel.values[-1:mid:-1])

    def test_cosine_splits_mass_between_sidebands(self):
        t = np.arange(0.0, 500.0 + 0.01, 500.0 / 16383)
        trace = DissipationTrace(times=t, values=np.cos(0.8 * t / 2.0))
        kernel = kernel_from_dissipation(trace)
        negative_mass = np.trapezoid(
            np.where(kernel.eps < 0, kernel.values, 0.0), kernel.eps
        )
        assert negative_mass == pytest.approx(0.5, abs=1e-3)
        assert kernel.normalization_defect() < 1e-3

    def test_constant_trace_concentrates_at_zero(self):
        t = np.linspace(0.0, 100.0, 4097)
        trace = DissipationTrace(times=t, values=np.ones(4097, dtype=complex))
        kernel = kernel_from_dissipation(trace)
        assert kernel.normalization_defect() < 1e-9
        peak = kernel.values.max()
        assert kernel.eps[np.argmax(kernel.values)] == pytest.approx(0.0)
        assert peak > 10.0  # concentrated, grid-limited spike

    def test_accuracy_improves_with_horizon(self):
        lam = 0.05
        errors = []
        for horizon in (50.0, 100.0, 200.0):
            kernel = kernel_from_dissipation(exponential_trace(lam, horizon, 0.02))
            ref = LorentzianKernel(lam).density(kernel.eps)
            near = np.abs(kernel.eps) <= 5 * lam
            errors.append(np.max(np.abs(kernel.values[near] - ref[near])))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_transform_matches_direct_node_sum(self):
        # exact transform of the tapered linear interpolant, summed cell by
        # cell: h exp(-i theta j) (g_j A + g_{j+1} B), A and B by Gauss-Legendre
        n, h = 64, 0.25
        t = h * np.arange(n)
        rng = np.random.default_rng(7)
        values = np.exp(-(0.05 - 0.7j) * t) * (0.6 + 0.4 * rng.random(n))
        values[0] = 1.0
        kernel = kernel_from_dissipation(DissipationTrace(times=t, values=values))
        t_eff = t[-1]
        k = np.rint(kernel.eps * t_eff / np.pi).astype(int)
        assert k[0] <= -8 * (n - 1) and k[-1] >= 8 * (n - 1)

        g = values.copy()
        tail = t > 0.9 * t_eff
        g[tail] *= 0.5 * (1.0 + np.cos(np.pi * (t[tail] - 0.9 * t_eff) / (0.1 * t_eff)))
        theta = np.pi * k / (n - 1)
        u, wq = np.polynomial.legendre.leggauss(40)
        u, wq = 0.5 * (u + 1.0), 0.5 * wq
        phase = np.exp(-1j * np.outer(theta, u))
        a, b = phase @ (wq * (1.0 - u)), phase @ (wq * u)
        # theta j reduced exactly, modulo 2 pi, through the integer k j
        j = np.arange(n - 1)
        cells = np.exp(-1j * np.pi * (np.outer(k, j) % (2 * (n - 1))) / (n - 1))
        direct = h * (cells @ g[:-1] * a + cells @ g[1:] * b).real / np.pi
        scale = np.abs(direct).max()
        np.testing.assert_allclose(kernel.values, direct, rtol=0.0, atol=1e-12 * scale)

    def test_short_trace_rejected(self):
        t = np.linspace(0.0, 1.0, 32)
        trace = DissipationTrace(times=t, values=np.ones(32, dtype=complex))
        with pytest.raises(DegenerateTraceError):
            kernel_from_dissipation(trace)

    def test_narrow_range_rejected(self):
        trace = exponential_trace(1.0, 10.0, 0.05)
        with pytest.raises(DegenerateTraceError):
            kernel_from_dissipation(trace, eps_max=1.0)

    def test_custom_range_covers_request(self):
        trace = exponential_trace(1.0, 100.0, 0.02)
        kernel = kernel_from_dissipation(trace, eps_max=30.0)
        assert kernel.eps[-1] >= 30.0
        assert kernel.eps[0] <= -30.0
