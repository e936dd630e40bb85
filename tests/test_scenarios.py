import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zenodecay import dynamics, scenarios
from zenodecay.dynamics import (
    DiscretizedModel,
    _sampled_dissipation,
    _uniform_grid,
    discretize_continuum,
    dissipation_trace,
    fit_decay,
    survival_amplitude,
)
from zenodecay.errors import DimensionOverBudgetError, NonUniformGridError, StepTooLargeError
from zenodecay.scenarios import (
    LEVEL_OFF_SUPPORT,
    STEP_ERROR_WARNING,
    STRONG_DRIVE,
    WIDTH_BEYOND_BAND,
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
from zenodecay.spectral import (
    DiracKernel,
    DoubleDeltaKernel,
    FlatDensity,
    LorentzianKernel,
    NumericKernel,
    PowerLawDensity,
)

FLAT_Y = FlatDensity(level=0.05 / (2.0 * np.pi), support=(-5.0, 5.0))
CUBIC = PowerLawDensity(amplitude=1.0, exponent=3.0, support=(0.0, 2.0))

# one cascade of each form the memory-kernel route serves
CASCADES = {
    "explicit_m_z_off_centre": UnstableLevelScenario(
        m_y=FLAT_Y, omega_f=0.3,
        m_z=PowerLawDensity(amplitude=0.05, exponent=2.0, support=(0.0, 4.0)),
        z_resonance=1.5),
    "bare_width_with_shift": UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.3,
                                                   lambda_i=0.1),
    "scattering_m_z": ScatteringScenario(
        m_y=FLAT_Y, omega_f=0.0, m_z=FlatDensity(level=0.3 / np.pi, support=(-6.0, 6.0)),
        z_resonance=0.0),
    "zero_width": UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.0),
}
# a cascade whose last Y mode sets the full model's energy scale, with a
# line shift above every energy of its trace model
OFF_CENTRE_BAND = UnstableLevelScenario(
    m_y=FlatDensity(level=0.05 / (2.0 * np.pi), support=(0.5, 6.0)), omega_f=1.0,
    lambda_r=0.01, lambda_i=1.5)


class TestScenarioValidation:
    def test_rabi_requires_positive_frequencies(self):
        with pytest.raises(ValueError):
            RabiDriveScenario(m_y=FLAT_Y, omega_f=0.0, omega=0.0, omega_21=1.0)
        with pytest.raises(ValueError):
            RabiDriveScenario(m_y=FLAT_Y, omega_f=0.0, omega=0.1, omega_21=-1.0)
        with pytest.raises(ValueError):
            RabiDriveScenario(m_y=FLAT_Y, omega_f=np.inf, omega=0.1, omega_21=1.0)

    def test_unstable_needs_exactly_one_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0)
        with pytest.raises(ValueError, match="exactly one"):
            UnstableLevelScenario(
                m_y=FLAT_Y, omega_f=0.0, lambda_r=0.1, m_z=FLAT_Y, z_resonance=0.0
            )
        with pytest.raises(ValueError, match="z_resonance"):
            UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, m_z=FLAT_Y)
        with pytest.raises(ValueError, match="z_resonance"):
            UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.1,
                                  z_resonance=0.0)
        with pytest.raises(ValueError):
            UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=-0.1)

    def test_scattering_forms(self):
        with pytest.raises(ValueError, match="exactly one"):
            ScatteringScenario(m_y=FLAT_Y, omega_f=0.0)
        with pytest.raises(ValueError):
            ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=-1.0)

    def test_width_from_secondary_density(self):
        mz = FlatDensity(level=0.3 / np.pi, support=(-6.0, 6.0))
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, m_z=mz,
                                     z_resonance=0.0)
        assert scen.width == pytest.approx(0.3)
        scat = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, m_z=mz, z_resonance=0.0)
        assert scat.width == pytest.approx(0.3)


class TestBuildAnalytic:
    def test_rabi_maps_to_double_delta(self):
        scen = RabiDriveScenario(m_y=CUBIC, omega_f=1.0, omega=0.4, omega_21=4.0)
        kernel = build_analytic(scen)
        assert isinstance(kernel, DoubleDeltaKernel)
        assert kernel.atoms == ((-0.2, 0.5), (0.2, 0.5))

    def test_unstable_maps_to_lorentzian(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.3,
                                     lambda_i=0.7)
        kernel = build_analytic(scen)
        assert isinstance(kernel, LorentzianKernel)
        assert kernel.width == 0.3
        assert kernel.shift == 0.7

    def test_zero_width_degenerates_to_dirac(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.0)
        assert isinstance(build_analytic(scen), DiracKernel)
        scat = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=0.0)
        assert isinstance(build_analytic(scat), DiracKernel)

    def test_zero_width_with_shift_rejected(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.0,
                                     lambda_i=0.5)
        with pytest.raises(ValueError, match="fold the shift"):
            build_analytic(scen)

    def test_scattering_rate_form_goes_numeric(self):
        scen = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=0.3)
        kernel = build_analytic(scen)
        assert isinstance(kernel, NumericKernel)
        assert kernel.normalization_defect() < 1e-3

    def test_scattering_secondary_density_stays_closed_form(self):
        mz = FlatDensity(level=0.3 / np.pi, support=(-6.0, 6.0))
        scen = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, m_z=mz, z_resonance=0.0)
        kernel = build_analytic(scen)
        assert isinstance(kernel, LorentzianKernel)
        assert kernel.width == pytest.approx(0.3)


class TestAnalyticGamma:
    def test_rabi_cubic_reference(self):
        scen = RabiDriveScenario(m_y=CUBIC, omega_f=1.0, omega=0.4, omega_21=4.0)
        result = analytic_gamma(scen)
        assert result.gamma == pytest.approx(2.24 * np.pi, rel=1e-12)
        assert result.ratio == pytest.approx(1.12, rel=1e-12)

    def test_unstable_halfline_reference(self):
        dens = FlatDensity(level=1.0 / (2.0 * np.pi), support=(0.0, 1e4))
        scen = UnstableLevelScenario(m_y=dens, omega_f=10.0, lambda_r=1.0)
        expected = (np.arctan(10.0) + 0.5 * np.pi) / np.pi
        assert analytic_gamma(scen).gamma == pytest.approx(expected, rel=1e-4)
        assert expected == pytest.approx(0.96827, abs=5e-5)

    def test_shift_recenters_equivalently(self):
        dens = FlatDensity(level=1.0 / (2.0 * np.pi), support=(0.0, 1e4))
        shifted = UnstableLevelScenario(m_y=dens, omega_f=7.0, lambda_r=1.0,
                                        lambda_i=3.0)
        plain = UnstableLevelScenario(m_y=dens, omega_f=10.0, lambda_r=1.0)
        assert analytic_gamma(shifted).gamma == pytest.approx(
            analytic_gamma(plain).gamma, rel=1e-10
        )

    def test_rate_form_matches_closed_form(self):
        closed = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.3)
        numeric = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=0.3)
        ga = analytic_gamma(closed).gamma
        gb = analytic_gamma(numeric).gamma
        assert gb == pytest.approx(ga, rel=1e-4)

    def test_off_support_level_flagged(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=8.0, lambda_r=0.5)
        assert LEVEL_OFF_SUPPORT in analytic_gamma(scen).warnings

    def test_strong_drive_flagged(self):
        scen = RabiDriveScenario(m_y=FLAT_Y, omega_f=0.0, omega=0.6, omega_21=1.0)
        assert STRONG_DRIVE in analytic_gamma(scen).warnings

    def test_width_beyond_band_flagged_on_both_routes(self):
        # width 4 pi = 12.6 on a Z band 1 wide: the narrow band dresses the
        # mode into a pair, and its Lorentzian kernel misses the decay
        m_z = FlatDensity(level=4.0, support=(-0.5, 0.5))
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, m_z=m_z, z_resonance=0.0)
        analytic = analytic_gamma(scen)
        dynamic, _ = dynamic_gamma(scen, DynamicControls(n_y=200, n_z=40))
        assert WIDTH_BEYOND_BAND in analytic.warnings
        assert WIDTH_BEYOND_BAND in dynamic.warnings
        scattering = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, m_z=m_z, z_resonance=0.0)
        assert WIDTH_BEYOND_BAND in analytic_gamma(scattering).warnings

    @pytest.mark.parametrize("level, edge", [(0.3 / np.pi, 12.0), (3.0 / np.pi, 120.0)],
                             ids=["benchmark_cascade", "ci_zeno"])
    def test_width_inside_band_is_not_flagged(self, level, edge):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.05, z_resonance=0.0,
                                     m_z=FlatDensity(level=level, support=(-edge, edge)))
        assert analytic_gamma(scen).warnings == ()


class TestBuildDynamic:
    @pytest.mark.parametrize("name", ["rabi", *sorted(CASCADES)])
    def test_star_layout(self, name):
        # every Y mode carries an identical copy of one sector, the premise
        # of the memory-kernel route
        scen = CASCADES.get(name) or RabiDriveScenario(m_y=FLAT_Y, omega_f=0.2, omega=0.2,
                                                      omega_21=4.0)
        n_y, controls = 20, DynamicControls(n_z=10)
        model = build_dynamic(scen, replace(controls, n_y=n_y))
        if name == "zero_width":
            # no chain: the sector is the Y mode alone, with no trace model
            with pytest.raises(ValueError, match="nothing to build"):
                build_trace_model(scen, 1.0, controls)
            single = DiscretizedModel(h0_diag=np.full(2, scen.omega_f), v_xi=np.ones(1))
        else:
            single = build_trace_model(scen, 1.0, controls)
        states = single.dimension - 1
        assert model.dimension == 1 + n_y * states
        omega = discretize_continuum(scen.m_y, n_y)[0]
        np.testing.assert_array_equal(model.h0_diag[1 : 1 + n_y], omega)
        copies = [1 + k + n_y * np.arange(states) for k in range(n_y)]
        for k, copy in enumerate(copies):
            np.testing.assert_allclose(model.h0_diag[copy],
                                       single.h0_diag[1:] + (omega[k] - scen.omega_f),
                                       rtol=0, atol=1e-13)

        def couplings(m):
            return m.w_static, m.drive and m.drive.amplitude

        for mat, ref in zip(couplings(model), couplings(single)):
            assert (mat is None) == (ref is None)
            if mat is None:
                continue
            rows, cols = mat.nonzero()
            assert np.all((rows - 1) % n_y == (cols - 1) % n_y), "two copies are linked"
            for copy in copies:
                np.testing.assert_array_equal(mat[copy][:, copy].toarray(), ref[1:, 1:].toarray())
        if model.drive is not None:
            assert model.drive.frequency == single.drive.frequency == 4.0
            np.testing.assert_array_equal(np.abs(model.drive.amplitude.data), 0.2)

    def test_zero_width_degrades_to_pure_decay(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.0)
        model = build_dynamic(scen, DynamicControls(n_y=100))
        assert model.dimension == 101
        assert model.w_static is None

    def test_rate_form_has_no_dynamic_realization(self):
        scen = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=0.3)
        with pytest.raises(ValueError, match="no explicit environment"):
            build_dynamic(scen)
        with pytest.raises(ValueError, match="no explicit environment"):
            build_trace_model(scen, 10.0)

    def test_dimension_budget(self, monkeypatch):
        # 80401 states, 400 couplings and 400 copies of a 400-entry W
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.1)
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 1000)
        with pytest.raises(DimensionOverBudgetError,
                           match="^model needs 240801 points, at most 1000$"):
            build_dynamic(scen, DynamicControls(n_y=400, n_z=200))
        # 801 states, 400 couplings and 400 copies of a 2-entry drive, counted
        # alike before the model is built and when it is propagated
        driven = RabiDriveScenario(m_y=FLAT_Y, omega_f=0.2, omega=0.2, omega_21=4.0)
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 2000)
        with pytest.raises(DimensionOverBudgetError, match="^model needs 2001 points, at most 2000$"):
            build_dynamic(driven, DynamicControls(n_y=400))
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 2001)
        model = build_dynamic(driven, DynamicControls(n_y=400))
        assert model.dimension == 801
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 2000)
        with pytest.raises(DimensionOverBudgetError, match="^model needs 2001 points, at most 2000$"):
            survival_amplitude(model, 1.0)

    def test_model_of_sixty_thousand_states_builds(self):
        # 60,001 states, 150,001 stored entries: under the cap
        driven = RabiDriveScenario(m_y=FLAT_Y, omega_f=0.2, omega=0.2, omega_21=4.0)
        assert build_dynamic(driven, DynamicControls(n_y=30_000)).dimension == 60_001

    def test_modes_over_the_cap_are_refused_before_allocating(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.1)
        for controls, message in ((DynamicControls(n_y=10**7), "Y band needs 10000000 points"),
                                  (DynamicControls(n_z=10**7), "Z chain needs 10000000 points")):
            tracemalloc.start()
            try:
                with pytest.raises(DimensionOverBudgetError, match=message):
                    build_dynamic(scen, controls)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 10 * 2**20

    def test_trace_model_uses_single_fiducial_mode(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.1)
        model = build_trace_model(scen, 15.0)
        assert model.v_xi.size == 1
        assert model.h0_diag[1] == 0.0
        # secondary grid: max(requested, recurrence-clearing refinement)
        assert model.dimension == 102


class TestScenarioTrace:
    def test_no_loss_scenario_is_identically_one(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.0)
        trace = scenario_trace(scen, 10.0)
        np.testing.assert_array_equal(trace.values, 1.0)

    def test_explicit_zero_secondary_density(self):
        scen = UnstableLevelScenario(
            m_y=FLAT_Y, omega_f=0.0,
            m_z=FlatDensity(level=0.0, support=(-1.0, 1.0)), z_resonance=0.0,
        )
        trace = scenario_trace(scen, 8.0)
        assert np.abs(trace.values - 1.0).max() <= 1e-10

    def test_rate_form_synthesizes_exponential(self):
        scen = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=0.25)
        trace = scenario_trace(scen, 12.0)
        np.testing.assert_allclose(trace.values, np.exp(-0.25 * trace.times),
                                   atol=1e-12)
        assert trace.horizon >= 12.0

    def test_rate_form_refuses_overlong_grid_before_allocating(self):
        # 1.46e7 samples: dt * arange drifts past the 1e-9 uniformity test
        scen = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=1e4)
        tracemalloc.start()
        try:
            with pytest.raises(NonUniformGridError):
                scenario_trace(scen, 7.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_horizon_must_be_positive(self):
        scen = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, rate=0.25)
        with pytest.raises(ValueError):
            scenario_trace(scen, 0.0)

    @pytest.mark.parametrize("horizon", [-2.0, 0.0, np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["rabi", "cascade"])
    def test_amplitude_horizon_must_be_positive(self, kind, horizon):
        # a driven amplitude once ran backwards at a negative horizon
        scen = (RabiDriveScenario(m_y=FLAT_Y, omega_f=0.0, omega=0.1, omega_21=1.0)
                if kind == "rabi" else CASCADES["bare_width_with_shift"])
        with pytest.raises(ValueError, match="horizon must be positive"):
            scenario_amplitude(scen, horizon, DynamicControls(n_y=100))

    def test_cascade_trace_decays_at_half_width(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.1)
        trace = scenario_trace(scen, 15.0)
        k = np.searchsorted(trace.times, 10.0)
        assert abs(abs(trace.values[k]) - np.exp(-1.0)) < 0.01

    def test_level_shift_appears_as_phase(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.2,
                                     lambda_i=0.3)
        trace = scenario_trace(scen, 15.0)
        ref = np.exp(-(0.2 - 0.3j) * trace.times)
        assert np.abs(trace.values - ref).max() < 0.05

    def test_rabi_trace_follows_rwa_cosine(self):
        errors = {}
        for ratio in (0.02, 0.1):
            scen = RabiDriveScenario(m_y=FLAT_Y, omega_f=0.0, omega=ratio,
                                     omega_21=1.0)
            trace = scenario_trace(scen, 2.0 * np.pi / ratio)
            ref = np.cos(ratio * trace.times / 2.0)
            errors[ratio] = np.abs(trace.values - ref).max()
        # counter-rotating corrections grow with drive strength
        assert errors[0.02] < errors[0.1] < 0.05


class TestTwoRouteAgreement:
    def test_unstable_level(self):
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, lambda_r=0.3)
        analytic = analytic_gamma(scen)
        dynamic, diag = dynamic_gamma(scen, DynamicControls(n_y=120, n_z=80))
        assert dynamic.gamma == pytest.approx(analytic.gamma, rel=0.07)
        assert diag.residual_rms < 1e-3

    def test_scattering_with_explicit_environment(self):
        mz = FlatDensity(level=0.3 / np.pi, support=(-6.0, 6.0))
        scen = ScatteringScenario(m_y=FLAT_Y, omega_f=0.0, m_z=mz,
                                  z_resonance=0.0)
        analytic = analytic_gamma(scen)
        dynamic, _ = dynamic_gamma(scen, DynamicControls(n_y=120, n_z=80))
        assert dynamic.gamma == pytest.approx(analytic.gamma, rel=0.10)

    def test_rabi_drive(self):
        cubic = PowerLawDensity(amplitude=5e-4, exponent=3.0, support=(0.0, 2.0))
        scen = RabiDriveScenario(m_y=cubic, omega_f=1.0, omega=0.4, omega_21=5.0)
        analytic = analytic_gamma(scen)
        dynamic, diag = dynamic_gamma(scen, DynamicControls(n_y=150))
        assert dynamic.gamma == pytest.approx(analytic.gamma, rel=0.05)
        assert dynamic.method == "dynamic_fit"
        # a propagated amplitude has the norm-drift guard, not a step error
        assert diag.step_error is None

    def test_zeno_cascade_at_the_default_budget(self):
        # a Z kernel 10 wide against a Y band 10 wide: its Z chain refined to
        # clear 2.5 windows of recurrence, a model of 1.15 million states
        # that the memory-kernel route never builds
        width = 10.0
        scen = UnstableLevelScenario(
            m_y=FLAT_Y, omega_f=0.0, z_resonance=0.0,
            m_z=FlatDensity(level=width / np.pi, support=(-40.0 * width, 40.0 * width)))
        dynamic, diag = dynamic_gamma(scen, DynamicControls(n_y=120, n_z=9600))
        assert dynamic.gamma == pytest.approx(analytic_gamma(scen).gamma, rel=0.01)
        assert diag.step_error < 1e-4

    def test_explicit_window_needs_no_rate_integral(self, monkeypatch):
        # the rate integral only places a default window
        scen = CASCADES["bare_width_with_shift"]
        controls = DynamicControls(n_y=60, n_z=40, dt=0.05, fit_window=(5.0, 15.0))
        expected, _ = dynamic_gamma(scen, controls)

        def refuse(*args, **kwargs):
            raise AssertionError("the simulation route called the rate integral")

        monkeypatch.setattr(scenarios, "analytic_gamma", refuse)
        result, _ = dynamic_gamma(scen, controls)
        assert result.gamma == expected.gamma


class TestMemoryKernelRoute:
    SMALL = DynamicControls(n_y=20, n_z=10)

    @pytest.mark.parametrize("name", sorted(CASCADES))
    def test_amplitude_equals_propagated_full_model(self, name):
        scen = CASCADES[name]
        trace, (times, f_h, f_2h) = scenario_amplitude(scen, 10.0, self.SMALL)
        full = survival_amplitude(build_dynamic(scen, self.SMALL), 10.0)
        # the grid survival_amplitude samples, so fit windows select the
        # same samples
        np.testing.assert_array_equal(trace.times, full.times)
        # the trapezoid error at the default step is about 3e-7
        assert np.abs(trace.values - full.values).max() <= 1e-6
        assert trace.warnings == ()
        # the check's F_h is the trace's F wherever their times meet
        _, at_check, at_trace = np.intersect1d(times, trace.times, return_indices=True)
        assert at_check.size >= trace.times.size // 3
        np.testing.assert_array_equal(f_h[at_check], trace.values[at_trace])
        assert np.abs(f_h - f_2h).max() <= 4e-6

    def test_long_horizon_keeps_the_step(self):
        # past 4000 steps the samples thin out, but the solver still steps
        # at dt, so F stays as close to the propagated F as at short horizons
        scen = CASCADES["explicit_m_z_off_centre"]
        trace, (times, f_h, f_2h) = scenario_amplitude(scen, 300.0, self.SMALL)
        full = survival_amplitude(build_dynamic(scen, self.SMALL), 300.0)
        np.testing.assert_array_equal(trace.times, full.times)
        assert trace.times.size < 4001 and trace.times[1] > 0.05
        # the error grows with t, to 1.6e-6 at t = 300; with samples as
        # steps it would be 4e-3
        true_error = np.abs(trace.values - full.values).max()
        assert true_error <= 3e-6
        assert times.size >= trace.times.size
        assert 0.5 * true_error <= np.abs(f_h - f_2h).max() / 3.0 <= 2.0 * true_error
        assert trace.warnings == ()

    def test_amplitude_error_is_second_order_in_the_step(self):
        scen = CASCADES["explicit_m_z_off_centre"]
        errors = []
        for dt in (0.05, 0.025):
            controls = replace(self.SMALL, dt=dt)
            trace, _ = scenario_amplitude(scen, 10.0, controls)
            full = survival_amplitude(build_dynamic(scen, controls), 10.0, dt)
            errors.append(np.abs(trace.values - full.values).max())
        assert 3.0 < errors[0] / errors[1] < 5.0

    def test_full_cascade_is_never_built(self, monkeypatch):
        def refuse(model):
            raise AssertionError("a cascade built a DiscretizedModel")

        # no model of any size: F, D and the default step come from the sector
        monkeypatch.setattr(DiscretizedModel, "__post_init__", refuse)
        for scen in CASCADES.values():
            scenario_amplitude(scen, 5.0, self.SMALL)
            scenario_trace(scen, 5.0, self.SMALL)
            dynamic_gamma(scen, DynamicControls(n_y=60, n_z=40))

    @pytest.mark.parametrize("name", sorted(CASCADES) + ["off_centre_band"])
    def test_default_grid_is_the_propagated_models(self, name):
        # with dt unset, F and D take the samples propagation would take of
        # the full model and of the trace model
        scen = OFF_CENTRE_BAND if name == "off_centre_band" else CASCADES[name]
        trace, _ = scenario_amplitude(scen, 5.0, self.SMALL)
        full = survival_amplitude(build_dynamic(scen, self.SMALL), 5.0)
        np.testing.assert_array_equal(trace.times, full.times)
        if name != "zero_width":  # loses no coherence, so its D is synthesized
            model = build_trace_model(scen, 5.0, self.SMALL)
            np.testing.assert_array_equal(scenario_trace(scen, 5.0, self.SMALL).times,
                                          dissipation_trace(model, 5.0).times)

    def test_dimension_budget_leaves_the_kernel_route_alone(self):
        # the full model, 1 + 10**4 (1 + 10**4) states, is never built, so
        # the cap on its entries does not refuse the row
        scen = CASCADES["bare_width_with_shift"]
        controls = DynamicControls(n_y=10**4, n_z=10**4)
        result, _ = dynamic_gamma(scen, controls)
        assert result.gamma == pytest.approx(analytic_gamma(scen).gamma, rel=0.07)
        with pytest.raises(DimensionOverBudgetError,
                           match="^model needs 300030001 points, at most 4000000$"):
            build_dynamic(scen, controls)

    @pytest.mark.parametrize("quantity, n_y, n_z, dt, horizon, message", [
        ("F", 101, 10, None, 5.0, "Y band needs 101 points"),
        ("D", 20, 101, None, 5.0, "Z chain needs 101 points"),
        ("D", 20, 10, 0.05, 5.0, "memory-kernel solve needs 101 points"),
        ("D", 20, 10, 0.05, 4.95, "chirp-z sum needs 110 points"),
        ("F", 20, 10, 0.05, 4.0, "chirp-z sum needs 101 points"),
    ])
    def test_every_array_counts_against_the_cap(self, monkeypatch, quantity, n_y, n_z, dt,
                                                horizon, message):
        # a Z band 1 wide asks no sub-steps of a step of 0.05: D's solve has
        # n_dt + 1 points, its chirp-z sum n_z more and F's n_y more
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 100)
        scen = TestDissipationByKernel.NARROW
        controls = DynamicControls(n_y=n_y, n_z=n_z, dt=dt)
        run = scenario_trace if quantity == "D" else scenario_amplitude
        with pytest.raises(DimensionOverBudgetError, match=f"^{message}, at most 100$"):
            run(scen, horizon, controls)

    @pytest.mark.parametrize("n_y, n_z", [(10**7, 10), (20, 10**7)])
    def test_modes_over_the_cap_are_refused_before_allocating(self, n_y, n_z):
        scen = CASCADES["bare_width_with_shift"]
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverBudgetError, match="needs 10000000 points"):
                dynamic_gamma(scen, DynamicControls(n_y=n_y, n_z=n_z))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("dt", [None, 0.05])
    def test_step_error_estimates_the_true_error(self, dt):
        scen = CASCADES["bare_width_with_shift"]
        controls = DynamicControls(n_y=60, n_z=40, dt=dt)
        result, diag = dynamic_gamma(scen, controls)
        full = survival_amplitude(build_dynamic(scen, controls), diag.window[1], dt)
        propagated = fit_decay(full, diag.window)[0].gamma
        true_error = abs(result.gamma / propagated - 1.0)
        assert 0.5 * true_error <= diag.step_error <= 2.0 * true_error
        assert not any(flag.startswith(STEP_ERROR_WARNING) for flag in result.warnings)

    def test_coarse_step_is_flagged(self):
        scen = CASCADES["bare_width_with_shift"]
        result, diag = dynamic_gamma(scen, DynamicControls(n_y=60, n_z=40, dt=0.15))
        assert diag.step_error > 1e-4
        assert f"{STEP_ERROR_WARNING}={diag.step_error:.3g}" in result.warnings
        trace, _ = scenario_amplitude(scen, 10.0, DynamicControls(n_y=60, n_z=40, dt=0.15))
        (flag,) = trace.warnings
        assert flag.startswith(f"{STEP_ERROR_WARNING}=")

    def test_window_too_short_for_the_check_leaves_the_row_ok(self):
        # 10 samples at dt 0.05 fit; every other one is too few for the check
        scen = CASCADES["bare_width_with_shift"]
        controls = DynamicControls(n_y=60, n_z=40, dt=0.05, fit_window=(5.0, 5.45))
        result, diag = dynamic_gamma(scen, controls)
        assert diag.step_error is None
        assert not any(flag.startswith(STEP_ERROR_WARNING) for flag in result.warnings)
        assert result.gamma == pytest.approx(0.05, rel=0.2)

    def test_two_sample_grid_has_no_check(self):
        scen = CASCADES["bare_width_with_shift"]
        trace, check = scenario_amplitude(scen, 0.05, replace(self.SMALL, dt=0.04))
        assert trace.times.tolist() == [0.0, 0.05]
        assert check is None

    @pytest.mark.parametrize("n_y, dt, has_f_2h", [(200, 1.2, True), (400, 1.2, True),
                                                   (100, 0.8, False)])
    def test_check_that_bounds_nothing_leaves_the_row_ok(self, n_y, dt, has_f_2h):
        # K_0 = 4 on a band 1 wide: F at 2h is too rough to fit at n_y 200
        # and 400, where the row's own fit passes, and leaves |F| <= 1 at 100
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, z_resonance=0.0,
                                     m_z=FlatDensity(level=4.0, support=(-0.5, 0.5)))
        controls = DynamicControls(n_y=n_y, n_z=40, dt=dt)
        result, diag = dynamic_gamma(scen, controls)
        assert diag.residual_rms < 0.01
        assert diag.step_error == np.inf
        assert f"{STEP_ERROR_WARNING}=inf" in result.warnings
        _, (_, _, f_2h) = scenario_amplitude(scen, diag.window[1], controls)
        assert (f_2h is not None) == has_f_2h

    def test_doubled_step_beyond_unitarity_bounds_nothing(self):
        # a step of 8 against a Y band 10 wide lifts |F| above 1, so the
        # check has no F at 2h and flags the trace with an infinite error
        scen = CASCADES["explicit_m_z_off_centre"]
        trace, (_, _, f_2h) = scenario_amplitude(scen, 10.0, replace(self.SMALL, dt=4.0))
        assert f_2h is None
        assert trace.warnings == (f"{STEP_ERROR_WARNING}=inf",)


class TestDissipationByKernel:
    """D(tau) of one Y mode in its cascade sector, from its own memory kernel."""

    # the explicit band the benchmark's cascade gives its bare width 0.3
    BENCH_BAND = UnstableLevelScenario(
        m_y=FLAT_Y, omega_f=0.0, m_z=FlatDensity(level=0.3 / np.pi, support=(-12.0, 12.0)),
        z_resonance=0.0)
    # a band half as wide as its coupling is strong: the band sets the
    # sub-step, so the coupling outruns coarse steps
    NARROW = UnstableLevelScenario(
        m_y=FLAT_Y, omega_f=0.0, m_z=FlatDensity(level=0.5, support=(-0.5, 0.5)),
        z_resonance=0.0)

    @staticmethod
    def chain(scen, n_z, horizon, n_dt):
        """(n_dt, D at h, D at 2h) on the trace model's grid of about n_dt steps."""
        n_dt, _, d_h, d_2h = scenarios._chain_dissipation(
            scen, n_z, horizon, horizon / n_dt, (np.array([scen.omega_f]), ()))
        return n_dt, d_h, d_2h

    @staticmethod
    def propagated(scen, n_z, horizon, n_dt):
        single = scenarios._star_model(scen, (np.array([scen.omega_f]), np.array([1.0]), None),
                                       scenarios._sector(scen, n_z))
        return _sampled_dissipation(single, _uniform_grid(horizon, n_dt)).values

    @pytest.mark.parametrize("name", sorted(CASCADES))
    def test_equals_propagated_on_every_step(self, name):
        scen = CASCADES[name]
        n_dt, d_h, d_2h = self.chain(scen, 10, 10.0, 2000)
        assert n_dt == 2000
        assert np.abs(d_h - self.propagated(scen, 10, 10.0, 2000)).max() <= 1e-9
        assert d_2h.size == 1001

    @pytest.mark.parametrize("n_z, horizon", [(80, 31.0), (1500, 30.0)])
    def test_equals_propagated_on_the_benchmark_sectors(self, n_z, horizon):
        # the sweep row's and the chain's sectors, at their dt 0.002, whose
        # step counts round up to a multiple of their stride 7
        n_dt, d_h, _ = self.chain(self.BENCH_BAND, n_z, horizon, round(horizon / 0.002))
        assert n_dt in (15505, 15001)
        assert np.abs(d_h - self.propagated(self.BENCH_BAND, n_z, horizon, n_dt)).max() <= 1e-9

    def test_error_is_fourth_order_in_the_step(self):
        scen = CASCADES["explicit_m_z_off_centre"]
        errors = [np.abs(self.chain(scen, 10, 10.0, n_dt)[1]
                         - self.propagated(scen, 10, 10.0, n_dt)).max() for n_dt in (100, 200)]
        assert 12.0 <= errors[0] / errors[1] <= 20.0

    def test_coarse_step_takes_sub_steps(self):
        # a step of 5 against Z energies up to 2.3 from the resonance: D is
        # solved on 23 sub-steps a step (1.7e-5 off) and stays unitary
        scen = CASCADES["explicit_m_z_off_centre"]
        _, d_h, d_2h = self.chain(scen, 10, 10.0, 2)
        assert np.abs(d_h - self.propagated(scen, 10, 10.0, 2)).max() <= 1e-4
        assert d_2h.size == 2

    @pytest.mark.parametrize("dt", [None, 0.002])
    @pytest.mark.parametrize("name", sorted(set(CASCADES) - {"zero_width"}))
    def test_trace_equals_propagated_trace(self, name, dt):
        # at dt 0.002 the 5000 steps are sampled every other one
        scen = CASCADES[name]
        controls = DynamicControls(n_z=10, dt=dt)
        trace = scenario_trace(scen, 10.0, controls)
        full = dissipation_trace(build_trace_model(scen, 10.0, controls), 10.0, dt)
        np.testing.assert_array_equal(trace.times, full.times)
        assert np.abs(trace.values - full.values).max() <= 1e-9
        assert trace.warnings == ()

    @pytest.mark.parametrize("dt", [0.5, 1.0])
    def test_step_error_estimates_the_true_error(self, dt):
        controls = DynamicControls(n_z=40, dt=dt)
        trace = scenario_trace(self.NARROW, 20.0, controls)
        full = dissipation_trace(build_trace_model(self.NARROW, 20.0, controls), 20.0, dt)
        true_error = np.abs(trace.values - full.values).max()
        assert true_error > 1e-4
        (flag,) = trace.warnings
        name, value = flag.split("=")
        assert name == STEP_ERROR_WARNING
        assert 0.5 * true_error <= float(value) <= 2.0 * true_error

    def test_refined_chain_needs_no_dimension_budget(self, monkeypatch):
        # a chain of 10**4 Z modes: the trace model stores 30004 entries
        # (10002 states, its coupling, 2 10**4 Z couplings and the shift),
        # and only build_trace_model, which builds it, counts them; D's own
        # arrays are at most its 22103-point chirp-z sum
        scen = CASCADES["bare_width_with_shift"]
        controls = DynamicControls(n_z=10**4)
        expected = scenario_trace(scen, 20.0, controls)
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 30003)
        with pytest.raises(DimensionOverBudgetError,
                           match="^model needs 30004 points, at most 30003$"):
            build_trace_model(scen, 20.0, controls)
        np.testing.assert_array_equal(scenario_trace(scen, 20.0, controls).values,
                                      expected.values)

    def test_doubled_step_beyond_unitarity_is_flagged(self):
        # K_0 = 4 on a band 1 wide: the band asks no sub-steps of a step of
        # 1, and |G| stays below 1 there but not at a step of 2
        scen = UnstableLevelScenario(m_y=FLAT_Y, omega_f=0.0, z_resonance=0.0,
                                     m_z=FlatDensity(level=4.0, support=(-0.5, 0.5)))
        with pytest.raises(StepTooLargeError):
            scenarios._volterra_solve(2.0, np.full(3, 4.0 + 0j), np.zeros(3))
        _, _, d_2h = self.chain(scen, 40, 10.0, 10)
        assert d_2h is None
        assert scenario_trace(scen, 10.0, DynamicControls(n_z=40, dt=1.0)).warnings == (
            f"{STEP_ERROR_WARNING}=inf",)
