import numpy as np
import pytest
from scipy import sparse

from zenodecay.dynamics import (
    MICROMOTION_WARNING,
    AmplitudeTrace,
    DiscretizedModel,
    DriveTerm,
    build_decay_model,
    discretize_continuum,
    dissipation_trace,
    fit_decay,
    no_decay_amplitude,
    propagate,
)
from zenodecay.errors import (
    DimensionOverBudgetError,
    IllConditionedFitError,
    StepTooLargeError,
    VanishingDenominatorError,
    WindowBeyondRecurrenceError,
)
from zenodecay.spectral import FlatDensity


def pair_coupling(n, links, strength=0.2):
    rows, cols, vals = [], [], []
    for a, b, c in links:
        rows += [a, b]
        cols += [b, a]
        vals += [c, np.conj(c)]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def chain_model(rng, n=30, n_xi=15):
    h0 = np.concatenate(([0.5], rng.uniform(-1.0, 1.0, n - 1)))
    links = [
        (k - 1, k, 0.2 * rng.normal() + 0.1j * rng.normal())
        for k in range(n_xi + 1, n)
    ]
    return DiscretizedModel(
        h0_diag=h0,
        xi_indices=np.arange(1, n_xi + 1),
        eta_indices=np.arange(n_xi + 1, n),
        v_xi=(0.1 * rng.normal(size=n_xi)).astype(complex),
        w_static=pair_coupling(n, links),
    )


def two_level(coupling=0.3, energy=0.7):
    return DiscretizedModel(
        h0_diag=np.array([energy, energy]),
        xi_indices=np.array([1]),
        eta_indices=np.arange(0),
        v_xi=np.array([coupling + 0.0j]),
    )


class TestModelValidation:
    def test_bad_sector_partition(self):
        with pytest.raises(ValueError):
            DiscretizedModel(
                h0_diag=np.zeros(4),
                xi_indices=np.array([1, 2]),
                eta_indices=np.array([2, 3]),
                v_xi=np.zeros(2, dtype=complex),
            )

    def test_misaligned_couplings(self):
        with pytest.raises(ValueError):
            DiscretizedModel(
                h0_diag=np.zeros(3),
                xi_indices=np.array([1, 2]),
                eta_indices=np.arange(0),
                v_xi=np.zeros(3, dtype=complex),
            )

    def test_non_hermitian_w(self):
        w = sparse.csr_matrix(
            (np.array([0.5]), (np.array([1]), np.array([2]))), shape=(3, 3)
        )
        with pytest.raises(ValueError, match="Hermitian"):
            DiscretizedModel(
                h0_diag=np.zeros(3),
                xi_indices=np.array([1, 2]),
                eta_indices=np.arange(0),
                v_xi=np.zeros(2, dtype=complex),
                w_static=w,
            )

    def test_w_must_not_touch_initial_level(self):
        w = pair_coupling(3, [(0, 1, 0.5)])
        with pytest.raises(ValueError, match="initial level"):
            DiscretizedModel(
                h0_diag=np.zeros(3),
                xi_indices=np.array([1, 2]),
                eta_indices=np.arange(0),
                v_xi=np.zeros(2, dtype=complex),
                w_static=w,
            )

    def test_drive_rejects_negative_frequency(self):
        amp = pair_coupling(3, [(1, 2, 0.1)])
        with pytest.raises(ValueError):
            DriveTerm(amplitude=amp, frequency=-1.0)

    def test_properties(self):
        model = build_decay_model(
            FlatDensity(level=0.2, support=(-5.0, 5.0)), 0.0, 10
        )
        assert model.dimension == 11
        assert model.recurrence_time == pytest.approx(2.0 * np.pi)
        assert model.xi_span == pytest.approx(9.0)
        bare = two_level()
        assert bare.recurrence_time is None


class TestDiscretization:
    def test_midpoint_grid_and_couplings(self):
        dens = FlatDensity(level=0.2, support=(-5.0, 5.0))
        omega, couplings, spacing = discretize_continuum(dens, 10)
        assert spacing == pytest.approx(1.0)
        np.testing.assert_allclose(omega, np.arange(-4.5, 5.0, 1.0))
        np.testing.assert_allclose(couplings, np.sqrt(0.2))

    def test_needs_at_least_one_mode(self):
        with pytest.raises(ValueError):
            discretize_continuum(FlatDensity(level=1.0, support=(0.0, 1.0)), 0)

    def test_build_decay_model_layout(self):
        model = build_decay_model(
            FlatDensity(level=0.2, support=(-5.0, 5.0)), 0.3, 10
        )
        assert model.h0_diag[0] == 0.3
        np.testing.assert_array_equal(model.xi_indices, np.arange(1, 11))
        assert model.eta_indices.size == 0
        assert model.w_static is None


class TestPropagation:
    def test_two_level_cosine_exact(self):
        traj = propagate(two_level(), 12.0, 0.01)
        trace = no_decay_amplitude(traj, 0.7)
        assert np.abs(trace.values - np.cos(0.3 * trace.times)).max() < 1e-12

    def test_rk4_matches_eig_path(self):
        model = chain_model(np.random.default_rng(7))
        tr_eig = propagate(model, 5.0, 0.005)
        tr_rk4 = propagate(model, 5.0, 0.005, eig_cutoff=0)
        np.testing.assert_array_equal(tr_eig.times, tr_rk4.times)
        assert np.abs(tr_eig.states - tr_rk4.states).max() < 1e-9

    def test_rk4_time_reversal(self):
        model = chain_model(np.random.default_rng(7))
        fwd = propagate(model, 5.0, 0.005, eig_cutoff=0)
        back = propagate(
            model, -5.0, -0.005, eig_cutoff=0, initial_state=fwd.states[-1]
        )
        psi0 = np.zeros(model.dimension, dtype=complex)
        psi0[0] = 1.0
        assert np.abs(back.states[-1] - psi0).max() < 1e-10

    def test_zero_frequency_drive_equals_static_w(self):
        rng = np.random.default_rng(7)
        static = chain_model(rng)
        driven = DiscretizedModel(
            h0_diag=static.h0_diag,
            xi_indices=static.xi_indices,
            eta_indices=static.eta_indices,
            v_xi=static.v_xi,
            drive=DriveTerm(amplitude=static.w_static, frequency=0.0),
        )
        tr_static = propagate(static, 5.0, 0.005)
        tr_driven = propagate(driven, 5.0, 0.005)
        assert np.abs(tr_static.states - tr_driven.states).max() < 1e-9

    def test_initial_sample_is_exact(self):
        traj = propagate(two_level(), 3.0)
        assert traj.states[0, 0] == 1.0 + 0.0j
        assert traj.states[0, 1] == 0.0 + 0.0j

    def test_sample_grid_stays_uniform(self):
        traj = propagate(two_level(), 3.0, 0.001, sample_stride=7)
        steps = np.diff(traj.times)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)
        assert traj.times[-1] == pytest.approx(3.0)

    def test_last_sample_is_the_horizon(self):
        # the grid has 6201 steps, and 6201 * (12.4 / 6201) is one ulp below 12.4
        assert propagate(two_level(), 12.4, 0.002).times[-1] == 12.4
        density = FlatDensity(level=0.05 / (2 * np.pi), support=(-5.0, 5.0))
        model = build_decay_model(density, 0.0, 200)
        trace = no_decay_amplitude(propagate(model, 12.4, 0.002), 0.0)
        result, _ = fit_decay(trace, (2.0, 12.4), recurrence_time=model.recurrence_time)
        assert result.gamma == pytest.approx(0.05, rel=0.05)

    def test_dt_above_stability_bound(self):
        with pytest.raises(ValueError, match="stability bound"):
            propagate(two_level(energy=10.0), 5.0, 0.1)

    def test_dt_sign_must_match_horizon(self):
        with pytest.raises(ValueError):
            propagate(two_level(), 5.0, -0.01)
        with pytest.raises(ValueError):
            propagate(two_level(), 0.0)

    def test_dimension_budget(self):
        model = chain_model(np.random.default_rng(7))
        with pytest.raises(DimensionOverBudgetError):
            propagate(model, 1.0, dim_budget=10)

    def test_norm_drift_guard_trips_on_stiff_graph(self):
        # a star of 62 leaves oscillates at sqrt(62) times the entry scale,
        # so a step chosen from the entry scale is far too coarse
        n = 64
        leaves = np.arange(2, n)
        links = [(1, int(k), 1.0) for k in leaves]
        star = DiscretizedModel(
            h0_diag=np.zeros(n),
            xi_indices=np.array([1]),
            eta_indices=leaves,
            v_xi=np.array([1e-6 + 0.0j]),
            w_static=pair_coupling(n, links),
        )
        center = np.zeros(n, dtype=complex)
        center[1] = 1.0
        with pytest.raises(StepTooLargeError):
            propagate(star, 20.0, 0.05, initial_state=center, eig_cutoff=0)


class TestAmplitudeTrace:
    def test_requires_unit_start(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            AmplitudeTrace(times=t, values=np.full(10, 0.5 + 0j))
        with pytest.raises(ValueError):
            AmplitudeTrace(times=t + 1.0, values=np.ones(10, dtype=complex))

    def test_rejects_amplitude_above_one(self):
        t = np.linspace(0.0, 1.0, 10)
        values = np.ones(10, dtype=complex)
        values[5] = 1.1
        with pytest.raises(ValueError):
            AmplitudeTrace(times=t, values=values)


class TestFitDecay:
    @staticmethod
    def synthetic(gamma_complex, horizon=20.0, n=2001):
        t = np.linspace(0.0, horizon, n)
        return AmplitudeTrace(times=t, values=np.exp(-gamma_complex * t))

    def test_recovers_complex_rate(self):
        trace = self.synthetic(0.05 + 0.3j)
        result, diag = fit_decay(trace, (2.0, 15.0), gamma0=0.2)
        assert result.gamma == pytest.approx(0.1, rel=1e-10)
        assert result.ratio == pytest.approx(0.5, rel=1e-10)
        assert result.method == "dynamic_fit"
        assert diag.gamma_complex == pytest.approx(0.05 + 0.3j, rel=1e-10)
        assert diag.residual_rms < 1e-10

    def test_ratio_absent_without_reference(self):
        result, _ = fit_decay(self.synthetic(0.05), (2.0, 15.0))
        assert result.ratio is None

    def test_window_validation(self):
        trace = self.synthetic(0.05)
        with pytest.raises(ValueError):
            fit_decay(trace, (5.0, 5.0))
        with pytest.raises(ValueError):
            fit_decay(trace, (2.0, 30.0))

    def test_window_beyond_recurrence(self):
        trace = self.synthetic(0.05)
        with pytest.raises(WindowBeyondRecurrenceError):
            fit_decay(trace, (2.0, 11.0), recurrence_time=20.0)

    def test_too_few_samples(self):
        trace = self.synthetic(0.05, horizon=20.0, n=21)
        with pytest.raises(ValueError, match="8 samples"):
            fit_decay(trace, (2.0, 7.5))

    def test_vanishing_amplitude_rejected(self):
        trace = self.synthetic(2.0, horizon=8.0)
        with pytest.raises(ValueError, match="1e-6"):
            fit_decay(trace, (0.5, 8.0))

    def test_noisy_phase_rejected(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 20.0, 501)
        phase = rng.normal(0.0, 0.5, t.size)
        phase[0] = 0.0
        values = np.exp(-0.05 * t + 1j * phase)
        trace = AmplitudeTrace(times=t, values=values)
        with pytest.raises(IllConditionedFitError):
            fit_decay(trace, (2.0, 18.0))


class TestFlatContinuumRate:
    def test_rate_independent_of_grid_refinement(self):
        dens = FlatDensity(level=0.01 / (2.0 * np.pi), support=(-5.0, 5.0))
        gammas = []
        for n in (300, 600):
            model = build_decay_model(dens, 0.0, n)
            traj = propagate(model, 80.0)
            trace = no_decay_amplitude(traj, 0.0)
            result, diag = fit_decay(
                trace, (1.0, 75.0), recurrence_time=model.recurrence_time
            )
            assert diag.residual_rms < 1e-3
            gammas.append(result.gamma)
        for gamma in gammas:
            assert gamma == pytest.approx(0.01, rel=2e-3)
        assert gammas[0] == pytest.approx(gammas[1], rel=1e-4)

    def test_coarse_grid_blocks_long_windows(self):
        dens = FlatDensity(level=0.01 / (2.0 * np.pi), support=(-5.0, 5.0))
        model = build_decay_model(dens, 0.0, 60)
        traj = propagate(model, 80.0)
        trace = no_decay_amplitude(traj, 0.0)
        with pytest.raises(WindowBeyondRecurrenceError):
            fit_decay(trace, (1.0, 75.0), recurrence_time=model.recurrence_time)


class TestDissipationTrace:
    def test_no_interaction_gives_unity(self):
        model = DiscretizedModel(
            h0_diag=np.array([0.0, 0.3, 1.1 * np.sqrt(2.0), np.e]),
            xi_indices=np.array([1, 2, 3]),
            eta_indices=np.arange(0),
            v_xi=np.array([0.5, 0.4, 0.3], dtype=complex),
        )
        trace = dissipation_trace(model, 10.0)
        assert np.abs(trace.values - 1.0).max() <= 1e-10

    def test_requires_coupling_and_positive_horizon(self):
        model = two_level()
        with pytest.raises(ValueError):
            dissipation_trace(model, -1.0)
        silent = DiscretizedModel(
            h0_diag=np.zeros(2),
            xi_indices=np.array([1]),
            eta_indices=np.arange(0),
            v_xi=np.array([0.0 + 0.0j]),
        )
        with pytest.raises(ValueError):
            dissipation_trace(silent, 1.0)

    def test_vanishing_denominator(self):
        model = DiscretizedModel(
            h0_diag=np.array([0.0, 0.0, np.pi]),
            xi_indices=np.array([1, 2]),
            eta_indices=np.arange(0),
            v_xi=np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
        )
        # the free overlap (1 + exp(-i pi tau))/2 crosses zero at tau = 1
        with pytest.raises(VanishingDenominatorError):
            dissipation_trace(model, 2.0, 0.01)

    def test_driven_pair_micromotion_warning(self):
        drive = DriveTerm(
            amplitude=pair_coupling(3, [(1, 2, 0.1)]), frequency=1.0
        )
        model = DiscretizedModel(
            h0_diag=np.array([0.0, 2.0, 1.0]),
            xi_indices=np.array([1]),
            eta_indices=np.array([2]),
            v_xi=np.array([1.0 + 0.0j]),
            drive=drive,
        )
        trace = dissipation_trace(model, 60.0)
        assert any(flag.startswith(MICROMOTION_WARNING) for flag in trace.warnings)
        ref = np.cos(0.1 * trace.times / 2.0)
        assert np.abs(trace.values - ref).max() < 0.05

    def test_dimension_budget(self):
        model = chain_model(np.random.default_rng(7))
        with pytest.raises(DimensionOverBudgetError):
            dissipation_trace(model, 1.0, dim_budget=10)
