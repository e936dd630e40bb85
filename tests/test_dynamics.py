import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import linalg, sparse
from scipy.integrate import solve_ivp

from zenodecay import dynamics
from zenodecay.dynamics import (
    MICROMOTION_WARNING,
    AmplitudeTrace,
    DiscretizedModel,
    DriveTerm,
    build_decay_model,
    discretize_continuum,
    dissipation_trace,
    fit_decay,
    memory_kernel_amplitude,
    no_decay_amplitude,
    propagate,
    survival_amplitude,
)
from zenodecay.errors import (
    DimensionOverBudgetError,
    IllConditionedFitError,
    NonUniformGridError,
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
        v_xi=(0.1 * rng.normal(size=n_xi)).astype(complex),
        w_static=pair_coupling(n, links),
    )


def zero_frequency_twin(model, frequency=0.0):
    """W carried as a drive; at frequency 0 the Hamiltonian is the same."""
    n = model.dimension
    w = model.w_static if model.w_static is not None else sparse.csr_matrix((n, n))
    return DiscretizedModel(
        h0_diag=model.h0_diag,
        v_xi=model.v_xi,
        drive=DriveTerm(amplitude=w, frequency=frequency),
    )


def dense_static(model):
    """The time-independent Hamiltonian H0 + V + W_static as a dense matrix."""
    h = np.diag(model.h0_diag).astype(complex)
    xi = np.arange(1, model.v_xi.size + 1)
    h[xi, 0] = model.v_xi
    h[0, xi] = np.conj(model.v_xi)
    if model.w_static is not None:
        h += model.w_static.toarray()
    return h


def eigh_states(model, times, psi0):
    """Dense reference: exp(-i H t) psi0 from the eigendecomposition of H."""
    energies, vectors = linalg.eigh(dense_static(model))
    coeffs = vectors.conj().T @ psi0
    return (np.exp(-1j * np.outer(times, energies)) * coeffs) @ vectors.T


def two_level(coupling=0.3, energy=0.7):
    return DiscretizedModel(
        h0_diag=np.array([energy, energy]),
        v_xi=np.array([coupling + 0.0j]),
    )


class TestModelValidation:
    def test_bad_sector_partition(self):
        # the decay modes are states 1..len(v_xi), one amplitude each
        with pytest.raises(ValueError, match="v_xi"):
            DiscretizedModel(h0_diag=np.zeros(4), v_xi=np.zeros((2, 1)))

    def test_misaligned_couplings(self):
        # more decay amplitudes than states beside the initial level
        with pytest.raises(ValueError, match="v_xi"):
            DiscretizedModel(
                h0_diag=np.zeros(3),
                v_xi=np.zeros(3, dtype=complex),
            )

    def test_non_hermitian_w(self):
        w = sparse.csr_matrix(
            (np.array([0.5]), (np.array([1]), np.array([2]))), shape=(3, 3)
        )
        with pytest.raises(ValueError, match="Hermitian"):
            DiscretizedModel(
                h0_diag=np.zeros(3),
                v_xi=np.zeros(2, dtype=complex),
                w_static=w,
            )

    def test_w_must_not_touch_initial_level(self):
        w = pair_coupling(3, [(0, 1, 0.5)])
        with pytest.raises(ValueError, match="initial level"):
            DiscretizedModel(
                h0_diag=np.zeros(3),
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
        bare = two_level()
        assert bare.recurrence_time is None

    def test_caller_arrays_stay_writeable(self):
        h0, v = np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5], dtype=complex)
        model = DiscretizedModel(h0_diag=h0, v_xi=v)
        assert h0.flags.writeable and v.flags.writeable
        assert not model.h0_diag.flags.writeable and not model.v_xi.flags.writeable
        h0[1] = 7.0
        assert model.h0_diag[1] == 1.0


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
        np.testing.assert_array_equal(model.h0_diag[1:], np.arange(-4.5, 5.0, 1.0))
        assert model.w_static is None


class TestPropagation:
    def test_two_level_cosine_exact(self):
        traj = propagate(two_level(), 12.0, 0.01)
        trace = no_decay_amplitude(traj, 0.7)
        assert np.abs(trace.values - np.cos(0.3 * trace.times)).max() < 1e-12

    @pytest.mark.parametrize("twin", [False, True], ids=["static", "zero_frequency_drive"])
    def test_time_reversal(self, twin):
        model = chain_model(np.random.default_rng(7))
        if twin:
            model = zero_frequency_twin(model)
        fwd = propagate(model, 5.0, 0.005)
        back = propagate(model, -5.0, -0.005, initial_state=fwd.states[-1])
        psi0 = np.zeros(model.dimension, dtype=complex)
        psi0[0] = 1.0
        assert np.abs(back.states[-1] - psi0).max() < 1e-10

    def test_zero_frequency_drive_equals_static_w(self):
        static = chain_model(np.random.default_rng(7))
        tr_static = propagate(static, 5.0, 0.005)
        tr_driven = propagate(zero_frequency_twin(static), 5.0, 0.005)
        assert np.abs(tr_static.states - tr_driven.states).max() < 1e-9

    def test_static_path_ignores_global_rng(self):
        # a randomized 1-norm estimator (expm_multiply's) would draw from
        # numpy's global RNG; the sampled states must not depend on its state
        density = FlatDensity(level=0.05 / (2 * np.pi), support=(-5.0, 5.0))
        cases = [(chain_model(np.random.default_rng(7)), 40.0),
                 (build_decay_model(density, 0.0, 600), 12.4)]
        saved = np.random.get_state()
        try:
            for model, horizon in cases:
                runs = []
                for seed in (0, 1, 2):
                    np.random.seed(seed)
                    runs.append(propagate(model, horizon, horizon / 300).states)
                for states in runs[1:]:
                    assert np.array_equal(states, runs[0])
        finally:
            np.random.set_state(saved)

    def test_initial_sample_is_exact(self):
        traj = propagate(two_level(), 3.0)
        assert traj.states[0, 0] == 1.0 + 0.0j
        assert traj.states[0, 1] == 0.0 + 0.0j

    def test_sample_grid_stays_uniform(self):
        # 29,999 steps of dt take a stride of 14, rounded up to 30,002 steps
        traj = propagate(two_level(), 3.0, 3.0 / 29_999)
        assert traj.times.size == 2144
        steps = np.diff(traj.times)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)
        assert traj.times[-1] == 3.0

    def test_last_sample_is_the_horizon(self):
        # the grid has 6201 steps, and 6201 * (12.4 / 6201) is one ulp below 12.4
        assert propagate(two_level(), 12.4, 0.002).times[-1] == 12.4
        density = FlatDensity(level=0.05 / (2 * np.pi), support=(-5.0, 5.0))
        model = build_decay_model(density, 0.0, 200)
        trace = no_decay_amplitude(propagate(model, 12.4, 0.002), 0.0)
        result, _ = fit_decay(trace, (2.0, 12.4), recurrence_time=model.recurrence_time)
        assert result.gamma == pytest.approx(0.05, rel=0.05)

    @staticmethod
    def driven_error(monkeypatch, phase_step=None):
        """Largest state error of the driven chain at dt = 0.5 against DOP853."""
        if phase_step is not None:
            monkeypatch.setattr(dynamics, "_DRIVE_PHASE_STEP", phase_step)
        model = zero_frequency_twin(chain_model(np.random.default_rng(7)), 1.3)
        traj = propagate(model, 20.0, 0.5)
        static = dense_static(model)
        drive = model.drive.amplitude.toarray()
        psi0 = np.zeros(model.dimension, dtype=complex)
        psi0[0] = 1.0
        reference = solve_ivp(
            lambda t, y: -1j * ((static + np.cos(1.3 * t) * drive) @ y),
            (0.0, 20.0), psi0, method="DOP853", t_eval=traj.times,
            rtol=1e-13, atol=1e-13,
        ).y.T
        return np.abs(traj.states - reference).max()

    def test_driven_dt_sets_only_the_sample_grid(self, monkeypatch):
        # a sample spacing of 0.5 at drive frequency 1.3 takes two CF4:2 steps
        assert self.driven_error(monkeypatch) < 1e-6

    def test_driven_step_is_fourth_order(self, monkeypatch):
        # phase 0.25 takes 3 steps per sample and 0.125 takes 6: half the step
        coarse = self.driven_error(monkeypatch, 0.25)
        fine = self.driven_error(monkeypatch, 0.125)
        assert fine * 8.0 < coarse

    # the 1-norm of a two-level generator is its spectral radius, so theta_m
    # has no slack here; the last sample spacing is theta_30, and a series
    # trusted 1.5 times as far as theta_m errs by 4e-12 there
    @pytest.mark.parametrize("coupling, horizon, dt",
                             [(0.3, 5.0, 0.1), (1.0, 40.0, 0.5), (1.0, 35.4, 3.54)])
    def test_static_dt_sets_only_the_sample_grid(self, coupling, horizon, dt):
        traj = propagate(two_level(coupling=coupling, energy=10.0), horizon, dt)
        t = traj.times
        assert t.size == round(horizon / dt) + 1
        exact = np.column_stack([np.cos(coupling * t), -1j * np.sin(coupling * t)])
        exact *= np.exp(-10j * t)[:, None]
        assert np.abs(traj.states - exact).max() < 1e-12

    def test_dt_sign_must_match_horizon(self):
        with pytest.raises(ValueError):
            propagate(two_level(), 5.0, -0.01)
        with pytest.raises(ValueError):
            propagate(two_level(), 0.0)

    def test_dimension_budget(self, monkeypatch):
        # 30 states, 15 couplings and 28 nonzeros of W; 51 samples of 30 states
        model = chain_model(np.random.default_rng(7))
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 72)
        with pytest.raises(DimensionOverBudgetError, match="^model needs 73 points, at most 72$"):
            propagate(model, 1.0)
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 1529)
        with pytest.raises(DimensionOverBudgetError,
                           match="^state matrix needs 1530 points, at most 1529$"):
            propagate(model, 1.0)
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 1530)
        assert propagate(model, 1.0).states.shape == (51, 30)

    def test_state_matrix_over_the_cap_is_refused_before_allocating(self):
        # 4000 samples of 2001 states: the matrix alone would take 128 MB
        model = build_decay_model(FlatDensity(level=0.05, support=(-1.0, 1.0)), 0.0, 2000)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverBudgetError,
                               match="^state matrix needs 8004000 points, at most 4000000$"):
                propagate(model, 8.0, 8.0 / 3999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("frequency", [None, 1.3], ids=["static", "driven"])
    def test_norm_drift_guard_trips_on_overstated_theta(self, monkeypatch, frequency):
        # a degree-2 series trusted out to ||A|| t = 10 outruns its step
        monkeypatch.setattr(dynamics, "_TAYLOR_THETA", {2: 10.0})
        model = chain_model(np.random.default_rng(7))
        if frequency is not None:
            model = zero_frequency_twin(model, frequency)
        with pytest.raises(StepTooLargeError):
            propagate(model, 20.0, 0.5)


class TestTaylorPropagator:
    @staticmethod
    def initial(model):
        psi0 = np.zeros(model.dimension, dtype=complex)
        psi0[0] = 1.0
        return psi0

    # theta_55 = 9.9, so x up to 1e3 takes up to about 100 substeps
    @given(x=st.floats(0.0, 1e3))
    @example(x=0.0).via("no motion")
    @example(x=9.9).via("theta_55 itself")
    @example(x=500.0).via("far past theta_55")
    def test_taylor_plan_invariants(self, x):
        m, s = dynamics._taylor_plan(x)
        assert s >= 1 and s * dynamics._TAYLOR_THETA[m] >= x
        # the fewest sparse products of any degree whose substeps cover x
        fewest = min(
            degree * substeps
            for degree, theta in dynamics._TAYLOR_THETA.items()
            for substeps in range(1, 1200)
            if substeps * theta >= x
        )
        assert m * s == fewest

    @given(m=st.sampled_from([1, 8, 30, 55]), n=st.integers(1, 40),
           density=st.floats(0.05, 1.0), fraction=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(m=55, n=40, density=1.0, fraction=1.0, seed=0).via("55! ~ 1e73 at theta_55")
    def test_horner_sum_equals_the_taylor_sum(self, m, n, density, fraction, seed):
        # one exponential of degree m of a generator B with ||B||_1 up to
        # theta_m, the most a degree-m series is handed; the scales
        # m!/(p-1)! must neither overflow nor cost accuracy
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        b = np.where(mask, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)
        # no diagonal, so the mean-diagonal shift is 0 and the generator
        # -i static over a unit step is B itself
        np.fill_diagonal(b, 0.0)
        if b.any():
            b *= fraction * dynamics._TAYLOR_THETA[m] / np.abs(b).sum(axis=0).max()
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_taylor_plan", lambda x: (m, 1))
            # B is not anti-Hermitian, so the norm is free to move
            patch.setattr(dynamics, "_NORM_DRIFT_LIMIT", np.inf)
            states = list(dynamics._taylor_states(sparse.csr_matrix(1j * b), None, psi,
                                                  np.array([0.0, 1.0])))
        term, total, size = psi.copy(), psi.copy(), np.linalg.norm(psi)
        for p in range(1, m + 1):
            term = b @ term / p
            total += term
            size += np.linalg.norm(term)
        # relative to the sum of the terms' norms, which bounds the rounding
        # of either sum
        assert np.linalg.norm(states[1] - total) <= 1e-14 * size

    @pytest.mark.parametrize("frequency", [None, 1.3], ids=["static", "driven"])
    def test_product_count(self, monkeypatch, frequency):
        # a static sample is one exponential; a driven one is two per CF4:2
        # step, and at omega_d 1.3 a spacing of 0.5 takes two steps
        model = chain_model(np.random.default_rng(7))
        exponentials = 1
        if frequency is not None:
            model = zero_frequency_twin(model, frequency)
            exponentials = 2 * 2
        plans, products = [], []
        plan, matvec = dynamics._taylor_plan, dynamics.csr_matvec
        monkeypatch.setattr(dynamics, "_taylor_plan", lambda x: plans.append(plan(x)) or plans[-1])
        monkeypatch.setattr(dynamics, "csr_matvec",
                            lambda *args: products.append(1) or matvec(*args))
        samples = propagate(model, 20.0, 0.5).times.size
        ((m, s),) = plans
        assert samples == 41
        assert len(products) == (samples - 1) * exponentials * m * s

    # at |dt| = 0.5 each sample is one expansion; at dt = 20 one sample
    # spacing is past theta_55, so it takes substeps
    @pytest.mark.parametrize("horizon, dt", [(40.0, 0.5), (-40.0, -0.5), (60.0, 20.0)],
                             ids=["forward", "backward", "substeps"])
    def test_matches_dense_eigh(self, horizon, dt):
        model = chain_model(np.random.default_rng(7))
        traj = propagate(model, horizon, dt)
        if dt > 1.0:
            # one sample spacing is past theta_55 = 9.9 in the 1-norm, so
            # every sample takes several substeps
            h = np.diag(model.h0_diag) + np.abs(model.w_static.toarray())
            xi = np.arange(1, model.v_xi.size + 1)
            h[xi, 0] = h[0, xi] = np.abs(model.v_xi)
            shifted = h - np.mean(model.h0_diag) * np.eye(model.dimension)
            assert np.abs(shifted).sum(axis=0).max() * dt > 9.9
        reference = eigh_states(model, traj.times, self.initial(model))
        assert np.abs(traj.states - reference).max() < 1e-12

    def test_bare_decay_matches_dense_eigh(self):
        density = FlatDensity(level=0.05 / (2 * np.pi), support=(-5.0, 5.0))
        model = build_decay_model(density, 0.3, 300)
        traj = propagate(model, 30.0)
        reference = eigh_states(model, traj.times, self.initial(model))
        assert np.abs(traj.states - reference).max() < 1e-12

    @given(n=st.integers(1, 50), density=st.floats(0.0, 1.0),
           index_dtype=st.sampled_from([np.int32, np.int64]),
           seed=st.integers(0, 2**32 - 1))
    def test_matvec_matches_scipy_product_bit_for_bit(self, n, density, index_dtype, seed):
        # every Taylor power calls scipy's private csr_matvec, which adds
        # A x into its output; a release that changes that kernel must fail
        # here rather than drift
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        mask[rng.integers(n)] = False
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        # each row's columns in random order: unsorted indices
        indices = np.concatenate([rng.permutation(np.flatnonzero(row)) for row in mask])
        data = rng.normal(size=indices.size) + 1j * rng.normal(size=indices.size)
        mat = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        mat.indptr = mat.indptr.astype(index_dtype)
        mat.indices = mat.indices.astype(index_dtype)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = np.zeros(n, dtype=complex)
        dynamics.csr_matvec(n, n, mat.indptr, mat.indices, mat.data, x, out)
        assert out.tobytes() == (mat @ x).tobytes()
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = y.copy()
        dynamics.csr_matvec(n, n, mat.indptr, mat.indices, mat.data, x, out)
        scale = np.abs(y) + abs(mat) @ np.abs(x)
        assert np.all(np.abs(out - (y + mat @ x)) <= 1e-13 * scale)

    @given(n=st.integers(3, 30), drive=st.sampled_from(["overlap", "disjoint", "empty",
                                                        "zeroed_diagonal"]),
           c=st.floats(-1.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_fused_drive_data_matches_separate_products(self, n, drive, c, seed):
        rng = np.random.default_rng(seed)

        def links(offset):
            return [(k, k + offset, rng.normal() + 1j * rng.normal()) for k in range(n - offset)]

        # equal diagonal entries but two, set off symmetrically: the mean is
        # exact, and the shift clears every other diagonal entry
        diagonal = np.full(n, 0.25)
        diagonal[0] += 0.125
        diagonal[-1] -= 0.125
        static = sparse.diags(diagonal.astype(complex), format="csr") + pair_coupling(n, links(1))
        shift = float(static.diagonal().real.mean())
        half = 0.5 * (-1j) * (static - shift * sparse.identity(n, format="csr"))
        # the shift left no stored entry at (1, 1)
        assert 1 not in half.indices[half.indptr[1]:half.indptr[2]]
        amplitude = {
            "overlap": pair_coupling(n, links(1)),
            "disjoint": pair_coupling(n, links(2)),
            "empty": sparse.csr_matrix((n, n), dtype=complex),
            "zeroed_diagonal": sparse.csr_matrix(([rng.normal()], ([1], [1])), shape=(n, n)),
        }[drive] * (-1j)
        indptr, indices, h_data, x_data = dynamics._shared_pattern(half, amplitude)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        fused = sparse.csr_matrix((h_data + c * x_data, indices, indptr), shape=(n, n)) @ v
        separate = (half @ v, c * (amplitude @ v))
        scale = sum(np.linalg.norm(part) for part in separate)
        assert np.linalg.norm(fused - sum(separate)) <= 1e-13 * scale

    @pytest.mark.parametrize("frequency", [None, 1.3], ids=["static", "driven"])
    def test_survival_amplitude_equals_full_trajectory(self, frequency):
        model = chain_model(np.random.default_rng(7))
        if frequency is not None:
            model = zero_frequency_twin(model, frequency)
        trace = survival_amplitude(model, 20.0, 0.005)
        full = no_decay_amplitude(propagate(model, 20.0, 0.005), model.h0_diag[0])
        assert np.array_equal(trace.times, full.times)
        assert np.array_equal(trace.values, full.values)

    @pytest.mark.parametrize("frequency", [None, 1.3], ids=["static", "driven"])
    def test_survival_amplitude_keeps_no_state_matrix(self, frequency):
        density = FlatDensity(level=0.05 / (2 * np.pi), support=(-5.0, 5.0))
        model = build_decay_model(density, 0.0, 2000)
        if frequency is not None:
            # the drive exchanges neighbouring modes
            links = [(k, k + 1, 0.01) for k in range(1, model.dimension - 1, 2)]
            drive = DriveTerm(pair_coupling(model.dimension, links), frequency)
            model = replace(model, drive=drive)
        tracemalloc.start()
        try:
            trace = survival_amplitude(model, 8.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        samples = trace.times.size
        assert samples > 1900
        assert peak < samples * model.dimension * 16 / 10


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

    def test_caller_arrays_stay_writeable(self):
        t, values = np.linspace(0.0, 1.0, 5), np.full(5, 1.0 + 0j)
        trace = AmplitudeTrace(times=t, values=values)
        assert t.flags.writeable and values.flags.writeable
        assert not trace.times.flags.writeable and not trace.values.flags.writeable
        values[1] = 0.5
        assert trace.values[1] == 1.0


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
            trace = survival_amplitude(model, 80.0)
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
        trace = survival_amplitude(model, 80.0)
        with pytest.raises(WindowBeyondRecurrenceError):
            fit_decay(trace, (1.0, 75.0), recurrence_time=model.recurrence_time)


class TestDissipationTrace:
    def test_no_interaction_gives_unity(self):
        model = DiscretizedModel(
            h0_diag=np.array([0.0, 0.3, 1.1 * np.sqrt(2.0), np.e]),
            v_xi=np.array([0.5, 0.4, 0.3], dtype=complex),
        )
        trace = dissipation_trace(model, 10.0)
        assert np.abs(trace.values - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("horizon", [10.0, 20.0])
    def test_several_coupled_modes_can_leave_the_unit_disk(self, horizon):
        # 15 coupled modes: |D| reaches 1.0047 by tau 10 and 2.04 by 20,
        # while the denominator stays above 0.17
        model = chain_model(np.random.default_rng(7))
        assert dissipation_trace(model, 4.0).horizon == 4.0
        with pytest.raises(ValueError, match=r"couples to 15 modes, and \|D\| <= 1 holds for one"):
            dissipation_trace(model, horizon)

    def test_requires_coupling_and_positive_horizon(self):
        model = two_level()
        with pytest.raises(ValueError):
            dissipation_trace(model, -1.0)
        silent = DiscretizedModel(
            h0_diag=np.zeros(2),
            v_xi=np.array([0.0 + 0.0j]),
        )
        with pytest.raises(ValueError):
            dissipation_trace(silent, 1.0)

    def test_vanishing_denominator(self, monkeypatch):
        # the check runs before anything is propagated
        monkeypatch.setattr(dynamics, "_taylor_states", None)
        model = DiscretizedModel(
            h0_diag=np.array([0.0, 0.0, np.pi]),
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
            v_xi=np.array([1.0 + 0.0j]),
            drive=drive,
        )
        trace = dissipation_trace(model, 60.0)
        assert any(flag.startswith(MICROMOTION_WARNING) for flag in trace.warnings)
        ref = np.cos(0.1 * trace.times / 2.0)
        assert np.abs(trace.values - ref).max() < 0.05

    def test_dimension_budget(self, monkeypatch):
        # 73 stored entries; 3 samples of 15 coupled modes at dt 0.5, 51 at
        # the default
        model = chain_model(np.random.default_rng(7))
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 72)
        with pytest.raises(DimensionOverBudgetError, match="^model needs 73 points, at most 72$"):
            dissipation_trace(model, 1.0, 0.5)
        with pytest.raises(DimensionOverBudgetError,
                           match="^denominator needs 765 points, at most 72$"):
            dissipation_trace(model, 1.0)

    def test_budget_is_checked_before_the_denominator(self, monkeypatch):
        # 2001 samples of 2000 modes: the denominator's outer product
        # alone would take 64 MB
        modes = 2000
        model = DiscretizedModel(
            h0_diag=np.linspace(-1.0, 1.0, modes + 1),
            v_xi=np.full(modes, modes**-0.5, dtype=complex),
        )
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverBudgetError,
                               match="^denominator needs 4002000 points, at most 4000000$"):
                dissipation_trace(model, 1000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # a vanishing denominator does not hide the budget
        vanishing = DiscretizedModel(
            h0_diag=np.array([0.0, 0.0, np.pi]),
            v_xi=np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
        )
        monkeypatch.setattr(dynamics, "_MAX_ARRAY_POINTS", 401)
        with pytest.raises(DimensionOverBudgetError,
                           match="^denominator needs 402 points, at most 401$"):
            dissipation_trace(vanishing, 2.0, 0.01)


class TestMemoryKernelSolver:
    @staticmethod
    def exponential_kernel_amplitude(t, lam, kappa):
        """F of K = lam^2 exp(-kappa tau): F'' + kappa F' + lam^2 F = 0, F'(0) = 0."""
        root = np.sqrt(kappa**2 - 4.0 * lam**2 + 0j)
        r1, r2 = (-kappa + root) / 2.0, (-kappa - root) / 2.0
        return (r2 * np.exp(r1 * t) - r1 * np.exp(r2 * t)) / (r2 - r1)

    def test_exponential_kernel_converges_at_second_order(self):
        # a Lorentzian continuum detuned from the level: damped and shifted
        lam, kappa = 0.5, 0.3 + 0.8j
        errors = []
        for n in (500, 1000, 2000):
            t = np.linspace(0.0, 20.0, n + 1)
            trace = memory_kernel_amplitude(t, lam**2 * np.exp(-kappa * t))
            exact = self.exponential_kernel_amplitude(t, lam, kappa)
            errors.append(np.abs(trace.values - exact).max())
        assert errors[-1] < 1e-5
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_constant_kernel_gives_a_cosine(self):
        t = np.linspace(0.0, 10.0, 2001)
        trace = memory_kernel_amplitude(t, np.full(t.size, 0.25))
        assert trace.values[0] == 1.0
        assert np.abs(trace.values - np.cos(0.5 * t)).max() < 1e-5

    def test_long_solve_converges_at_second_order(self):
        # enough steps for many doublings of the series inverse
        lam, kappa = 0.5, 0.3 + 0.8j
        errors = []
        for n in (16384, 32768, 65536):
            t = np.linspace(0.0, 20.0, n + 1)
            trace = memory_kernel_amplitude(t, lam**2 * np.exp(-kappa * t))
            exact = self.exponential_kernel_amplitude(t, lam, kappa)
            errors.append(np.abs(trace.values - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, 63, 64, 65, 66, 129, 300, 1023, 1024, 1025, 1031, 4097]
    )
    def test_solve_equals_forward_substitution(self, n):
        # the series inverse doubles its terms up to ceil((n - 1) / 2), and
        # the rows split there; powers of two and their neighbours cover
        # every way the doubling and the split can end
        t = np.linspace(0.0, 0.02 * (n - 1), n)
        kernel = 0.25 * np.exp(-(0.3 + 0.8j) * t) + 0.1 * np.exp(-3j * t)
        h = t[1]
        k1 = np.concatenate(([0.0], np.cumsum(0.5 * h * (kernel[1:] + kernel[:-1]))))
        expected = 1.0 - 0.5 * h * k1
        for j in range(2, n):
            expected[j] -= h * (k1[j - 1 : 0 : -1] * expected[1:j]).sum()
        trace = memory_kernel_amplitude(t, kernel)
        assert np.abs(trace.values - expected).max() < 1e-14

    def test_solve_memory_stays_under_its_stated_bound(self):
        # _volterra_solve's docstring: under 100 bytes per step
        n = 2**18
        h = 20.0 / n
        kernel = 0.25 * np.exp(-(0.3 + 0.8j) * h * np.arange(n))
        dynamics._volterra_solve(h, kernel[:1024])
        tracemalloc.start()
        try:
            dynamics._volterra_solve(h, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * n

    def test_step_beyond_unitarity_is_refused(self):
        # K = 1/4 at a step of 10: F_1 = 1 - 12.5, far outside |F| <= 1
        with pytest.raises(StepTooLargeError, match="too coarse"):
            memory_kernel_amplitude(np.array([0.0, 10.0, 20.0]), np.full(3, 0.25))

    def test_rejects_bad_grids(self):
        with pytest.raises(NonUniformGridError):
            memory_kernel_amplitude(np.array([0.0, 1.0, 3.0]), np.ones(3))
        with pytest.raises(ValueError, match="starting at t = 0"):
            memory_kernel_amplitude(np.array([1.0, 2.0, 3.0]), np.ones(3))
        with pytest.raises(ValueError, match="matching"):
            memory_kernel_amplitude(np.array([0.0, 1.0, 2.0]), np.ones(2))

    def test_end_terms_make_the_solve_fourth_order(self):
        # with K' the Euler-Maclaurin end terms lift the same solve from
        # second to fourth order
        lam, kappa = 0.5, 0.3 + 0.8j
        errors = []
        for n in (250, 500, 1000):
            t = np.linspace(0.0, 20.0, n + 1)
            kernel = lam**2 * np.exp(-kappa * t)
            values = dynamics._volterra_solve(t[1], kernel, -kappa * kernel)
            errors.append(np.abs(values - self.exponential_kernel_amplitude(t, lam, kappa)).max())
        assert errors[-1] < 1e-9
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0


class TestChirpSums:
    @staticmethod
    def direct(first, spacing, weights, step, n):
        energies = first + spacing * np.arange(weights.size)
        out = np.empty(n, dtype=complex)
        for start in range(0, n, 4096):
            j = np.arange(start, min(n, start + 4096))
            out[j] = (np.exp(-1j * np.outer(j * step, energies)) * weights).sum(axis=1)
        return out

    @pytest.mark.parametrize("m, first, spacing, step, n", [
        (1, 0.7, 0.3, 0.01, 1000),
        (2, -1.2, 0.5, 0.02, 1000),
        # the decay grid of the longest memory-kernel solve in the suite,
        # test_long_horizon_keeps_the_step: 20 Y modes over a band 10 wide,
        # 105,768 steps to t = 300, where theta l^2 / 2 reaches 5.6e6 rad
        (20, -5.05, 0.5, 300.0 / 105_768, 105_769),
    ])
    def test_matches_the_direct_sum(self, m, first, spacing, step, n):
        weights = np.random.default_rng(m).uniform(0.1, 1.0, m)
        got = dynamics._chirp_sums(first, spacing, weights, step, n)
        expected = self.direct(first, spacing, weights, step, n)
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_rows_of_weights_are_summed_alike(self):
        weights = np.array([[0.2, 0.5, 0.1], [1.0, -2.0j, 0.3]])
        both = dynamics._chirp_sums(-0.4, 0.25, weights, 0.1, 50)
        for row, w in zip(both, weights):
            np.testing.assert_allclose(row, dynamics._chirp_sums(-0.4, 0.25, w, 0.1, 50),
                                       rtol=0, atol=1e-15)

    def test_no_energies_sum_to_zero(self):
        sums = dynamics._chirp_sums(0.0, 0.0, np.empty((2, 0)), 0.1, 5)
        np.testing.assert_array_equal(sums, np.zeros((2, 5)))
