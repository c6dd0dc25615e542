import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainflow.displacement import (
    approximate_initial_data,
    gronwall_check,
    integrate,
    prox_step,
    rearrange,
    rhs,
    rhs_norm,
    seeded_state,
)
from strainflow.errors import DegenerateDataError, StrainflowError
from strainflow.state import SimpleState, state_distance
from strainflow.stress_models import eval_W, make_model


@pytest.fixture(scope="module")
def cubic():
    return make_model("cubic")


@pytest.fixture(scope="module")
def singular():
    return make_model("singular-cubic", kappa=0.5)


@pytest.fixture(scope="module")
def identity_law():
    return make_model("poly", coeffs=[1.0, 0.0], domain="full-line")  # sigma(p) = p


@pytest.fixture(scope="module")
def blow_up():
    # sigma = -p^3: the largest value escapes to infinity near t = 0.33
    return make_model("poly", coeffs=[-1.0, 0.0, 0.0, 0.0]), SimpleState.uniform([0.0, 0.5, 1.5])


class TestRhs:
    def test_single_value_is_stationary(self, cubic):
        state = SimpleState(values=np.array([0.4]), weights=np.array([1.0]))
        assert rhs(cubic, state) == pytest.approx(0.0)

    def test_two_point_cubic_example(self, cubic):
        state = SimpleState.uniform([0.5, 1.5])
        # sigma = (-0.375, 1.875), average 0.75
        assert np.allclose(rhs(cubic, state), [1.125, -1.125], atol=1e-15)

    def test_equal_stress_levels_are_stationary(self, cubic):
        # +-1 share stress level 0
        state = SimpleState(values=np.array([-1.0, 1.0]), weights=np.array([0.25, 0.75]))
        assert np.allclose(rhs(cubic, state), 0.0, atol=1e-15)

    def test_mass_derivative_vanishes(self, cubic):
        state = SimpleState.uniform([-0.3, 0.2, 1.1, 2.0])
        v = rhs(cubic, state)
        assert abs(np.dot(state.weights, v)) < 1e-15


class TestProxStep:
    def test_equilibrium_fixed_point(self, cubic):
        state = SimpleState(values=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.5]))
        new = prox_step(cubic, state, 0.1)
        assert np.max(np.abs(new.values - state.values)) < 1e-11

    def test_identity_law_closed_form(self, identity_law):
        state = SimpleState.uniform([0.3, 1.0, 2.0])
        mu = state.mu
        tau = 0.2
        new = prox_step(identity_law, state, tau)
        expected = (state.values + tau * mu) / (1.0 + tau)
        assert np.max(np.abs(new.values - expected)) < 1e-11

    def test_tau_beyond_monotonicity_rejected(self, cubic):
        state = SimpleState.uniform([0.3, 1.2])
        with pytest.raises(StrainflowError):
            prox_step(cubic, state, 1.0)  # 1/lambda ~ 0.95

    def test_small_tau_consistency_with_rhs(self, cubic):
        state = SimpleState.uniform([-0.6, 0.4, 1.7])
        errs = []
        for tau in (1e-3, 5e-4, 2.5e-4):
            new = prox_step(cubic, state, tau)
            euler = state.values + tau * rhs(cubic, state)
            errs.append(np.max(np.abs(new.values - euler)))
        # implicit-explicit gap shrinks like tau^2
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_proximal_objective_decreases(self, cubic):
        state = seeded_state(cubic, 8, 0.5, seed=5)
        tau = 0.05
        new = prox_step(cubic, state, tau)
        w = state.weights
        obj_new = float(
            np.dot(w, eval_W(cubic, new.values))
            + np.dot(w, (new.values - state.values) ** 2) / (2 * tau)
        )
        obj_old = float(np.dot(w, eval_W(cubic, state.values)))
        assert obj_new <= obj_old + 1e-12

    def test_stationarity_residual(self, cubic):
        state = seeded_state(cubic, 12, 0.5, seed=9)
        tau = 0.01
        new = prox_step(cubic, state, tau)
        resid = cubic.sigma(new.values) + (new.values - state.values) / tau
        assert np.max(resid) - np.min(resid) <= 1e-10


class TestIntegrate:
    def test_constant_state_converged_immediately(self, cubic):
        state = SimpleState(values=np.array([0.5]), weights=np.array([1.0]))
        traj = integrate(cubic, state, 1.0, n_records=11)
        assert traj.converged
        assert np.allclose(traj.values, 0.5, atol=1e-14)
        # the controller opens up on the zero field: 5 growing steps, then
        # one step per record
        assert traj.metadata["n_steps"] < 20

    def test_linear_law_matches_exact_flow_at_every_record(self, identity_law):
        state = SimpleState.uniform([0.2, 0.6, 2.2])
        mu = state.mu
        traj = integrate(identity_law, state, 2.0, n_records=21, rtol=1e-11, atol=1e-13)
        exact = mu + (state.values - mu) * np.exp(-traj.times)[:, None]
        assert np.max(np.abs(traj.values - exact)) < 1e-9

    def test_mass_renormalized_exactly(self, cubic):
        state = SimpleState.uniform([-0.8, 0.1, 0.9, 1.8])
        mu = state.mu
        traj = integrate(cubic, state, 2.0, n_records=21)
        assert np.max(np.abs(traj.mass() - mu)) <= 1e-14 * max(1.0, abs(mu))

    def test_blow_up_fails_without_crawling(self, blow_up):
        # accepted steps that shrink below dt_min end the run: about 46
        # steps per decade of dt from 1e-3 down to 1e-14
        model, state = blow_up
        calls = [0]

        def counted(p):
            calls[0] += 1
            return model.sigma(p)

        traj = integrate(dataclasses.replace(model, sigma=counted), state, 5.0, record_every=0.1)
        assert "error" in traj.metadata
        assert calls[0] < 5000

    def test_failure_returns_the_runs_own_prefix(self, blow_up):
        # the first step is 1e-4 * max(1, horizon), so both horizons here
        # start from the same step and take the same steps to t_last
        model, state = blow_up
        failed = integrate(model, state, 1.0, record_every=0.1)
        assert failed.metadata["error"]
        assert failed.n_records >= 2
        assert np.all(np.abs(failed.mass() - state.mu) <= 1e-12)
        assert isinstance(failed.metadata["n_steps"], int)
        t_last = float(failed.times[-1])
        ok = integrate(model, state, t_last, record_every=0.1)
        assert "error" not in ok.metadata
        assert np.array_equal(ok.times, failed.times)
        assert np.array_equal(ok.values, failed.values)
        assert np.array_equal(ok.dissipation_cum, failed.dissipation_cum)

    def test_two_phase_convergence_to_shared_stress(self, cubic):
        state = SimpleState.uniform([-0.8, 1.8])
        traj = integrate(cubic, state, 80.0, n_records=161)
        final = traj.final_state
        sig = cubic.sigma(final.values)
        assert traj.converged
        assert abs(sig[0] - sig[1]) < 1e-8
        assert abs(final.mu - state.mu) < 1e-13

    def test_ordering_preserved(self, cubic):
        state = SimpleState(
            values=np.array([0.3, 0.7, 2.0]), weights=np.array([0.5, 0.3, 0.2])
        )
        traj = integrate(cubic, state, 20.0, n_records=101)
        assert np.all(np.diff(traj.values, axis=1) > 0)

    def test_mass_conserved_every_record(self, singular):
        state = seeded_state(singular, 16, 1.0, seed=2)
        traj = integrate(singular, state, 10.0, n_records=101)
        assert np.max(np.abs(traj.mass() - 1.0)) <= 1e-12

    def test_energy_nonincreasing(self, cubic):
        state = seeded_state(cubic, 16, 0.5, seed=4)
        traj = integrate(cubic, state, 30.0, n_records=151)
        assert np.all(np.diff(traj.energy) <= 1e-9)

    def test_energy_equation_residual(self, cubic):
        state = seeded_state(cubic, 16, 0.5, seed=6)
        traj = integrate(cubic, state, 20.0, n_records=201, rtol=1e-10, atol=1e-13)
        i0 = np.searchsorted(traj.times, 0.1)
        e0, z0 = traj.energy[i0], traj.dissipation_cum[i0]
        resid = traj.energy[i0:] - e0 + (traj.dissipation_cum[i0:] - z0)
        assert np.max(np.abs(resid)) <= 1e-6 * (1.0 + abs(e0))

    def test_prox_integration_tracks_rk(self, cubic):
        state = SimpleState.uniform([0.1, 0.4, 0.9, 1.6])
        ref = integrate(cubic, state, 1.0, n_records=5, rtol=1e-11, atol=1e-13)
        prox = integrate(cubic, state, 1.0, stepper="prox", tau=1e-3, n_records=5)
        assert np.max(np.abs(prox.values - ref.values)) < 5e-3

    def test_prox_mass_conservation(self, singular):
        state = seeded_state(singular, 8, 1.0, seed=1)
        traj = integrate(singular, state, 0.5, stepper="prox", tau=5e-3, n_records=6)
        assert "error" not in traj.metadata
        assert np.max(np.abs(traj.mass() - 1.0)) <= 1e-12


class TestInitialData:
    def test_constant_input_single_level(self):
        state, assign = approximate_initial_data(np.full(64, 0.7), 8)
        assert state.n == 1
        assert state.values[0] == pytest.approx(0.7, abs=1e-15)
        assert np.all(assign == 0)

    def test_mass_exact(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.0, 3.0, 257)
        state, _ = approximate_initial_data(samples, 16)
        assert abs(state.mu - samples.mean()) <= 1e-15 * max(1.0, samples.mean())

    def test_values_strictly_positive_even_with_zeros(self):
        samples = np.concatenate([np.zeros(10), np.linspace(0.5, 2.0, 22)])
        state, _ = approximate_initial_data(samples, 4)
        assert np.all(state.values > 0.0)

    def test_ramp_quantization_matches_block_minima_oracle(self):
        x = np.linspace(0.0, 1.0, 64, endpoint=False) + 1.0 / 128
        samples = 2.0 * x
        n = 4
        state, assign = approximate_initial_data(samples, n)
        # oracle: direct construction
        sorted_vals = np.sort(samples)
        q = sorted_vals[[0, 16, 32, 48]]
        mu = samples.mean()
        expected = mu * (q + 0.25) / (np.mean(sorted_vals[[0, 16, 32, 48]] @ np.full((4,), 1.0)) / 4 + 0.25)
        qbar = float(np.mean(q))
        expected = mu * (q + 1.0 / n) / (qbar + 1.0 / n)
        assert state.n == 4
        assert np.allclose(state.values, expected + (mu - np.mean(expected)), atol=1e-12)

    def test_l2_distance_decreases_with_refinement(self):
        x = np.linspace(0.0, 1.0, 256, endpoint=False) + 1.0 / 512
        samples = 2.0 * x
        dists = []
        for n in (4, 8, 16, 32):
            state, assign = approximate_initial_data(samples, n)
            field = state.values[assign]
            dists.append(np.sqrt(np.mean((field - samples) ** 2)))
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDataError):
            approximate_initial_data(np.zeros(8), 4)


class TestRearrange:
    def test_sorted_is_identity(self):
        state = SimpleState.uniform([0.1, 0.5, 2.0])
        _, perm = rearrange(state)
        assert np.array_equal(perm, [0, 1, 2])

    def test_reversed_is_reversal(self):
        state = SimpleState.uniform([2.0, 0.5, 0.1])
        _, perm = rearrange(state)
        assert np.array_equal(perm, [2, 1, 0])

    def test_equivariance_under_integration(self, cubic):
        state = seeded_state(cubic, 8, 0.5, seed=12)
        sorted_state, perm = rearrange(state)
        t_final = 10.0
        traj_orig = integrate(cubic, state, t_final, n_records=21)
        traj_sorted = integrate(cubic, sorted_state, t_final, n_records=21)
        assert np.max(np.abs(traj_sorted.values - traj_orig.values[:, perm])) < 1e-8


class TestGronwall:
    def test_identical_states_pass_with_zero_ratio(self, cubic):
        state = seeded_state(cubic, 6, 0.5, seed=3)
        rep = gronwall_check(cubic, state, state, 5.0)
        assert rep.passed and rep.ratio_max == 0.0

    def test_monotone_law_contracts(self):
        hyp = make_model("hyperbolic")
        a = seeded_state(hyp, 8, 1.0, seed=21)
        b = seeded_state(hyp, 8, 1.0, seed=22)
        rep = gronwall_check(hyp, a, b, 10.0)
        assert rep.passed
        assert rep.ratio_max <= 1.0 + 1e-10  # lambda = 0: plain contraction

    def test_cubic_pair_within_gronwall_envelope(self, cubic):
        a = seeded_state(cubic, 8, 0.5, seed=31)
        b = seeded_state(cubic, 8, 0.5, seed=32)
        rep = gronwall_check(cubic, a, b, 10.0)
        assert rep.passed


class TestRefinementCauchy:
    def test_nested_quantizations_stay_within_envelope(self, cubic):
        x = np.linspace(0.0, 1.0, 512, endpoint=False) + 1.0 / 1024
        samples = 2.0 * x
        t_final = 5.0
        lam = cubic.lambda_
        prev = None
        for n in (8, 16, 32, 64):
            state, assign = approximate_initial_data(samples, n)
            traj = integrate(cubic, state, t_final, n_records=11)
            cur = (state, assign, traj.final_state)
            if prev is not None:
                s1, a1, f1 = prev
                s2, a2, f2 = cur
                d0 = np.sqrt(np.mean((s1.values[a1] - s2.values[a2]) ** 2))
                dT = np.sqrt(np.mean((f1.values[a1] - f2.values[a2]) ** 2))
                assert dT <= np.exp(lam * t_final) * d0 + 1e-12
            prev = cur


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 12),
)
def test_rhs_conserves_mass_property(seed, n):
    cubic = make_model("cubic")
    state = seeded_state(cubic, n, 0.5, seed=seed)
    v = rhs(cubic, state)
    assert abs(np.dot(state.weights, v)) <= 1e-13 * max(1.0, np.max(np.abs(v)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prox_step_keeps_mass_and_residual_property(seed):
    singular = make_model("singular-cubic", kappa=0.5)
    state = seeded_state(singular, 6, 1.0, seed=seed)
    tau = 0.02
    new = prox_step(singular, state, tau)
    assert abs(new.mu - state.mu) <= 1e-12
    resid = singular.sigma(new.values) + (new.values - state.values) / tau
    assert np.max(resid) - np.min(resid) <= 1e-10
