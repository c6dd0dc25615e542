import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from strainflow.bounds import mixed_lower, mixed_upper, time_from_zero_curve
from strainflow.displacement import ZERO_FLOOR
from strainflow.errors import DomainError
from strainflow import mixed
from strainflow.mixed import BOOTSTRAP_FRACTION, solve_field, solve_pointwise
from strainflow.numerics import rk45
from strainflow.stress_models import POSITIVE, eval_W, make_model

from reference_rk45 import reference_rk45


@pytest.fixture(scope="module")
def linear():
    return make_model("linear")


@pytest.fixture(scope="module")
def quadratic_singular():
    return make_model("poly", coeffs=[1.0, 0.0, 0.0], kappa=1.0)  # p^2 - 1/p


class TestPointwise:
    @pytest.mark.parametrize("p0", [0.1, 3.0, 10.0])
    def test_linear_exact_solution(self, linear, p0):
        t = np.linspace(0.0, 20.0, 81)
        sol = solve_pointwise(linear, p0, t, rtol=1e-11, atol=1e-13)
        exact = 1.0 + (p0 - 1.0) * np.exp(-t)
        assert np.max(np.abs(sol.values - exact)) < 1e-8

    @pytest.mark.parametrize("rtol", [1e-6, 1e-8])
    def test_linear_law_error_follows_tolerance(self, linear, rtol):
        # rk45 order oracle: tightening rtol 100x lowers the error against
        # p(t) = 1 + (p0 - 1) exp(-t) at least 10x (about 45-75x here)
        t = np.linspace(0.0, 20.0, 41)
        samples = np.array([0.2, 3.0, 10.0])
        exact = 1.0 + (samples - 1.0) * np.exp(-t)[:, None]
        err = lambda tol: np.max(np.abs(solve_field(linear, samples, t, rtol=tol)[0].values - exact))
        assert err(rtol / 100.0) * 10.0 <= err(rtol)

    def test_limit_classification_on_long_horizon(self, linear):
        t = np.linspace(0.0, 40.0, 81)
        sol = solve_pointwise(linear, 10.0, t)
        assert sol.limit_root == pytest.approx(1.0, abs=1e-9)

    def test_root_is_rest_point(self):
        cubic = make_model("cubic")
        t = np.linspace(0.0, 5.0, 11)
        for root in (-1.0, 0.0, 1.0):
            sol = solve_pointwise(cubic, root, t) if root >= 0 else None
            if sol is not None:
                assert np.allclose(sol.values, root, atol=1e-12)

    def test_zero_start_log_model_bootstrap(self):
        model = make_model("log")
        t = np.concatenate([[0.0], np.geomspace(1e-3, 2.0, 25)])
        sol = solve_pointwise(model, 0.0, t)
        assert sol.method == "quadrature-inversion"
        assert sol.values[0] == 0.0
        assert np.all(sol.values[1:] > 0.0)
        # oracle: the travel-time relation, checked by independent quadrature
        for ti, pi in zip(t[1:6], sol.values[1:6]):
            val, _ = quad(lambda z: -1.0 / np.log(z), 0.0, pi)
            assert val == pytest.approx(ti, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("name", ["singular-cubic", "log", "hyperbolic"])
    def test_zero_start_matches_dop853(self, name):
        # the stepper takes over near the smallest root, past the singular
        # start; reference: DOP853 at rtol 1e-13 from the exact travel-time
        # inverse at 1e-6 p_minus
        model = make_model(name)
        t = np.linspace(0.0, 20.0, 201)
        values = solve_pointwise(model, 0.0, t).values
        curve, p_minus = time_from_zero_curve(model)
        t_s = curve.value(1e-6 * p_minus)
        later = t > t_s
        ref = solve_ivp(lambda _t, y: -model.sigma(y), (t_s, t[-1]), [curve.invert(t_s)],
                        method="DOP853", rtol=1e-13, atol=1e-16, t_eval=t[later]).y[0]
        assert np.max(np.abs(values[later] - ref) / ref) <= 1e-10

    def test_negative_start_rejected(self, linear):
        with pytest.raises(DomainError):
            solve_pointwise(linear, -0.5, np.linspace(0, 1, 5))

    def test_monotone_dependence_on_initial_value(self, quadratic_singular):
        t = np.linspace(0.0, 3.0, 13)
        p0s = np.linspace(0.2, 4.0, 9)
        finals = [
            solve_pointwise(quadratic_singular, p0, t).values
            for p0 in p0s
        ]
        finals = np.array(finals)
        for j in range(len(t)):
            assert np.all(np.diff(finals[:, j]) >= -1e-9)

    def test_invariant_interval(self, quadratic_singular):
        # sigma(eps) < 0 < sigma(C) keeps the flow inside [eps, C]
        eps, big = 0.5, 3.0
        assert quadratic_singular.sigma(np.array([eps]))[0] < 0
        assert quadratic_singular.sigma(np.array([big]))[0] > 0
        t = np.linspace(0.0, 10.0, 41)
        for p0 in (eps, 1.7, big):
            vals = solve_pointwise(quadratic_singular, p0, t).values
            assert np.all(vals >= eps - 1e-9)
            assert np.all(vals <= big + 1e-9)


class TestFieldSolve:
    def test_rest_field_stays_put(self):
        cubic = make_model("cubic")
        t = np.linspace(0.0, 4.0, 9)
        traj, limit = solve_field(cubic, [1.0, 1.0, 0.0], t)
        assert np.allclose(traj.values, traj.values[0], atol=1e-12)
        assert np.allclose(traj.energy, traj.energy[0], atol=1e-12)

    def test_limits_are_roots_within_universal_bounds(self, quadratic_singular):
        rng = np.random.default_rng(7)
        t1 = 1.0
        lower, _ = mixed_lower(quadratic_singular, np.array([t1]))
        upper, _ = mixed_upper(quadratic_singular, np.array([t1]))
        p0 = rng.uniform(lower[0], upper[0], 12)
        t = np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 40)])
        traj, limit = solve_field(quadratic_singular, p0, t)
        sig_res = np.abs(quadratic_singular.sigma(limit))
        assert np.all(sig_res < 1e-6)

    def test_energy_trace_nonincreasing(self, quadratic_singular):
        rng = np.random.default_rng(3)
        p0 = rng.uniform(0.3, 3.0, 8)
        t = np.linspace(0.0, 10.0, 101)
        traj, _ = solve_field(quadratic_singular, p0, t)
        assert np.all(np.diff(traj.energy) <= 1e-10)

    def test_enclosure_between_universal_bounds(self, quadratic_singular):
        rng = np.random.default_rng(11)
        p0 = np.concatenate([[0.0], rng.uniform(0.05, 6.0, 10)])
        t = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 30)])
        traj, _ = solve_field(quadratic_singular, p0, t)
        lower, _ = mixed_lower(quadratic_singular, t[1:])
        upper, _ = mixed_upper(quadratic_singular, t[1:])
        assert np.all(traj.values[1:].min(axis=1) >= lower - 1e-12)
        assert np.all(traj.values[1:].max(axis=1) <= upper + 1e-12)

    def test_energy_limit_toward_zero_time(self):
        # int W(p(t)) -> int W(p0) as t -> 0+, tested by refinement
        model = make_model("log")
        p0 = np.array([0.0, 0.5, 2.0, 3.0])
        w0 = np.mean([eval_W(model, max(p, 1e-12)) for p in p0])
        t = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 25)])
        traj, _ = solve_field(model, p0, t)
        gaps = np.abs(traj.energy[1:] - w0)
        # errors shrink as the record times shrink toward zero
        assert gaps[0] < 1e-4
        assert gaps[0] < gaps[-1]


def _free_field_samples(seed: int) -> np.ndarray:
    """64 samples: 8 at exactly 0 and 56 uniform in (0.05, 2.8), shuffled."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.zeros(8), rng.uniform(0.05, 2.8, 56)])
    return rng.permutation(values)


def _per_sample_reference(model, samples, t):
    """The field solved one sample at a time, as the loop over
    solve_pointwise did before the vector solve."""
    return np.column_stack([solve_pointwise(model, float(p), t).values for p in samples])


class TestVectorFieldSolve:
    """The free-field configuration: singular cubic, 64 samples, 201 records."""

    T = np.linspace(0.0, 20.0, 201)

    @pytest.fixture(scope="class")
    def model(self):
        return make_model("singular-cubic")

    @pytest.mark.parametrize("seed", [3, 2024])
    def test_matches_per_sample_loop(self, model, seed):
        samples = _free_field_samples(seed)
        traj, _ = solve_field(model, samples, self.T)
        ref = _per_sample_reference(model, samples, self.T)
        rel = np.abs(traj.values - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(rel) <= 1e-8

    def test_large_field_error_per_sample(self, model):
        # each sample is one rk45 ensemble member, held to the tolerance by
        # its own error norm: an RMS over the 4096 samples would let each
        # sample's error grow past that of a one-sample solve
        rng = np.random.default_rng(8)
        samples = rng.uniform(0.05, 2.8, 4096)
        pick = np.concatenate([[np.argmin(samples), np.argmax(samples)],
                               rng.choice(4096, 10, replace=False)])
        traj, _ = solve_field(model, samples, self.T)
        ref = _per_sample_reference(model, samples[pick], self.T)
        tight = np.column_stack([
            solve_pointwise(model, float(p), self.T, rtol=1e-13, atol=1e-15).values
            for p in samples[pick]
        ])
        rel = lambda v, r: np.max(np.abs(v - r) / np.maximum(1.0, np.abs(r)))
        assert rel(traj.values[:, pick], ref) <= 1e-8
        assert rel(traj.values[:, pick], tight) <= rel(ref, tight)

    @pytest.mark.parametrize("seed", [3, 2024])
    def test_ensemble_matches_reference_stepper(self, model, seed):
        # the free-field ensemble call: same steps and records, bit for bit
        samples = _free_field_samples(seed)
        y0 = samples[samples > 0.0, None]
        f = lambda y, out: np.negative(model.sigma(y), out=out)
        guard = lambda y_old, y_new: bool(np.all(y_new > 0.0))
        new = rk45(f, y0, self.T, rtol=1e-9, atol=1e-12, accept_state=guard)
        ref = reference_rk45(lambda y: f(y, np.empty_like(y)), y0, self.T, rtol=1e-9,
                             atol=1e-12, accept_state=guard)
        assert (new.n_steps, new.n_rejected) == (ref.n_steps, ref.n_rejected)
        assert np.array_equal(new.states.view(np.int64), ref.states.view(np.int64))

    def test_zero_columns_match_pointwise(self, model):
        # one zero-strain member stands for every zero sample, so their
        # columns are equal; it shares the ensemble's steps, so it meets the
        # one-sample solve to the tolerance (about 1e-13), not bit for bit
        samples = _free_field_samples(5)
        traj, _ = solve_field(model, samples, self.T)
        single = solve_pointwise(model, 0.0, self.T).values
        zero = traj.values[:, samples == 0.0]
        assert zero.shape[1] == 8
        assert np.array_equal(zero, np.repeat(zero[:, :1], 8, axis=1))
        rel = np.abs(zero[:, 0] - single) / np.maximum(1.0, np.abs(single))
        assert np.max(rel) <= 1e-10

    def test_sigma_call_budget(self, model):
        # one vector rk45 call plus one zero-strain bootstrap; the
        # per-sample loop makes about 131k sigma calls
        calls = [0]

        def sigma(p):
            calls[0] += 1
            return model.sigma(p)

        counted = dataclasses.replace(model, sigma=sigma)
        solve_field(counted, _free_field_samples(9), self.T)
        assert calls[0] <= 15_000

    def test_limits_classified_per_sample(self, model):
        samples = _free_field_samples(4)
        t = np.linspace(0.0, 60.0, 61)
        traj, limit = solve_field(model, samples, t)
        for p0, lim in zip(samples, limit):
            sol = solve_pointwise(model, float(p0), t)
            expect = sol.limit_root if sol.limit_root is not None else sol.final
            assert lim == pytest.approx(expect, rel=1e-9)

    def test_linear_law_oracle_with_root_sample(self, linear):
        # sigma = p - 1: p(t) = 1 + (p0 - 1) exp(-t); p0 = 1 is a rest point
        samples = np.concatenate([[1.0, 0.0], np.linspace(0.1, 6.0, 30)])
        t = np.linspace(0.0, 10.0, 101)
        traj, limit = solve_field(linear, samples, t)
        exact = 1.0 + (samples[None, :] - 1.0) * np.exp(-t)[:, None]
        assert np.max(np.abs(traj.values - exact)) <= 1e-8
        assert np.all(traj.values[:, 0] == 1.0)


def _hand_off(model):
    """The hand-off time from the travel-time relation to the stepper."""
    curve, p_minus = time_from_zero_curve(model)
    return curve.value(BOOTSTRAP_FRACTION * p_minus)


class TestZeroStartSplit:
    """Zero strains outside the domain: the travel-time inversion up to the
    hand-off time t_boot, then one ensemble with a single zero-strain
    member. Calls of rk45 are recorded as (y0 shape, record grid, result)."""

    T = np.linspace(0.0, 20.0, 201)

    @pytest.fixture(scope="class")
    def model(self):
        return make_model("singular-cubic")

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []

        def spy(f, y0, t_record, **kwargs):
            res = rk45(f, y0, t_record, **kwargs)
            calls.append((np.shape(y0), np.array(t_record), res))
            return res

        monkeypatch.setattr(mixed, "rk45", spy)
        return calls

    def test_two_calls_split_at_hand_off(self, model, calls):
        samples = _free_field_samples(1)
        solve_field(model, samples, self.T)
        t_boot = _hand_off(model)
        assert [shape for shape, _, _ in calls] == [(56, 1), (57, 1)]
        (_, head, first), (_, tail, second) = calls
        assert np.array_equal(head, np.append(self.T[self.T < t_boot], t_boot))
        assert np.array_equal(tail, np.append(t_boot, self.T[self.T > t_boot]))
        # the ensemble carries on from where the first call stopped
        assert np.array_equal(second.states[0, :-1], first.states[-1])

    def test_every_sample_zero(self, model, calls):
        traj, _ = solve_field(model, np.zeros(5), self.T)
        assert [shape for shape, _, _ in calls] == [(1, 1)]
        assert np.array_equal(traj.values, np.repeat(traj.values[:, :1], 5, axis=1))
        single = solve_pointwise(model, 0.0, self.T).values
        assert np.array_equal(traj.values[:, 0], single)

    def test_final_time_before_hand_off(self, model, calls):
        t = np.linspace(0.0, 0.5 * _hand_off(model), 11)
        curve = time_from_zero_curve(model)[0]
        from_inversion = np.append(0.0, curve.invert(t[1:]))
        traj, _ = solve_field(model, np.zeros(3), t)
        assert calls == []
        assert np.array_equal(traj.values, np.repeat(from_inversion[:, None], 3, axis=1))
        # nonzero samples take one call on the record grid itself
        traj, _ = solve_field(model, [0.0, 0.5, 2.0], t)
        assert len(calls) == 1 and calls[0][0] == (2, 1)
        assert np.array_equal(calls[0][1], t)
        assert np.array_equal(traj.values[:, 0], from_inversion)

    def test_record_grid_holding_hand_off(self, model, calls):
        t_boot = _hand_off(model)
        t = np.union1d(self.T, [t_boot])
        samples = np.array([0.0, 0.3, 0.0, 2.5])
        traj, _ = solve_field(model, samples, t)
        assert len(calls) == 2
        for _, grid, _ in calls:
            assert np.all(np.diff(grid) > 0.0)
        (_, head, first), (_, tail, _) = calls
        assert head[-1] == tail[0] == t_boot
        k = np.flatnonzero(t == t_boot)[0]
        assert np.array_equal(traj.values[k, samples > 0.0], first.states[-1, :, 0])
        assert traj.values[k, 0] == time_from_zero_curve(model)[0].invert(t_boot)
        # the extra record leaves the others within the tolerance
        plain, _ = solve_field(model, samples, self.T)
        rest = np.isin(t, self.T)
        rel = np.abs(traj.values[rest] - plain.values) / np.maximum(1.0, plain.values)
        assert np.max(rel) <= 1e-8

    def test_no_zero_sample_keeps_one_call(self, model, calls):
        samples = _free_field_samples(1)
        samples = samples[samples > 0.0]
        traj, _ = solve_field(model, samples, self.T)
        assert len(calls) == 1 and calls[0][0] == (56, 1)
        f = lambda y, out: np.negative(model.sigma(y), out=out)
        guard = lambda y_old, y_new: y_new.min() > 0.0
        direct = rk45(f, samples[:, None], self.T, rtol=1e-9, atol=1e-12, accept_state=guard)
        assert np.array_equal(traj.values, direct.states[:, :, 0])

    @pytest.mark.parametrize("zeros", [0, 8])
    def test_metadata_counts_steps(self, model, calls, zeros):
        samples = _free_field_samples(1)
        samples = samples[samples > 0.0] if zeros == 0 else samples
        traj, _ = solve_field(model, samples, self.T)
        assert len(calls) == (1 if zeros == 0 else 2)
        assert traj.metadata["n_steps"] == sum(res.n_steps for _, _, res in calls)
        assert traj.metadata["n_rejected"] == sum(res.n_rejected for _, _, res in calls)


def _energy_equation_error(model, traj) -> float:
    """max over t of |D(t) - D(t1) - (E(t1) - E(t))| / (1 + |E(t1)|), t1 the
    first record after 0, with E summed sample by sample from W at each
    column (a zero strain on (0, inf) at ZERO_FLOOR): each sample is a
    gradient flow of W alone, so it dissipates exactly the energy it loses."""
    values = np.maximum(traj.values, ZERO_FLOOR) if model.domain == POSITIVE else traj.values
    energy = sum(w * eval_W(model, values[:, i]) for i, w in enumerate(traj.weights))
    lost = energy[1] - energy[1:]
    spent = traj.dissipation_cum[1:] - traj.dissipation_cum[1]
    return float(np.max(np.abs(spent - lost))) / (1.0 + abs(energy[1]))


class TestEnergyEquation:
    """The dissipation integrated from the rk45 stages, and before the
    hand-off from the travel-time relation, against each sample's energy
    loss, at 1e-8 relative (the run checks 1e-6)."""

    T = TestZeroStartSplit.T

    @pytest.fixture(scope="class")
    def model(self):
        return make_model("singular-cubic")

    def test_zero_free_field_with_unequal_weights(self, model):
        samples = _free_field_samples(2)
        samples = samples[samples > 0.0]
        weights = np.random.default_rng(2).uniform(0.1, 1.0, len(samples))
        traj, _ = solve_field(model, samples, self.T, weights=weights / weights.sum())
        assert traj.dissipation_cum[-1] > 0.0
        assert _energy_equation_error(model, traj) <= 1e-8

    @pytest.mark.parametrize("case", ["hand-off inside", "hand-off on a record",
                                      "before hand-off", "before hand-off, all zero",
                                      "every sample zero"])
    def test_zero_start_split(self, model, case):
        t_boot = _hand_off(model)
        t, samples = self.T, _free_field_samples(1)
        if case == "hand-off on a record":
            t, samples = np.union1d(self.T, [t_boot]), np.array([0.0, 0.3, 0.0, 2.5])
        elif case.startswith("before hand-off"):
            t = np.linspace(0.0, 0.5 * t_boot, 11)
            samples = np.zeros(3) if case.endswith("all zero") else np.array([0.0, 0.5, 2.0])
        elif case == "every sample zero":
            samples = np.zeros(5)
        traj, _ = solve_field(model, samples, t)
        assert traj.dissipation_cum[0] == 0.0
        assert _energy_equation_error(model, traj) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(data=st.data(), degree=st.sampled_from([1, 3, 5]))
def test_odd_poly_traction_free_property(data, degree):
    """Odd-degree laws with a positive leading coefficient whose window is
    invariant (sigma < 0 at its left end, > 0 at its right), on fields drawn
    in its nonnegative part: paths are monotone and the samples keep their
    order to the integration tolerance rtol = 1e-9 (around a stiff root the
    explicit steps may overshoot within it), and the energy equation holds at
    the run check's 1e-6.

    The coefficients are floats, tiny and subnormal ones included, whose
    roots beside a critical point at or near 0 ``roots_at`` must still find.
    """
    coeffs = [data.draw(st.floats(1.0 / 16.0, 2.0))] + data.draw(
        st.lists(st.floats(-2.0, 2.0), min_size=degree, max_size=degree))
    model = make_model("poly", coeffs=coeffs)
    lo, hi = model.eval_window
    assume(model.sigma(np.array([lo]))[0] < 0.0 < model.sigma(np.array([hi]))[0])
    samples = np.array(data.draw(st.lists(st.floats(0.0, hi), min_size=2, max_size=8)))
    traj, _ = solve_field(model, samples, np.linspace(0.0, 2.0, 41))
    slack = 1e-9 * (1.0 + np.abs(traj.values))
    step = np.diff(traj.values, axis=0)
    assert np.all(np.all(step >= -slack[1:], axis=0) | np.all(step <= slack[1:], axis=0))
    order = np.argsort(samples, kind="stable")
    assert np.all(np.diff(traj.values[:, order], axis=1) >= -slack[:, order[1:]])
    assert _energy_equation_error(model, traj) <= 1e-6
