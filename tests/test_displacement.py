import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainflow import displacement
from strainflow.displacement import (
    approximate_initial_data,
    gronwall_check,
    integrate,
    prox_step,
    rearrange,
    seeded_state,
)
from strainflow.errors import (
    BracketError,
    DegenerateDataError,
    IterationBudgetError,
    StrainflowError,
)
from strainflow.state import SimpleState, state_distance
from strainflow.stress_models import POSITIVE, eval_W, make_model

from reference_quantize import loop_initial_data
from reference_rk45 import reference_rk45


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
        assert displacement._velocity(cubic, state.weights, state.values) == pytest.approx(0.0)

    def test_two_point_cubic_example(self, cubic):
        state = SimpleState.uniform([0.5, 1.5])
        # sigma = (-0.375, 1.875), average 0.75
        v = displacement._velocity(cubic, state.weights, state.values)
        assert np.allclose(v, [1.125, -1.125], atol=1e-15)

    def test_equal_stress_levels_are_stationary(self, cubic):
        # +-1 share stress level 0
        state = SimpleState(values=np.array([-1.0, 1.0]), weights=np.array([0.25, 0.75]))
        assert np.allclose(displacement._velocity(cubic, state.weights, state.values), 0.0, atol=1e-15)

    def test_mass_derivative_vanishes(self, cubic):
        state = SimpleState.uniform([-0.3, 0.2, 1.1, 2.0])
        v = displacement._velocity(cubic, state.weights, state.values)
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
            euler = state.values + tau * displacement._velocity(cubic, state.weights, state.values)
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

    @pytest.mark.parametrize("name, n, mu", [
        ("cubic", 2, 0.5), ("cubic", 64, -0.3),
        ("shifted-cubic", 2, 0.1), ("shifted-cubic", 64, 0.1),
        ("singular-cubic", 2, 1.0), ("singular-cubic", 64, 0.3),
        ("linear", 2, 1.0), ("linear", 64, 1.0),
        ("hyperbolic", 2, 1.5), ("hyperbolic", 64, 1.5),
        ("log", 2, 1.0), ("log", 64, 1.0),
        ("poly", 2, 2.0), ("poly", 64, 2.0),
    ])
    def test_mass_kept_by_the_pair_on_every_law(self, name, n, mu):
        # the mean is a linear first integral of the flow, which every
        # Runge-Kutta method keeps; nothing shifts the accepted steps
        params = {"coeffs": [1.0, 0.0, -2.0, 0.0, 0.5, 0.0]} if name == "poly" else {}
        model = make_model(name, **params)
        state = seeded_state(model, n, mu, seed=n)
        traj = integrate(model, state, 20.0, record_every=0.5)
        assert np.max(np.abs(traj.mass() - mu)) <= 1e-14 * max(1.0, abs(mu))

    def test_blow_up_fails_without_crawling(self, blow_up):
        # accepted steps that shrink below dt_min end the run: about 46
        # steps per decade of dt from 1e-3 down to 1e-14
        model, state = blow_up
        calls = [0]

        def counted(p):
            calls[0] += 1
            return model.sigma(p)

        with pytest.raises(StrainflowError):
            integrate(dataclasses.replace(model, sigma=counted), state, 5.0, record_every=0.1)
        assert calls[0] < 5000

    def test_failure_returns_the_runs_own_prefix(self, blow_up):
        # the first step does not depend on the horizon, so both runs take
        # the same steps to t_last
        model, state = blow_up
        with pytest.raises(StrainflowError) as info:
            integrate(model, state, 5.0, record_every=0.1)
        failed = info.value.partial
        assert str(info.value)
        assert failed.n_records >= 2
        assert np.all(np.abs(failed.mass() - state.mu) <= 1e-12)
        assert isinstance(failed.metadata["n_steps"], int)
        t_last = float(failed.times[-1])
        ok = integrate(model, state, t_last, record_every=0.1)
        assert ok.n_records == failed.n_records and ok.times[-1] == t_last
        assert np.array_equal(ok.times, failed.times)
        assert np.array_equal(ok.values, failed.values)
        assert np.array_equal(ok.dissipation_cum, failed.dissipation_cum)

    def test_two_phase_convergence_to_shared_stress(self, cubic):
        state = SimpleState.uniform([-0.8, 1.8])
        traj = integrate(cubic, state, 80.0, n_records=161)
        final = SimpleState(values=traj.values[-1], weights=traj.weights)
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
        assert traj.n_records == 6 and traj.times[-1] == 0.5
        assert np.max(np.abs(traj.mass() - 1.0)) <= 1e-12


# -- the explicit stepper and its callbacks against their references --


def _reference_ordering_ok(perm, values):
    """The ordering guard as it was before it was cut to a few numpy calls."""
    v = values[perm]
    scale = max(1.0, float(np.max(np.abs(v))))
    return bool(np.all(np.diff(v) >= -displacement.ORDER_SLACK * scale))


def _reference_held_run(model, state, grid, rtol, atol):
    """The held rk45 run with the reference stepper and the callbacks it had:
    velocity -sigma + c and one scalar stage rate per stage."""
    w = state.weights
    perm = np.argsort(state.values, kind="stable")

    def velocity(v):
        sig = np.asarray(model.sigma(v), dtype=float)
        return -sig + float(np.dot(w, sig))

    def accept(y_old, y_new):
        if model.domain == POSITIVE and not np.all(y_new > 0.0):
            return False
        return _reference_ordering_ok(perm, y_new)

    return reference_rk45(
        velocity, state.values, grid, rtol=rtol, atol=atol, accept_state=accept,
        stage_rate=lambda k: float(np.dot(w, k * k)),
    )


class TestStepperReference:
    """The held flow takes the reference stepper's steps and records, bit for
    bit; only the dissipation, now one matrix product over the 7 stages,
    may move in the last bits."""

    @pytest.mark.parametrize("name, values, grid, rtol, rejected", [
        ("cubic", (64, 0.5, 31), {"record_every": 0.25}, 1e-9, False),
        ("cubic", (64, 0.5, 2), {"n_records": 3}, 1e-9, True),
        ("cubic", (8, 0.5, 4242), {"n_records": 11}, 1e-6, False),
        ("singular-cubic", (16, 1.0, 7), {"record_every": 0.25}, 1e-9, False),
        ("singular-cubic", [1e-3, 0.02, 0.02 + 1e-9, 1.5, 2.4], {"n_records": 5}, 1e-6, True),
        ("hyperbolic", (12, 1.5, 3), {"n_records": 11}, 1e-6, False),
    ])
    def test_held_flow_matches_reference(self, name, values, grid, rtol, rejected, monkeypatch):
        model = make_model(name)
        if isinstance(values, tuple):
            state = seeded_state(model, *values)
        else:
            state = SimpleState.uniform(values)
        results = []
        stepper = displacement.rk45

        def spy(*args, **kwargs):
            results.append(stepper(*args, **kwargs))
            return results[-1]

        calls = [0, 0]

        def counting(i):
            def sigma(p):
                calls[i] += 1
                return model.sigma(p)
            return dataclasses.replace(model, sigma=sigma)

        monkeypatch.setattr(displacement, "rk45", spy)
        traj = integrate(counting(0), state, 50.0, rtol=rtol, **grid)
        res = results[0]
        ref = _reference_held_run(counting(1), state, traj.times, rtol, 1e-12)
        # equal stress calls: the first stage is reused (FSAL) exactly when
        # the reference reused it, and a repeated no-op record step costs none;
        # integrate's diagnostics evaluate sigma once more
        assert calls[0] == calls[1] + 1 - 6 * res.n_reused
        assert (res.n_steps, res.n_rejected) == (ref.n_steps, ref.n_rejected)
        assert (res.n_rejected > 0) == rejected
        assert np.array_equal(res.times, ref.times)
        assert np.array_equal(res.states.view(np.int64), ref.states.view(np.int64))
        rel = np.abs(res.aux_integral - ref.aux_integral) / np.maximum(ref.aux_integral, 1e-300)
        assert np.max(rel) <= 1e-14

    @pytest.mark.parametrize("seed", [1, 7, 31, 2024])
    def test_converged_held_run_reuses_record_steps_bit_for_bit(self, seed, monkeypatch):
        # held-cubic's shape (n = 64, mu = 0.5, records every 0.25 to t = 50):
        # past equilibrium the record steps leave the state as it is, and the
        # ones rk45 reuses give the reference stepper's steps and records
        model = make_model("cubic")
        state = seeded_state(model, 64, 0.5, seed)
        results = []
        stepper = displacement.rk45

        def spy(*args, **kwargs):
            results.append(stepper(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(displacement, "rk45", spy)
        traj = integrate(model, state, 50.0, record_every=0.25)
        res = results[0]
        ref = _reference_held_run(model, state, traj.times, 1e-9, 1e-12)
        assert res.n_reused > 0
        assert (res.n_steps, res.n_rejected) == (ref.n_steps, ref.n_rejected)
        assert np.array_equal(res.states.view(np.int64), ref.states.view(np.int64))
        rel = np.abs(res.aux_integral - ref.aux_integral) / np.maximum(ref.aux_integral, 1e-300)
        assert np.max(rel) <= 1e-14


class TestFieldCalls:
    """FSAL holds on every step: stage 0 is evaluated once, before the
    loop, and each step, accepted or rejected, costs its six other stages,
    except a record step that repeats a no-op step and costs none."""

    @pytest.mark.parametrize("seed, grid, calls", [
        (31, {"record_every": 0.25}, 1615),
        (2, {"n_records": 3}, 1411),
    ])
    def test_held_run_calls_the_field_once_per_new_stage(self, seed, grid, calls, monkeypatch):
        model = make_model("cubic")
        results, count = [], [0]
        stepper = displacement.rk45

        def spy(f, *args, **kwargs):
            def counted(y, out):
                count[0] += 1
                return f(y, out)
            results.append(stepper(counted, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(displacement, "rk45", spy)
        integrate(model, seeded_state(model, 64, 0.5, seed), 50.0, **grid)
        res = results[0]
        assert count[0] == 1 + 6 * (res.n_steps + res.n_rejected - res.n_reused) == calls
        assert res.n_reused == {31: 99, 2: 0}[seed]


class TestOrderingGuard:
    def test_matches_reference_on_random_and_tied_values(self):
        rng = np.random.default_rng(5)
        slack = displacement.ORDER_SLACK
        cases = [np.array([1.0]), np.array([0.0, 0.0]), np.array([2.0, 2.0 - 2e-12]),
                 np.array([2.0, 2.0 - 2.1e-12]), np.array([0.5, 0.5 - slack]),
                 np.array([0.5, 0.5 - 1.01 * slack]), np.array([-3.0, -3.0 - 3e-12]),
                 np.array([-3.0, -3.0 - 3.1e-12]), np.array([1.0, np.nan, 2.0])]
        for _ in range(400):
            n = int(rng.integers(1, 12))
            base = np.sort(rng.choice([rng.uniform(-5, 5, n), rng.integers(-2, 3, n) * 1.0]))
            scale = max(1.0, np.max(np.abs(base)))
            jitter = rng.choice([0.0, 0.5, 0.99, 1.0, 1.01, 2.0], n) * slack * scale
            cases.append(base - rng.permutation(jitter))
            cases.append(rng.permutation(base))
        for values in cases:
            for perm in (np.arange(len(values)), np.argsort(values, kind="stable"),
                         rng.permutation(len(values))):
                assert displacement._ordering_ok(perm, values) is _reference_ordering_ok(perm, values)


# -- the bisection proximal step, kept as the reference for the Newton solve --


def _bisect_vec(f, lo, hi, xtol=1e-13, max_iter=120):
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    if np.any(flo > 0.0) or np.any(fhi < 0.0):
        raise BracketError("vector bisection called with invalid brackets")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid), dtype=float)
        take_hi = fm > 0.0
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
        if np.all(hi - lo <= xtol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))):
            break
    return 0.5 * (lo + hi)


def _bisection_prox_step(model, state, tau):
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    lam = model.lambda_
    if lam > 0.0 and tau >= 1.0 / lam:
        raise StrainflowError(
            f"tau = {tau} >= 1/lambda = {1.0 / lam}; the proximal map loses "
            "monotonicity"
        )
    p = state.values
    w = state.weights
    mu = state.mu
    displacement._require_strict_domain(model, p)

    def h(v):
        return np.asarray(model.sigma(v), dtype=float) + v / tau

    def h_inverse(targets: np.ndarray) -> np.ndarray:
        lo = p.copy()
        hi = p.copy()
        span = np.maximum(1.0, np.abs(p))
        # expand brackets geometrically; h -> -inf toward the domain floor
        # for blow-up models and h grows at least linearly upward
        for _ in range(200):
            need = h(lo) > targets
            if not np.any(need):
                break
            if model.domain == POSITIVE:
                lo = np.where(need, 0.5 * lo, lo)
            else:
                lo = np.where(need, lo - span, lo)
                span = np.where(need, 2.0 * span, span)
        else:
            raise BracketError("no lower bracket for the proximal inner solve")
        span = np.maximum(1.0, np.abs(p))
        for _ in range(200):
            need = h(hi) < targets
            if not np.any(need):
                break
            hi = np.where(need, hi + span, hi)
            span = np.where(need, 2.0 * span, span)
        else:
            raise BracketError("no upper bracket for the proximal inner solve")
        # bisect to a tight bracket, then finish with bracket-safeguarded
        # Newton (the residual must reach roundoff, and h' is available)
        v = _bisect_vec(lambda x: h(x) - targets, lo, hi, xtol=1e-4, max_iter=60)
        scale = np.maximum(1.0, np.abs(v))
        lo = np.maximum(lo, v - 2e-4 * scale)
        hi = np.minimum(hi, v + 2e-4 * scale)
        for _ in range(40):
            res = h(v) - targets
            above = res > 0.0
            hi = np.where(above, v, hi)
            lo = np.where(above, lo, v)
            hp = np.asarray(model.sigma_prime(v), dtype=float) + 1.0 / tau
            v_new = v - res / hp
            inside = (v_new > lo) & (v_new < hi)
            v_new = np.where(inside, v_new, 0.5 * (lo + hi))
            done = np.max(np.abs(v_new - v) / np.maximum(1.0, np.abs(v_new)))
            v = v_new
            if done < 1e-15:
                break
        return v

    sig = np.asarray(model.sigma(p), dtype=float)
    spread0 = max(1.0, float(np.max(sig) - np.min(sig)))
    c_lo = float(np.min(sig)) - spread0
    c_hi = float(np.max(sig)) + spread0
    spread = spread0
    for _ in range(80):
        if float(np.dot(w, h_inverse(c_lo + p / tau))) <= mu:
            break
        c_lo -= spread
        spread *= 2.0
    else:
        raise BracketError("no lower bracket for the mass multiplier")
    spread = spread0
    for _ in range(80):
        if float(np.dot(w, h_inverse(c_hi + p / tau))) >= mu:
            break
        c_hi += spread
        spread *= 2.0
    else:
        raise BracketError("no upper bracket for the mass multiplier")

    # bisection on the multiplier, accelerated by Newton steps kept inside
    # the shrinking bracket (the mass map is strictly increasing in c)
    c = 0.5 * (c_lo + c_hi)
    v = h_inverse(c + p / tau)
    for _ in range(200):
        m = float(np.dot(w, v))
        if abs(m - mu) <= 1e-12 * max(1.0, abs(mu)):
            break
        if m < mu:
            c_lo = c
        else:
            c_hi = c
        hp = np.asarray(model.sigma_prime(v), dtype=float) + 1.0 / tau
        eta_prime = float(np.dot(w, 1.0 / hp))
        c_new = c + (mu - m) / eta_prime if eta_prime > 0 else 0.5 * (c_lo + c_hi)
        if not (c_lo < c_new < c_hi):
            c_new = 0.5 * (c_lo + c_hi)
        if c_hi - c_lo <= 1e-15 * max(1.0, abs(c_hi)):
            c = c_new
            v = h_inverse(c + p / tau)
            break
        c = c_new
        v = h_inverse(c + p / tau)
    v = v + (mu - float(np.dot(w, v)))  # exact mass
    return state.with_values(v)


_SWEEP_LAWS = {
    "cubic": ("cubic", {}),
    "singular-cubic-0.5": ("singular-cubic", {"kappa": 0.5}),
    "singular-cubic-0.05": ("singular-cubic", {"kappa": 0.05}),
    "log": ("log", {}),
    "hyperbolic": ("hyperbolic", {}),
    "quintic": ("poly", {"coeffs": [1.0, 0.0, -2.0, 0.0, 0.5, 0.0]}),
}


def _sweep_states(model):
    """Seeded states at n = 2, 16, 256; on (0, inf) the third seed of each n
    has a strain at 1e-6."""
    mu = 1.0 if model.domain == POSITIVE else 0.5
    for n in (2, 16, 256):
        for seed in range(3):
            state = seeded_state(model, n, mu, seed)
            if seed == 2 and model.domain == POSITIVE:
                values = state.values.copy()
                values[0] = 1e-6
                state = state.with_values(values)
            yield state


def _sweep_taus(model):
    lam = model.lambda_
    return [1e-3, 1e-2, 0.1] + ([0.5 / lam, 0.97 / lam] if lam > 0 else [1.0, 10.0])


class TestProxNewton:
    @pytest.mark.parametrize("law", sorted(_SWEEP_LAWS))
    def test_matches_bisection_reference(self, law):
        name, params = _SWEEP_LAWS[law]
        model = make_model(name, **params)
        for state in _sweep_states(model):
            for tau in _sweep_taus(model):
                new = prox_step(model, state, tau).values
                ref = _bisection_prox_step(model, state, tau).values
                rel = np.max(np.abs(new - ref) / np.maximum(1.0, np.abs(ref)))
                assert rel <= 1e-10, (law, state.n, tau, rel)
                assert abs(np.dot(state.weights, new) - state.mu) <= 1e-12 * max(1.0, state.mu)
                resid = model.sigma(new) + (new - state.values) / tau
                spread = (np.max(resid) - np.min(resid)) / max(1.0, np.max(np.abs(resid)))
                assert spread <= 1e-10, (law, state.n, tau, spread)

    @pytest.mark.parametrize("name", ["singular-cubic", "log"])
    @pytest.mark.parametrize("tau", [0.01, 10.0])
    def test_strain_near_a_singular_stress(self, name, tau):
        # sigma' ~ 1/p^2 makes the first Newton steps from p = 1e-20 tiny in
        # absolute terms although each one doubles the strain
        model = make_model(name)
        state = seeded_state(model, 16, 1.0, seed=2)
        values = state.values.copy()
        values[0] = 1e-20
        state = state.with_values(values)
        new = prox_step(model, state, tau).values
        ref = _bisection_prox_step(model, state, tau).values
        assert np.max(np.abs(new - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-10
        resid = model.sigma(new) + (new - state.values) / tau
        assert np.max(resid) - np.min(resid) <= 1e-10 * max(1.0, np.max(np.abs(resid)))

    def test_sigma_call_budget_on_held_prox(self):
        # singular cubic, n = 16, tau = 0.01 to t = 2: 200 proximal steps
        model = make_model("singular-cubic")
        calls = [0]

        def counted(p):
            calls[0] += 1
            return model.sigma(p)

        state = seeded_state(model, 16, 1.0, seed=31)
        traj = integrate(dataclasses.replace(model, sigma=counted), state, 2.0,
                         stepper="prox", tau=0.01, record_every=0.25)
        assert traj.n_records == 9 and traj.times[-1] == 2.0
        assert calls[0] <= 20 * 200

    @pytest.mark.parametrize("v0", [1e-160, 1e-200, 1e-300])
    def test_overflowing_singular_start_raises(self, v0):
        # sigma' = kappa / v^2 overflows, so the Newton step leaves v0 where
        # it is; the point is not stationary and must not come back
        model = make_model("singular-cubic")
        state = SimpleState.uniform([v0, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StrainflowError, match="stationarity spread"):
                prox_step(model, state, 10.0)

    @staticmethod
    def _held_prox_runs(seeds):
        """Held-prox-shaped runs (singular cubic, n = 16, tau = 0.01 to t = 2,
        200 proximal steps): each trajectory with its sigma' call count."""
        model = make_model("singular-cubic")
        calls = [0]

        def counted(p):
            calls[0] += 1
            return model.sigma_prime(p)

        counted_model = dataclasses.replace(model, sigma_prime=counted)
        for seed in seeds:
            calls[0] = 0
            state = seeded_state(model, 16, 1.0, seed=seed)
            traj = integrate(counted_model, state, 2.0, stepper="prox", tau=0.01,
                             record_every=0.25)
            assert traj.n_records == 9 and traj.times[-1] == 2.0
            yield traj, calls[0]

    def test_held_prox_sigma_prime_calls_per_step(self):
        # a point is accepted on its residual, and Newton starts on the quartic
        # through the last five points: from v = p it takes 2.36-2.45 per step,
        # from the line through the last two 2.03-2.08
        per_step = [n / 200 for _, n in self._held_prox_runs((1, 7, 31, 4242, 123456))]
        assert np.mean(per_step) <= 1.3, per_step

    @pytest.mark.parametrize("tau", [0.05, 0.01])
    @pytest.mark.parametrize("name", ["singular-cubic", "cubic"])
    def test_start_costs_no_more_than_the_linear_one(self, name, tau):
        # records every 0.07: steps of 0.05 and 0.02 alternate, so the run
        # keeps the linear start; steps of 0.01 take the quartic one
        model = make_model(name)
        calls = [0]

        def counted(p):
            calls[0] += 1
            return model.sigma_prime(p)

        state = seeded_state(model, 16, 1.0 if model.domain == POSITIVE else 0.25, seed=31)
        traj = integrate(dataclasses.replace(model, sigma_prime=counted), state, 2.0,
                         stepper="prox", tau=tau, record_every=0.07)
        p, w, mu = state.values, state.weights, state.mu
        p_prev, t, linear = None, 0.0, 0
        for t_next in traj.times[1:]:
            while t < t_next - 1e-12 * max(1.0, t):
                dt = min(tau, t_next - t)
                start = p if p_prev is None else p + (dt / dt_prev) * (p - p_prev)
                v, iters, _ = displacement._prox_solve(model, p, w, mu, dt, start)
                p_prev, p, dt_prev = p, v, dt
                t += dt
                linear += iters
        assert calls[0] == traj.metadata["newton_iters"] <= linear

    @pytest.mark.parametrize("name", ["singular-cubic", "cubic"])
    def test_prox_run_matches_a_loop_of_prox_steps(self, name):
        # the driver's solves start from the extrapolated path and use the
        # run's mass; public steps start from v = p on each state's own mass
        model = make_model(name)
        state = seeded_state(model, 16, 1.0 if model.domain == POSITIVE else 0.25, seed=31)
        tau = 0.01 if model.domain == POSITIVE else 0.2 / model.lambda_
        traj = integrate(model, state, 2.0, stepper="prox", tau=tau, record_every=0.25)
        assert traj.n_records == 9 and traj.times[-1] == 2.0
        t, n_steps = 0.0, 0
        for t_next, record in zip(traj.times[1:], traj.values[1:]):
            while t < t_next - 1e-12 * max(1.0, t):
                dt = min(tau, t_next - t)
                state = prox_step(model, state, dt)
                t += dt
                n_steps += 1
            rel = np.abs(record - state.values) / np.maximum(1.0, np.abs(state.values))
            assert rel.max() <= 1e-12, (t, rel.max())
        assert traj.metadata["n_steps"] == n_steps

    @pytest.mark.parametrize("start", ["off the domain", "at half", "below half"])
    def test_rejected_start_solves_from_p(self, singular, start):
        state = seeded_state(singular, 16, 1.0, seed=7)
        p, w = state.values, state.weights
        bad = {"off the domain": -p, "at half": 0.5 * p,
               "below half": np.where(np.arange(16) % 2, -1.0, 0.25 * p)}[start]
        v, iters, relative = displacement._prox_solve(singular, p, w, state.mu, 0.01, bad)
        ref = prox_step(singular, state, 0.01)
        _, ref_iters, ref_relative = displacement._prox_solve(singular, p, w, state.mu, 0.01, p)
        assert v.tobytes() == ref.values.tobytes()
        assert (iters, relative) == (ref_iters, ref_relative)

    def test_prox_run_records_its_counters(self):
        for traj, n_calls in self._held_prox_runs((3, 31)):
            meta = traj.metadata
            assert meta["n_steps"] == 200
            assert meta["newton_iters"] == n_calls
            assert 0.0 < meta["max_residual"] <= 1e-10

    def test_iteration_budget_raises_and_ends_run(self, singular, monkeypatch):
        monkeypatch.setattr(displacement, "_PROX_MAX_ITER", 1)
        state = seeded_state(singular, 8, 1.0, seed=1)
        with pytest.raises(IterationBudgetError):
            prox_step(singular, state, 0.01)
        with pytest.raises(IterationBudgetError) as info:
            integrate(singular, state, 0.5, stepper="prox", tau=0.01, n_records=6)
        assert "proximal Newton" in str(info.value)
        traj = info.value.partial
        assert traj.n_records == 1
        assert np.array_equal(traj.values[0], state.values)

    def test_stalled_line_search_raises(self, cubic):
        # a derivative of the wrong sign turns the Newton step uphill, so no
        # step length lowers the residual and the step must not return
        wrong = dataclasses.replace(cubic, sigma_prime=lambda p: np.full_like(p, -1e6))
        state = seeded_state(cubic, 8, 0.5, seed=3)
        with pytest.raises(StrainflowError, match="line search stalled"):
            prox_step(wrong, state, 0.01)

    def test_linear_law_first_order_in_tau(self):
        # sigma = p - 1 with both ends held: p_i(t) = mu + (p_i(0) - mu) e^{-t}
        model = make_model("linear")
        state = seeded_state(model, 8, 1.0, seed=7)
        exact = state.mu + (state.values - state.mu) * np.exp(-1.0)
        errs = []
        for tau in (0.02, 0.01, 0.005):
            traj = integrate(model, state, 1.0, stepper="prox", tau=tau, n_records=2)
            errs.append(np.max(np.abs(traj.values[-1] - exact)))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


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

    def test_ties_across_block_edges_merge_levels(self):
        # sorted: 0 0 | 0 1 | 1 1 | 1 2, so the block minima 0 0 1 1 merge
        # into two levels of weight 1/2; mu = 0.75 and N = 4 give the values
        # 0.75 (q + 1/4) / (1/2 + 1/4)
        samples = np.array([1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        state, assign = approximate_initial_data(samples, 4)
        assert state.weights.tolist() == [0.5, 0.5]
        assert state.values.tolist() == [0.25, 1.25]
        assert assign.tolist() == [0, 0, 1, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_loop_reference_bit_for_bit(self, seed):
        # uniform, rounded and four-level samples: few, some and many ties
        rng = np.random.default_rng(seed)
        for case in range(100):
            m, n = int(rng.integers(1, 401)), int(rng.integers(1, 81))
            samples = [rng.uniform(0.0, 3.0, m), np.round(rng.uniform(0.0, 3.0, m), 1),
                       rng.choice([0.0, 0.5, 1.0, 2.0], m)][case % 3]
            if samples.mean() <= 0.0:
                continue
            state, assign = approximate_initial_data(samples, n)
            ref, ref_assign = loop_initial_data(samples, n)
            assert state.values.tobytes() == ref.values.tobytes()
            assert state.weights.tobytes() == ref.weights.tobytes()
            assert np.array_equal(assign, ref_assign)

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
            cur = (state, assign, SimpleState(values=traj.values[-1], weights=traj.weights))
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
    v = displacement._velocity(cubic, state.weights, state.values)
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
