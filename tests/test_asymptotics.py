import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainflow import asymptotics, stress_models
from strainflow.asymptotics import (
    TRAILING_FRAC,
    F_functional,
    asymptotics_report,
    convergence_monitor,
    cubic_invariants,
    equilibria_enumerate,
    gram_independence,
    nc3_check,
    nc_linear_independence,
    volume_fractions,
)
from strainflow.displacement import integrate, seeded_state
from strainflow.errors import (
    DegenerateDataError,
    HypothesisError,
    InvalidIntervalError,
    IterationBudgetError,
    ModelInconsistencyError,
    NotConvergedError,
)
from strainflow.numerics import trailing_stats
from strainflow.state import SimpleState, Trajectory
from strainflow.stress_models import level_breakpoints, make_model, roots_at, stress_range

from reference_quadrature import CumulativeAntiderivative


@pytest.fixture(scope="module")
def cubic():
    return make_model("cubic")


@pytest.fixture(scope="module")
def converged_run(cubic):
    state = seeded_state(cubic, 32, 0.5, seed=8)
    return integrate(cubic, state, 200.0, record_every=0.5)


class TestEquilibria:
    def test_strictly_monotone_law_is_unique(self):
        verdict, found = equilibria_enumerate(make_model("linear"), mu=2.0)
        assert verdict == "UNIQUE" and not found

    def test_cubic_at_zero_mean_has_balanced_family(self, cubic):
        verdict, found = equilibria_enumerate(cubic, mu=0.0)
        assert verdict == "NON-UNIQUE"
        near_zero = min(found, key=lambda d: abs(d.stress_level))
        assert near_zero.branch_values == pytest.approx((-1.0, 1.0), abs=1e-3)
        assert near_zero.fractions[0] == pytest.approx(0.5, abs=1e-3)
        assert near_zero.mean == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("coeffs, domain", [([2.0], "full-line"), ([], "full-line"),
                                                ([2.0], "positive")])
    def test_constant_law_is_non_unique(self, coeffs, domain):
        # sigma is constant, so every state is an equilibrium: the example is
        # the window-end pair with its lever-rule fractions
        model = make_model("poly", coeffs=coeffs, domain=domain)
        lo, hi = model.eval_window
        mu = lo + 0.3 * (hi - lo)
        verdict, found = equilibria_enumerate(model, mu)
        assert verdict == "NON-UNIQUE" and len(found) == 1
        (d,) = found
        assert d.stress_level == (coeffs[0] if coeffs else 0.0)
        assert d.branch_values == (lo, hi)
        assert d.fractions == pytest.approx((0.7, 0.3), rel=1e-12)
        assert d.mean == pytest.approx(mu, rel=1e-12)
        # a mean outside the window has no two-point member inside it
        assert equilibria_enumerate(model, hi + 1.0) == ("UNIQUE", [])

    def test_cubic_with_large_mean_is_unique(self, cubic):
        verdict, found = equilibria_enumerate(cubic, mu=5.0)
        assert verdict == "UNIQUE"

    def test_descriptions_satisfy_level_equation(self, cubic):
        _, found = equilibria_enumerate(cubic, mu=0.3)
        for d in found:
            res = np.abs(cubic.sigma(np.array(d.branch_values)) - d.stress_level)
            assert np.max(res) <= 1e-10

    def test_unique_verdict_forces_constant_limit(self):
        # strictly monotone law: UNIQUE verdict, so every converged run must
        # end within 1e-6 of the constant state
        hyp = make_model("hyperbolic")
        mu = 1.0
        verdict, _ = equilibria_enumerate(hyp, mu)
        assert verdict == "UNIQUE"
        for seed in range(6):
            state = seeded_state(hyp, 8, mu, seed=900 + seed)
            traj = integrate(hyp, state, 60.0, n_records=121)
            assert traj.converged
            assert np.max(np.abs(traj.values[-1] - mu)) < 1e-6


P3_MINUS_P = [1.0, 0.0, -1.0, 0.0]
# two critical points 3.6e-3 apart whose values differ by 1.07e-9 of the level
FOLD_QUINTIC = [1.0, -13.169764962113316, 48.74224032576902, -39.36479424676491,
                207.37001133289712, 0.0]


def _relative_residual(model, d, scale_by_slope=False):
    """Largest |sigma(p) - c| of an example's two roots over max(1, |c|),
    and over |p sigma'(p)| too when ``scale_by_slope``."""
    p = np.array(d.branch_values)
    scale = np.full(2, max(1.0, abs(d.stress_level)))
    if scale_by_slope:
        scale = np.maximum(scale, np.abs(p * model.sigma_prime(p)))
    return float(np.max(np.abs(model.sigma(p) - d.stress_level) / scale))


class TestEquilibriumBreakpoints:
    """The verdict from the law's breakpoint levels: bistable bands that an
    evenly spaced level grid steps over, and the work it takes."""

    @pytest.mark.parametrize("window", [(-6.0, 5.0), (-12.0, 11.0)])
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.9])
    def test_band_between_grid_levels_is_found(self, window, mu):
        # the band (-0.385, 0.385) of p^3 - p held no level of a 201-level
        # grid over these windows' stress ranges
        model = make_model("poly", coeffs=P3_MINUS_P, window=window)
        verdict, found = equilibria_enumerate(model, mu)
        assert verdict == "NON-UNIQUE"
        for d in found:
            assert d.branch_values[0] < mu < d.branch_values[1]
            assert d.mean == pytest.approx(mu, abs=1e-12)
            assert _relative_residual(model, d) <= 1e-10
        if mu == 0.0:
            (d,) = [d for d in found if d.stress_level == 0.0]
            assert d.branch_values == pytest.approx((-1.0, 1.0), abs=1e-12)
            assert d.fractions == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_mean_splits_the_band(self, cubic):
        # sigma(1) = 0 is the band's midpoint, where mu = 1 is the largest
        # root: only levels in (0, c+) straddle it, so sigma(mu) must split
        # the band into two gaps
        c_plus = np.max(cubic.critical_data[1])
        verdict, found = equilibria_enumerate(cubic, 1.0)
        assert verdict == "NON-UNIQUE"
        assert [0.0 < d.stress_level < c_plus for d in found] == [True]

    def test_fold_quintic_band_below_critical_tolerance(self):
        model = make_model("poly", coeffs=FOLD_QUINTIC, window=[-12.0, 12.0])
        c_minus, c_plus = np.sort(model.critical_data[1])
        assert (c_plus - c_minus) / c_plus < 1.1e-9
        verdict, found = equilibria_enumerate(model, 5.268)
        assert verdict == "NON-UNIQUE" and found
        for d in found:
            assert c_minus < d.stress_level < c_plus
            assert d.branch_values[0] < 5.268 < d.branch_values[1]
            assert _relative_residual(model, d) <= 1e-10

    @pytest.mark.parametrize("spec", [
        *({"name": name} for name in ["log", *stress_models._POLY_PRESETS]),
        {"name": "poly", "coeffs": [1.0, 0.0, -5.0, 0.0, 4.0, 0.0]},
        {"name": "poly", "coeffs": FOLD_QUINTIC, "window": [-12.0, 12.0]},
    ], ids=["log", *stress_models._POLY_PRESETS, "quintic", "fold-quintic"])
    def test_one_call_of_at_most_k_plus_3_levels(self, spec, monkeypatch):
        model = make_model(**spec)
        zs = model.critical_data[0]
        sizes = []

        def counted(m, c):
            sizes.append(np.size(c))
            return roots_at(m, c)

        monkeypatch.setattr(asymptotics, "roots_at", counted)
        lo, hi = model.eval_window
        for mu in [lo + 0.3 * (hi - lo), 0.5 * (lo + hi), hi + 1.0, *zs]:
            sizes.clear()
            equilibria_enumerate(model, float(mu))
            assert len(sizes) == 1 and sizes[0] <= len(zs) + 3

    def test_failed_witness_check_raises(self, cubic, monkeypatch):
        # roots off their level by 1e-6 are a fault, never a silent verdict
        monkeypatch.setattr(asymptotics, "roots_at", lambda m, c: roots_at(m, c) + 1e-6)
        with pytest.raises(ModelInconsistencyError):
            equilibria_enumerate(cubic, 0.3)


@settings(max_examples=40, deadline=None)
@given(degree=st.sampled_from([1, 3, 5, 7]),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
       lead=st.floats(0.1, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       lo=st.floats(0.3, 6.0), hi=st.floats(0.3, 6.0), t=st.floats(-0.1, 1.1))
def test_verdict_agrees_with_dense_level_scan(degree, coeffs, lead, sign, lo, hi, t):
    # an odd-degree law on the window [-lo, hi]; mu from a little below it to
    # a little above. Any straddling level of 2,001 evenly spaced ones or of
    # the breakpoints makes the verdict NON-UNIQUE (a root within 1e-9 of mu
    # is mu itself, which straddles nothing)
    model = make_model("poly", coeffs=[sign * lead, *coeffs[:degree]], window=[-lo, hi])
    mu = -lo + t * (lo + hi)
    verdict, found = equilibria_enumerate(model, mu)
    at_mu = model.sigma(np.array([mu])) if -lo < mu < hi else []
    levels = np.concatenate([np.linspace(*stress_range(model), 2001),
                             level_breakpoints(model), at_mu])
    roots = roots_at(model, levels)
    roots[np.abs(roots - mu) <= 1e-9 * max(1.0, abs(mu))] = np.nan
    if np.any((np.fmin.reduce(roots, axis=1) < mu) & (mu < np.fmax.reduce(roots, axis=1))):
        assert verdict == "NON-UNIQUE"
    assert (verdict == "NON-UNIQUE") == bool(found)
    for d in found:
        lo_p, hi_p = d.branch_values
        assert lo_p < mu < hi_p and hi_p - lo_p > 1e-9 * max(1.0, abs(lo_p), abs(hi_p))
        assert _relative_residual(model, d, scale_by_slope=True) <= 1e-10


class TestConvergenceMonitor:
    def test_equilibrium_run_is_flat_zero(self, cubic):
        state = SimpleState(values=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.5]))
        traj = integrate(cubic, state, 5.0, n_records=11)
        series, flag = convergence_monitor(traj)
        assert np.allclose(series, 0.0, atol=1e-12)
        assert flag

    def test_random_cubic_run_settles(self, converged_run):
        series, flag = convergence_monitor(converged_run)
        assert flag
        assert series[-1] < 1e-8

    def test_monotone_law_exponential_tail(self):
        hyp = make_model("hyperbolic")
        state = seeded_state(hyp, 8, 1.0, seed=17)
        traj = integrate(hyp, state, 30.0, n_records=121)
        series, flag = convergence_monitor(traj)
        assert flag
        # tail decay should look geometric: ratios roughly constant below 1
        tail = series[(traj.times > 10) & (series > 1e-13)]
        ratios = tail[1:] / tail[:-1]
        assert np.all(ratios < 1.0)


class TestFFunctional:
    def test_constant_F_gives_mass_minus_one(self, cubic, converged_run):
        res = F_functional(cubic, converged_run, lambda s: np.ones_like(s))
        assert np.allclose(res.series, converged_run.mass() - 1.0, atol=1e-9)

    def test_identity_F_matches_energy(self, cubic, converged_run):
        res = F_functional(cubic, converged_run, lambda s: s, F_prime=lambda s: np.ones_like(s))
        assert res.monotone_expected and res.monotone_ok
        assert np.allclose(res.series, converged_run.energy, atol=1e-8)

    def test_squared_F_closed_form(self, cubic):
        # int_1^p (z^3-z)^2 dz = p^7/7 - 2 p^5/5 + p^3/3 - 8/105
        state = SimpleState.uniform([0.4, 1.3])
        traj = integrate(cubic, state, 0.5, n_records=3)
        res = F_functional(cubic, traj, lambda s: s ** 2)
        p = traj.values
        closed = (p ** 7 / 7 - 0.4 * p ** 5 + p ** 3 / 3 - 8.0 / 105.0) @ traj.weights
        assert np.max(np.abs(res.series - closed)) < 1e-10

    def test_monotone_F_series_nonincreasing(self, cubic, converged_run):
        res = F_functional(cubic, converged_run, lambda s: s ** 3,
                           F_prime=lambda s: 3 * s ** 2)
        assert res.monotone_expected
        assert res.monotone_ok

    @pytest.mark.parametrize("F", [np.ones_like, lambda s: s, lambda s: s ** 2, lambda s: s ** 3])
    @pytest.mark.parametrize("n, seed", [(32, 8), (64, 31)])
    def test_matches_doubling_reference(self, cubic, converged_run, F, n, seed):
        # the 32-point run is the fixture; the 64-point one has 201 records
        traj = converged_run if n == 32 else integrate(
            cubic, seeded_state(cubic, n, 0.5, seed=seed), 50.0, n_records=201)
        res = F_functional(cubic, traj, F)
        phi = CumulativeAntiderivative(cubic, F, float(np.min(traj.values)),
                                       float(np.max(traj.values)))
        assert np.max(np.abs(res.series - phi(traj.values) @ traj.weights)) <= 1e-12

    def test_rough_F_raises(self, cubic, converged_run):
        # rough only in a narrow stress band around sigma(1), so that a few
        # table panels exhaust their split budget; the doubling table
        # returned an unconverged series here
        s1 = float(cubic.sigma(np.array([1.0]))[0])
        rough = lambda s: 1.0 + 0.5 * np.sign(np.sin(1e12 * s)) * (np.abs(s - s1) < 1e-3)
        with pytest.raises(IterationBudgetError):
            F_functional(cubic, converged_run, rough)


class TestCubicInvariants:
    def test_single_root_equilibrium_satisfies_identity(self, cubic):
        # constant state at mu: sigma_bar = mu^3 - mu must be a predicted root
        mu = 0.5
        state = SimpleState(values=np.array([mu]), weights=np.array([1.0]))
        traj = integrate(cubic, state, 10.0, n_records=51)
        rep = cubic_invariants(cubic, traj)
        sigma_bar = mu ** 3 - mu
        assert rep.measured_sigma_bar == pytest.approx(sigma_bar, abs=1e-12)
        assert rep.residual < 1e-10
        assert abs(rep.identity_value) < 1e-12

    def test_two_phase_equilibrium_satisfies_identity(self, cubic):
        # values on the outer branches at stress level 0 with mean 0.5
        state = SimpleState(values=np.array([-1.0, 1.0]), weights=np.array([0.25, 0.75]))
        traj = integrate(cubic, state, 10.0, n_records=51)
        rep = cubic_invariants(cubic, traj)
        assert rep.measured_sigma_bar == pytest.approx(0.0, abs=1e-12)
        assert rep.K1 == pytest.approx(4.0 / 105.0, abs=1e-12)
        assert rep.K2 == pytest.approx(-1.0, abs=1e-12)
        assert rep.residual < 1e-10

    def test_converged_random_run_consistency(self, cubic, converged_run):
        rep = cubic_invariants(cubic, converged_run)
        assert rep.discriminant >= 0.0
        assert rep.residual <= 1e-3 * max(1.0, abs(rep.measured_sigma_bar))

    @pytest.mark.parametrize("n_records", [201, 66, 104, 182, 198])
    def test_trailing_terms_match_the_full_series_bit_for_bit(self, cubic, n_records):
        # random records, whose window starts at different offsets: a BLAS
        # product over the window's rows alone can group its sums differently
        rng = np.random.default_rng(n_records)
        p, w = rng.uniform(0.2, 1.5, (n_records, 64)), np.full(64, 1.0 / 64)
        flat = np.zeros(n_records)
        traj = Trajectory(times=np.linspace(0.0, 50.0, n_records), values=p, weights=w,
                          stress_mean=flat, energy=flat, dissipation=flat, dissipation_cum=flat)
        rep = cubic_invariants(cubic, traj)
        k1 = trailing_stats(traj.times, (p ** 7 / 7.0 - 0.4 * p ** 5 + p ** 3 / 3.0) @ w, TRAILING_FRAC)
        k2 = trailing_stats(traj.times, (cubic.sigma(p) * p - p ** 2) @ w, TRAILING_FRAC)
        assert (rep.K1, rep.K1_spread, rep.K2, rep.K2_spread) == (*k1, *k2)

    def test_zero_mean_rejected(self, cubic):
        state = SimpleState(values=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.5]))
        traj = integrate(cubic, state, 1.0, n_records=11)
        with pytest.raises(DegenerateDataError):
            cubic_invariants(cubic, traj)

    def test_unconverged_run_rejected(self, cubic):
        state = seeded_state(cubic, 16, 0.5, seed=40)
        traj = integrate(cubic, state, 0.5, n_records=11)
        with pytest.raises(NotConvergedError):
            cubic_invariants(cubic, traj)

    def test_wrong_model_rejected(self, converged_run):
        with pytest.raises(ValueError):
            cubic_invariants(make_model("hyperbolic"), converged_run)


class TestVolumeFractions:
    def test_two_phase_equilibrium_outer_fractions(self, cubic):
        s = 0.25
        state = SimpleState(values=np.array([-1.0, 1.0]), weights=np.array([s, 1 - s]))
        traj = integrate(cubic, state, 2.0, n_records=5)
        fr = volume_fractions(cubic, traj)
        assert fr.n_slots == 3
        assert np.allclose(fr.fractions[-1], [s, 0.0, 1 - s], atol=1e-12)

    def test_single_phase_state(self, cubic):
        state = SimpleState(values=np.array([2.0]), weights=np.array([1.0]))
        traj = integrate(cubic, state, 1.0, n_records=3)
        fr = volume_fractions(cubic, traj)
        assert np.allclose(fr.fractions[-1], [0.0, 0.0, 1.0], atol=1e-12)

    def test_converged_run_accounts_for_all_mass(self, cubic, converged_run):
        fr = volume_fractions(cubic, converged_run)
        assert np.all(fr.fractions[-1] >= -1e-15)
        assert fr.fractions[-1].sum() > 1.0 - 1e-6
        finite = np.isfinite(fr.residual)
        assert np.all(fr.fractions[finite].sum(axis=1) <= 1.0 + 1e-12)


def _reference_volume_fractions(model, traj):
    """Per-record loop: scalar roots_at at each record, slots by searchsorted."""
    zs, crit_vals = model.critical_data
    fractions = np.full((traj.n_records, len(zs) + 1), np.nan)
    for i, c in enumerate(traj.stress_mean):
        if len(crit_vals) and np.min(np.abs(crit_vals - c)) < 1e-9 * max(1.0, abs(c)):
            continue
        roots = roots_at(model, float(c))
        if len(roots) == 0:
            continue
        slots = np.searchsorted(zs, roots)
        eps = 0.25 * float(np.min(np.diff(roots))) if len(roots) > 1 else np.inf
        row = np.zeros(len(zs) + 1)
        for r, slot in zip(roots, slots):
            row[slot] = float(np.dot(traj.weights, np.abs(traj.values[i] - r) < eps))
        fractions[i] = row
    return fractions


def _sigma_counted(model):
    """The model with sigma wrapped to count its calls; replace keeps lambda_."""
    calls = [0]

    def sigma(p):
        calls[0] += 1
        return model.sigma(p)

    return dataclasses.replace(model, sigma=sigma), calls


class TestLevelSetWork:
    """sigma-call budgets for the batched diagnostics: a per-level or
    per-record loop (about 28k and 14k calls) fails them."""

    @pytest.fixture(scope="class")
    def run_201(self, cubic):
        return integrate(cubic, seeded_state(cubic, 32, 0.5, seed=8), 50.0, n_records=201)

    def test_volume_fractions_sigma_calls(self, cubic, run_201):
        counted, calls = _sigma_counted(cubic)
        volume_fractions(counted, run_201)
        assert calls[0] <= 500

    def test_nc3_check_sigma_calls(self, cubic):
        counted, calls = _sigma_counted(cubic)
        nc3_check(counted, mu=0.5)
        assert calls[0] <= 300

    def test_volume_fractions_match_per_record_reference(self, cubic, run_201):
        # equal dyadic weights (1/32) make every weight sum exact in any order
        fr = volume_fractions(cubic, run_201)
        ref = _reference_volume_fractions(cubic, run_201)
        assert fr.fractions.tobytes() == ref.tobytes()


class TestNondegeneracy:
    def test_cubic_branch_mean_is_zero(self, cubic):
        rep = nc3_check(cubic, mu=0.5)
        assert np.max(np.abs(rep.branch_mean)) < 1e-9
        assert rep.nondegenerate  # mean misses mu = 0.5 everywhere

    def test_cubic_zero_mean_degenerate(self, cubic):
        rep = nc3_check(cubic, mu=0.0)
        assert not rep.nondegenerate

    def test_shifted_cubic_branch_mean_is_one(self):
        # sigma = (p-1)^3 - (p-1): branch sum is 3, mean 1
        model = make_model("shifted-cubic", a=1.0, b=-3.0, c=2.0, d=0.0)
        probe = np.linspace(-1.5, 2.5, 9)
        assert np.allclose(model.sigma(probe), (probe - 1) ** 3 - (probe - 1), atol=1e-12)
        rep_deg = nc3_check(model, mu=1.0)
        assert not rep_deg.nondegenerate
        rep_ok = nc3_check(model, mu=0.5)
        assert rep_ok.nondegenerate
        assert np.max(np.abs(rep_ok.branch_mean - 1.0)) < 1e-9

    def test_monotone_model_rejected(self):
        with pytest.raises(HypothesisError):
            nc3_check(make_model("hyperbolic"), mu=1.0)

    @pytest.mark.parametrize("params, a, b", [
        ({"name": "cubic"}, 1.0, 0.0),
        ({"name": "shifted-cubic", "a": 2.0, "b": -1.5, "c": -1.0, "d": 0.3}, 2.0, -1.5),
    ])
    def test_branch_mean_is_the_vieta_mean(self, params, a, b):
        # the three roots of a p^3 + b p^2 + c p + d = level sum to -b/a at
        # every level, so the branch mean is -b/(3a) across the band
        model = make_model(**params)
        vieta = -b / (3.0 * a)
        for mu in (vieta, vieta + 1e-10, vieta - 1e-6, vieta + 0.5):
            rep = nc3_check(model, mu)
            assert np.max(np.abs(rep.branch_mean - vieta)) <= 1e-14
            assert rep.nondegenerate == (abs(vieta - mu) > 1e-8)

    def test_cubic_branch_derivatives_are_dependent(self, cubic):
        # the three roots of p^3 - p = c sum to zero for every c (depressed
        # cubic), so the branch derivatives sum to zero pointwise: the Gram
        # matrix is singular and the verdict must be DEPENDENT
        rep = nc_linear_independence(cubic, (-0.2, 0.2))
        assert not rep.independent
        assert abs(rep.min_eigenvalue) < 1e-12 * rep.trace

    def test_nonpolynomial_law_branch_derivatives_independent(self):
        # sigma = p^3 - p - kappa/p with small kappa is bistable on (0, inf)
        # and its three positive branches have a level-dependent sum, so the
        # derivative vectors are genuinely independent
        model = make_model("singular-cubic", kappa=0.05)
        zs, cs = np.asarray(model.critical_data[0]), np.asarray(model.critical_data[1])
        assert len(zs) == 2
        c_minus, c_plus = cs[1], cs[0]
        span = c_plus - c_minus
        # oracle for the level-dependent sum: quartic root bookkeeping
        def branch_sum(c):
            roots = np.roots([1.0, 0.0, -1.0, -c, -0.05])
            real = np.sort(roots[np.abs(roots.imag) < 1e-10].real)
            pos = real[real > 0]
            return pos.sum()
        s1 = branch_sum(c_minus + 0.3 * span)
        s2 = branch_sum(c_minus + 0.7 * span)
        assert abs(s1 - s2) > 1e-4
        rep = nc_linear_independence(
            model, (c_minus + 0.25 * span, c_plus - 0.25 * span)
        )
        assert rep.independent
        assert rep.min_eigenvalue > 0

    def test_duplicated_vectors_dependent(self):
        v = np.linspace(1.0, 2.0, 16)
        rep = gram_independence(np.vstack([v, v]))
        assert not rep.independent
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_single_vector_trivially_independent(self):
        rep = gram_independence(np.linspace(0.5, 1.0, 8)[None, :])
        assert rep.independent


class TestReport:
    def test_report_on_converged_cubic_run(self, cubic, converged_run):
        rep = asymptotics_report(cubic, converged_run)
        assert rep.settled
        assert rep.K1 is not None and rep.K2 is not None
        assert rep.sigma_bar_residual <= 1e-3
        assert rep.nc3_nondegenerate is True
        assert rep.fractions_final is not None
        d = rep.to_dict()
        assert isinstance(d["predicted_sigma_bar"], list)

    def test_report_fractions_need_only_the_last_record(self, cubic, monkeypatch):
        # with weights that are not dyadic, the last record's fractions
        # alone equal the history's last row bit for bit
        import strainflow.asymptotics as asymptotics

        state = seeded_state(cubic, 24, 0.5, seed=1)
        w = np.random.default_rng(1).uniform(0.5, 1.0, 24)
        state = SimpleState(values=state.values, weights=w / w.sum())
        traj = integrate(cubic, state, 30.0, n_records=61)
        fr = volume_fractions(cubic, traj)
        monkeypatch.setattr(asymptotics, "volume_fractions", None)
        rep = asymptotics_report(cubic, traj)
        assert rep.fractions_final == fr.fractions[-1].tolist()
        assert rep.fractions_residual_final == fr.residual[-1]

    def test_report_on_monotone_run(self):
        hyp = make_model("hyperbolic")
        state = seeded_state(hyp, 8, 1.0, seed=2)
        traj = integrate(hyp, state, 40.0, n_records=161)
        rep = asymptotics_report(hyp, traj)
        assert rep.settled
        assert rep.K1 is None
        assert rep.nc_gram_condition == pytest.approx(1.0, rel=1e-6)

    def test_gram_check_skips_only_package_errors(self, cubic, converged_run, monkeypatch):
        # a typed package error leaves the Gram fields empty; any other
        # exception is a fault and must reach the caller
        def broken(error):
            def nc_linear_independence(*args, **kwargs):
                raise error("broken Gram check")
            return nc_linear_independence

        monkeypatch.setattr("strainflow.asymptotics.nc_linear_independence",
                            broken(InvalidIntervalError))
        rep = asymptotics_report(cubic, converged_run)
        assert rep.nc_gram_condition is None and rep.nc_gram_min_eigenvalue is None
        monkeypatch.setattr("strainflow.asymptotics.nc_linear_independence", broken(TypeError))
        with pytest.raises(TypeError):
            asymptotics_report(cubic, converged_run)

