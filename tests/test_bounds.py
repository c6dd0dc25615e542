import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expi

from strainflow.bounds import (
    DEFAULT_T_GRID,
    _escape_envelope,
    bounds_profile,
    certify_lower_constants,
    certify_upper_threshold,
    displacement_lower,
    displacement_upper,
    mixed_lower,
    mixed_upper,
    time_from_zero_curve,
)
from strainflow.errors import (
    CertificationError,
    HypothesisError,
    IntegrabilityError,
    StrainflowError,
)
from strainflow.mixed import solve_field
from strainflow.numerics import CumulativeCurve
from strainflow.stress_models import make_model

from reference_quadrature import heap_quad_adaptive, sequential_quad_to_infinity


@pytest.fixture(scope="module")
def hyperbolic():
    return make_model("hyperbolic")


@pytest.fixture(scope="module")
def singular():
    return make_model("singular-cubic", kappa=0.5)


@pytest.fixture(scope="module")
def cubic():
    return make_model("cubic")


class TestMixedLower:
    def test_hyperbolic_closed_form(self, hyperbolic):
        # sigma = p - 1/p: g(p) = -0.5 ln(1 - p^2), inverse sqrt(1 - e^{-2t})
        t = np.geomspace(1e-4, 50.0, 60)
        curve, consts = mixed_lower(hyperbolic, t)
        exact = np.minimum(1.0, np.sqrt(1.0 - np.exp(-2.0 * t)))
        assert consts["p_minus"] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(curve - exact)) < 2e-6

    def test_saturates_at_smallest_root(self, hyperbolic):
        t = np.array([50.0, 200.0, 1000.0])
        curve, consts = mixed_lower(hyperbolic, t)
        assert np.allclose(curve, consts["p_minus"], atol=1e-5)

    def test_log_model_against_quadrature_oracle(self):
        model = make_model("log")
        t = np.array([0.01, 0.1, 0.5])
        curve, _ = mixed_lower(model, t)
        for ti, pi in zip(t, curve):
            # independent oracle: scipy quadrature of the defining relation
            val, _ = quad(lambda z: -1.0 / np.log(z), 0.0, pi)
            assert val == pytest.approx(ti, abs=1e-6)

    def test_positive_and_nondecreasing(self, singular):
        t = np.geomspace(1e-6, 1e3, 200)
        curve, _ = mixed_lower(singular, t)
        assert np.all(curve > 0.0)
        assert np.all(np.diff(curve) >= -1e-12)

    def test_zero_strain_inverse_is_exact_for_its_table(self, singular):
        # dp/dt is about 500 at t = 1e-6, so a residual stop of 1e-14 in time
        # left the early inverse 5e-9 relative off; the Newton correction
        # stop is at roundoff
        curve = time_from_zero_curve(singular)[0]
        got = curve.invert(DEFAULT_T_GRID)
        exact = _bisect_table(curve, DEFAULT_T_GRID)
        assert np.all(np.abs(got - exact) <= 1e-12 * exact)

    def test_zero_strain_inverse_next_to_every_node(self, singular):
        # one ulp below each table entry the inverse is its node: the
        # solver's stops are relative, so nodes down to 1e-12 * p_minus keep
        # their digits (absolute stops left 227 of 479 more than 1e-12 off,
        # the worst 4e-4, and 299 outside their panel)
        curve = time_from_zero_curve(singular)[0]
        got = curve.invert(np.nextafter(curve.cum[1:], -np.inf))
        assert np.all(np.abs(got - curve.nodes[1:]) <= 1e-12 * curve.nodes[1:])
        assert np.all((curve.nodes[:-1] <= got) & (got <= curve.nodes[1:]))

    @pytest.mark.parametrize("params, match", [
        (dict(name="cubic"), "positive-only domain"),
        # 1 - p on (0, inf): positive between zero strain and its root 1
        (dict(name="poly", coeffs=[-1.0, 1.0], domain="positive"),
         "not negative between zero strain and its smallest root"),
    ])
    def test_rejects_model_without_blowup(self, params, match):
        with pytest.raises(HypothesisError, match=match):
            mixed_lower(make_model(**params), np.array([1.0]))

    @pytest.mark.parametrize("name", ["singular-cubic", "log", "hyperbolic", "linear"])
    def test_zero_strain_inversion_rounds(self, name, monkeypatch):
        # nodes graded toward the root keep every target's panel narrow
        # enough for a few Newton steps: 6-8 calls of f, where one panel
        # across [0.944, 0.999999] p_minus took 20-21
        import strainflow.numerics as numerics

        curve = time_from_zero_curve(make_model(name))[0]
        calls = [0]
        real = numerics.bisect_root

        def spy(f, fprime, lo, hi, **kwargs):
            def counted(x, i):
                calls[0] += 1
                return f(x, i)
            return real(counted, fprime, lo, hi, **kwargs)

        monkeypatch.setattr(numerics, "bisect_root", spy)
        curve.invert(DEFAULT_T_GRID)
        assert 0 < calls[0] <= 10

    def test_singular_saturation_time_against_mpmath(self, singular):
        # the whole table, 0 to (1 - 1e-6) p_minus: 3.6e-14 relative off
        # with graded nodes, 1.8e-13 with purely geometric ones
        _, consts = mixed_lower(singular, DEFAULT_T_GRID)
        end = (1.0 - 1e-6) * consts["p_minus"]
        exact = _mp_time(lambda z: -1 / _singular_sigma(z), [0.0], [end])[0]
        assert abs(consts["t_saturate_lower"] - exact) <= 1e-13 * exact


class TestMixedUpper:
    def test_saturates_at_largest_root_plus_one(self):
        model = make_model("poly", coeffs=[1.0, 0.0, 0.0], kappa=1.0)  # p^2 - 1/p
        t = np.array([10.0, 100.0])
        curve, consts = mixed_upper(model, t)
        assert consts["p_plus"] == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(curve, consts["p_plus"] + 1.0)

    def test_inverse_escape_time_against_oracle(self):
        model = make_model("poly", coeffs=[1.0, 0.0, 0.0], kappa=1.0)
        t = np.array([0.01, 0.05, 0.2])
        curve, consts = mixed_upper(model, t)
        for ti, pi in zip(t, curve):
            if ti < consts["t_saturate_upper"]:
                val, _ = quad(lambda z: 1.0 / (z ** 2 - 1.0 / z), pi, np.inf)
                assert val == pytest.approx(ti, rel=1e-5)

    def test_small_time_tail_comparison(self):
        # for p^2 - 1/p the escape integral behaves like 1/p at large p,
        # so the curve grows like 1/t as t -> 0
        model = make_model("poly", coeffs=[1.0, 0.0, 0.0], kappa=1.0)
        t = np.array([1e-4, 1e-3])
        curve, _ = mixed_upper(model, t)
        assert curve[0] == pytest.approx(1.0 / t[0], rel=0.05)
        assert curve[1] == pytest.approx(1.0 / t[1], rel=0.05)

    def test_log_model_tail_divergence(self):
        with pytest.raises(IntegrabilityError):
            mixed_upper(make_model("log"), np.array([1.0]))

    def test_nonincreasing(self, singular):
        t = np.geomspace(1e-6, 1e3, 200)
        curve, _ = mixed_upper(singular, t)
        assert np.all(np.diff(curve) <= 1e-12)


def _tail_cases():
    """The escape times the envelopes take, with their integrands: 1/sigma
    beyond p+ + 1 for each registered law (t_saturate_upper), and the
    escape-time integrand above the certified threshold M for a range of
    masses (t0_upper)."""
    cases = []
    for name in ("cubic", "shifted-cubic", "singular-cubic", "hyperbolic", "linear", "log"):
        model = make_model(name)
        start = float(model.roots_of_sigma[-1]) + 1.0
        cases.append((lambda t, m=model: mixed_upper(m, t)[1]["t_saturate_upper"],
                      lambda z, m=model: 1.0 / m.sigma(z), start))
        for mu in np.linspace(0.1, 3.0, 12):
            try:
                M = certify_upper_threshold(model, mu)
            except StrainflowError:
                continue
            cases.append((lambda t, m=model, mu=mu: displacement_upper(m, mu, t)[1]["t0_upper"],
                          lambda z, m=model, mu=mu: 2.0 * z / (m.sigma(z) * (z - 2.0 * mu)), M))
    return cases


class TestEscapeTimes:
    """The total escape times, tabulated from infinity, against the doubling
    segment summation with geometric extrapolation that they replaced."""

    def test_totals_match_segment_summation(self):
        cases = _tail_cases()
        assert len(cases) > 40
        converged = 0
        for total, f, a in cases:
            try:
                ref = sequential_quad_to_infinity(f, a, tol=1e-9)
            except IntegrabilityError:
                with pytest.raises(IntegrabilityError, match="diverges"):
                    total(np.array([1.0]))
                continue
            assert total(np.array([1.0])) == pytest.approx(ref, rel=1e-9)
            converged += 1
        assert converged > 20

    def test_closed_forms(self):
        # int_2^inf z^-3 = 1/8; int_2^inf e^-z = e^-2; the curve inverts them
        t = np.array([1e-10, 1e-3, 0.1, 1.0])
        curve, total = _escape_envelope(lambda z: z ** -3.0, 2.0, t, "z^-3")
        assert total == pytest.approx(0.125, rel=1e-13)
        assert np.allclose(curve, np.maximum(2.0, 1.0 / np.sqrt(2.0 * t)), rtol=2e-9, atol=0)
        _, total = _escape_envelope(lambda z: np.exp(-z), 2.0, t, "e^-z")
        assert total == pytest.approx(np.exp(-2.0), rel=1e-13)

    @pytest.mark.parametrize("name", ["log", "linear", "hyperbolic"])
    def test_registered_divergent_laws_raise(self, name):
        # their tails are not integrable at u = 0, which only the decade
        # test sees: a table alone would return a finite escape time
        model = make_model(name)
        with pytest.raises(IntegrabilityError, match="diverges"):
            mixed_upper(model, np.array([1.0]))
        with pytest.raises(IntegrabilityError, match="diverges"):
            displacement_upper(model, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("tail", [lambda z: 1.0 / z, lambda z: 1.0 / np.log(z),
                                      lambda z: z ** -0.9], ids=["1/z", "1/ln z", "z^-0.9"])
    def test_divergent_tails_raise(self, tail):
        with pytest.raises(IntegrabilityError, match="diverges"):
            _escape_envelope(tail, 2.0, np.array([1.0]), "the tail")


class TestDisplacementLower:
    def test_certified_constants_match_grid_oracle(self, singular):
        mu = 1.0
        C, eps0, t0 = certify_lower_constants(singular, mu)
        assert C > 0 and 0 < eps0 < mu
        # oracle: dense independent grid infimum of the difference quotient
        p = np.geomspace(1e-8, 10.0, 900)
        d = np.geomspace(1e-8, eps0, 200)
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (singular.sigma(p)[:, None] - singular.sigma(d)[None, :]) / (
                p[:, None] - d[None, :]
            )
        mask = np.abs(p[:, None] - d[None, :]) > 1e-12
        oracle_inf = np.min(quot[mask])
        assert C <= oracle_inf  # the certified constant keeps a safety margin
        assert C >= oracle_inf / 1.2

    @pytest.mark.parametrize("law", [
        # sigma falls below sigma(eps0) beyond eps0 until eps0 = 1/64
        dict(name="singular-cubic", kappa=0.01),
        # a bump of sigma at 0.05 above its dip at 0.1 gives negative
        # quotients from eps0 = 0.25 and 0.125, then the first case's halving
        dict(name="poly", coeffs=[1.0, -0.225, 0.015, 0.0], domain="positive", theta=0.5),
    ])
    def test_halved_eps0_constants_match_dense_oracle(self, law):
        model, mu = make_model(**law), 1.0
        C, eps0, t0 = certify_lower_constants(model, mu)
        assert eps0 == 0.5 * min(model.theta, mu) / 16 and C > 0
        assert t0 == pytest.approx(np.log(mu / (mu - eps0)) / C, rel=1e-15)
        # oracle: every difference quotient with one foot below eps0 on a
        # denser grid, in row blocks; equal feet are masked before dividing
        p, d = np.geomspace(1e-8, 10.0, 20_000), np.geomspace(1e-8, eps0, 3_000)
        sig_p, sig_d = model.sigma(p), model.sigma(d)
        assert np.all(sig_p[p > eps0] > model.sigma(np.array([eps0]))[0])
        oracle_inf = np.inf
        for rows in np.array_split(np.arange(len(p)), 20):
            dp = p[rows, None] - d[None, :]
            keep = dp != 0.0
            quot = (sig_p[rows, None] - sig_d[None, :])[keep] / dp[keep]
            oracle_inf = min(oracle_inf, float(np.min(quot)))
        assert oracle_inf / 1.2 <= C <= oracle_inf

    def test_no_eps0_certifies_raises(self):
        # p^3 - p on (0, inf) falls below sigma(eps0) beyond every eps0 tried
        model = make_model("poly", coeffs=[1.0, 0.0, -1.0, 0.0], domain="positive", theta=0.5)
        with pytest.raises(CertificationError, match="no eps0"):
            certify_lower_constants(model, 1.0)

    def test_curve_shape(self, singular):
        mu = 1.0
        t = np.linspace(0.0, 2.0, 400)[1:]
        curve, consts = displacement_lower(singular, mu, t)
        eps0, t0 = consts["eps0"], consts["t0_lower"]
        # continuity splice: the exponential hits eps0 exactly at t0
        assert mu * (1.0 - np.exp(-consts["C"] * t0)) == pytest.approx(eps0, abs=1e-12)
        rising = t <= t0
        assert np.all(np.diff(curve[rising]) > 0)
        assert np.allclose(curve[~rising], eps0)
        assert np.all(curve < mu)
        assert np.all(curve > 0)

    def test_lower_curve_starts_at_zero(self, singular):
        t = np.array([1e-12])
        curve, _ = displacement_lower(singular, 1.0, t)
        assert curve[0] == pytest.approx(0.0, abs=1e-10)

    def test_rejects_nonpositive_mu(self, singular):
        with pytest.raises(CertificationError):
            displacement_lower(singular, 0.0, np.array([1.0]))


class TestDisplacementUpper:
    def test_cubic_constants_and_plateau(self, cubic):
        mu = 0.5
        t = np.geomspace(1e-5, 100.0, 300)
        curve, consts = displacement_upper(cubic, mu, t)
        M, t0 = consts["M"], consts["t0_upper"]
        assert M > 2.0 * mu
        assert np.isfinite(t0) and t0 > 0
        assert np.all(curve[t >= t0] == M)
        assert np.all(np.diff(curve) <= 1e-9)
        assert np.all(curve > mu)

    def test_escape_time_against_oracle(self, cubic):
        mu = 0.5
        M = certify_upper_threshold(cubic, mu)
        ref, _ = quad(lambda z: 2.0 * z / ((z ** 3 - z) * (z - 1.0)), M, np.inf)
        t = np.geomspace(1e-4, 10.0, 50)
        _, consts = displacement_upper(cubic, mu, t)
        assert consts["t0_upper"] == pytest.approx(ref, rel=1e-6)

    def test_curve_inverts_the_escape_integral(self, cubic):
        mu = 0.5
        t = np.array([0.01, 0.05, 0.1])
        curve, consts = displacement_upper(cubic, mu, t)
        M, t0 = consts["M"], consts["t0_upper"]
        for ti, Ei in zip(t, curve):
            val, _ = quad(lambda z: 2.0 * z / ((z ** 3 - z) * (z - 2 * mu)), M, Ei)
            assert val == pytest.approx(t0 - ti, abs=1e-6)

    def test_blows_up_toward_zero_time(self, cubic):
        t = np.array([1e-6, 1e-5])
        curve, _ = displacement_upper(cubic, 0.5, t)
        assert curve[0] > curve[1] > 10.0

    def test_singular_model_certifies(self, singular):
        t = np.geomspace(1e-4, 50.0, 100)
        curve, consts = displacement_upper(singular, 1.0, t)
        assert consts["M"] > 2.0
        assert np.all(np.diff(curve) <= 1e-9)

    def test_full_line_plateau_dominates_negative_strain_stress(self, cubic):
        # the plateau must top every branch value of every reachable stress
        # level; for the cubic the negative strains carry stress up to the
        # fold value sigma(-1/sqrt(3)), so M must exceed the outer branch
        # value there, 2/sqrt(3)
        M = certify_upper_threshold(cubic, 0.5)
        assert M > 2.0 / np.sqrt(3.0)

    def test_threshold_dominates_every_negative_critical_value(self):
        # a fold value narrower than a 2000-point scan of [-3, 0] resolves:
        # the scan misses sigma's peak at the critical point near -0.568 by
        # 1.2e-7, which a grid-certified M then fails to dominate
        model = make_model("poly", coeffs=[1.0, 0.0, -0.967575, 0.0])
        M = certify_upper_threshold(model, 0.5)
        zs, crit_vals = model.critical_data
        assert np.any(zs <= 0.0)
        assert float(model.sigma(M / 1.1)) >= np.max(crit_vals[zs <= 0.0])

    def test_full_line_enclosure_over_random_runs(self, cubic):
        from strainflow.displacement import integrate, seeded_state

        t_records = np.linspace(0.0, 40.0, 81)
        upper, consts = displacement_upper(cubic, 0.5, t_records[1:])
        worst = np.inf
        for seed in (11, 23, 35):
            state = seeded_state(cubic, 16, 0.5, seed=seed)
            traj = integrate(cubic, state, 40.0, n_records=81)
            worst = min(worst, float(np.min(upper - traj.values[1:].max(axis=1))))
        assert worst >= 0.0


class TestProfiles:
    def test_displacement_profile_orders_curves(self, singular):
        mu = 1.0
        prof = bounds_profile(singular, "displacement", mu=mu)
        sel = prof.t_grid > 0
        assert np.all(prof.lower[sel] < mu)
        assert np.all(prof.upper[sel] > mu)
        assert np.all(np.diff(prof.lower) >= -1e-12)
        assert np.all(np.diff(prof.upper) <= 1e-12)

    def test_mixed_profile_for_quadratic_singular(self):
        model = make_model("poly", coeffs=[1.0, 0.0, 0.0], kappa=1.0)
        prof = bounds_profile(model, "mixed", t_grid=np.geomspace(1e-3, 10, 50))
        assert np.all(prof.lower <= prof.upper)

    def test_profile_interpolation(self, singular):
        prof = bounds_profile(singular, "displacement", mu=1.0,
                              t_grid=np.geomspace(1e-4, 10, 100))
        mid = prof.lower_at(0.5)
        assert prof.lower[0] <= mid <= prof.lower[-1]

    def test_data_independence_is_structural(self):
        # the constructors accept no initial data by signature
        import inspect

        for fn in (mixed_lower, mixed_upper):
            assert list(inspect.signature(fn).parameters) == ["model", "t_grid"]
        for fn in (displacement_lower, displacement_upper):
            assert list(inspect.signature(fn).parameters) == ["model", "mu", "t_grid"]


_ORACLE_T = np.union1d(DEFAULT_T_GRID, np.geomspace(1e-10, 1e-6, 9))


def _p2_escape(p):
    """int_p^inf dz/(z^2 - 1/z) = sum_k p^-(3k+1)/(3k+1), for p > 1."""
    k = np.arange(30)[:, None]
    return np.sum(np.asarray(p, dtype=float) ** -(3.0 * k + 1.0) / (3.0 * k + 1.0), axis=0)


def _mp_time(integrand, lo, hi):
    """An mpmath quadrature at 30 digits, one point at a time."""
    with mpmath.workdps(30):
        return np.array([float(mpmath.quad(integrand, [mpmath.mpf(a), b]))
                         for a, b in zip(lo, hi)])


def _singular_sigma(z):
    return z ** 3 - z - mpmath.mpf("0.5") / z


# (model, builder, exact time as a function of the envelope value, its rate
# |dT/dp|, and the subsample of _ORACLE_T it is checked on). The exact time
# is the escape time from p for an upper envelope and the travel time from
# zero strain to p for a lower one; either way the envelope encloses the
# exact strain exactly when that time is at most t.
_ORACLE_CASES = {
    "cubic-mixed-upper": (
        ("cubic", {}), mixed_upper,
        lambda p: -0.5 * np.log1p(-1.0 / p ** 2),
        lambda p: 1.0 / (p ** 3 - p), slice(None)),
    "cubic-displacement-upper": (
        ("cubic", {}), lambda m, t: displacement_upper(m, 0.5, t),
        lambda p: 1.0 / (p - 1.0) - np.arctanh(1.0 / p),
        lambda p: 2.0 / ((p - 1.0) ** 2 * (p + 1.0)), slice(None)),
    "p2-mixed-upper": (
        ("poly", {"coeffs": [1.0, 0.0, 0.0], "kappa": 1.0}), mixed_upper,
        _p2_escape, lambda p: p / (p ** 3 - 1.0), slice(None)),
    "log-mixed-lower": (
        ("log", {}), mixed_lower,
        lambda p: -expi(np.log(p)), lambda p: -1.0 / np.log(p), slice(None)),
    "hyperbolic-mixed-lower": (
        ("hyperbolic", {}), mixed_lower,
        lambda p: -0.5 * np.log1p(-p ** 2), lambda p: p / (1.0 - p ** 2), slice(None)),
    "singular-mixed-upper": (
        ("singular-cubic", {}), mixed_upper,
        lambda p: _mp_time(lambda z: 1 / _singular_sigma(z), p, [mpmath.inf] * len(p)),
        lambda p: p / (p ** 4 - p ** 2 - 0.5), slice(None, None, 9)),
    "singular-mixed-lower": (
        ("singular-cubic", {}), mixed_lower,
        lambda p: _mp_time(lambda z: -1 / _singular_sigma(z), np.zeros(len(p)), p),
        lambda p: p / (0.5 + p ** 2 - p ** 4), slice(None, None, 9)),
    "singular-displacement-upper": (
        ("singular-cubic", {}), lambda m, t: displacement_upper(m, 1.0, t),
        lambda p: _mp_time(lambda z: 2 * z / (_singular_sigma(z) * (z - 2)), p,
                           [mpmath.inf] * len(p)),
        lambda p: 2.0 * p ** 2 / ((p ** 4 - p ** 2 - 0.5) * (p - 2.0)), slice(None, None, 9)),
}


class TestEnvelopeOracles:
    """Every envelope against an exact escape or travel time, down to
    t = 1e-10: enclosure at every point, and tightness to 1e-8 relative in
    the strain for t >= 1e-6 wherever the envelope is not at its clamp."""

    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_encloses_and_is_tight(self, case):
        (name, params), build, exact_time, rate, subsample = _ORACLE_CASES[case]
        t = _ORACLE_T[subsample]
        env, consts = build(make_model(name, **params), t)
        if "t_saturate_lower" in consts:  # past it, the table end 1e-6 short of p_minus
            free = t < consts["t_saturate_lower"]
        else:  # the clamp at the start point is the saturation
            start, total = ((consts["M"], consts["t0_upper"]) if "M" in consts
                            else (consts["p_plus"] + 1.0, consts["t_saturate_upper"]))
            free = t < total
            assert np.all(env[~free] == start)
            assert total == pytest.approx(float(exact_time(np.array([start]))[0]), rel=1e-12)
        slack = t - exact_time(env)
        assert np.all(slack >= 0.0)
        free &= t >= 1e-6
        gap = slack[free] / (env[free] * rate(env[free]))  # relative strain gap, to first order
        assert np.all(gap <= 1e-8)


def _scalar_invert(curve, target, xtol=1e-12):
    """The per-target inversion the batch invert replaced: safeguarded Newton
    with an adaptive quadrature from the panel anchor at every iterate."""
    if target <= curve.cum[0]:
        return float(curve.nodes[0])
    if target >= curve.cum[-1]:
        return float(curve.nodes[-1])
    j = int(np.searchsorted(curve.cum, target) - 1)
    anchor, g_anchor = float(curve.nodes[j]), float(curve.cum[j])
    lo, hi = anchor, float(curve.nodes[j + 1])
    x = 0.5 * (lo + hi)
    for _ in range(120):
        gx = g_anchor + heap_quad_adaptive(curve.f, anchor, x, tol=curve.tol)
        if gx < target:
            lo = x
        else:
            hi = x
        if abs(gx - target) <= 1e-14 * max(1.0, abs(target)):
            return x
        deriv = float(curve.f(np.array([x]))[0])
        x_new = x - (gx - target) / deriv if np.isfinite(deriv) and deriv > 0 else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if hi - lo <= xtol * max(1.0, abs(hi)):
            return x_new
        x = x_new
    raise AssertionError("reference inversion did not converge")


def _bisect_table(curve, targets):
    """The exact inverse of a curve's own point values: 200 halvings of the
    whole table range per target, out-of-range targets clipped as in invert."""
    t = np.asarray(targets, dtype=float)
    lo, hi = np.full(t.shape, curve.nodes[0]), np.full(t.shape, curve.nodes[-1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = curve.value(mid) < t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(t <= curve.cum[0], lo, np.where(t >= curve.cum[-1], hi, 0.5 * (lo + hi)))


class TestBatchInversion:
    """Every target each envelope inverts, against the scalar reference."""

    @pytest.fixture()
    def recorded(self, monkeypatch):
        calls = []
        batch = CumulativeCurve.invert

        def spy(curve, target, *args, **kwargs):
            out = batch(curve, target, *args, **kwargs)
            calls.append((curve, np.atleast_1d(target).copy(), np.atleast_1d(out)))
            return out

        monkeypatch.setattr(CumulativeCurve, "invert", spy)
        return calls

    def _check(self, calls, n_calls):
        # each inverse is no farther from the exact inverse of the table than
        # the scalar reference, whose 1e-14 absolute residual stop leaves up
        # to 6e-10 relative error where the curve is flat, or within 1e-12
        assert len(calls) == n_calls
        for curve, targets, got in calls:
            ref = np.array([_scalar_invert(curve, float(t)) for t in targets])
            exact = _bisect_table(curve, targets)
            assert np.all(np.abs(got - exact) <= np.maximum(np.abs(ref - exact), 1e-12 * exact))

    def test_mixed_envelopes(self, recorded):
        model = make_model("singular-cubic")
        zero_curve = time_from_zero_curve(model)[0]
        # times whose inverse lies in the last table panel below p_minus,
        # where 1/sigma blows up
        last = np.linspace(zero_curve.cum[-2], zero_curve.cum[-1], 24)[1:-1]
        t = np.sort(np.concatenate([np.geomspace(1e-6, 1e3, 40), last]))
        mixed_lower(model, t)
        mixed_upper(model, t)
        self._check(recorded, 2)
        curve, targets, _ = recorded[0]
        j = np.searchsorted(curve.cum, targets) - 1
        assert np.count_nonzero(j == len(curve.nodes) - 2) >= 20

    def test_free_field_grid_quadrature_calls(self, monkeypatch):
        # targets within about 1e-5 of p_minus, where roundoff in sigma
        # keeps the residual from vanishing, stop on the Newton correction:
        # the table build, the bracket ends and 20 iterations, against 43
        # calls for a stop on the bracket width alone
        import strainflow.numerics as numerics

        calls = [0]
        real = numerics.quad_adaptive

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(numerics, "quad_adaptive", counted)
        mixed_lower(make_model("singular-cubic"), np.linspace(0.0, 20.0, 201))
        assert calls[0] <= 24

    def test_free_field_builds_zero_strain_curve_once(self, monkeypatch):
        # the bounds and the zero-strain samples share one travel-time curve
        builds = []
        real = CumulativeCurve.__init__

        def counted(curve, *args, **kwargs):
            builds.append(curve)
            real(curve, *args, **kwargs)

        monkeypatch.setattr(CumulativeCurve, "__init__", counted)
        model = make_model("singular-cubic")
        bounds_profile(model, "mixed", t_grid=np.linspace(0.0, 20.0, 201))
        solve_field(model, [0.0, 0.0, 0.5, 2.0], np.linspace(0.0, 20.0, 201))
        zero_curve = time_from_zero_curve(model)[0]  # kept on the model: no new build
        assert len(builds) == 2  # the zero-strain curve and the escape-time table
        assert sum(curve is zero_curve for curve in builds) == 1

    @pytest.mark.parametrize("name, mu", [("cubic", 0.5), ("singular-cubic", 1.0)])
    def test_displacement_upper(self, recorded, name, mu):
        displacement_upper(make_model(name), mu, np.geomspace(1e-6, 1e3, 60))
        self._check(recorded, 1)

    def test_zero_strain_bootstrap(self, recorded):
        t = np.concatenate([[0.0], np.geomspace(1e-6, 2.0, 40)])
        solve_field(make_model("log"), [0.0, 0.5], t)
        self._check(recorded, 1)
