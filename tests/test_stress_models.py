import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainflow.errors import (
    DomainError,
    EstimationError,
    InvalidIntervalError,
)
from strainflow.stress_models import (
    FULL_LINE,
    POSITIVE,
    StressModel,
    check_hypotheses,
    critical_points,
    estimate_lambda,
    eval_W,
    find_branches,
    make_model,
    near_critical_value,
    roots_at,
)
from strainflow import stress_models


@pytest.fixture(scope="module")
def cubic():
    return make_model("cubic")


@pytest.fixture(scope="module")
def singular():
    return make_model("singular-cubic", kappa=0.5)


class TestStoredEnergy:
    def test_cubic_W_at_one_is_zero(self, cubic):
        assert eval_W(cubic, 1.0) == 0.0

    def test_cubic_closed_form(self, cubic):
        ps = np.linspace(-3.0, 3.0, 41)
        expected = 0.25 * (ps ** 2 - 1.0) ** 2
        assert np.allclose(eval_W(cubic, ps), expected, atol=1e-12)

    def test_cubic_quadrature_matches_closed_form(self, cubic):
        ps = np.linspace(-3.0, 3.0, 25)
        numeric = eval_W(cubic, ps, force_quadrature=True)
        assert np.max(np.abs(numeric - 0.25 * (ps ** 2 - 1.0) ** 2)) < 1e-9

    @pytest.mark.parametrize("name, ps", [
        ("cubic", np.linspace(-3.0, 3.0, 25)),
        ("singular-cubic", np.geomspace(1e-6, 3.0, 25)),
    ])
    def test_quadrature_one_sigma_call_per_level(self, name, ps):
        # every point shares each refinement level's sigma call, so the whole
        # batch takes as many calls as its deepest single point
        model = make_model(name)
        calls = [0]

        def counted(p):
            calls[0] += 1
            return model.sigma(p)

        counted_model = dataclasses.replace(model, sigma=counted)
        batch = eval_W(counted_model, ps, force_quadrature=True)
        n_batch, deepest = calls[0], 0
        for p, w in zip(ps, batch):
            calls[0] = 0
            assert eval_W(counted_model, p, force_quadrature=True) == pytest.approx(w, abs=1e-14)
            deepest = max(deepest, calls[0])
        assert n_batch == deepest

    def test_log_model_W_at_e(self):
        # int_1^e ln z dz = [z ln z - z] = 1
        model = make_model("log")
        assert eval_W(model, np.e, force_quadrature=True) == pytest.approx(1.0, abs=1e-9)

    def test_domain_error_outside_positive_domain(self, singular):
        with pytest.raises(DomainError):
            eval_W(singular, -1.0)


class TestRegistry:
    def test_hyperbolic_preset_matches_hand_written_law(self):
        # the hand-written p - 1/p law the poly preset replaced, as reference
        model = make_model("hyperbolic")
        p = np.geomspace(*model.eval_window, 4096)
        assert np.array_equal(model.sigma(p), p - 1.0 / p)
        assert np.array_equal(model.sigma_prime(p), 1.0 + 1.0 / p ** 2)
        assert np.array_equal(model.closed_form_energy(p), 0.5 * (p ** 2 - 1.0) - np.log(p))
        assert (model.name, model.domain, model.theta) == ("hyperbolic", POSITIVE, 0.5)

    @pytest.mark.parametrize("name, params, poly", [
        ("cubic", {}, dict(coeffs=[1, 0, -1, 0])),
        ("shifted-cubic", dict(a=2.0, d=0.3), dict(coeffs=[2.0, 0, -1, 0.3])),
        ("singular-cubic", dict(b=0.1), dict(coeffs=[1, 0.1, -1, 0], kappa=0.5, theta=0.5)),
        ("hyperbolic", {}, dict(coeffs=[1, 0], kappa=1, theta=0.5, window=(1e-9, 10.0))),
    ])
    def test_preset_is_its_poly_spelling(self, name, params, poly):
        model, ref = make_model(name, **params), make_model("poly", **poly)
        p = ref.grid(4096)
        assert np.array_equal(model.sigma(p), ref.sigma(p))
        assert (model.domain, model.eval_window, model.theta) == (ref.domain, ref.eval_window, ref.theta)
        assert model.spec == {"name": name, "params": params}

    def test_singular_cubic_needs_positive_kappa(self):
        with pytest.raises(ValueError):
            make_model("singular-cubic", kappa=0.0)


class TestLambda:
    def test_cubic_lambda_inflated_unit(self, cubic):
        # inf sigma' = -1 at p = 0, inflated by the 5% safety factor
        assert cubic.lambda_ == pytest.approx(1.05, abs=1e-3)

    def test_monotone_models_have_zero_lambda(self):
        assert make_model("linear").lambda_ == 0.0
        assert make_model("hyperbolic").lambda_ == 0.0

    def test_unbounded_derivative_fails_estimation(self):
        with pytest.raises(EstimationError):
            StressModel(
                name="neg-sqrt",
                sigma=lambda p: -2.0 * np.sqrt(p),
                sigma_prime=lambda p: -1.0 / np.sqrt(p),
                domain=POSITIVE,
                eval_window=(1e-300, 10.0),
            )

    def test_lambda_monotonicity_of_shifted_law(self, cubic):
        # sigma + lambda * id must be nondecreasing on the window
        grid = np.linspace(-3.0, 3.0, 2001)
        shifted = cubic.sigma(grid) + cubic.lambda_ * grid
        assert np.min(np.diff(shifted)) >= -1e-9


class TestCriticalPointsAndBranches:
    def test_cubic_critical_points(self, cubic):
        zs, cs = critical_points(cubic)
        root3 = 1.0 / np.sqrt(3.0)
        assert np.allclose(zs, [-root3, root3], atol=1e-9)
        assert np.allclose(cs, [2.0 / (3.0 * np.sqrt(3.0)), -2.0 / (3.0 * np.sqrt(3.0))], atol=1e-9)

    def test_monotone_model_has_no_critical_points(self):
        zs, cs = critical_points(make_model("linear"))
        assert len(zs) == 0

    def test_constant_shift_preserves_critical_points(self):
        shifted = make_model("shifted-cubic", a=1.0, b=0.0, c=-1.0, d=1e-3)
        zs, cs = critical_points(shifted)
        root3 = 1.0 / np.sqrt(3.0)
        assert np.allclose(zs, [-root3, root3], atol=1e-9)
        assert np.allclose(cs, [2.0 / (3.0 * np.sqrt(3.0)) + 1e-3, -2.0 / (3.0 * np.sqrt(3.0)) + 1e-3], atol=1e-9)

    def test_cubic_roots_at_zero(self, cubic):
        assert np.allclose(roots_at(cubic, 0.0), [-1.0, 0.0, 1.0], atol=1e-10)

    def test_cubic_branches_at_small_positive_level(self, cubic):
        bs = find_branches(cubic, (0.15, 0.25), nc=21)
        assert bs.count == 3
        assert bs.signs == (1, -1, 1)
        # oracle: polynomial root finding, independent of the bisection path
        for j, c in enumerate(bs.c_grid):
            ref = np.sort(np.roots([1.0, 0.0, -1.0, -c]).real)
            assert np.allclose(bs.branches[:, j], ref, atol=1e-9)

    def test_branch_recomposition(self, cubic):
        bs = find_branches(cubic, (-0.2, 0.2), nc=33)
        for j, c in enumerate(bs.c_grid):
            assert np.max(np.abs(cubic.sigma(bs.branches[:, j]) - c)) <= 1e-10

    def test_branches_strictly_ordered(self, cubic):
        bs = find_branches(cubic, (-0.3, 0.3), nc=17)
        assert np.all(np.diff(bs.branches, axis=0) > 0)

    def test_single_branch_for_monotone_model(self):
        bs = find_branches(make_model("hyperbolic"), (-0.5, 0.5), nc=9)
        assert bs.count == 1
        assert bs.branches[0, np.searchsorted(bs.c_grid, 0.0)] == pytest.approx(1.0, abs=1e-10)

    def test_interval_through_critical_value_rejected(self, cubic):
        with pytest.raises(InvalidIntervalError):
            find_branches(cubic, (0.3, 0.5))  # c+ ~ 0.385 inside

    def test_root_counts_constant_between_critical_values(self, cubic):
        _, cs = critical_points(cubic)
        lo, hi = np.min(cs), np.max(cs)
        inside = [len(roots_at(cubic, c)) for c in np.linspace(lo + 1e-3, hi - 1e-3, 7)]
        outside = [len(roots_at(cubic, c)) for c in (lo - 0.2, hi + 0.2)]
        assert set(inside) == {3}
        assert set(outside) == {1}


class TestHypothesisReport:
    def test_cubic_report(self, cubic):
        rep = check_hypotheses(cubic)
        assert rep["blowup_at_zero"].status == "FAIL"  # sigma(0) = 0 is finite
        assert rep["convex_at_infinity"].status == "PASS"
        assert rep["positive_at_infinity"].status == "PASS"
        assert rep["integrable_tail"].status == "PASS"
        assert rep["two_critical_points"].status == "PASS"

    def test_log_report(self):
        rep = check_hypotheses(make_model("log"))
        assert rep["blowup_at_zero"].status == "PASS"
        assert rep["integrable_tail"].status == "FAIL"

    def test_quadratic_singular_report(self):
        model = make_model("poly", coeffs=[1.0, 0.0, 0.0], kappa=1.0)  # p^2 - 1/p
        rep = check_hypotheses(model)
        assert rep["blowup_at_zero"].status == "PASS"
        assert rep["integrable_tail"].status == "PASS"

    def test_singular_cubic_satisfies_bound_hypotheses(self, singular):
        rep = check_hypotheses(singular)
        for key in (
            "lipschitz",
            "blowup_at_zero",
            "convex_near_zero",
            "slope_floor_near_zero",
            "linear_growth_floor",
            "convex_at_infinity",
            "positive_at_infinity",
            "integrable_tail",
        ):
            assert rep[key].status == "PASS", key

    def test_positive_domain_sanity(self, singular):
        # stress near the window start sits below the stress above theta
        lo, hi = singular.eval_window
        low_val = float(singular.sigma(np.array([lo]))[0])
        above = np.linspace(singular.theta, hi, 101)
        assert low_val < np.min(singular.sigma(above))


class TestDerivativeFallback:
    def test_fd_derivative_close_to_analytic(self):
        model = StressModel(
            name="fd-cubic",
            sigma=lambda p: p ** 3 - p,
            domain=FULL_LINE,
            eval_window=(-3.0, 3.0),
            analytic=False,
        )
        grid = np.linspace(-3.0, 3.0, 101)
        exact = 3.0 * grid ** 2 - 1.0
        # second derivative scale is |6 p| <= 18 on the window
        tol = 10.0 * 1e-6 * np.maximum(1.0, np.abs(grid)) * (np.abs(6.0 * grid) + 1.0)
        assert np.all(np.abs(model.sigma_prime(grid) - exact) <= tol)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.2, 3.0),
    c=st.floats(-2.0, 2.0),
    d=st.floats(-1.0, 1.0),
)
def test_lambda_certificate_property(a, c, d):
    """For random cubics, sigma + lambda*id is nondecreasing on the window."""
    model = make_model("shifted-cubic", a=a, b=0.0, c=c, d=d)
    grid = np.linspace(-3.0, 3.0, 801)
    shifted = model.sigma(grid) + model.lambda_ * grid
    assert np.min(np.diff(shifted)) >= -1e-9


@settings(max_examples=20, deadline=None)
@given(level=st.floats(-0.35, 0.35))
def test_cubic_branch_recomposition_property(level):
    cubic = make_model("cubic")
    roots = roots_at(cubic, level)
    assert len(roots) in (1, 3)
    assert np.max(np.abs(cubic.sigma(roots) - level)) <= 1e-10


# -- batched level sets against the scalar reference -------------------------
#
# The reference is the per-level algorithm the batched kernels replaced: a
# Python scan over the critical-point grid cells and one scalar bisection per
# monotone piece and level, each evaluating sigma on a one-point array.


def _scalar_bisect(f, lo, hi, xtol=1e-12, max_iter=200):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert (flo > 0.0) != (fhi > 0.0)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= xtol * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _reference_critical_points(model, n=8193):
    grid = model.grid(n)
    dvals = np.asarray(model.sigma_prime(grid), dtype=float)
    zs = []
    for i in range(len(grid) - 1):
        a, b = dvals[i], dvals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0 and (i == 0 or dvals[i - 1] != 0.0):
            zs.append(grid[i])
        elif a != 0.0 and b != 0.0 and (a > 0.0) != (b > 0.0):
            zs.append(_scalar_bisect(lambda x: float(model.sigma_prime(np.array([x]))[0]),
                                     grid[i], grid[i + 1]))
    return np.array(sorted(zs))


def _reference_roots_at(model, c):
    zs, _ = critical_points(model)
    lo, hi = model.eval_window
    if model.domain == POSITIVE:
        lo = max(lo, 1e-300)
    pieces = np.concatenate([[lo], zs, [hi]])
    roots = []
    f = lambda p: float(model.sigma(np.array([p]))[0]) - c
    for a, b in zip(pieces[:-1], pieces[1:]):
        aa = a + 1e-13 * max(1.0, abs(a)) if a == lo and model.domain == POSITIVE else a
        fa, fb = f(aa), f(b)
        if not (np.isfinite(fa) and np.isfinite(fb)):
            continue
        if fa == 0.0:
            roots.append(aa)
        elif (fa > 0.0) != (fb > 0.0) and fb != 0.0:
            roots.append(_scalar_bisect(f, aa, b))
    if f(float(pieces[-1])) == 0.0:
        roots.append(float(pieces[-1]))
    out = []
    for r in sorted(roots):
        if not out or r - out[-1] > 1e-9 * max(1.0, abs(r)):
            out.append(r)
    return np.array(out, dtype=float)


EQUIVALENCE_MODELS = {
    "cubic": dict(name="cubic"),
    "shifted-cubic": dict(name="shifted-cubic", a=1.0, b=-3.0, c=2.0, d=0.1),
    "singular-cubic": dict(name="singular-cubic", kappa=0.05),
    "quintic": dict(name="poly", coeffs=[1.0, 0.0, -5.0, 0.0, 4.0, 0.0]),  # p(p^2-1)(p^2-4)
}


@pytest.fixture(scope="module", params=sorted(EQUIVALENCE_MODELS))
def equivalence_model(request):
    return make_model(**EQUIVALENCE_MODELS[request.param])


def _special_levels(model):
    """Critical values, sigma at each window end (at the nudged start that a
    positive-only model bisects from, too) and levels outside the range."""
    _, cs = critical_points(model)
    lo, hi = model.eval_window
    ends = [lo, hi] + ([lo + 1e-13 * max(1.0, lo)] if model.domain == POSITIVE else [])
    at_ends = model.sigma(np.array(ends, dtype=float))
    span = np.max(np.abs(model.sigma(model.grid(257))))
    return np.concatenate([cs, at_ends, [-2.0 * span - 1.0, 2.0 * span + 1.0, 0.0]])


def _assert_table_matches_reference(model, levels):
    table = roots_at(model, levels)
    assert table.shape == (len(levels), len(critical_points(model)[0]) + 1)
    for row, c in zip(table, levels):
        ref = _reference_roots_at(model, float(c))
        assert row[~np.isnan(row)].tobytes() == ref.tobytes(), c
        assert roots_at(model, float(c)).tobytes() == ref.tobytes(), c


class TestBatchedLevelSetsMatchScalarReference:
    def test_quintic_has_four_critical_points(self):
        zs, _ = critical_points(make_model(**EQUIVALENCE_MODELS["quintic"]))
        assert len(zs) == 4

    def test_critical_points_bit_identical(self, equivalence_model):
        zs, cs = critical_points(equivalence_model)
        ref = _reference_critical_points(equivalence_model)
        assert len(ref) >= 2
        assert zs.tobytes() == ref.tobytes()
        assert cs.tobytes() == np.asarray(equivalence_model.sigma(ref), dtype=float).tobytes()

    def test_special_levels_bit_identical(self, equivalence_model):
        _assert_table_matches_reference(equivalence_model, _special_levels(equivalence_model))

    def test_interior_levels_bit_identical(self, equivalence_model):
        _, cs = critical_points(equivalence_model)
        levels = np.linspace(np.min(cs) - 0.5, np.max(cs) + 0.5, 41)
        _assert_table_matches_reference(equivalence_model, levels)

    def test_table_columns_are_branch_slots(self, cubic):
        table = roots_at(cubic, np.array([0.0, 1.0, -1.0]))
        assert np.all(np.isfinite(table[0]))
        assert np.isnan(table[1, :2]).all() and table[1, 2] > 1.0  # right branch only
        assert np.isnan(table[2, 1:]).all() and table[2, 0] < -1.0  # left branch only


@settings(max_examples=25, deadline=None)
@given(
    model_key=st.sampled_from(sorted(EQUIVALENCE_MODELS)),
    levels=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=12),
)
def test_batched_roots_match_reference_property(model_key, levels):
    model = make_model(**EQUIVALENCE_MODELS[model_key])
    _assert_table_matches_reference(model, np.array(levels))


def test_critical_value_proximity_is_relative():
    # |c| >> 1: 5e-9 from a critical value is near under the relative rule
    # (1e-9 * |c| ~ 1e-5) though not under an absolute 1e-9
    model = make_model("shifted-cubic", d=1e4)
    _, cs = critical_points(model)
    assert near_critical_value(model, cs[0] + 5e-9)
    assert not near_critical_value(model, cs[0] + 2e-5)
    assert near_critical_value(model, np.array([cs[1] - 5e-9, 0.0])).tolist() == [True, False]


def _poly_laws():
    """(name, coefficients, kappa) of every registered polynomial law, plus
    random polynomials of degree 0 to 6."""
    laws = []
    for name, preset in stress_models._POLY_PRESETS.items():
        coeffs = [preset[k] for k in "abcd"] if "a" in preset else preset["coeffs"]
        laws.append((name, coeffs, preset.get("kappa", 0.0)))
    rng = np.random.default_rng(17)
    for degree in range(7):
        laws.append(("poly", list(rng.standard_normal(degree + 1)), float(rng.choice([0.0, 0.7]))))
    return laws


@pytest.mark.parametrize("name, coeffs, kappa", _poly_laws())
def test_horner_matches_polyval_bit_for_bit(name, coeffs, kappa):
    model = make_model(name, **({} if name != "poly" else {"coeffs": coeffs, "kappa": kappa}))
    rng = np.random.default_rng(3)
    grid = np.concatenate([rng.uniform(-4.0, 4.0, 2000), np.geomspace(1e-300, 1e100, 400),
                           -np.geomspace(1e-300, 1e100, 400), [0.0, -0.0, 1.0, -1.0]])
    if kappa:
        grid = np.abs(grid[grid != 0.0])
    d_coeffs = np.polyder(np.asarray(coeffs, dtype=float))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sig = np.polyval(coeffs, grid) - (kappa / grid if kappa else 0.0)
        sig_p = np.polyval(d_coeffs, grid) + (kappa / grid ** 2 if kappa else 0.0)
        got, got_p = model.sigma(grid), model.sigma_prime(grid)
        scalar = model.sigma(grid[7])
    assert np.array_equal(got.view(np.int64), np.asarray(sig).view(np.int64))
    assert np.array_equal(got_p.view(np.int64), np.asarray(sig_p).view(np.int64))
    assert scalar == sig[7]
