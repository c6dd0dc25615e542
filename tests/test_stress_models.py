
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_stress
from strainflow.errors import DomainError, InvalidIntervalError
from strainflow.numerics import quad_adaptive
from strainflow.stress_models import (
    POSITIVE,
    StressModel,
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
        numeric = quad_adaptive(cubic.sigma, 1.0, ps, 1e-10)
        assert np.max(np.abs(numeric - eval_W(cubic, ps))) < 1e-9

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

        batch = quad_adaptive(counted, 1.0, ps, 1e-10)
        assert np.max(np.abs(batch - eval_W(model, ps))) < 1e-9
        n_batch, deepest = calls[0], 0
        for p, w in zip(ps, batch):
            calls[0] = 0
            assert quad_adaptive(counted, 1.0, p, 1e-10) == pytest.approx(w, abs=1e-14)
            deepest = max(deepest, calls[0])
        assert n_batch == deepest

    def test_log_model_W_at_e(self):
        # int_1^e ln z dz = [z ln z - z] = 1
        model = make_model("log")
        assert eval_W(model, np.e) == pytest.approx(1.0, abs=1e-14)
        assert quad_adaptive(model.sigma, 1.0, np.e, 1e-10) == pytest.approx(1.0, abs=1e-9)

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
        p = reference_stress.window_grid(ref, 4096)
        assert np.array_equal(model.sigma(p), ref.sigma(p))
        assert (model.domain, model.eval_window, model.theta) == (ref.domain, ref.eval_window, ref.theta)
        assert model.spec == {"name": name, "params": params}

    def test_singular_cubic_needs_positive_kappa(self):
        with pytest.raises(ValueError):
            make_model("singular-cubic", kappa=0.0)

    @pytest.mark.parametrize("params", [
        dict(window=(3.0, -3.0)), dict(window=(-3.0, np.inf)), dict(window=(np.nan, 3.0)),
        dict(coeffs=[1.0, np.nan, -1.0, 0.0]), dict(kappa=np.inf), dict(theta=np.nan),
    ])
    def test_malformed_law_rejected(self, params):
        with pytest.raises(ValueError):
            make_model("poly", **{"coeffs": [1.0, 0.0, -1.0, 0.0], **params})

    def test_positive_domain_sanity(self, singular):
        # stress near the window start sits below the stress above theta
        lo, hi = singular.eval_window
        low_val = float(singular.sigma(np.array([lo]))[0])
        above = np.linspace(singular.theta, hi, 101)
        assert low_val < np.min(singular.sigma(above))


class TestLambda:
    def test_cubic_lambda_inflated_unit(self, cubic):
        # inf sigma' = -1 at p = 0, inflated by the 5% safety factor
        assert cubic.lambda_ == pytest.approx(1.05, abs=1e-3)

    def test_monotone_models_have_zero_lambda(self):
        assert make_model("linear").lambda_ == 0.0
        assert make_model("hyperbolic").lambda_ == 0.0

    def test_sampled_reference_detects_unbounded_derivative(self):
        model = StressModel(
            name="neg-sqrt",
            sigma=lambda p: -2.0 * np.sqrt(p),
            sigma_prime=lambda p: -1.0 / np.sqrt(p),
            lambda_=0.0,
            critical_data=(np.empty(0), np.empty(0)),
            closed_form_energy=lambda p: -4.0 / 3.0 * (p ** 1.5 - 1.0),
            domain=POSITIVE,
            eval_window=(1e-300, 10.0),
        )
        with pytest.raises(reference_stress.EstimationError):
            reference_stress.estimate_lambda(model)

    def test_lambda_monotonicity_of_shifted_law(self, cubic):
        # sigma + lambda * id must be nondecreasing on the window
        grid = np.linspace(-3.0, 3.0, 2001)
        shifted = cubic.sigma(grid) + cubic.lambda_ * grid
        assert np.min(np.diff(shifted)) >= -1e-9


class TestCriticalPointsAndBranches:
    def test_cubic_critical_points(self, cubic):
        zs, cs = cubic.critical_data
        root3 = 1.0 / np.sqrt(3.0)
        assert np.allclose(zs, [-root3, root3], atol=1e-9)
        assert np.allclose(cs, [2.0 / (3.0 * np.sqrt(3.0)), -2.0 / (3.0 * np.sqrt(3.0))], atol=1e-9)

    @pytest.mark.parametrize("params", [dict(name="linear"), dict(name="poly", coeffs=[1.0])],
                             ids=["linear", "constant"])
    def test_monotone_model_has_no_critical_points(self, params):
        model = make_model(**params)
        zs, cs = model.critical_data
        assert len(zs) == len(cs) == 0
        assert model.lambda_ == 0.0

    def test_constant_shift_preserves_critical_points(self):
        shifted = make_model("shifted-cubic", a=1.0, b=0.0, c=-1.0, d=1e-3)
        zs, cs = shifted.critical_data
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
        _, cs = cubic.critical_data
        lo, hi = np.min(cs), np.max(cs)
        inside = [len(roots_at(cubic, c)) for c in np.linspace(lo + 1e-3, hi - 1e-3, 7)]
        outside = [len(roots_at(cubic, c)) for c in (lo - 0.2, hi + 0.2)]
        assert set(inside) == {3}
        assert set(outside) == {1}


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


def _reference_roots_at(model, c):
    zs, _ = model.critical_data
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
    _, cs = model.critical_data
    lo, hi = model.eval_window
    ends = [lo, hi] + ([lo + 1e-13 * max(1.0, lo)] if model.domain == POSITIVE else [])
    at_ends = model.sigma(np.array(ends, dtype=float))
    span = np.max(np.abs(model.sigma(reference_stress.window_grid(model, 257))))
    return np.concatenate([cs, at_ends, [-2.0 * span - 1.0, 2.0 * span + 1.0, 0.0]])


def _law(model):
    """(coeffs, kappa) of a polynomial-family model, from its spec."""
    params = {**stress_models._POLY_PRESETS.get(model.name, {}), **model.spec["params"]}
    coeffs = [params[k] for k in "abcd"] if "a" in params else params["coeffs"]
    return coeffs, params.get("kappa", 0.0)


def _exact_root(model, c, near):
    """The real solution of sigma(p) = c nearest ``near``, to 40 digits: a
    root of p (P(p) - c) - kappa, or of P(p) - c when kappa = 0."""
    coeffs, kappa = _law(model)
    with mpmath.workdps(40):
        q = [mpmath.mpf(v) for v in coeffs]
        q[-1] -= mpmath.mpf(c)
        if kappa:
            q = q + [-mpmath.mpf(kappa)]
        roots = mpmath.polyroots(q, maxsteps=200, extraprec=200)
        return min(roots, key=lambda r: abs(r - near)).real


def _assert_table_matches_reference(model, levels):
    """roots_at finds the reference bisection's roots, each no farther from
    the exact root than the reference's or within 4 ulp of it."""
    table = roots_at(model, levels)
    assert table.shape == (len(levels), len(model.critical_data[0]) + 1)
    for row, c in zip(table, levels):
        got, ref = row[~np.isnan(row)], _reference_roots_at(model, float(c))
        assert roots_at(model, float(c)).tobytes() == got.tobytes(), c
        assert got.shape == ref.shape, c
        for r, r_ref in zip(got.tolist(), ref.tolist()):
            if r != r_ref:
                exact = _exact_root(model, float(c), r_ref)
                bound = max(abs(r_ref - exact), 4 * np.spacing(abs(float(exact))))
                assert abs(r - exact) <= bound, (c, r, r_ref, exact)


class TestBatchedLevelSetsMatchScalarReference:
    def test_quintic_has_four_critical_points(self):
        zs, _ = make_model(**EQUIVALENCE_MODELS["quintic"]).critical_data
        assert len(zs) == 4

    def test_critical_points_match_sampled_reference(self, equivalence_model):
        assert len(reference_stress._critical_points_impl(equivalence_model)[0]) >= 2
        _assert_structure_matches_sampled_reference(equivalence_model)

    def test_special_levels_match_reference(self, equivalence_model):
        _assert_table_matches_reference(equivalence_model, _special_levels(equivalence_model))

    def test_interior_levels_match_reference(self, equivalence_model):
        _, cs = equivalence_model.critical_data
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


def test_level_sets_take_few_iterations(monkeypatch):
    # Newton on sigma' converges in at most 20 iterations per root (a
    # bisection to 1e-12 takes about 40) over the interior of the stress
    # range of every registered law with critical points
    solve = stress_models.bisect_root
    counts = []

    def counting(f, fprime, lo, hi):
        count = np.zeros(np.size(lo), dtype=int)

        def slope(x, i):
            np.add.at(count, i, 1)
            return fprime(x, i)

        out = solve(f, slope, lo, hi)
        counts.append(count.max())
        return out

    monkeypatch.setattr(stress_models, "bisect_root", counting)
    names = [name for name in ["log", *stress_models._POLY_PRESETS]
             if len(make_model(name).critical_data[0])]
    assert "cubic" in names
    for name in names:
        model = make_model(name)
        roots_at(model, np.linspace(*stress_models.stress_range(model), 201)[1:-1])
    assert 0 < max(counts) <= 20


@pytest.mark.parametrize("kappa", [0.5, 0.05])
@pytest.mark.parametrize("p", [3e-8, 1e-6, 1e-4])
def test_level_sets_near_a_singular_start_take_few_iterations(kappa, p, monkeypatch):
    # the root's bracket runs from the window start, 1e-8, to 10 (kappa =
    # 0.5) or to the first critical point near 0.25 (kappa = 0.05): 7-9
    # decades, which geometric bisection crosses in log steps; arithmetic
    # halving took 16-34 sigma' evaluations per root here
    solve = stress_models.bisect_root
    counts = []

    def counting(f, fprime, lo, hi):
        count = np.zeros(np.size(lo), dtype=int)

        def slope(x, i):
            np.add.at(count, i, 1)
            return fprime(x, i)

        out = solve(f, slope, lo, hi)
        counts.append(count.max())
        return out

    model = make_model("singular-cubic", kappa=kappa)
    monkeypatch.setattr(stress_models, "bisect_root", counting)
    root = roots_at(model, float(model.sigma(p)))
    assert root == pytest.approx([p], rel=1e-12)
    assert counts == [counts[0]] and 0 < counts[0] <= 13


def test_critical_value_proximity_is_relative():
    # |c| >> 1: 5e-9 from a critical value is near under the relative rule
    # (1e-9 * |c| ~ 1e-5) though not under an absolute 1e-9
    model = make_model("shifted-cubic", d=1e4)
    _, cs = model.critical_data
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


# the shapes the stress kernel's plan special-cases: a unit leading
# coefficient, interior zeros, a zero constant, an all-zero tail, signed zero
# coefficients, degree 0, and degree 1 with a zero constant
_KERNEL_SHAPES = [("poly", coeffs, kappa) for coeffs in (
    [1.0, 0.0, -2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [-0.5, 0.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, -0.0], [1.0, -0.0], [2.5], [0.0], [1.0, 0.0], [-1.5, 0.0],
) for kappa in (0.0, 0.7)]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("name, coeffs, kappa", _poly_laws() + _KERNEL_SHAPES)
def test_horner_matches_polyval_bit_for_bit(name, coeffs, kappa):
    """sigma, sigma' and W equal np.polyval (with the kappa term) bit for bit,
    signed zeros included, on 1-d and 2-d arrays and on scalars; a scalar
    gives an np.float64, or a 0-d array for a constant polynomial without
    kappa. The input is never written and never returned."""
    model = make_model(name, **({} if name != "poly" else {"coeffs": coeffs, "kappa": kappa}))
    rng = np.random.default_rng(3)
    grid = np.concatenate([rng.uniform(-4.0, 4.0, 2000), np.geomspace(1e-300, 1e100, 400),
                           -np.geomspace(1e-300, 1e100, 400), [0.0, -0.0, 1.0, -1.0]])
    if kappa:
        grid = np.abs(grid[grid != 0.0])
    c = np.asarray(coeffs, dtype=float)
    anti = np.polyint(c)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        want = [np.polyval(c, grid), np.polyval(np.polyder(c), grid),
                np.polyval(anti, grid) - np.polyval(anti, 1.0)]
        if kappa:  # added only when present: a sum with 0.0 would turn -0 into +0
            want = [want[0] - kappa / grid, want[1] + kappa / grid ** 2,
                    want[2] - kappa * np.log(grid)]
        kernels = (model.sigma, model.sigma_prime, model.closed_form_energy)
        for fn, expected, poly in zip(kernels, want, (c, np.polyder(c), anti)):
            for p in (grid, grid[:1200].reshape(300, 4)):  # 1-d, and records x members
                before = p.copy()
                got = fn(p)
                assert got is not p and not np.shares_memory(got, p)
                assert np.array_equal(_bits(p), _bits(before))
                assert np.array_equal(_bits(got), _bits(expected[:p.size].reshape(p.shape)))
            # a constant law without kappa fills an array, as np.full_like does
            constant = len(np.trim_zeros(poly, "f")) <= 1
            scalar_type = np.ndarray if constant and not kappa else np.float64
            for x in (float(grid[7]), np.array(grid[7])):
                got = fn(x)
                assert type(got) is scalar_type and np.ndim(got) == 0
                assert _bits(got) == _bits(expected[7])


# -- exact structure against the sampled reference ----------------------------


def _changes_sign_at(model, z, others):
    """sigma' has opposite nonzero signs a thousandth of the distance to the
    nearest other point (critical point or window end) left and right of z."""
    h = 1e-3 * np.min(np.abs(np.asarray(others) - z))
    left, right = np.asarray(model.sigma_prime(np.array([z - h, z + h])), dtype=float)
    return left * right < 0.0


def _assert_structure_matches_sampled_reference(model):
    zs, cs = model.critical_data
    lo, hi = model.eval_window
    assert np.all(np.diff(zs) > 0.0) and np.all((lo < zs) & (zs < hi))
    assert cs.tobytes() == np.asarray(model.sigma(zs), dtype=float).tobytes()
    seen = np.zeros(len(zs), dtype=bool)
    for r in reference_stress._critical_points_impl(model)[0]:
        near = np.abs(zs - r) <= 1e-12 * max(1.0, abs(r))
        # the reference also reports a sample where sigma' is exactly 0
        # without changing sign (every constant law, at the window start)
        assert near.any() or model.sigma_prime(np.array([r]))[0] == 0.0, r
        seen |= near
    for z in zs[~seen]:  # found only by the exact structure
        assert _changes_sign_at(model, z, np.concatenate([[lo, hi], zs[zs != z]])), z
    sampled = reference_stress.estimate_lambda(model)
    assert sampled <= model.lambda_ <= sampled * (1.0 + 1e-5)


@pytest.mark.parametrize("name, coeffs, kappa", [*_poly_laws(), ("log", None, None)])
def test_exact_structure_matches_sampled_reference(name, coeffs, kappa):
    # every registered law; the equivalence models are checked above
    model = make_model(name, **({} if name != "poly" else {"coeffs": coeffs, "kappa": kappa}))
    _assert_structure_matches_sampled_reference(model)


@pytest.mark.parametrize("name, coeffs, kappa", [*_poly_laws(), ("poly", EQUIVALENCE_MODELS["quintic"]["coeffs"], 0.0)])
def test_critical_points_polished_to_roundoff(name, coeffs, kappa):
    # within 2 ulp of the 40-digit zero of the same sigma' (the unpolished
    # companion-matrix roots are up to 1.6e-15 off)
    model = make_model(name, **({} if name != "poly" else {"coeffs": coeffs, "kappa": kappa}))
    zs, _ = model.critical_data
    with mpmath.workdps(40):
        d1 = [mpmath.mpf(c) for c in np.polyder(np.asarray(coeffs, dtype=float))]
        exact = [float(mpmath.findroot(lambda x: mpmath.polyval(d1, x) + kappa / x ** 2, mpmath.mpf(z)))
                 for z in zs]
    assert np.all(np.abs(zs - exact) <= 4e-16 * np.maximum(1.0, np.abs(zs)))


def test_grid_blind_cubic_has_both_critical_points():
    # sigma' = 3 (p - 0.12345)(p - 0.12355) is negative only between two
    # neighbouring samples of the reference's 8193-point window grid
    model = make_model("shifted-cubic", a=1.0, b=-0.3705, c=3 * 0.12345 * 0.12355, d=0.0)
    assert len(reference_stress._critical_points_impl(model)[0]) == 0
    assert reference_stress.estimate_lambda(model) == 0.0
    zs, _ = model.critical_data
    assert np.allclose(zs, [0.12345, 0.12355], rtol=0.0, atol=1e-12)
    assert model.lambda_ == pytest.approx(1.05 * 7.5e-9, rel=1e-6)


# Coefficients are 0 or at least 1e-3 in size: companion-matrix roots are
# accurate to about 1e-16 of the largest root, so a law such as
# p^5 + p^3 + 4e-81 (p^2 - p), whose critical points are 2e-40 apart, has them
# merged into one double root and dropped.
_COEFFICIENT = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))


@settings(max_examples=60, deadline=None)
@given(
    degree=st.sampled_from([1, 3, 5, 7]),
    lead=st.floats(0.1, 3.0),
    rest=st.lists(_COEFFICIENT, min_size=7, max_size=7),
    kappa=st.sampled_from([0.0, 0.7]),
)
def test_exact_structure_property(degree, lead, rest, kappa):
    """For random odd-degree laws, sigma' changes sign across each critical
    point and nowhere else on a dense grid, and sigma + lambda * id is
    nondecreasing there."""
    coeffs = [lead, *rest[:degree]]
    model = make_model("poly", coeffs=coeffs, kappa=kappa)
    zs, _ = model.critical_data
    grid = reference_stress.window_grid(model, 4001)
    d = np.asarray(model.sigma_prime(grid), dtype=float)
    # a sign is decided where sigma' exceeds its evaluation roundoff, away
    # from the critical points
    terms = np.polyval(np.abs(np.polyder(coeffs)), np.abs(grid)) + (kappa / grid ** 2 if kappa else 0.0)
    off = np.all(np.abs(grid[:, None] - zs) > 1e-9 * np.maximum(1.0, np.abs(zs)), axis=1)
    clear = (np.abs(d) > 1e-12 * terms) & off
    g, up = grid[clear], d[clear] > 0.0
    between = np.searchsorted(zs, g[1:]) - np.searchsorted(zs, g[:-1])
    assert np.array_equal(up[1:] != up[:-1], between % 2 == 1)
    shifted = np.asarray(model.sigma(grid), dtype=float) + model.lambda_ * grid
    scale = np.maximum(1.0, np.abs(shifted))
    assert np.all(np.diff(shifted) >= -1e-12 * np.maximum(scale[1:], scale[:-1]))
