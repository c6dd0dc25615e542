import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from strainflow.errors import (
    BracketError,
    IntegrabilityError,
    IterationBudgetError,
    StiffnessError,
)
from strainflow.numerics import (
    CumulativeCurve,
    bisect_root,
    quad_adaptive,
    rk45,
    trailing_stats,
)
from strainflow.stress_models import make_model, roots_at

from reference_quadrature import heap_quad_adaptive
from reference_rk45 import reference_rk45


def test_quad_polynomial_exact():
    val = quad_adaptive(lambda z: z ** 3 - z, 1.0, 2.0, tol=1e-12)
    assert abs(val - (15.0 / 4.0 - 3.0 / 2.0)) < 1e-12


def test_quad_log_singularity():
    # int_0^1 ln z dz = -1; the integrand blows up at the left endpoint
    val = quad_adaptive(np.log, 0.0, 1.0, tol=1e-10)
    assert abs(val + 1.0) < 1e-9


def test_quad_inverse_sqrt_singularity():
    val = quad_adaptive(lambda z: 1.0 / np.sqrt(z), 0.0, 1.0, tol=1e-10)
    assert abs(val - 2.0) < 1e-8


def test_quad_matches_scipy_on_smooth_integrand():
    f = lambda z: np.exp(-z) * np.sin(3 * z)
    ours = quad_adaptive(f, 0.0, 4.0, tol=1e-12)
    ref, _ = quad(f, 0.0, 4.0, epsabs=1e-13, epsrel=1e-13)
    assert abs(ours - ref) < 1e-11


def test_quad_reversed_limits():
    assert quad_adaptive(lambda z: z, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)


_QUAD_CASES = [
    (lambda z: z ** 3 - z, 1.0, 2.0, 1e-12),
    (np.log, 0.0, 1.0, 1e-10),
    (lambda z: 1.0 / np.sqrt(z), 0.0, 1.0, 1e-10),
    (lambda z: np.exp(-z) * np.sin(3 * z), 0.0, 4.0, 1e-12),
    (lambda z: z, 1.0, 0.0, 1e-10),
]


@pytest.mark.parametrize("f, a, b, tol", _QUAD_CASES)
def test_quad_matches_heap_reference(f, a, b, tol):
    # the per-panel rule against the summed-estimate heap quadrature it
    # replaced (1.7e-10 apart on 1/sqrt(z), 3.9e-11 on ln z, <= 2e-16 else)
    ours = quad_adaptive(f, a, b, tol=tol)
    assert isinstance(ours, float)
    assert abs(ours - heap_quad_adaptive(f, a, b, tol=tol)) <= 2.0 * tol


def test_quad_array_endpoints_match_scalar_calls():
    a = np.array([[0.0, 0.5], [1.0, 2.0]])
    b = np.array([1.0, 3.0])
    batch = quad_adaptive(np.log1p, a, b, tol=1e-12)
    assert batch.shape == (2, 2)
    scalar = [[quad_adaptive(np.log1p, x, y, tol=1e-12) for x, y in zip(row, b)] for row in a]
    assert np.max(np.abs(batch - np.array(scalar))) <= 1e-15


def test_quad_budget_exhaustion_raises():
    # the heap quadrature returned its unconverged total here
    rough = lambda z: 1.0 + 0.5 * np.sign(np.sin(1e12 * z))
    heap_quad_adaptive(rough, 0.5, 1.0, tol=1e-12)
    with pytest.raises(IterationBudgetError):
        quad_adaptive(rough, 0.5, 1.0, tol=1e-12)


def test_quad_unresolved_unsplittable_panel_raises():
    # 1/z is not integrable at 0: the panel at 0 splits until it cannot be
    # split, and its estimate still misses tol (about 1,000 levels); the
    # kernel used to accept it there and return 696.33
    with pytest.raises(IntegrabilityError, match="not resolved"):
        quad_adaptive(lambda z: 1.0 / z, 0.0, 1.0)


def test_bisect_root_simple():
    r = bisect_root(lambda x, i: x ** 2 - 2.0, lambda x, i: 2.0 * x, 0.0, 2.0, xtol=1e-14)
    assert abs(r - np.sqrt(2.0)) < 1e-13
    with pytest.raises(BracketError):
        bisect_root(lambda x, i: x ** 2 + 1.0, lambda x, i: 2.0 * x, -1.0, 1.0)


def test_bisect_root_batched_matches_scalar_brackets():
    # zero at a bracket start, zero at a bracket end, zero hit by the first
    # midpoint, and two brackets that stop on a Newton correction
    f = lambda x, i: x * x - 4.0
    fprime = lambda x, i: 2.0 * x
    lo = np.array([2.0, -1.0, 0.0, 1.0, 0.0])
    hi = np.array([5.0, 2.0, 4.0, 2.5, 3.0])
    batched = bisect_root(f, fprime, lo, hi)
    assert isinstance(batched, np.ndarray)
    scalar = [bisect_root(f, fprime, a, b) for a, b in zip(lo, hi)]
    assert all(isinstance(r, float) for r in scalar)
    assert batched.tobytes() == np.array(scalar).tobytes()


def _counting(fn, counts):
    """``fn`` with each call's indices tallied into ``counts``."""
    def wrapped(x, i):
        np.add.at(counts, i, 1)
        return fn(x, i)
    return wrapped


def test_bisect_root_evaluates_open_brackets_only():
    # after the two end values, f sees only the brackets still open: the
    # linear bracket closes on its second Newton correction while the
    # bisection-only one keeps going
    lo, hi = np.zeros(2), np.ones(2)
    counts = np.zeros(2, dtype=int)
    fprime = lambda x, i: np.where(i == 0, 1.0, np.nan)
    root = bisect_root(_counting(lambda x, i: x - 0.3, counts), fprime, lo, hi)
    assert np.abs(root - 0.3).max() <= 1e-12
    assert counts[0] == 2 + 2 and counts[1] > 30


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_bisect_root_without_usable_derivative_bisects(bad):
    # a non-finite or zero derivative gives no Newton step: the solver bisects
    # to the width rule and returns the final bracket's midpoint
    counts = np.zeros(1, dtype=int)
    f = lambda x, i: x ** 3 - 0.3
    r = bisect_root(_counting(f, counts), lambda x, i: np.full_like(x, bad), 0.0, 1.0)
    assert abs(r - 0.3 ** (1.0 / 3.0)) <= 1e-12
    assert 40 <= counts[0] - 2 <= 45  # halvings of [0, 1] down to 1e-12


def test_bisect_root_cuts_wide_positive_brackets_in_log_steps():
    # 50 decades, where lo * hi underflows to 0: bisection without a usable
    # derivative closes in 49 iterations, 6 of them geometric, where
    # arithmetic halving takes 105
    counts = np.zeros(1, dtype=int)
    no_slope = lambda x, i: np.full_like(x, np.nan)
    r = bisect_root(_counting(lambda x, i: x - 3e-170, counts), no_slope, 1e-200, 1e-150)
    assert abs(r - 3e-170) <= 1e-12 * 3e-170
    assert counts[0] - 2 <= 50


def test_bisect_root_accepts_a_tiny_correction_on_the_bracket_end():
    # the converged iterate is a bracket end, and its last correction, below
    # half an ulp, leaves it there: the solver must stop on it, not bisect on
    counts = np.zeros(3, dtype=int)
    f = _counting(lambda x, i: x * x - np.array([2.0, 3.0, 5.0])[i], counts)
    r = bisect_root(f, lambda x, i: 2.0 * x, np.zeros(3), np.full(3, 3.0))
    assert np.abs(r - np.sqrt([2.0, 3.0, 5.0])).max() <= 4.5e-16
    assert (counts - 2).max() <= 8


def test_bisect_root_reaches_a_root_at_zero():
    # the stops are relative to |x|, which a root at exactly 0 never meets:
    # Newton from an asymmetric bracket lands on the exact zero instead
    r = bisect_root(lambda x, i: x ** 3 - x, lambda x, i: 3.0 * x ** 2 - 1.0, -0.3, 0.5)
    assert r == 0.0
    assert roots_at(make_model("cubic"), 0.0).tolist() == [-1.0, 0.0, 1.0]


def test_bisect_root_closes_on_a_triple_root_at_zero():
    # sigma = p^3 (p + 1)^2 / 16 has a triple root at 0 inside a monotone
    # piece: Newton nears it by a factor 2/3 per step and never meets the
    # relative stops, so the first call evaluates 0 for brackets across it
    model = make_model("poly", coeffs=[1 / 16, 1 / 8, 1 / 16, 0, 0, 0])
    assert 0.0 in model.roots_of_sigma.tolist()
    calls = []

    def f(x, i):
        calls.append((x.copy(), i.copy()))
        return x ** 3 - np.array([0.0, 8.0, 0.125])[i]

    r = bisect_root(f, lambda x, i: 3.0 * x * x, np.array([-1.0, 1.0, 0.25]),
                    np.array([2.0, 3.0, 1.0]))
    assert r[0] == 0.0 and np.abs(r[1:] - [2.0, 0.5]).max() <= 1e-15
    # 0 only for the bracket across it; the others see their ends alone
    assert calls[0][0].tolist() == [-1.0, 1.0, 0.25, 2.0, 3.0, 1.0, 0.0]
    assert calls[0][1].tolist() == [0, 1, 2, 0, 1, 2, 0]
    assert all(0 not in i for _, i in calls[1:])
    with pytest.raises(BracketError):  # a zero at 0 is no sign change
        bisect_root(lambda x, i: x * x, lambda x, i: 2.0 * x, -1.0, 1.0)


def test_bisect_root_budget_exhaustion_raises(monkeypatch):
    # three halvings cannot shrink [0, 1] to 1e-12: the bracket stays open
    no_slope = lambda x, i: np.full_like(x, np.nan)
    monkeypatch.setattr("strainflow.numerics._BISECT_MAX_ITER", 3)
    with pytest.raises(IterationBudgetError):
        bisect_root(lambda x, i: x - 0.3, no_slope, 0.0, 1.0)
    with pytest.raises(IterationBudgetError):
        bisect_root(lambda x, i: x - 0.3, no_slope, np.zeros(2), np.array([1.0, 0.5]))
    monkeypatch.setattr("strainflow.numerics._BISECT_MAX_ITER", 1)
    assert bisect_root(lambda x, i: x - 0.5, no_slope, 0.0, 1.0) == 0.5  # exact hit


def test_cumulative_curve_value_and_inverse():
    nodes = np.geomspace(1e-6, 0.999, 200)
    curve = CumulativeCurve(lambda z: 1.0 / (1.0 - z), nodes, tol=1e-12, x0=0.0)
    # exact cumulative is -ln(1 - x)
    x = 0.5
    assert curve.value(x) == pytest.approx(np.log(2.0), abs=1e-10)
    t = 1.3
    inv = curve.invert(t)
    assert isinstance(inv, float)
    assert inv == pytest.approx(1.0 - np.exp(-t), abs=1e-10)
    # a batch of targets, clipped ones included, keeps its shape
    targets = np.array([[-1.0, 1e-3, 0.7], [1.3, 5.0, 50.0]])
    batch = curve.invert(targets)
    assert batch.shape == targets.shape
    exact = np.clip(1.0 - np.exp(-targets), nodes[0], nodes[-1])
    assert np.max(np.abs(batch - exact)) < 1e-10
    assert batch[1, 0] == pytest.approx(inv, rel=1e-15)
    # point values take arrays the same way
    xs = np.array([[0.1, 0.5], [0.9, 0.99]])
    values = curve.value(xs)
    assert values.shape == xs.shape
    assert np.max(np.abs(values - (-np.log1p(-xs)))) < 1e-10
    assert values[0, 1] == curve.value(0.5)


def test_cumulative_curve_table_budget_raises():
    # an integrand that stays rough on every scale never meets the panel test
    rough = lambda z: 1.0 + 0.5 * np.sign(np.sin(1e12 * z))
    with pytest.raises(IterationBudgetError):
        CumulativeCurve(rough, np.array([0.5, 1.0]), tol=1e-12)


def test_quad_live_panel_budget_bounds_memory():
    # a rough integrand on many components at once: the per-component split
    # budget alone let this 129-node table reach about 170 MB before it raised
    rough = lambda z: 1.0 + 0.5 * np.sign(np.sin(1e12 * z))
    tracemalloc.start()
    try:
        with pytest.raises(IterationBudgetError, match="live panels"):
            CumulativeCurve(rough, np.linspace(0.0, 1.0, 129), tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def test_cumulative_curve_invert_budget_raises(monkeypatch):
    nodes = np.geomspace(1e-6, 0.999, 200)
    curve = CumulativeCurve(lambda z: 1.0 / (1.0 - z), nodes, tol=1e-12, x0=0.0)
    monkeypatch.setattr("strainflow.numerics._BISECT_MAX_ITER", 1)
    with pytest.raises(IterationBudgetError):
        curve.invert(np.array([0.4, 1.3]))


def test_rk45_linear_decay_accuracy():
    t_rec = np.linspace(0.0, 20.0, 41)
    res = rk45(lambda y, out: np.negative(y - 1.0, out=out), np.array([3.0]), t_rec,
               rtol=1e-11, atol=1e-13)
    exact = 1.0 + 2.0 * np.exp(-t_rec)
    assert np.max(np.abs(res.states[:, 0] - exact)) < 1e-9


def test_rk45_aux_integral_is_dissipation():
    # dy/dt = -y, rate = y'^2 = y^2 e^{... }; int_0^T y^2 dt = (1 - e^{-2T})/2
    t_rec = np.linspace(0.0, 5.0, 11)
    res = rk45(
        lambda y, out: np.negative(y, out=out),
        np.array([1.0]),
        t_rec,
        rtol=1e-11,
        atol=1e-14,
        stage_rate=lambda k: k[:, 0] ** 2,
    )
    exact = 0.5 * (1.0 - np.exp(-2.0 * t_rec))
    assert np.max(np.abs(res.aux_integral - exact)) < 1e-9


def test_rk45_field_writes_into_its_stage_slot():
    # f(y, out) gets a slot of the stage stack (the array stage_rate sees),
    # never memory of the state or of the y it is evaluated at; a field that
    # only writes out and returns None integrates dy/dt = -y
    calls, stacks, states = [], [], []

    def field(y, out):
        calls.append((y, out))
        np.negative(y, out=out)

    def accept(y_old, y_new):
        states.extend((y_old, y_new))
        return True

    y0 = np.array([[1.0, 2.0], [-3.0, 0.5]])
    t_rec = np.linspace(0.0, 2.0, 9)
    res = rk45(field, y0, t_rec, rtol=1e-10, atol=1e-13, accept_state=accept,
               stage_rate=lambda k: stacks.append(k) or np.zeros(7))
    assert np.max(np.abs(res.states - np.exp(-t_rec)[:, None, None] * y0)) < 1e-9
    stack = stacks[0]
    assert stack.shape == (7,) + y0.shape and all(k is stack for k in stacks)
    assert len(calls) == 6 * (res.n_steps + res.n_rejected) + 1
    for y, out in calls:
        assert out.shape == y0.shape and np.shares_memory(out, stack)
        assert not np.shares_memory(out, y)
        assert not any(np.shares_memory(out, state) for state in states)
    assert not any(np.shares_memory(y, stack) for y, _ in calls)


@pytest.mark.parametrize("t_rec", [[0.0, np.nan, 1.0], [0.0, np.inf]])
def test_rk45_rejects_record_times_not_finite(t_rec):
    # a NaN gap or an infinite end would leave the stepper short of its next
    # record for ever
    with pytest.raises(ValueError):
        rk45(lambda y, out: np.negative(y, out=out), np.array([1.0]), np.array(t_rec))


def test_rk45_accept_hook_rejects_domain_exit():
    # flow pushing through zero; the hook forbids nonpositive states
    calls = []

    def guard(y_old, y_new):
        ok = bool(np.all(y_new > 0.0))
        calls.append(ok)
        return ok

    t_rec = np.linspace(0.0, 1.0, 5)
    res = rk45(lambda y, out: np.multiply(-0.5, y, out=out), np.array([1.0]), t_rec,
               accept_state=guard)
    assert np.all(res.states > 0.0)


def test_rk45_failure_prefix_matches_reference():
    # dy/dt = y^2 blows up at t = 1: both steppers fail at the same step and
    # hand back the same records
    t_rec = np.linspace(0.0, 2.0, 41)
    field = lambda y, out: np.multiply(y, y, out=out)
    runs = []
    for stepper, f in ((rk45, field), (reference_rk45, _allocating(field))):
        with pytest.raises(StiffnessError) as info:
            stepper(f, np.array([1.0, 0.5]), t_rec, rtol=1e-9, atol=1e-12)
        runs.append(info.value.partial)
    new, ref = runs
    assert (new.n_steps, new.n_rejected) == (ref.n_steps, ref.n_rejected)
    assert len(new.times) == len(ref.times) == 20
    assert np.array_equal(new.states.view(np.int64), ref.states.view(np.int64))


def _allocating(field):
    """The one-argument field the reference stepper calls, from an (y, out) one."""
    return lambda y: field(y, np.empty_like(y))


def _shape_field(y, out):
    return np.subtract(np.cos(y) * (1.0 - y), 0.5 * y * np.abs(y), out=out)


@pytest.mark.parametrize("shape", [(1,), (3,), (13, 3), (64,), (257,), (4096,), (56, 1), "zeros"])
def test_rk45_matches_reference_across_state_shapes(shape):
    # rk45 takes stage 6's argument, a 6-term stage sum, as the fifth-order
    # solution, a 7-term sum whose last weight is an exact 0: the two agree
    # bit for bit on each BLAS path these sizes take
    if shape == "zeros":
        # spiral-like members: exact zeros of both signs stay put under
        # -y |y| (their rates are zeros of the other sign) beside moving ones
        y0 = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, -0.0], [-0.0, 1.5, 0.1], [0.0, -0.0, -0.5]])
        field = lambda y, out: np.multiply(-y, np.abs(y), out=out)
    else:
        y0, field = np.random.default_rng(sum(shape)).uniform(-2.0, 2.0, shape), _shape_field
    t_rec = np.linspace(0.0, 3.0, 7)
    new = rk45(field, y0, t_rec, rtol=1e-9, atol=1e-12)
    ref = reference_rk45(_allocating(field), y0, t_rec, rtol=1e-9, atol=1e-12)
    assert new.n_steps > 10
    assert (new.n_steps, new.n_rejected) == (ref.n_steps, ref.n_rejected)
    assert np.array_equal(new.states.view(np.int64), ref.states.view(np.int64))
    if shape == "zeros":
        assert np.array_equal(new.states[-1] == 0.0, y0 == 0.0)


def test_trailing_stats_window():
    t = np.linspace(0.0, 10.0, 101)
    s = np.where(t < 9.0, 5.0, 2.0)
    mean, spread = trailing_stats(t, s, frac=0.05)
    assert mean == pytest.approx(2.0)
    assert spread == 0.0
