"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantity.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time

import numpy as np
import pytest

from strainflow.asymptotics import F_functional, cubic_invariants
from strainflow.bounds import displacement_lower, displacement_upper
from strainflow.counterexample import simulate_cyl
from strainflow.displacement import (
    approximate_initial_data,
    gronwall_check,
    integrate,
    rearrange,
    seeded_state,
)
from strainflow.mixed import solve_pointwise
from strainflow.state import SimpleState, state_distance
from strainflow.stress_models import make_model


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def cubic():
    return make_model("cubic")


@pytest.fixture(scope="module")
def singular():
    return make_model("singular-cubic", kappa=0.5)


@pytest.fixture(scope="module")
def long_cubic_run(cubic):
    state = seeded_state(cubic, 32, 0.5, seed=8)
    return integrate(cubic, state, 200.0, record_every=0.5)


def test_criterion_01_mass_conservation(cubic, singular):
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(cubic, 0.5), (singular, 0.5), (singular, 1.0)]
    for model, mu in cases:
        state = seeded_state(model, 64, mu, seed=101)
        traj = integrate(model, state, 50.0, record_every=0.25)
        assert traj.n_records == 201 and traj.times[-1] == 50.0
        worst = max(worst, float(np.max(np.abs(traj.mass() - mu)) / max(1.0, mu)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    assert verdict(1, ok, f"max relative mass drift {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_gronwall_contraction(cubic, singular):
    t0 = time.perf_counter()
    worst = 0.0
    for model, mu in ((cubic, 0.5), (singular, 1.0)):
        for k in range(10):
            a = seeded_state(model, 8, mu, seed=200 + 2 * k)
            b = seeded_state(model, 8, mu, seed=201 + 2 * k)
            rep = gronwall_check(model, a, b, 10.0)
            worst = max(worst, rep.ratio_max)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-6 and elapsed < 10.0
    assert verdict(2, ok, f"max distance ratio {worst:.9f}, {elapsed:.2f}s")


def test_criterion_03_monotone_law_contracts():
    hyp = make_model("hyperbolic")
    worst_increase = -np.inf
    for k in range(10):
        a = seeded_state(hyp, 8, 1.0, seed=300 + 2 * k)
        b = seeded_state(hyp, 8, 1.0, seed=301 + 2 * k)
        ta = integrate(hyp, a, 10.0, record_every=0.5, rtol=1e-10, atol=1e-13)
        tb = integrate(hyp, b, 10.0, record_every=0.5, rtol=1e-10, atol=1e-13)
        dist = np.sqrt(((ta.values - tb.values) ** 2) @ a.weights)
        worst_increase = max(worst_increase, float(np.max(np.diff(dist))))
    ok = worst_increase <= 1e-10
    assert verdict(3, ok, f"largest distance increase {worst_increase:.2e}")


def test_criterion_04_energy_equation_residual(cubic):
    state = seeded_state(cubic, 16, 0.5, seed=400)
    traj = integrate(cubic, state, 20.0, record_every=0.1, rtol=1e-10, atol=1e-13)
    i0 = int(np.searchsorted(traj.times, 0.1))
    e0, z0 = traj.energy[i0], traj.dissipation_cum[i0]
    resid = traj.energy[i0:] - e0 + (traj.dissipation_cum[i0:] - z0)
    worst = float(np.max(np.abs(resid)))
    ok = worst <= 1e-6 * (1.0 + abs(e0))
    assert verdict(4, ok, f"energy-equation residual {worst:.2e}")


def test_criterion_05_ordering_preserved(cubic):
    worst = np.inf
    for seed in range(100):
        state = seeded_state(cubic, 8, 0.5, seed=500 + seed)
        traj = integrate(cubic, state, 5.0, n_records=21)
        order0 = np.argsort(traj.values[0], kind="stable")
        gaps = np.diff(traj.values[:, order0], axis=1)
        worst = min(worst, float(np.min(gaps)))
    ok = worst >= 0.0
    assert verdict(5, ok, f"smallest ordered gap over 100 runs {worst:.2e}")


def test_criterion_06_universal_bound_enclosure(singular):
    mu = 1.0
    t_records = np.arange(0.0, 50.0 + 0.25, 0.5)
    t_records[-1] = 50.0
    lower, lc = displacement_lower(singular, mu, t_records[1:])
    upper, uc = displacement_upper(singular, mu, t_records[1:])
    margin_low = np.inf
    margin_high = np.inf
    for seed in range(100):
        state = seeded_state(singular, 16, mu, seed=600 + seed)
        traj = integrate(singular, state, 50.0, record_every=0.5)
        assert traj.n_records == len(t_records) and traj.times[-1] == t_records[-1]
        margin_low = min(margin_low, float(np.min(traj.values[1:].min(axis=1) - lower)))
        margin_high = min(margin_high, float(np.min(upper - traj.values[1:].max(axis=1))))
    ok = margin_low >= 0.0 and margin_high >= 0.0
    assert verdict(
        6,
        ok,
        f"C={lc['C']:.3f} eps0={lc['eps0']:.3f} M={uc['M']:.3f}; "
        f"margins lower {margin_low:.2e}, upper {margin_high:.2e}",
    )


def test_criterion_07_traction_free_exactness():
    linear = make_model("linear")
    t = np.linspace(0.0, 20.0, 201)
    worst = 0.0
    for p0 in (0.1, 3.0, 10.0):
        sol = solve_pointwise(linear, p0, t, rtol=1e-11, atol=1e-13)
        exact = 1.0 + (p0 - 1.0) * np.exp(-t)
        worst = max(worst, float(np.max(np.abs(sol.values - exact))))
    ok = worst < 1e-8
    assert verdict(7, ok, f"max deviation from closed form {worst:.2e}")


def test_criterion_08_cubic_stress_limit_identity(cubic):
    t0 = time.perf_counter()
    worst_identity = 0.0
    worst_spread = 0.0
    for seed in range(1, 9):
        state = seeded_state(cubic, 128, 0.5, seed=800 + seed)
        traj = integrate(cubic, state, 200.0, record_every=0.5)
        rep = cubic_invariants(cubic, traj, c_spread_tol=1e-4)
        scale = max(1.0, rep.measured_sigma_bar ** 2)
        worst_identity = max(worst_identity, abs(rep.identity_value) / scale)
        worst_spread = max(worst_spread, rep.measured_spread)
        assert rep.discriminant >= 0.0
        assert rep.residual <= 1e-3 * max(1.0, abs(rep.measured_sigma_bar))
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-3 and worst_spread <= 1e-4 and elapsed < 60.0
    assert verdict(
        8,
        ok,
        f"max scaled identity value {worst_identity:.2e}, "
        f"max trailing c-spread {worst_spread:.2e}, {elapsed:.1f}s",
    )


def test_criterion_09_prox_explicit_consistency(cubic):
    state = SimpleState.uniform([-0.8, -0.1, 0.3, 0.55, 0.9, 1.4, 1.9, 0.35])
    ref = integrate(cubic, state, 1.0, n_records=5, rtol=1e-11, atol=1e-14)
    errs = []
    for tau in (1e-2, 5e-3, 2.5e-3):
        pr = integrate(cubic, state, 1.0, stepper="prox", tau=tau, n_records=5)
        diff = np.sqrt(((pr.values - ref.values) ** 2) @ state.weights)
        errs.append(float(np.max(diff)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    ok = 1.5 <= r1 <= 2.5 and 1.5 <= r2 <= 2.5
    assert verdict(9, ok, f"halving ratios {r1:.3f}, {r2:.3f}")


def test_criterion_10_refinement_cauchy_bound(cubic):
    x = np.linspace(0.0, 1.0, 512, endpoint=False) + 1.0 / 1024
    samples = 2.0 * x  # ramp with mean 1
    t_final = 5.0
    lam = cubic.lambda_
    results = {}
    for n in (8, 16, 32, 64, 128):
        state, assign = approximate_initial_data(samples, n)
        traj = integrate(cubic, state, t_final, n_records=11)
        results[n] = (state, assign, SimpleState(values=traj.values[-1], weights=traj.weights))
    worst = -np.inf
    for n in (8, 16, 32, 64):
        s1, a1, f1 = results[n]
        s2, a2, f2 = results[2 * n]
        d0 = np.sqrt(np.mean((s1.values[a1] - s2.values[a2]) ** 2))
        dT = np.sqrt(np.mean((f1.values[a1] - f2.values[a2]) ** 2))
        worst = max(worst, dT - np.exp(lam * t_final) * d0)
    ok = worst <= 0.0
    assert verdict(10, ok, f"worst Cauchy-bound slack {worst:.2e}")


def test_criterion_11_spiral_closed_forms():
    worst_z = 0.0
    for z0 in (0.5, -0.5, 0.01, -0.01):
        traj = simulate_cyl(2.0, 0.0, z0, 100.0, n_records=201)
        exact = z0 / (1.0 + abs(z0) * traj.times)
        worst_z = max(worst_z, float(np.max(np.abs(traj.z - exact))))
    plane = simulate_cyl(2.0, 0.0, 0.0, 1000.0, n_records=1001)
    floor_margin = float(np.min(plane.r - 1.0 - 1.0 / (2.0 * plane.times + 1.0)))
    ok = worst_z < 1e-6 and floor_margin >= -1e-12
    assert verdict(
        11, ok, f"z-formula error {worst_z:.2e}, radius-floor margin {floor_margin:.2e}"
    )


def test_criterion_11_spiral_winding_threshold():
    # The angle winds like log(t): the measured gain at t = 1e3 is ~6.915
    # (it first passes 10 only near t ~ 2.2e4), so this stated threshold is
    # not attainable at this horizon. Kept as specified; see the companion
    # test demonstrating the gain does pass 10 on a longer run.
    traj = simulate_cyl(2.0, 0.0, 0.0, 1000.0, n_records=501)
    gain = float(traj.theta[-1] - traj.theta[0])
    ok = gain > 10.0
    assert verdict(11, ok, f"winding gain at t=1e3 is {gain:.4f}, threshold 10")


def test_criterion_12_rearrangement_equivariance(cubic):
    worst = 0.0
    for seed in range(20):
        state = seeded_state(cubic, 8, 0.5, seed=1200 + seed)
        sorted_state, perm = rearrange(state)
        t_orig = integrate(cubic, state, 10.0, n_records=21)
        t_sort = integrate(cubic, sorted_state, 10.0, n_records=21)
        worst = max(worst, float(np.max(np.abs(t_sort.values - t_orig.values[:, perm]))))
    ok = worst <= 1e-8
    assert verdict(12, ok, f"max equivariance defect {worst:.2e}")


def test_criterion_13_functional_monotonicity(cubic, long_cubic_run):
    res_id = F_functional(cubic, long_cubic_run, lambda s: s,
                          F_prime=lambda s: np.ones_like(s))
    res_cube = F_functional(cubic, long_cubic_run, lambda s: s ** 3,
                            F_prime=lambda s: 3.0 * s ** 2)
    res_sq = F_functional(cubic, long_cubic_run, lambda s: s ** 2)
    ok = (
        res_id.monotone_expected and res_id.monotone_ok
        and res_cube.monotone_expected and res_cube.monotone_ok
        and res_sq.spread <= 1e-4
    )
    assert verdict(
        13,
        ok,
        f"monotone decay for F=s and F=s^3; quadratic-F trailing spread {res_sq.spread:.2e}",
    )
