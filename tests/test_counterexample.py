import numpy as np
import pytest

from strainflow.counterexample import (
    DEMO_Z0,
    CylTrajectory,
    _field,
    dense_data_demo,
    ensemble_checks,
    simulate_cyl,
    simulate_ensemble,
)
from strainflow.numerics import rk45

from reference_rk45 import reference_rk45


class TestClosedForms:
    @pytest.mark.parametrize("z0", [0.5, -0.5, 0.01, -0.01])
    def test_z_formula(self, z0):
        traj = simulate_cyl(2.0, 0.0, z0, 100.0, n_records=201)
        exact = z0 / (1.0 + abs(z0) * traj.times)
        assert np.max(np.abs(traj.z - exact)) < 1e-6

    @pytest.mark.parametrize("z0", [0.5, 0.05])
    def test_radius_decay_bound(self, z0):
        traj = simulate_cyl(2.0, 0.0, z0, 200.0, n_records=101)
        bound = 2.0 / (1.0 + abs(z0) * traj.times)
        assert np.all(traj.r <= bound + 1e-9)

    def test_plane_member_radius_floor(self):
        traj = simulate_cyl(2.0, 0.0, 0.0, 1000.0, n_records=501)
        u = traj.r - 1.0
        assert np.all(u >= 1.0 / (2.0 * traj.times + 1.0) - 1e-12)
        assert 1.0 < traj.r[-1] < 1.2

    def test_angle_winds_like_log(self):
        # exact identity on the plane: theta gain = ln(u(0)/u(t))
        traj = simulate_cyl(2.0, 0.0, 0.0, 1000.0, n_records=501)
        gain = traj.theta[-1] - traj.theta[0]
        u = traj.r - 1.0
        assert gain == pytest.approx(np.log(u[0] / u[-1]), abs=1e-8)
        assert gain == pytest.approx(6.9149521, abs=1e-5)

    def test_angle_growth_is_unbounded(self):
        # the winding passes any threshold given enough time (log growth)
        gains = []
        for T in (1e3, 3e4):
            traj = simulate_cyl(2.0, 0.0, 0.0, T, n_records=301)
            gains.append(traj.theta[-1] - traj.theta[0])
        assert gains[1] > gains[0]
        assert gains[1] > 10.0


class TestInvariants:
    @pytest.mark.parametrize("z0", [0.0, 0.3, -0.02])
    def test_radius_nonnegative_and_z_sign_fixed(self, z0):
        traj = simulate_cyl(1.5, 0.5, z0, 50.0, n_records=201)
        assert np.all(traj.r >= 0.0)
        if z0 > 0:
            assert np.all(traj.z > 0.0)
        elif z0 < 0:
            assert np.all(traj.z < 0.0)
        else:
            assert np.all(traj.z == 0.0)

    @pytest.mark.parametrize("z0", [0.0, 0.1, -0.5])
    def test_lyapunov_nonincreasing(self, z0):
        traj = simulate_cyl(2.0, 0.0, z0, 100.0, n_records=401)
        lyap = traj.lyapunov
        assert np.all(np.diff(lyap) <= 1e-9 * (1.0 + lyap[:-1]))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            simulate_cyl(-1.0, 0.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def demo():
    return dense_data_demo(t_final=1e3)


class TestDenseDataDemo:
    def test_member_count_and_lyapunov(self, demo):
        assert len(demo) == 13
        assert all(m["lyapunov_monotone"] for m in demo)

    def test_plane_member_stays_on_circle(self, demo):
        plane = [m for m in demo if m["z0"] == 0.0][0]
        assert 1.0 < plane["final_abs_u"] < 1.2
        assert plane["theta_gain"] > 5.0

    def test_perturbed_members_head_to_origin(self, demo):
        for m in demo:
            if m["z0"] == 0.0:
                continue
            # decay bound r <= r0/(1 + |z0| t) already forces smallness for
            # the larger perturbations; all must sit below the bound
            bound = 2.0 / (1.0 + abs(m["z0"]) * 1e3)
            assert m["final_abs_u"] <= np.hypot(bound, abs(m["z0"]) / (1 + abs(m["z0"]) * 1e3)) + 1e-9

    def test_millinoise_member_vanishes_by_ten_thousand(self):
        out = dense_data_demo(t_final=1e4)
        member = [m for m in out if m["z0"] == 1e-3][0]
        assert member["final_abs_u"] < 0.1


def _one_member_loop(z0s, t_final, n_records=401):
    """The demo as integrated before the ensemble call: one rk45 call per
    member on its 1-d state (r, theta, z)."""
    t_rec = np.linspace(0.0, t_final, n_records)
    guard = lambda y_old, y_new: bool(y_new[0] >= 0.0)
    out = []
    for z0 in z0s:
        res = rk45(_field, np.array([2.0, 0.0, z0]), t_rec, rtol=1e-10, atol=1e-12,
                   accept_state=guard)
        out.append(CylTrajectory(t_rec, *res.states.T))
    return out


def _closed_form_error(z0, traj):
    """z against z0 / (1 + |z0| t) (relative), or on z = 0 the angle against
    theta - theta0 = ln((r0 - 1) / (r - 1))."""
    if z0 == 0.0:
        u = traj.r - 1.0
        return np.max(np.abs(traj.theta - traj.theta[0] - np.log(u[0] / u)))
    exact = z0 / (1.0 + abs(z0) * traj.times)
    return np.max(np.abs(traj.z - exact) / np.abs(exact))


class TestEnsemble:
    """The demo's 13 members in one rk45 call against the one-member loop."""

    @pytest.fixture(scope="class")
    def runs(self):
        return (simulate_ensemble(2.0, 0.0, np.array(DEMO_Z0), 1e3),
                _one_member_loop(DEMO_Z0, 1e3))

    def test_no_less_accurate_than_loop(self, runs):
        # below 1e-14 relative the z errors are roundoff of the closed form
        # itself (the loop's are about 1e-15 there), not step error
        for z0, ens, ref in zip(DEMO_Z0, *runs):
            assert _closed_form_error(z0, ens) <= max(_closed_form_error(z0, ref), 1e-14), z0

    def test_agrees_with_loop(self, runs):
        for z0, ens, ref in zip(DEMO_Z0, *runs):
            e = np.column_stack([ens.r, ens.theta, ens.z])
            r = np.column_stack([ref.r, ref.theta, ref.z])
            assert np.all(np.abs(e - r) <= 5e-9 * np.max(np.abs(r), axis=0)), z0

    def test_mirror_pairs(self, runs):
        # the field is odd in z and depends on z only through |z|
        ens = runs[0]
        for k in range(1, len(DEMO_Z0), 2):
            assert DEMO_Z0[k] == -DEMO_Z0[k + 1]
            a, b = ens[k], ens[k + 1]
            assert np.max(np.abs(a.r - b.r)) <= 1e-15
            assert np.max(np.abs(a.theta - b.theta)) <= 1e-15
            assert np.max(np.abs(np.abs(a.z) - np.abs(b.z))) <= 1e-15

    def test_demo_is_one_call(self, monkeypatch):
        import strainflow.counterexample as cx

        calls = []

        def spy(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return rk45(*args, **kwargs)

        monkeypatch.setattr(cx, "rk45", spy)
        dense_data_demo(t_final=10.0)
        assert calls == [(13, 3)]

    def test_members_at_rest_do_not_change_the_steps(self):
        # each member is held to the tolerance by its own norm: 999 members
        # at the origin (a rest point) must not loosen or tighten the control
        t_rec = np.linspace(0.0, 100.0, 101)
        guard = lambda y_old, y_new: bool(np.all(y_new[:, 0] >= 0.0))
        y0 = np.zeros((1000, 3))
        y0[0] = (2.0, 0.0, 0.1)
        many = rk45(_field, y0, t_rec, rtol=1e-10, atol=1e-12, accept_state=guard)
        alone = rk45(_field, y0[:1], t_rec, rtol=1e-10, atol=1e-12, accept_state=guard)
        assert many.states.shape == (101, 1000, 3)
        assert (many.n_steps, many.n_rejected) == (alone.n_steps, alone.n_rejected)
        assert np.max(np.abs(many.states[:, 0] - alone.states[:, 0])) <= 1e-12
        assert np.all(many.states[:, 1:] == 0.0)

    def test_checks_pass_and_catch_a_corrupted_member(self, runs):
        ens = runs[0]
        checks = ensemble_checks(DEMO_Z0, ens)
        assert set(checks) == {"z_closed_form", "theta_identity", "lyapunov_monotone"}
        assert all(c["pass"] and c["value"] <= c["threshold"] for c in checks.values())
        bad = list(ens)
        bad[3] = CylTrajectory(ens[3].times, ens[3].r, ens[3].theta, ens[3].z * (1 + 1e-6))
        assert not ensemble_checks(DEMO_Z0, bad)["z_closed_form"]["pass"]


class TestOrderOracle:
    """Tightening rtol 100x lowers the error against an exact solution at
    least 10x (a fifth-order pair gives about 50-90x here)."""

    @pytest.mark.parametrize("rtol", [1e-6, 1e-8])
    def test_plane_member_to_t_1e3(self, rtol):
        # on z = 0: t = F(r0) - F(r(t)), F(r) = ln(r / (r - 1)) - 1 / (r - 1),
        # and theta - theta0 = ln((r0 - 1) / (r - 1))
        F = lambda r: np.log(r / (r - 1.0)) - 1.0 / (r - 1.0)

        def errors(tol):
            traj = simulate_cyl(2.0, 0.0, 0.0, 1e3, rtol=tol)
            t_err = np.max(np.abs(F(2.0) - F(traj.r) - traj.times))
            return np.array([t_err, _closed_form_error(0.0, traj)])

        assert np.all(errors(rtol / 100.0) * 10.0 <= errors(rtol))


def _reference_field(y):
    """The spiral velocity as it was before it wrote into one buffer."""
    r, _, z = y.T
    az = np.abs(z)
    return np.array([-r * ((1.0 - r) ** 2 + az), r * (r - 1.0), -z * az]).T


def test_ensemble_matches_reference_stepper():
    # the demo ensemble to t = 1e3: same steps, rejections and records, bit
    # for bit, as the reference stepper on the reference field
    y0 = np.column_stack(np.broadcast_arrays(2.0, 0.0, np.array(DEMO_Z0)))
    y0 = np.vstack([y0, [[0.5, 1.0, 0.3]]])
    t_rec = np.linspace(0.0, 1e3, 401)
    guard = lambda y_old, y_new: bool((y_new[:, 0] >= 0.0).all())
    new = rk45(_field, y0, t_rec, rtol=1e-10, atol=1e-12, accept_state=guard)
    ref = reference_rk45(_reference_field, y0, t_rec, rtol=1e-10, atol=1e-12, accept_state=guard)
    assert (new.n_steps, new.n_rejected) == (ref.n_steps, ref.n_rejected)
    assert np.array_equal(new.states.view(np.int64), ref.states.view(np.int64))
    assert np.array_equal(_field(y0[0]), _reference_field(y0[0]))
