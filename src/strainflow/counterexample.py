"""A three-dimensional ODE showing that convergence for a dense set of
initial data does not force convergence for all data.

In cylindrical coordinates (r, theta, z):

    dr/dt     = -r (1 - r)^2 - r |z|
    dtheta/dt = r (r - 1)
    dz/dt     = -z |z|

Every solution with z(0) != 0 spirals into the origin, with the closed forms
z(t) = z(0) / (1 + |z(0)| t) and r(t) <= r(0) / (1 + |z(0)| t). On the
invariant plane z = 0 with r(0) > 1, the radius creeps down to the unit
circle like 1/t while the angle keeps winding (theta grows like log t), so
that trajectory never settles at a rest point. r^2 + z^2 is a Lyapunov
function throughout.

An ensemble of initial states is integrated in one rk45 call, each member
held to the tolerance by its own error norm; one state is the one-member
case. Every run is checked against the z closed form, the angle identity
on z = 0 (from r > 1) and the Lyapunov function, where they apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import rk45


@dataclass
class CylTrajectory:
    times: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    z: np.ndarray

    @property
    def lyapunov(self) -> np.ndarray:
        return self.r ** 2 + self.z ** 2


def _field(y: np.ndarray) -> np.ndarray:
    """Velocity of one state (3,) or of an ensemble (members, 3)."""
    r, z = y[..., 0], y[..., 2]
    az, r_1, out = np.abs(z), r - 1.0, np.empty_like(y)  # r_1 * r_1 is (1 - r)^2, bit for bit
    np.multiply(-r, r_1 * r_1 + az, out=out[..., 0])
    np.multiply(r, r_1, out=out[..., 1])
    np.multiply(-z, az, out=out[..., 2])
    return out


def simulate_ensemble(r0, theta0, z0, t_final: float, n_records: int = 401,
                      rtol: float = 1e-10, atol: float = 1e-12) -> list[CylTrajectory]:
    """Integrate the spiral ODE from every (r0, theta0, z0) (broadcast
    together) in one rk45 call, keeping theta unwrapped (no modulus).

    The members share the steps; rk45 holds each member to ``rtol``/``atol``
    by its own error norm, and a step is retried when any radius turns
    negative. Returns one trajectory per member.
    """
    y0 = np.column_stack(np.broadcast_arrays(r0, theta0, z0)).astype(float)
    if np.any(y0[:, 0] < 0):
        raise ValueError("radius must be nonnegative")
    t_rec = np.linspace(0.0, t_final, n_records)
    guard = lambda y_old, y_new: np.minimum.reduce(y_new[:, 0]) >= 0.0
    res = rk45(_field, y0, t_rec, rtol=rtol, atol=atol, accept_state=guard)
    return [CylTrajectory(t_rec, *res.states[:, i].T) for i in range(len(y0))]


def simulate_cyl(
    r0: float,
    theta0: float,
    z0: float,
    t_final: float,
    n_records: int = 401,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> CylTrajectory:
    """Integrate the spiral ODE from one state: the one-member case of
    ``simulate_ensemble``."""
    return simulate_ensemble(r0, theta0, z0, t_final, n_records, rtol, atol)[0]


DEMO_Z0 = (0.0,) + tuple(s * 10.0 ** -k for k in range(1, 7) for s in (1.0, -1.0))


def member_summary(z0: float, traj: CylTrajectory) -> dict:
    """Final state, winding gain and Lyapunov monotonicity of one member."""
    lyap = traj.lyapunov
    return {
        "z0": z0,
        "final_r": float(traj.r[-1]),
        "final_theta": float(traj.theta[-1]),
        "final_z": float(traj.z[-1]),
        "final_abs_u": float(np.sqrt(lyap[-1])),
        "theta_gain": float(traj.theta[-1] - traj.theta[0]),
        "lyapunov_monotone": bool(np.all(np.diff(lyap) <= 1e-9 * (1.0 + lyap[:-1]))),
    }


def ensemble_checks(z0s, trajs: list[CylTrajectory]) -> dict[str, dict]:
    """Graded checks of an ensemble, each as ``{value, threshold, pass}``:
    the worst relative error of z against z0 / (1 + |z0| t) over the
    z0 != 0 members, the worst error of the angle of the members with
    z0 = 0 and r0 > 1 against theta - theta0 = ln((r0 - 1) / (r - 1)), and
    the largest relative rise of r^2 + z^2 between records. A check that no
    member qualifies for is left out; a NaN anywhere fails its check."""
    z_err, theta_err, lyap_rise = [], [], []
    for z0, traj in zip(z0s, trajs):
        lyap = traj.lyapunov
        lyap_rise.append(np.max(np.diff(lyap) / (1.0 + lyap[:-1]), initial=0.0))
        if z0 == 0.0 and traj.r[0] > 1.0:
            u = traj.r - 1.0
            theta_err.append(np.max(np.abs(traj.theta - traj.theta[0] - np.log(u[0] / u))))
        elif z0 != 0.0:
            exact = z0 / (1.0 + abs(z0) * traj.times)
            z_err.append(np.max(np.abs(traj.z - exact) / np.abs(exact)))
    graded = {"z_closed_form": (z_err, 1e-7), "theta_identity": (theta_err, 1e-7),
              "lyapunov_monotone": (lyap_rise, 1e-9)}
    return {name: {"value": float(np.max(v)), "threshold": tol, "pass": bool(np.max(v) <= tol)}
            for name, (v, tol) in graded.items() if v}


def dense_data_demo(t_final: float = 1e3, r0: float = 2.0) -> list[dict]:
    """Ensemble over z(0) in DEMO_Z0 = {0} and +-10^-k, k = 1..6, all from
    r(0) = r0, integrated in one vector rk45 call.

    Members with z(0) != 0 head for the origin; the z(0) = 0 member hugs the
    unit circle with its angle still advancing. Returns one summary per
    member.
    """
    trajs = simulate_ensemble(r0, 0.0, np.array(DEMO_Z0), t_final)
    return [member_summary(z0, traj) for z0, traj in zip(DEMO_Z0, trajs)]
