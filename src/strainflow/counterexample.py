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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import rk45


@dataclass(frozen=True)
class CylState:
    r: float
    theta: float  # radians, unwrapped
    z: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def lyapunov(self) -> float:
        return self.r ** 2 + self.z ** 2


@dataclass
class CylTrajectory:
    times: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    z: np.ndarray

    @property
    def lyapunov(self) -> np.ndarray:
        return self.r ** 2 + self.z ** 2

    @property
    def abs_u(self) -> np.ndarray:
        return np.sqrt(self.lyapunov)

    def final(self) -> CylState:
        return CylState(r=float(self.r[-1]), theta=float(self.theta[-1]), z=float(self.z[-1]))


def _field(y: np.ndarray) -> np.ndarray:
    r, _, z = y
    az = abs(z)
    return np.array([-r * (1.0 - r) ** 2 - r * az, r * (r - 1.0), -z * az])


def simulate_cyl(
    r0: float,
    theta0: float,
    z0: float,
    t_final: float,
    n_records: int = 401,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> CylTrajectory:
    """Integrate the spiral ODE, keeping theta unwrapped (no modulus)."""
    if r0 < 0:
        raise ValueError("radius must be nonnegative")
    t_rec = np.linspace(0.0, t_final, n_records)
    guard = lambda y_old, y_new: bool(y_new[0] >= 0.0)
    res = rk45(_field, np.array([r0, theta0, z0]), t_rec,
               rtol=rtol, atol=atol, accept_state=guard)
    return CylTrajectory(
        times=t_rec,
        r=res.states[:, 0],
        theta=res.states[:, 1],
        z=res.states[:, 2],
    )


DEMO_Z0 = (0.0,) + tuple(s * 10.0 ** -k for k in range(1, 7) for s in (1.0, -1.0))


def member_summary(z0: float, traj: CylTrajectory) -> dict:
    """Final state, winding gain and Lyapunov monotonicity of one member."""
    lyap = traj.lyapunov
    return {
        "z0": z0,
        "final_r": float(traj.r[-1]),
        "final_theta": float(traj.theta[-1]),
        "final_z": float(traj.z[-1]),
        "final_abs_u": float(traj.abs_u[-1]),
        "theta_gain": float(traj.theta[-1] - traj.theta[0]),
        "lyapunov_monotone": bool(np.all(np.diff(lyap) <= 1e-9 * (1.0 + lyap[:-1]))),
    }


def dense_data_demo(t_final: float = 1e3, r0: float = 2.0) -> list[dict]:
    """Ensemble over z(0) in DEMO_Z0 = {0} and +-10^-k, k = 1..6, all from
    r(0) = r0.

    Members with z(0) != 0 head for the origin; the z(0) = 0 member hugs the
    unit circle with its angle still advancing. Returns one summary per
    member.
    """
    return [member_summary(z0, simulate_cyl(r0, 0.0, z0, t_final)) for z0 in DEMO_Z0]
