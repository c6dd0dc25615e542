"""The explicit stepper as it was before its per-step numpy calls were cut,
kept verbatim as a reference: one ``stage_rate`` call per stage, stage sums
reshaped per stage, the error norm on fresh arrays and a ``np.array_equal``
test after every ``postprocess``, with the step-size controller as the class
it then was. The current ``numerics.rk45`` must take the same steps and give
the same records bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from strainflow.errors import StiffnessError, StrainflowError
from strainflow.numerics import _DP_A, _DP_B5, _DP_ERR, RKResult


@dataclass
class _StepController:
    """PI step-size controller state for the embedded 5(4) pair."""

    rtol: float = 1e-9
    atol: float = 1e-12
    dt: float = 1e-4
    dt_min: float = 1e-14
    dt_max: float = float("inf")
    safety: float = 0.9
    err_prev: float = 1.0

    def after_accept(self, err: float) -> None:
        err = max(err, 1e-12)
        factor = self.safety * err ** (-0.7 / 5.0) * self.err_prev ** (0.4 / 5.0)
        self.dt = min(self.dt * min(5.0, max(0.2, factor)), self.dt_max)
        self.err_prev = err

    def after_reject(self, err: float) -> None:
        if np.isfinite(err) and err > 0:
            self.dt *= max(0.2, self.safety * err ** (-1.0 / 5.0))
        else:
            self.dt *= 0.25


def reference_rk45(
    f,
    y0: np.ndarray,
    t_record: np.ndarray,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    accept_state=None,
    postprocess=None,
    stage_rate=None,
    dt_min: float = 1e-14,
    dt_max: float = float("inf"),
) -> RKResult:
    """Adaptive Dormand-Prince 5(4) integration recording at ``t_record``.

    ``y0`` is one state (dim,) or an ensemble (members, dim) sharing the
    steps; ``f``, ``accept_state``, ``postprocess`` and ``stage_rate`` see
    the state's shape and the records come back as (records,) + y0.shape.
    The step's error norm is the RMS of the scaled errors over each member's
    components, maximised over members, so every accepted step passes each
    member's own error test at ``rtol``/``atol``.

    ``accept_state(y_old, y_new)`` can veto a step (domain exits, ordering);
    vetoed steps are retried with half the step size. ``postprocess(y)`` runs
    after each accepted step (e.g. mass renormalization). ``stage_rate(k)``
    maps a stage derivative vector to a scalar rate whose time integral is
    accumulated with the same fifth-order weights (used for dissipation).

    Raises StiffnessError when a rejection, or an accepted step that was not
    clamped to a record time, leaves a proposed step below ``dt_min``. A
    StrainflowError raised while stepping carries the records reached so far
    as ``exc.partial``, an RKResult.
    """
    t_record = np.asarray(t_record, dtype=float)
    if t_record.ndim != 1 or len(t_record) == 0:
        raise ValueError("t_record must be a non-empty 1-d array")
    if np.any(np.diff(t_record) <= 0):
        raise ValueError("t_record must be strictly increasing")

    y = np.array(y0, dtype=float)
    t = float(t_record[0])
    records = np.empty((len(t_record),) + y.shape)
    aux = np.zeros(len(t_record))
    records[0] = y
    aux_total = 0.0

    ctrl = _StepController(rtol=rtol, atol=atol, dt_min=dt_min, dt_max=dt_max)
    span = t_record[-1] - t_record[0]
    ctrl.dt = min(1e-4, span)

    k = np.empty((7,) + y.shape)
    kf = k.reshape(7, -1)  # flat view: one stage sum for every member at once
    fsal_valid = False
    n_steps = 0
    n_rejected = 0
    idx = 1
    try:
        while idx < len(t_record):
            t_next = float(t_record[idx])
            dt = min(ctrl.dt, t_next - t)
            clamped = dt < ctrl.dt
            if not fsal_valid:
                k[0] = f(y)
                fsal_valid = True
            for s in range(1, 7):
                ys = y + dt * (_DP_A[s] @ kf[:s]).reshape(y.shape)
                k[s] = f(ys)
            y_new = y + dt * (_DP_B5 @ kf).reshape(y.shape)
            err_vec = dt * (_DP_ERR @ kf).reshape(y.shape)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            # RMS over each member's components, max over members
            err = float(np.sqrt(((err_vec / scale) ** 2).sum(axis=-1) / y.shape[-1]).max())

            bad = (not np.isfinite(err)) or (not np.isfinite(y_new).all()) or err > 1.0
            if not bad and accept_state is not None and not accept_state(y, y_new):
                bad = True
                err = float("nan")
            if bad:
                n_rejected += 1
                ctrl.after_reject(err)
                # k[0] still holds f at the unchanged y, so FSAL stays valid
                if ctrl.dt < dt_min:
                    raise StiffnessError(
                        f"step size underflow at t={t!r} (dt={ctrl.dt!r})"
                    )
                continue

            if stage_rate is not None:
                rates = np.array([stage_rate(k[s]) for s in range(7)])
                aux_total += dt * float(_DP_B5 @ rates)
            t += dt
            n_steps += 1
            k[0] = k[6]  # FSAL
            y = y_new
            if postprocess is not None:
                y2 = postprocess(y)
                if y2 is not y and not np.array_equal(y2, y):
                    y = y2
                    fsal_valid = False
                else:
                    y = y2
            if not clamped:
                ctrl.after_accept(err)
            while idx < len(t_record) and t >= t_record[idx] - 1e-14 * max(1.0, abs(t)):
                records[idx] = y
                aux[idx] = aux_total
                idx += 1
            # a step clamped to a record time leaves ctrl.dt as it was
            if not clamped and ctrl.dt < dt_min and idx < len(t_record):
                raise StiffnessError(f"step size underflow at t={t!r} (dt={ctrl.dt!r})")
    except StrainflowError as exc:
        exc.partial = RKResult(times=t_record[:idx], states=records[:idx],
                               aux_integral=aux[:idx], n_steps=n_steps, n_rejected=n_rejected)
        raise
    return RKResult(times=t_record, states=records, aux_integral=aux, n_steps=n_steps, n_rejected=n_rejected)
