"""Reeb dynamics on the unit cosphere bundle of R^{2n}.

With the flat metric the Reeb vector field of the standard contact form is
horizontal geodesic flow: xdot = u, udot = 0, so the exact flow is the
straight line x(t) = x + t u with frozen covector.  Pushed to the
invariants this gives, per plane and with w = (p1 + p3)/2 = |u_j|^2,

    p1(t) = p1 + p2 t + w t^2
    p2(t) = p2 + 2 w t
    p3(t) = p3 - p2 t - w t^2
    p4(t) = p4,

an identity for every phase point (not only zero-level ones).  These
closed forms serve as the oracle against which the numerical integrator
is checked; p4 and p1 + p3 are conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase import PhasePoint, check_run_inputs, invariant_tables

# a final RK4 step shorter than this fraction of the step is grid roundoff
SLIVER = 1e-3


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled flow: row i holds the state at times[i]."""

    times: np.ndarray
    xs: np.ndarray
    us: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float)
        xs = np.array(self.xs, dtype=float)
        us = np.array(self.us, dtype=float)
        if t.ndim != 1 or xs.shape != us.shape or xs.shape[0] != t.size:
            raise ValueError("times, xs, us must agree in length")
        # in complement form, so that a NaN time fails it
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        for arr in (t, xs, us):
            arr.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "us", us)

    def __len__(self) -> int:
        return int(self.times.size)


def flowed_base(x: np.ndarray, u: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Base points after the exact time-t flow, of one point or (N, 2n) rows;
    ``t`` is one time or one per row."""
    return x + np.asarray(t, dtype=float)[..., None] * u


def flow_exact(point: PhasePoint, t: float) -> PhasePoint:
    """Exact time-t Reeb flow: a straight line in the base."""
    return PhasePoint(flowed_base(point.x, point.u, t), point.u)


def flowed_tables(tables: np.ndarray, t: float) -> np.ndarray:
    """Closed-form invariants after time t of (..., n, 4) invariant tables."""
    t = float(t)
    p1, p2, p3, p4 = np.moveaxis(tables, -1, 0)
    w = 0.5 * (p1 + p3)
    return np.stack([
        p1 + p2 * t + w * t * t,
        p2 + 2.0 * w * t,
        p3 - p2 * t - w * t * t,
        p4,
    ], axis=-1)


def flow_rk4(point: PhasePoint, t_end: float, step: float) -> Trajectory:
    """Classical fourth-order Runge-Kutta integration of the Reeb field.

    The time grid is uniform, built by repeated addition of ``step``, with a
    final partial step landing exactly on ``t_end``.  When that final step
    would be shorter than ``SLIVER * step`` it is roundoff of the repeated
    addition, not a step, and the last grid point moves to ``t_end``
    instead.  Exists as the independent numerical route against the
    closed-form flow; the two must agree to roundoff.

    The field (u, 0) does not depend on x, so the steps run as array
    operations: the u chain first, then the four stages of every step at
    once, each chain summed along the time axis by ``np.add.accumulate``.
    These are the operations of the per-step loop in its order, so the
    states are bitwise those of the loop.
    """
    t_end = float(t_end)
    step = float(step)
    check_run_inputs(t_end=t_end, step=step)
    grid = [0.0]
    stop = t_end - max(SLIVER * step, 1e-15)
    while grid[-1] + step < stop:
        grid.append(grid[-1] + step)
    grid.append(t_end)
    times = np.array(grid)

    h = np.diff(times)[:, None]
    k_u = np.zeros((h.size, point.u.size))  # every stage's du/dt
    # adding the +0.0 increments turns a -0.0 in u into +0.0 at step 1
    us = np.add.accumulate(np.concatenate([point.u[None], (h / 6.0) * k_u]))
    k1 = us[:-1]
    k2 = k1 + 0.5 * h * k_u
    k3 = k1 + 0.5 * h * k_u
    k4 = k1 + h * k_u
    dx = (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    xs = np.add.accumulate(np.concatenate([point.x[None], dx]))
    return Trajectory(times=times, xs=xs, us=us)


def conservation_report(traj: Trajectory) -> dict[str, float]:
    """Worst-case drift of the conserved quantities along a trajectory.

    Reports the max deviation of per-plane p4 and p1 + p3 from their
    initial values, and of the cosphere sum from 2.
    """
    tables = invariant_tables(traj.xs, traj.us)
    p4 = tables[:, :, 3]
    mass = tables[:, :, 0] + tables[:, :, 2]
    return {
        "p4_drift": float(np.max(np.abs(p4 - p4[0]))),
        "plane_mass_drift": float(np.max(np.abs(mass - mass[0]))),
        "cosphere_sum_drift": float(np.max(np.abs(mass.sum(axis=1) - 2.0))),
    }
