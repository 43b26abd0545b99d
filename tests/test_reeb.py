"""Reeb flow: closed-form invariants vs direct evaluation vs RK4."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cosphere.phase import PhasePoint, invariants, sample_zero_level
from cosphere.reeb import (
    Trajectory,
    conservation_report,
    flow_exact,
    flow_invariants_closed,
    flow_rk4,
    trajectory_invariants,
)
from cosphere.torus import TorusActionSpec

T2 = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))


def fiber_point():
    return PhasePoint(np.zeros(2), np.array([1.0, 0.0]))


def test_reeb_field_is_horizontal():
    # the field is the time derivative of the exact flow: xdot = u, udot = 0
    p = fiber_point()
    q = flow_exact(p, 1.0)
    assert (q.x - p.x).tolist() == [1.0, 0.0]
    assert (q.u - p.u).tolist() == [0.0, 0.0]


def test_exact_flow_is_a_straight_line():
    p = flow_exact(fiber_point(), 2.5)
    assert p.x.tolist() == [2.5, 0.0]
    assert p.u.tolist() == [1.0, 0.0]


def test_exact_flow_composes():
    p = PhasePoint(np.array([0.5, -1.0]), np.array([0.6, 0.8]))
    once = flow_exact(flow_exact(p, 0.3), 1.1)
    direct = flow_exact(p, 1.4)
    assert np.allclose(once.x, direct.x, atol=1e-15)
    assert once.u.tolist() == direct.u.tolist()


def test_fiber_point_reaches_the_radial_image_at_time_one():
    inv0 = invariants(fiber_point())
    assert inv0.table.tolist() == [[1.0, 0.0, 1.0, 0.0]]
    moved = flow_invariants_closed(inv0, 1.0)
    assert moved.table.tolist() == [[2.0, 2.0, 0.0, 0.0]]
    live = invariants(flow_exact(fiber_point(), 1.0))
    assert live.table.tolist() == moved.table.tolist()


@st.composite
def points_and_times(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    coords = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    x = draw(st.lists(coords, min_size=2 * n, max_size=2 * n))
    u = draw(
        st.lists(coords, min_size=2 * n, max_size=2 * n).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        )
    )
    t = draw(st.floats(0.01, 4.0))
    return PhasePoint.normalized(x, u), t


@given(points_and_times())
def test_closed_form_matches_the_flowed_invariants(pt):
    p, t = pt
    predicted = flow_invariants_closed(invariants(p), t).table
    observed = invariants(flow_exact(p, t)).table
    scale = 1.0 + float(np.max(np.abs(predicted)))
    assert np.max(np.abs(predicted - observed)) < 1e-12 * scale


@given(points_and_times())
def test_closed_form_conserves_p4_and_plane_mass(pt):
    p, t = pt
    inv0 = invariants(p)
    inv1 = flow_invariants_closed(inv0, t)
    assert np.array_equal(inv0.p4, inv1.p4)
    mass0 = inv0.p1 + inv0.p3
    mass1 = inv1.p1 + inv1.p3
    assert np.max(np.abs(mass0 - mass1)) < 1e-12 * (1.0 + float(np.max(mass0)))


def test_rk4_agrees_with_the_exact_flow():
    pts = sample_zero_level(T2, seed=5, count=8)
    for p in pts:
        traj = flow_rk4(p, t_end=2.0, step=1e-2)
        endpoint = flow_exact(p, 2.0)
        assert np.max(np.abs(traj.xs[-1] - endpoint.x)) < 1e-12
        assert np.max(np.abs(traj.us[-1] - endpoint.u)) < 1e-12
        report = conservation_report(traj)
        assert report["p4_drift"] < 1e-12
        assert report["plane_mass_drift"] < 1e-12
        assert report["cosphere_sum_drift"] < 1e-12


def test_rk4_grid_lands_exactly_on_t_end():
    traj = flow_rk4(fiber_point(), t_end=0.25, step=0.1)
    assert traj.times.tolist() == [0.0, 0.1, 0.2, 0.25]
    assert len(traj) == 4
    with pytest.raises(ValueError):
        flow_rk4(fiber_point(), t_end=0.0, step=0.1)
    with pytest.raises(ValueError):
        flow_rk4(fiber_point(), t_end=1.0, step=-0.1)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            xs=np.zeros((2, 2)),
            us=np.zeros((2, 2)),
            method="rk4",
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            xs=np.zeros((3, 2)),
            us=np.zeros((3, 2)),
            method="rk4",
        )


def test_trajectory_invariants_shape():
    traj = flow_rk4(PhasePoint(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0])), 1.0, 0.5)
    tables = trajectory_invariants(traj)
    assert tables.shape == (len(traj), 2, 4)
    # the untouched plane stays at the origin with zero invariants
    assert np.all(tables[:, 1, :] == 0.0)
