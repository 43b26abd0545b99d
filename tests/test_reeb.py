"""Reeb flow: closed-form invariants vs direct evaluation vs RK4."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cosphere import checks
from cosphere.fixtures import get_fixture
from cosphere.phase import (
    PhasePoint,
    check_reduced_membership,
    invariant_tables,
    reduced_images,
    zero_level_arrays,
)
from cosphere.reeb import (
    Trajectory,
    conservation_report,
    flow_exact,
    flow_rk4,
    flowed_base,
    flowed_tables,
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


def tables_of(p: PhasePoint) -> np.ndarray:
    return invariant_tables(p.x, p.u)


def test_fiber_point_reaches_the_radial_image_at_time_one():
    table0 = tables_of(fiber_point())
    assert table0.tolist() == [[1.0, 0.0, 1.0, 0.0]]
    moved = flowed_tables(table0, 1.0)
    assert moved.tolist() == [[2.0, 2.0, 0.0, 0.0]]
    assert tables_of(flow_exact(fiber_point(), 1.0)).tolist() == moved.tolist()


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
    u = np.array(u)
    return PhasePoint(np.array(x), u / np.linalg.norm(u)), t


@given(points_and_times())
def test_closed_form_matches_the_flowed_invariants(pt):
    p, t = pt
    predicted = flowed_tables(tables_of(p), t)
    observed = tables_of(flow_exact(p, t))
    scale = 1.0 + float(np.max(np.abs(predicted)))
    assert np.max(np.abs(predicted - observed)) < 1e-12 * scale


@given(points_and_times())
def test_closed_form_conserves_p4_and_plane_mass(pt):
    p, t = pt
    table0 = tables_of(p)
    table1 = flowed_tables(table0, t)
    assert np.array_equal(table0[:, 3], table1[:, 3])
    mass0 = table0[:, 0] + table0[:, 2]
    mass1 = table1[:, 0] + table1[:, 2]
    assert np.max(np.abs(mass0 - mass1)) < 1e-12 * (1.0 + float(np.max(mass0)))


def test_rk4_agrees_with_the_exact_flow():
    x, u = zero_level_arrays(T2, seed=5, count=8)
    for p in map(PhasePoint, x, u):
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
    # t_end within 1e-15 of the start: the flow still takes its one step
    traj = flow_rk4(fiber_point(), t_end=1e-20, step=1e-3)
    assert traj.times.tolist() == [0.0, 1e-20]
    assert traj.xs.tolist() == [[0.0, 0.0], [1e-20, 0.0]]
    with pytest.raises(ValueError):
        flow_rk4(fiber_point(), t_end=0.0, step=0.1)
    with pytest.raises(ValueError):
        flow_rk4(fiber_point(), t_end=1.0, step=-0.1)
    # refused before the grid is built, not after it has filled the memory
    with pytest.raises(ValueError, match="flow steps exceeds the cap"):
        flow_rk4(fiber_point(), t_end=2.0, step=1e-300)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            xs=np.zeros((2, 2)),
            us=np.zeros((2, 2)),
        )
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            xs=np.zeros((3, 2)),
            us=np.zeros((3, 2)),
        )


def test_trajectory_refuses_nan_times():
    # every comparison with a NaN is false, so "no step <= 0" held here
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(
            times=np.array([0.0, np.nan, 1.0]),
            xs=np.zeros((3, 2)),
            us=np.zeros((3, 2)),
        )


def test_trajectory_invariants_shape():
    traj = flow_rk4(PhasePoint(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0])), 1.0, 0.5)
    tables = invariant_tables(traj.xs, traj.us)
    assert tables.shape == (len(traj), 2, 4)
    # the untouched plane stays at the origin with zero invariants
    assert np.all(tables[:, 1, :] == 0.0)


def test_seam_flow_check_probes_before_the_first_crossing():
    # flow_checks' seam start 93 of cell 1 at seed 180: plane 0's base point
    # x_0 + t u_0 passes through 0 at t* = -p2 / (p1 + p3) = 0.49990, so the
    # image at the old fixed t = 0.5 lies in the band of the other seam,
    # while the image at t*/2 lies in CC(e)
    fx = get_fixture("t2-on-r4")
    cell = fx.cells[1]
    x, u = zero_level_arrays(
        fx.spec, seed=checks._probe_seed(180, 1) + 17, count=200,
        support_pattern=cell.support_x, covector_pattern=cell.support,
    )
    x, u = x[93], u[93]
    p1, p2, p3, _ = invariant_tables(x, u)[0]
    t_star = -p2 / (p1 + p3)
    assert t_star == pytest.approx(0.49990, abs=1e-5)
    assert np.abs(flowed_base(x, u, t_star)[:2]).max() < 1e-12

    def piece_at(t):
        return check_reduced_membership(
            fx, reduced_images(invariant_tables(flowed_base(x, u, t), u))
        )[0]

    assert piece_at(0.0) == "Seam(e×S^1>e)"
    assert piece_at(t_star / 2) == "CC(e)"
    assert piece_at(0.5) == "Seam(S^1×e>e)"
    report = checks.flow_checks(fx, seed=180, starts=10)
    assert report["checks"]["seam_flow_lands_in_cc"], report["seam_flow_failures"]
