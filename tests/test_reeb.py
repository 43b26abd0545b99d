"""Reeb flow: closed-form invariants vs direct evaluation vs RK4."""

import json

import numpy as np
import pytest
from flow_oracles import loop_grid, per_probe_flow_checks
from hypothesis import example, given, strategies as st

from cosphere import checks, reeb
from cosphere.fixtures import get_fixture
from cosphere.phase import (
    PhasePoint,
    check_reduced_membership,
    invariant_tables,
    locate_rows,
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
        report = conservation_report(invariant_tables(traj.xs, traj.us))
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


# a step, and a t_end of at most 10^5 of them
grid_inputs = st.floats(1e-6, 1e3).flatmap(
    lambda step: st.tuples(st.floats(0.0, 1e5 * step, exclude_min=True), st.just(step)))


@given(grid_inputs)
@example((1e-20, 1e-3))
@example((1.0, 0.125))  # an exact multiple of the step
@example((1.0 + 1e-5, 0.1))  # a sliver past the grid point 0.9999999999999999
@example((1.0005, 0.5))  # the grid point 1.0 exactly at the sliver margin
@example((2.0, 1e-3))  # the CLI defaults
def test_rk4_grid_is_the_repeated_addition(grid):
    t_end, step = grid
    times = flow_rk4(fiber_point(), t_end=t_end, step=step).times
    assert times.tobytes() == np.array(loop_grid(t_end, step)).tobytes()
    if grid == (2.0, 1e-3):
        assert len(times) == 2001


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
    # a seam start on Seam(e×S^1>e), once drawn by flow_checks (start 93 of
    # probe 1 at seed 180 under a former sampler): plane 0's base point
    # x_0 + t u_0 passes through 0 at t* = -p2 / (p1 + p3) = 0.49990, so the
    # image at the old fixed t = 0.5 lies in the band of the other seam,
    # while the image at t*/2 lies in CC(e)
    fx = get_fixture("t2-on-r4")
    x = np.array([0.15824983929423142, -0.11408753025813187, 0.0, 0.0])
    u = np.array([-0.3165604407265223, 0.22821886594630605,
                  -0.05107869900586723, -0.9192913592007051])
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


# t = 0 and the grid 0.2, 0.4, ..., 1.2
SEAM_GRID = 1.2 * np.arange(7) / 6


@pytest.mark.parametrize("fixture_name", ["s1-on-r2", "t2-on-r4"])
def test_seam_starts_cross_into_their_cosphere_piece(fixture_name):
    # the Reeb flow crosses a seam and never follows it: a start drawn at
    # seed 0 on each seam (K, H) sits on that seam at t = 0, and its exact
    # image at every later grid time lies in CC(H)
    fx = get_fixture(fixture_name)
    result = fx.result
    seams = [p for p in fx.probes if result.uppers[p[0]] != result.lowers[p[0]]]
    assert seams
    for probe, support_x, support in seams:
        x, u = zero_level_arrays(fx.spec, seed=0, count=1,
                                 support_pattern=support_x, covector_pattern=support)
        xs = flowed_base(x, u, SEAM_GRID)
        images = reduced_images(invariant_tables(xs, np.repeat(u, len(xs), axis=0)))
        piece, _ = locate_rows(fx, images)
        lower = result.lowers[probe]
        cc = result.pieces[fx.piece_at[lower, lower]]
        assert [result.pieces[i] if i >= 0 else None for i in piece] == (
            [result.pieces[probe]] + [cc] * (len(SEAM_GRID) - 1))


@pytest.mark.parametrize("fixture_name", ["s1-on-r2", "t2-on-r4"])
@pytest.mark.parametrize("flowed", ["exact", "frozen"])
def test_batched_seam_check_matches_the_per_probe_loop(fixture_name, flowed, monkeypatch):
    # frozen: no start moves, so every seam start is reported, in probe order
    if flowed == "frozen":
        monkeypatch.setattr(reeb, "flowed_base", lambda x, u, t: x)
    fx = get_fixture(fixture_name)
    for seed in (0, 7, 140, 180, 299):
        report = checks.flow_checks(fx, seed=seed, starts=50)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            per_probe_flow_checks(fx, seed=seed, starts=50), sort_keys=True)
        assert report["checks"]["seam_flow_lands_in_cc"] == (flowed == "exact")


@pytest.mark.parametrize("fixture_name", ["s1-on-r2", "t2-on-r4"])
def test_batched_seam_check_raises_what_the_per_probe_loop_raises(fixture_name, monkeypatch):
    # row i of a probe's starts flows to x + i/1000 J u, J the quarter turn
    # of each plane, off the zero level (p4 = -i/1000 |u_j|^2) from row 1 on,
    # each row by its own amount, so the first unlocated image, and the text
    # it raises, is that of row 1 of the first seam probe
    flowed_base = reeb.flowed_base

    def turned_base(x, u, t):
        if x.ndim == 1:  # the endpoint of the RK4 check
            return flowed_base(x, u, t)
        turn = np.stack([-u[:, 1::2], u[:, 0::2]], axis=-1).reshape(u.shape)
        return x + 1e-3 * np.arange(len(x))[:, None] * turn

    monkeypatch.setattr(reeb, "flowed_base", turned_base)
    fx = get_fixture(fixture_name)
    with pytest.raises(checks.phase.PhaseError) as batched:
        checks.flow_checks(fx, seed=0, starts=50)
    with pytest.raises(checks.phase.PhaseError) as looped:
        per_probe_flow_checks(fx, seed=0, starts=50)
    assert (type(batched.value), str(batched.value)) == (type(looped.value), str(looped.value))


def test_seam_flow_failures_spell_the_time_as_a_float(monkeypatch):
    # not np.float64(0.5), whose repr depends on the numpy version
    monkeypatch.setattr(reeb, "flowed_base", lambda x, u, t: x)
    fx = get_fixture("t2-on-r4")
    failures = checks.flow_checks(fx, seed=0, starts=50)["seam_flow_failures"]
    # the first failure is start 0 of the first seam probe, probe 1, flowed
    # to min(0.5, t*/2), t* its least positive crossing
    _, support_x, support = fx.probes[1]
    x, u = zero_level_arrays(fx.spec, seed=checks._probe_seed(0, 1) + 17, count=1,
                             support_pattern=support_x, covector_pattern=support)
    p1, p2, p3, _ = invariant_tables(x, u)[0].T
    t_cross = -p2 / (p1 + p3)
    t = min(0.5, float(np.min(t_cross[t_cross > 0], initial=np.inf)) / 2)
    assert failures[0] == f"Seam(e×S^1>e) flowed to Seam(e×S^1>e) at t = {t!r}, expected CC(e)"
    assert "np.float64(" not in "".join(failures)
    for failure in failures:
        t = failure.split(" at t = ")[1].split(",")[0]
        assert repr(float(t)) == t, failure
