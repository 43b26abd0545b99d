"""Loop oracles of the Reeb flow battery: the RK4 time grid built one
addition per Python step, and the seam-flow check run one seam probe at a
time.

``cosphere.reeb.flow_rk4`` builds its grid with one ``np.add.accumulate``,
and ``cosphere.checks.flow_checks`` flows and locates the starts of every
seam probe in one batched pass; these loops are the second, independent
route the tests compare them against, bit for bit and byte for byte.
"""

import numpy as np

from cosphere import reeb
from cosphere.checks import FLOW_STEP, FLOW_T_END, FLOW_T_GRID, _max, _probe_seed
from cosphere.phase import (
    IDENTITY_TOL,
    PhasePoint,
    check_reduced_membership,
    invariant_tables,
    locate_rows,
    reduced_images,
    zero_level_arrays,
)


def loop_grid(t_end: float, step: float) -> list[float]:
    """The RK4 time grid by repeated addition of ``step``, one Python step at
    a time, ended on ``t_end``; a last step under ``SLIVER * step`` is
    dropped and its grid point moved to ``t_end``."""
    grid = [0.0]
    stop = t_end - max(reeb.SLIVER * step, 1e-15)
    while grid[-1] + step < stop:
        grid.append(grid[-1] + step)
    grid.append(t_end)
    return grid


def per_probe_flow_checks(fixture, seed: int = 0, starts: int = 1000) -> dict:
    """``checks.flow_checks`` with its seam-flow check run one seam probe at
    a time: each probe's starts are drawn, flowed, located and reported
    before the next probe is drawn."""
    spec = fixture.spec
    x, u = zero_level_arrays(spec, seed=seed, count=starts)
    tables = invariant_tables(x, u)
    closed_vs_exact = _max([
        _max(np.abs(invariant_tables(reeb.flowed_base(x, u, t), u)
                    - reeb.flowed_tables(tables, t)))
        for t in FLOW_T_GRID
    ])
    start = PhasePoint(x[0], u[0])
    traj = reeb.flow_rk4(start, t_end=FLOW_T_END, step=FLOW_STEP)
    endpoint = reeb.flow_exact(start, FLOW_T_END)
    rk4_endpoint_err = _max(np.abs(np.concatenate(
        [traj.xs[-1] - endpoint.x, traj.us[-1] - endpoint.u]
    )))
    drift = reeb.conservation_report(invariant_tables(traj.xs, traj.us))

    seam_flow_failures = []
    result = fixture.result
    names = result.pieces
    is_seam = np.not_equal(result.uppers, result.lowers)
    expected_cc = fixture.piece_at[result.lowers, result.lowers]
    for idx, (probe, support_x, support) in enumerate(fixture.probes):
        if not is_seam[probe]:
            continue
        sx, su = zero_level_arrays(
            spec,
            seed=_probe_seed(seed, idx) + 17,
            count=200,
            support_pattern=support_x,
            covector_pattern=support,
        )
        start_tables = invariant_tables(sx, su)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cross = -start_tables[..., 1] / (start_tables[..., 0] + start_tables[..., 2])
        t_star = np.min(np.where(t_cross > 0, t_cross, np.inf), axis=-1)
        t = np.minimum(0.5, t_star / 2)
        start_images = reduced_images(start_tables)
        end_images = reduced_images(invariant_tables(reeb.flowed_base(sx, su, t), su))
        start_piece, _ = locate_rows(fixture, start_images)
        end_piece, _ = locate_rows(fixture, end_images)
        from_seam = (start_piece >= 0) & is_seam[start_piece]
        unlocated = np.flatnonzero((start_piece < 0) | (from_seam & (end_piece < 0)))
        if unlocated.size:
            check_reduced_membership(fixture, start_images[unlocated[0]])
            check_reduced_membership(fixture, end_images[unlocated[0]])
        wrong = from_seam & (end_piece != expected_cc[start_piece])
        seam_flow_failures += [
            f"{names[start_piece[i]]} flowed to {names[end_piece[i]]} "
            f"at t = {float(t[i])!r}, expected {names[expected_cc[start_piece[i]]]}"
            for i in np.flatnonzero(wrong)
        ]

    report_checks = {
        "closed_form_matches_exact": closed_vs_exact <= IDENTITY_TOL,
        "rk4_endpoint": rk4_endpoint_err <= IDENTITY_TOL,
        "rk4_drift": all(v <= IDENTITY_TOL for v in drift.values()),
        "seam_flow_lands_in_cc": not seam_flow_failures,
    }
    return {
        "fixture": fixture.name,
        "seed": seed,
        "starts": starts,
        "t_grid": list(FLOW_T_GRID),
        "closed_vs_exact_max": closed_vs_exact,
        "rk4_endpoint_error": rk4_endpoint_err,
        "drift": drift,
        "seam_flow_failures": seam_flow_failures[:10],
        "checks": report_checks,
        "passed": all(report_checks.values()),
    }
