"""Verification batteries over the builtin fixtures.

The sampling battery draws seeded zero-level points (generic plus one
forced-support probe per stratum), then checks the invariant identities,
orbit-type classification, semialgebraic membership, and where the chart
is exact the base projection.  The flow battery compares the closed-form
invariant flow against the exact flow and the Runge-Kutta route, and
drives seam samples into their cosphere-like piece.

Everything is deterministic given the seed; reports are JSON-ready dicts
with sorted keys so repeated runs are byte-identical.
"""

from __future__ import annotations

import numpy as np

from . import phase, reeb
from .fixtures import Fixture
from .phase import (
    IDENTITY_TOL,
    MEMBERSHIP_BAND,
    MOMENTUM_TOL,
    check_reduced_membership,
    cone_residuals,
    cosphere_sums,
    invariant_tables,
    k0_project,
    locate_rows,
    momenta,
    reduced_images,
    zero_level_arrays,
)

PROBE_SEED_STRIDE = 1000003
MAX_REPORTED_FAILURES = 10
# the flow battery checks the closed form at FLOW_T_GRID and runs RK4 to FLOW_T_END
FLOW_T_GRID = (0.1, 0.5, 1.0, 2.0)
FLOW_T_END = 2.0
FLOW_STEP = 1e-3


def _probe_seed(seed: int, probe_index: int) -> int:
    return int(seed) + PROBE_SEED_STRIDE * (probe_index + 1)


def _max(values: np.ndarray | list[float]) -> float:
    return float(np.max(values, initial=0.0))


def verify_fixture(
    fixture: Fixture,
    seed: int = 0,
    count: int = 10000,
    band: float = MEMBERSHIP_BAND,
) -> dict:
    """Sampling verification of one fixture; see module docstring.

    One probe per piece (``fixture.probes``): the generic probe draws
    ``count`` samples, the singular probes a tenth each (at least 200).
    Every sample must sit on the zero level within 1e-10, satisfy the
    cosphere and cone identities within 1e-9, have a starred orbit type
    type(S), S read as for its piece, and be located in its probe's piece.
    A negative seed is refused with :class:`phase.PhaseError`.
    """
    phase.check_run_inputs(seed=seed)
    spec, result = fixture.spec, fixture.result
    principal_cc = result.pieces[fixture.piece_at[result.open_rank, result.open_rank]]

    names = np.array(result.pieces, dtype=object)
    # the base projection (p1 - 1, 0, 1 - p1) per plane assumes the plane
    # carries the whole covector mass, which holds on every piece only with
    # a single plane
    geometric = spec.n == 1
    probe_reports = []
    all_passed = True
    for idx, (probe, support_x, support) in enumerate(fixture.probes):
        n_samples = count if len(support_x) == spec.n else max(200, count // 10)
        x, u = zero_level_arrays(
            spec,
            seed=_probe_seed(seed, idx),
            count=n_samples,
            support_pattern=support_x,
            covector_pattern=support,
        )
        tables = invariant_tables(x, u)
        images = reduced_images(tables)
        piece, residual, lower = locate_rows(fixture, images, band)
        is_starred = np.array([label in result.starred for label in result.labels])[lower]
        located = is_starred & (piece >= 0)

        failures: list[str] = []
        for i in np.flatnonzero(~located)[:MAX_REPORTED_FAILURES]:
            if not is_starred[i]:
                failures.append(f"classified into unstarred type ({result.labels[lower[i]]})")
                continue
            try:
                check_reduced_membership(fixture, images[i], band=band)
            except phase.PhaseError as exc:
                failures.append(str(exc))

        scale = np.maximum(1.0, tables[..., 0] ** 2)
        max_j = _max(np.abs(momenta(spec, tables)))
        max_cosphere = _max(np.abs(cosphere_sums(tables) - 2.0))
        max_cone = _max(np.abs(cone_residuals(tables)) / scale)
        max_residual = _max(residual[located])
        per_type = np.bincount(lower, minlength=len(result.labels)).tolist()
        class_counts = {label: c for label, c in zip(result.labels, per_type) if c}
        counts = np.bincount(piece[located], minlength=len(names)).tolist()
        piece_counts = dict(sorted((names[i], c) for i, c in enumerate(counts) if c))
        k0_err = 0.0
        if geometric:
            xs = x[located].reshape(-1, spec.n, 2)
            t_planes = np.sum(xs * xs, axis=-1)
            k0 = k0_project(images[located])
            base = np.zeros(k0.shape)
            base[:, 0::3] = t_planes
            base[:, 2::3] = -t_planes
            k0_err = _max(np.abs(k0 - base))

        n_points = len(x)
        expect_class = result.labels[result.lowers[probe]]
        fraction = piece_counts.get(names[probe], 0) / n_points if n_points else 0.0
        class_fraction = class_counts.get(expect_class, 0) / n_points if n_points else 0.0
        checks = {
            "momentum_zero": max_j <= MOMENTUM_TOL,
            "cosphere_sum": max_cosphere <= IDENTITY_TOL,
            "cone_identity": max_cone <= IDENTITY_TOL,
            "classification_starred": bool(is_starred.all()),
            "membership_total": bool(located.all()),
            "membership_residual": max_residual < band,
            "expected_pieces": fraction == 1.0,
            "expected_class": class_fraction == 1.0,
        }
        if geometric:
            checks["k0_geometric"] = k0_err <= IDENTITY_TOL
        passed = all(checks.values())
        all_passed = all_passed and passed
        probe_reports.append(
            {
                "name": names[probe],
                "count": n_points,
                "max_momentum": max_j,
                "max_cosphere_error": max_cosphere,
                "max_cone_rel_error": max_cone,
                "max_membership_residual": max_residual,
                "k0_max_error": k0_err if geometric else None,
                "class_counts": class_counts,
                "piece_counts": piece_counts,
                "expected_fraction": fraction,
                "checks": checks,
                "failures": failures,
                "passed": passed,
            }
        )

    generic = probe_reports[0] if probe_reports else None
    principal_fraction = 0.0
    if generic is not None and generic["count"]:
        principal_fraction = generic["piece_counts"].get(principal_cc, 0) / generic["count"]

    return {
        "fixture": fixture.name,
        "seed": seed,
        "count": count,
        "band": band,
        "starred": list(result.starred),
        "pieces": sorted(result.pieces),
        "principal_cc": principal_cc,
        "principal_fraction": principal_fraction,
        "probes": probe_reports,
        "passed": all_passed,
    }


def flow_checks(fixture: Fixture, seed: int = 0, starts: int = 1000) -> dict:
    """Reeb-flow verification: closed form vs exact flow vs RK4, plus the
    seam-to-cosphere dynamical check: each seam start, flowed to
    min(0.5, t*/2) with t* its first crossing time, lies in the
    cosphere-like piece of its contact stratum.  A ``starts`` that is not
    a positive integer is refused with :class:`phase.PhaseError`."""
    phase.check_run_inputs(count=starts)
    if starts < 1:
        raise phase.PhaseError(f"the flow battery needs at least one start, got {starts}")
    spec = fixture.spec
    x, u = zero_level_arrays(spec, seed=seed, count=starts)
    tables = invariant_tables(x, u)

    # np.max, unlike the builtin max, keeps a NaN, which then fails its check
    closed_vs_exact = _max([
        _max(np.abs(invariant_tables(reeb.flowed_base(x, u, t), u)
                    - reeb.flowed_tables(tables, t)))
        for t in FLOW_T_GRID
    ])

    start = phase.PhasePoint(x[0], u[0])
    traj = reeb.flow_rk4(start, t_end=FLOW_T_END, step=FLOW_STEP)
    endpoint = reeb.flow_exact(start, FLOW_T_END)
    rk4_endpoint_err = _max(np.abs(np.concatenate(
        [traj.xs[-1] - endpoint.x, traj.us[-1] - endpoint.u]
    )))
    drift = reeb.conservation_report(invariant_tables(traj.xs, traj.us))

    result = fixture.result
    names = result.pieces
    is_seam = np.not_equal(result.uppers, result.lowers)
    # piece (K, H) -> CC(H), the cosphere-like piece of its contact stratum
    expected_cc = fixture.piece_at[result.lowers, result.lowers]
    # each seam probe draws its own starts; they are flowed and located together
    drawn = [
        zero_level_arrays(spec, seed=_probe_seed(seed, idx) + 17, count=200,
                          support_pattern=support_x, covector_pattern=support)
        for idx, (probe, support_x, support) in enumerate(fixture.probes)
        if is_seam[probe]
    ]
    sx = np.concatenate([x for x, _ in drawn])
    su = np.concatenate([u for _, u in drawn])
    start_tables = invariant_tables(sx, su)
    # x_j is parallel to u_j on the zero level, so the line x_j + t u_j
    # passes through 0 at t_j = -p2_j / (p1_j + p3_j); the image is taken
    # at min(0.5, t*/2), before the least positive crossing t*
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cross = -start_tables[..., 1] / (start_tables[..., 0] + start_tables[..., 2])
    t_star = np.min(np.where(t_cross > 0, t_cross, np.inf), axis=-1)
    t = np.minimum(0.5, t_star / 2)
    start_images = reduced_images(start_tables)
    end_images = reduced_images(invariant_tables(reeb.flowed_base(sx, su, t), su))
    start_piece, _, _ = locate_rows(fixture, start_images)
    end_piece, _, _ = locate_rows(fixture, end_images)
    from_seam = (start_piece >= 0) & is_seam[start_piece]
    unlocated = np.flatnonzero((start_piece < 0) | (from_seam & (end_piece < 0)))
    if unlocated.size:
        # raise what the first unlocated row raises, start before end
        check_reduced_membership(fixture, start_images[unlocated[0]])
        check_reduced_membership(fixture, end_images[unlocated[0]])
    seam_flow_failures = [
        f"{names[start_piece[i]]} flowed to {names[end_piece[i]]} "
        f"at t = {float(t[i])!r}, expected {names[expected_cc[start_piece[i]]]}"
        for i in np.flatnonzero(from_seam & (end_piece != expected_cc[start_piece]))
    ]

    checks = {
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
        "checks": checks,
        "passed": all(checks.values()),
    }
