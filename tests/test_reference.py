"""The array pipeline against the per-point loop it replaced.

The functions below are the per-point implementations of invariants,
momentum, classification, membership, CSV row labelling and the two
batteries as they stood before the zero level was computed on arrays.
Membership is stated there as one list of polynomial constraints per
support pair, evaluated point by point, where the array code reads the two
supports of an image off its band tests and names the piece of their types.
The probes are drawn from the cells those pairs enumerate
(:func:`ref_probe_cells`), where the fixtures draw one probe per piece.
They are kept here as the reference: on the same sampled points the array
code must give bitwise-equal tables, the same labels, piece counts and
residuals, and the same failure texts.  The per-step RK4 loop is kept the
same way: the array integrator must give bitwise-equal times and states.
"""

import csv
import io
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest

from cosphere import checks, cli, phase, poset as poset_mod, reeb, strata, torus
from cosphere.fixtures import get_fixture
from cosphere.phase import (
    IDENTITY_TOL,
    MEMBERSHIP_BAND,
    SUPPORT_TOL,
    PhaseError,
    PhasePoint,
)

from hand_pieces import Poly
from test_torus import support_label

FIXTURES = ("s1-on-r2", "t2-on-r4")


# ------------------------------------------------------ per-point reference

def ref_points(spec, seed: int, count: int, **patterns) -> list[PhasePoint]:
    """The zero-level samples of the array sampler, one point per row."""
    x, u = phase.zero_level_arrays(spec, seed=seed, count=count, **patterns)
    return [PhasePoint(xi, ui) for xi, ui in zip(x, u)]


def ref_table(p: PhasePoint) -> np.ndarray:
    xs, us = p.x.reshape(-1, 2), p.u.reshape(-1, 2)
    xx = np.sum(xs * xs, axis=1)
    uu = np.sum(us * us, axis=1)
    return np.column_stack([
        xx + uu,
        2.0 * np.sum(xs * us, axis=1),
        uu - xx,
        xs[:, 0] * us[:, 1] - xs[:, 1] * us[:, 0],
    ])


def ref_momentum(spec, p: PhasePoint) -> np.ndarray:
    return np.array(spec.weights, dtype=float) @ ref_table(p)[:, 3]


def ref_classify(spec, p: PhasePoint, tol: float = SUPPORT_TOL) -> str:
    xs, us = p.x.reshape(-1, 2), p.u.reshape(-1, 2)
    mass = np.sqrt(np.sum(xs * xs, axis=1) + np.sum(us * us, axis=1))
    support = tuple(int(j) for j in np.nonzero(mass > tol)[0])
    return support_label(spec, support)


def ref_image(table: np.ndarray) -> np.ndarray:
    return table[:, :3].reshape(-1).copy()


def subsets(planes):
    return [c for r in range(len(planes) + 1) for c in combinations(planes, r)]


def piece_name(spec, support_x, support):
    upper, lower = support_label(spec, support_x), support_label(spec, support)
    return strata.cc_name(lower) if upper == lower else strata.seam_name(upper, lower)


class Cell(NamedTuple):
    """A support pair (S_x, S), the piece ``name`` of its images, and the
    orbit type ``expect_class`` of S."""

    name: str
    support_x: tuple[int, ...]
    support: tuple[int, ...]
    expect_class: str


def ref_probe_cells(spec):
    """The cells of a rank-n action as fixtures enumerated them before
    they read the piece table: one per support pair (S_x, S) with S
    nonempty, ordered by (-|S|, -|S_x|, S_x, S)."""
    pairs = sorted(
        ((sx, s) for s in subsets(range(spec.n)) if s for sx in subsets(s)),
        key=lambda pair: (-len(pair[1]), -len(pair[0]), pair[0], pair[1]),
    )
    return [Cell(piece_name(spec, sx, s), sx, s, support_label(spec, s)) for sx, s in pairs]


def fixture_probe_cells(fixture):
    """The probes of a fixture as cells (name, S_x, S, class of S)."""
    result = fixture.result
    return [Cell(result.pieces[i], sx, s, result.labels[result.lowers[i]])
            for i, sx, s in fixture.probes]


def ref_cells(spec):
    """The constraint lists of the membership pieces, one per support pair
    S_x ⊆ S, as (name, [(kind, poly, text, scale), ...]).

    Off S a plane states ``eq(p1_j)``; on S it states ``gt(p1_j)``, the
    cone equation and ``eq(p1_j - p3_j)`` off S_x or ``gt(p1_j - p3_j)`` on
    S_x; every list ends with the cosphere equation.  The cone equation
    holds when its value over max(1, p1_j^2) is within the band, its
    ``scale`` the poly p1_j; every other constraint's scale is None.  The
    pair with S empty
    names no piece (None): an image that meets its whole list has no plane
    on S.
    """
    n = spec.n
    p1, diff, cone = [], [], []
    for j in range(n):
        i, k = 3 * j, j + 1
        p1_poly = Poly(linear=((1.0, i),))
        p1.append((p1_poly, f"p1_{k}", None))
        diff.append((Poly(linear=((1.0, i), (-1.0, i + 2))), f"p1_{k} - p3_{k}", None))
        cone.append((
            Poly(quad=((1.0, i, i), (-1.0, i + 1, i + 1), (-1.0, i + 2, i + 2))),
            f"p1_{k}^2 - p2_{k}^2 - p3_{k}^2", p1_poly,
        ))
    total = ("eq", Poly(const=-2.0, linear=tuple((1.0, 3 * j + c)
                                                 for j in range(n) for c in (0, 2))),
             "sum(p1 + p3) - 2", None)

    cells = []
    for s in subsets(range(n)):
        for sx in subsets(s):
            constraints = []
            for j in range(n):
                if j not in s:
                    constraints.append(("eq",) + p1[j])
                else:
                    constraints += [("gt",) + p1[j], ("eq",) + cone[j],
                                    ("gt" if j in sx else "eq",) + diff[j]]
            name = piece_name(spec, sx, s) if s else None
            cells.append((name, constraints + [total]))
    return cells


def ref_poly(poly, image: np.ndarray) -> float:
    val = poly.const
    for c, i in poly.linear:
        val += c * image[i]
    for c, i, j in poly.quad:
        val += c * image[i] * image[j]
    return float(val)


def ref_candidates(fixture, image: np.ndarray, band: float = MEMBERSHIP_BAND):
    """The (name, worst equality residual) of every piece whose list the
    image meets, and the explanation of a miss: the first violated
    constraint, with its value, of the list that holds longest.  An
    equation's residual is its value over its scale, max(1, p1_j^2) or 1."""
    matches = []
    longest, explanation = -1, None
    for name, constraints in ref_cells(fixture.spec):
        residual = 0.0
        for pos, (kind, poly, text, scale) in enumerate(constraints):
            val = ref_poly(poly, image)
            p1 = 0.0 if scale is None else ref_poly(scale, image)
            bound = band * max(1.0, p1 * p1)
            scaled = abs(val) / max(1.0, p1 * p1)
            if not (scaled <= band if kind == "eq" else val > band):
                if pos > longest:
                    longest, explanation = pos, f"{text} = {val:.3e}"
                    if scale is not None:
                        p1_name = text.split("^")[0]
                        explanation = (f"{text} = {val!r}, "
                                       f"beyond band * max(1, {p1_name}^2) = {bound!r}")
                break
            if kind == "eq":
                residual = max(residual, scaled)
        else:
            if name is None:
                longest, explanation = len(constraints), f"no plane has p1_j > {band:.3e}"
            else:
                matches.append((name, residual))
    return matches, explanation


def ref_check(fixture, image: np.ndarray, band: float = MEMBERSHIP_BAND):
    matches, explanation = ref_candidates(fixture, image, band)
    if not matches:
        raise phase.NoMatchingStratumError(f"no stratum matches the image ({explanation})")
    assert len(matches) == 1, matches
    return matches[0]


def ref_label_row(fixture, table: np.ndarray, band: float):
    matches, _ = ref_candidates(fixture, ref_image(table), band)
    return matches[0] if len(matches) == 1 else ("(unresolved)", float("nan"))


def ref_verify(fixture, seed: int, count: int, band: float = MEMBERSHIP_BAND,
               unstarred: frozenset = frozenset()) -> dict:
    """The sampling battery point by point; the labels in ``unstarred`` are
    left out of the starred types."""
    spec = fixture.spec
    poset = torus.build_isotropy_poset(spec)
    starred = {t.label for t in poset.types
               if poset.dim_Q_of[t.label] - poset.dim_G + t.dim_H >= 1} - unstarred
    principal_cc = strata.cc_name(poset_mod.principal_type(poset).label)
    probe_reports = []
    all_passed = True
    cells = ref_probe_cells(spec)
    for idx, cell in enumerate(cells):
        n_samples = count if len(cell.support_x) == spec.n else max(200, count // 10)
        points = ref_points(
            spec,
            seed=checks._probe_seed(seed, idx),
            count=n_samples,
            support_pattern=cell.support_x,
            covector_pattern=cell.support,
        )
        failures = []
        max_j = max_cosphere = max_cone = max_residual = k0_err = 0.0
        class_counts, piece_counts = {}, {}
        for p in points:
            max_j = max(max_j, float(np.max(np.abs(ref_momentum(spec, p)))))
            table = ref_table(p)
            p1, p2, p3, p4 = table.T
            max_cosphere = max(max_cosphere, abs(float(np.sum(p1 + p3)) - 2.0))
            cone = np.abs(p1**2 - p2**2 - p3**2 - 4.0 * p4**2) / np.maximum(1.0, p1**2)
            max_cone = max(max_cone, float(np.max(cone)))
            label = ref_classify(spec, p)
            class_counts[label] = class_counts.get(label, 0) + 1
            if label not in starred:
                failures.append(f"classified into unstarred type ({label})")
                continue
            try:
                name, residual = ref_check(fixture, ref_image(table), band=band)
            except PhaseError as exc:
                failures.append(str(exc))
                continue
            piece_counts[name] = piece_counts.get(name, 0) + 1
            max_residual = max(max_residual, residual)
            if spec.n == 1:
                xs = p.x.reshape(-1, 2)
                t_planes = np.sum(xs * xs, axis=1)
                base = np.zeros(3 * spec.n)
                base[0::3] = t_planes
                base[2::3] = -t_planes
                k0 = np.zeros(3 * spec.n)
                k0[0::3] = p1 - 1.0
                k0[2::3] = 1.0 - p1
                k0_err = max(k0_err, float(np.max(np.abs(k0 - base))))
        fraction = piece_counts.get(cell.name, 0) / len(points) if points else 0.0
        class_fraction = (
            class_counts.get(cell.expect_class, 0) / len(points) if points else 0.0
        )
        report_checks = {
            "momentum_zero": max_j <= SUPPORT_TOL,
            "cosphere_sum": max_cosphere <= IDENTITY_TOL,
            "cone_identity": max_cone <= IDENTITY_TOL,
            "classification_starred": not any("unstarred" in f for f in failures),
            "membership_total": len(failures) == 0,
            "membership_residual": max_residual < band,
            "expected_pieces": fraction == 1.0,
            "expected_class": class_fraction == 1.0,
        }
        if spec.n == 1:
            report_checks["k0_geometric"] = k0_err <= IDENTITY_TOL
        passed = all(report_checks.values())
        all_passed = all_passed and passed
        probe_reports.append({
            "name": cell.name,
            "count": len(points),
            "max_momentum": max_j,
            "max_cosphere_error": max_cosphere,
            "max_cone_rel_error": max_cone,
            "max_membership_residual": max_residual,
            "k0_max_error": k0_err if spec.n == 1 else None,
            "class_counts": dict(sorted(class_counts.items())),
            "piece_counts": dict(sorted(piece_counts.items())),
            "expected_fraction": fraction,
            "checks": report_checks,
            "failures": failures[:10],
            "passed": passed,
        })
    generic = probe_reports[0]
    principal_fraction = generic["piece_counts"].get(principal_cc, 0) / generic["count"]
    return {
        "fixture": fixture.name,
        "seed": seed,
        "count": count,
        "band": band,
        "starred": sorted(starred),
        "pieces": sorted(c.name for c in cells),
        "principal_cc": principal_cc,
        "principal_fraction": principal_fraction,
        "probes": probe_reports,
        "passed": all_passed,
    }


def ref_flow_checks(fixture, seed: int, starts: int) -> dict:
    spec = fixture.spec
    points = ref_points(spec, seed=seed, count=starts)
    closed_vs_exact = 0.0
    for p in points:
        table = ref_table(p)
        p1, p2, p3, p4 = table.T
        w = 0.5 * (p1 + p3)
        for t in (0.1, 0.5, 1.0, 2.0):
            lhs = ref_table(PhasePoint(p.x + t * p.u, p.u))
            rhs = np.column_stack([
                p1 + p2 * t + w * t * t, p2 + 2.0 * w * t, p3 - p2 * t - w * t * t, p4,
            ])
            closed_vs_exact = max(closed_vs_exact, float(np.max(np.abs(lhs - rhs))))
    traj = reeb.flow_rk4(points[0], t_end=2.0, step=1e-3)
    endpoint = reeb.flow_exact(points[0], 2.0)
    rk4_endpoint_err = max(
        float(np.max(np.abs(traj.xs[-1] - endpoint.x))),
        float(np.max(np.abs(traj.us[-1] - endpoint.u))),
    )
    tables = np.array([ref_table(PhasePoint(x, u)) for x, u in zip(traj.xs, traj.us)])
    p4, mass = tables[:, :, 3], tables[:, :, 0] + tables[:, :, 2]
    drift = {
        "p4_drift": float(np.max(np.abs(p4 - p4[0]))),
        "plane_mass_drift": float(np.max(np.abs(mass - mass[0]))),
        "cosphere_sum_drift": float(np.max(np.abs(mass.sum(axis=1) - 2.0))),
    }
    failures = []
    result = strata.cl_stratification(torus.build_isotropy_poset(spec))
    by_name = {s.name: s for s in result.cl_strata}
    cc_of_lower = {s.lower: s.name for s in result.cl_strata
                   if s.kind is strata.StratumKind.COSPHERE}
    for idx, cell in enumerate(ref_probe_cells(spec)):
        if by_name[cell.name].kind is strata.StratumKind.COSPHERE:
            continue
        for p in ref_points(
            spec,
            seed=checks._probe_seed(seed, idx) + 17,
            count=200,
            support_pattern=cell.support_x,
            covector_pattern=cell.support,
        ):
            start_piece, _ = ref_check(fixture, ref_image(ref_table(p)))
            start_stratum = by_name[start_piece]
            if start_stratum.kind is strata.StratumKind.COSPHERE:
                continue
            # each plane's base point x_j + t u_j passes through 0 once,
            # where the parallel x_j and u_j cancel; probe at half the
            # first such positive time, or at 0.5 if that comes first
            t = 0.5
            for xj, uj in zip(p.x.reshape(-1, 2), p.u.reshape(-1, 2)):
                t_j = -(xj @ uj) / (uj @ uj) if uj @ uj > 0 else 0.0
                if t_j > 0:
                    t = min(t, t_j / 2)
            end_piece, _ = ref_check(
                fixture, ref_image(ref_table(PhasePoint(p.x + t * p.u, p.u)))
            )
            expected_cc = cc_of_lower[start_stratum.lower]
            if end_piece != expected_cc:
                failures.append(
                    f"{start_piece} flowed to {end_piece} at t = {t!r}, expected {expected_cc}"
                )
    report_checks = {
        "closed_form_matches_exact": closed_vs_exact <= IDENTITY_TOL,
        "rk4_endpoint": rk4_endpoint_err <= IDENTITY_TOL,
        "rk4_drift": max(drift.values()) <= IDENTITY_TOL,
        "seam_flow_lands_in_cc": not failures,
    }
    return {
        "fixture": fixture.name,
        "seed": seed,
        "starts": starts,
        "t_grid": [0.1, 0.5, 1.0, 2.0],
        "closed_vs_exact_max": closed_vs_exact,
        "rk4_endpoint_error": rk4_endpoint_err,
        "drift": drift,
        "seam_flow_failures": failures[:10],
        "checks": report_checks,
        "passed": all(report_checks.values()),
    }


def ref_rk4_grid(t_end: float, step: float) -> list[float]:
    """Repeated addition of step; a final sliver step moves its start to t_end."""
    grid = [0.0]
    while grid[-1] + step < t_end - 1e-15:
        grid.append(grid[-1] + step)
    if len(grid) > 1 and t_end - grid[-1] < reeb.SLIVER * step:
        grid[-1] = t_end
    else:
        grid.append(t_end)
    return grid


def ref_flow_rk4(point: PhasePoint, t_end: float, step: float):
    """One RK4 step of the field (u, 0) per loop iteration."""
    times = np.array(ref_rk4_grid(t_end, step))

    def field(x, u):
        return u, np.zeros_like(u)

    xs = np.empty((times.size, point.x.size))
    us = np.empty_like(xs)
    x, u = point.x.copy(), point.u.copy()
    xs[0], us[0] = x, u
    for i in range(1, times.size):
        h = times[i] - times[i - 1]
        k1x, k1u = field(x, u)
        k2x, k2u = field(x + 0.5 * h * k1x, u + 0.5 * h * k1u)
        k3x, k3u = field(x + 0.5 * h * k2x, u + 0.5 * h * k2u)
        k4x, k4u = field(x + h * k3x, u + h * k3u)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        xs[i], us[i] = x, u
    return times, xs, us


def outcome(fn, *args, **kwargs):
    """The result of the call, or the type and text of the PhaseError it raised."""
    try:
        return fn(*args, **kwargs)
    except PhaseError as exc:
        return type(exc).__name__, str(exc)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("fixture_name", FIXTURES)
def test_every_probe_matches_the_per_point_reference(fixture_name):
    fx = get_fixture(fixture_name)
    spec = fx.spec
    for idx, cell in enumerate(ref_probe_cells(spec)):
        x, u = phase.zero_level_arrays(
            spec, seed=checks._probe_seed(4, idx), count=300,
            support_pattern=cell.support_x, covector_pattern=cell.support,
        )
        points = [PhasePoint(xi, ui) for xi, ui in zip(x, u)]
        tables = phase.invariant_tables(x, u)
        images = phase.reduced_images(tables)
        assert same_bits(tables, [ref_table(p) for p in points])
        assert same_bits(phase.momenta(spec, tables), [ref_momentum(spec, p) for p in points])
        labels, index = phase.orbit_labels(spec, phase.support_masks(tables))
        assert np.array(labels, dtype=object)[index].tolist() == \
            [ref_classify(spec, p) for p in points]
        piece, residual = phase.locate_rows(fx, images)
        names = [fx.result.pieces[i] for i in piece]
        ref = [ref_check(fx, ref_image(ref_table(p))) for p in points]
        assert names == [name for name, _ in ref]
        assert same_bits(residual, [r for _, r in ref])


@pytest.mark.parametrize("fixture_name", FIXTURES)
def test_verify_report_matches_the_per_point_reference(fixture_name):
    fx = get_fixture(fixture_name)
    assert checks.verify_fixture(fx, seed=9, count=2000) == ref_verify(fx, 9, 2000)


def test_verify_failure_texts_match_the_per_point_reference():
    # a band below the roundoff of the cone and sum equations leaves
    # samples outside every piece
    for name in FIXTURES:
        fx = get_fixture(name)
        report = checks.verify_fixture(fx, seed=2, count=300, band=1e-17)
        assert report["probes"][0]["failures"]
        assert report == ref_verify(fx, 2, 300, band=1e-17)


@pytest.mark.parametrize("fixture_name, dropped", [
    ("s1-on-r2", "e"), ("t2-on-r4", "e×S^1"), ("t2-on-r4", "S^1×e"),
])
def test_unstarred_classes_fail_as_the_per_point_reference(monkeypatch, fixture_name, dropped):
    # with one starred type taken out of the starred set, every sample of
    # that type fails as classified into an unstarred type
    starred = strata.StratificationResult.starred
    monkeypatch.setattr(strata.StratificationResult, "starred", property(
        lambda self: tuple(label for label in starred.func(self) if label != dropped)
    ))
    fx = get_fixture(fixture_name)
    report = checks.verify_fixture(fx, seed=3, count=300)
    assert report == ref_verify(fx, 3, 300, unstarred=frozenset({dropped}))
    hit = [p for p in report["probes"] if p["class_counts"].get(dropped)]
    assert hit and not report["passed"]
    for probe in hit:
        assert not probe["checks"]["classification_starred"]
        assert probe["failures"] == [f"classified into unstarred type ({dropped})"] * 10
        assert probe["piece_counts"] == {}


@pytest.mark.parametrize("fixture_name", FIXTURES)
@pytest.mark.parametrize("seed", [0, 140, 180])
def test_flow_checks_match_the_per_point_reference(fixture_name, seed):
    # on t2-on-r4 seed 180 a seam start crosses the other seam at t = 0.49990
    fx = get_fixture(fixture_name)
    assert outcome(checks.flow_checks, fx, seed=seed, starts=50) == \
        outcome(ref_flow_checks, fx, seed, 50)


@pytest.mark.parametrize("fixture_name", FIXTURES)
@pytest.mark.parametrize("scale", [1e-9, 1e-8, 3e-8, 1e-5, 1e-3])
def test_membership_and_row_labels_match_near_the_bands(fixture_name, scale):
    fx = get_fixture(fixture_name)
    rng = np.random.default_rng(17)
    xs, us = [], []
    for cell in ref_probe_cells(fx.spec):
        x, u = phase.zero_level_arrays(
            fx.spec, seed=5, count=20,
            support_pattern=cell.support_x, covector_pattern=cell.support,
        )
        xs.append(x)
        us.append(u)
    x, u = np.concatenate(xs), np.concatenate(us)
    tables = phase.invariant_tables(x, u)
    tables = tables + scale * rng.standard_normal(tables.shape)
    images = phase.reduced_images(tables)
    piece, residual = phase.locate_rows(fx, images)
    for i, image in enumerate(images):
        expected = outcome(ref_check, fx, image)
        assert outcome(phase.check_reduced_membership, fx, image) == expected
        if piece[i] >= 0:
            assert (fx.result.pieces[piece[i]], residual[i]) == expected
        else:
            assert isinstance(expected[1], str)
    # _csv_lines is given the tables of x and u, so its rows take the noise
    # on the points (off the zero level, covector renormalized)
    x = x + scale * rng.standard_normal(x.shape)
    u = u + scale * rng.standard_normal(u.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    parts, unresolved = cli._csv_lines(fx, x, u, phase.invariant_tables(x, u), MEMBERSHIP_BAND)
    # the parts are blocks of whole rows, so they are joined before the split
    header, *rows = csv.reader(io.StringIO("".join(parts), newline=""))
    assert header[-2:] == ["stratum", "residual"] and len(rows) == len(x)
    ref = [ref_label_row(fx, ref_table(PhasePoint(xi, ui)), MEMBERSHIP_BAND)
           for xi, ui in zip(x, u)]
    assert [row[-2] for row in rows] == [name for name, _ in ref]
    assert unresolved == [name for name, _ in ref].count("(unresolved)")
    assert same_bits([float(row[-1]) for row in rows], [r for _, r in ref])


def test_trajectory_tables_match_the_per_point_reference():
    (p,) = ref_points(get_fixture("t2-on-r4").spec, seed=3, count=1)
    traj = reeb.flow_rk4(p, t_end=1.0, step=0.01)
    ref = [ref_table(PhasePoint(x, u)) for x, u in zip(traj.xs, traj.us)]
    assert same_bits(phase.invariant_tables(traj.xs, traj.us), ref)


def random_phase_point(rng, n: int) -> PhasePoint:
    """A unit covector and a base point, each with some entries set to -0.0."""
    x = rng.standard_normal(2 * n)
    u = rng.standard_normal(2 * n)
    x[rng.random(2 * n) < 0.3] = -0.0
    u[:: 2] = -0.0
    return PhasePoint(x, u / np.linalg.norm(u))


@pytest.mark.parametrize("t_end, step", [
    (2.0, 1e-3),   # the CLI default: repeated addition ends 1.1e-13 short of 2
    (1.0, 1e-3),
    (0.25, 0.1),   # final partial steps
    (1.0, 0.3),
    (0.05, 0.1),   # step > t_end
    (0.5, 0.01),
    (1e-20, 1e-3),  # t_end within 1e-15 of the start: one step
])
def test_rk4_matches_the_per_step_loop(t_end, step):
    rng = np.random.default_rng(int(1e6 * t_end + 1e3 * step))
    for n in (1, 2, 4):
        p = random_phase_point(rng, n)
        traj = reeb.flow_rk4(p, t_end=t_end, step=step)
        times, xs, us = ref_flow_rk4(p, t_end, step)
        assert same_bits(traj.times, times)
        assert same_bits(traj.xs, xs)
        assert same_bits(traj.us, us)
        # the loop's first step turns each -0.0 of u into +0.0
        assert np.signbit(traj.us[0, ::2]).all() and not np.signbit(traj.us[1:, ::2]).any()


def test_rk4_grid_has_no_sliver_step():
    grid = [0.0]
    for _ in range(2000):
        grid.append(grid[-1] + 1e-3)
    assert 0 < 2.0 - grid[-1] < 1e-12  # repeated addition falls short of 2
    point = PhasePoint(np.zeros(2), np.array([1.0, 0.0]))
    traj = reeb.flow_rk4(point, t_end=2.0, step=1e-3)
    assert traj.times.tolist() == grid[:-1] + [2.0]
    assert len(reeb.flow_rk4(point, t_end=1.0, step=1e-3)) == 1001
