"""Acceptance gate: the six headline checks at pinned tolerances.

Each test prints one ACCEPTANCE <n>: PASS/FAIL line (visible under -s or
in captured output).  Budgets and tolerances are fixed here, not shared
with the unit tests, so loosening one cannot silently loosen the other.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from cosphere import checks, phase, reeb, strata, torus
from cosphere.fixtures import get_fixture
from cosphere.poset import IsotropyPoset, OrbitType, PosetError
from cosphere.strata import StratumKind
from cosphere.torus import TorusActionSpec
from order_oracles import pair_closure
from test_strata import pairs, report_closure_only, written_report

MOMENTUM_TOL = 1e-10
IDENTITY_TOL = 1e-9
MEMBERSHIP_BAND = 1e-8
SAMPLE_COUNT = 10000
FLOW_STARTS = 1000
SAMPLING_BUDGET_S = 10.0
INVENTORY_BUDGET_S = 1.0


@contextmanager
def gate(n: int):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL")
        raise
    print(f"ACCEPTANCE {n}: PASS")


def test_criterion_1_two_plane_inventory():
    with gate(1):
        t0 = time.perf_counter()
        spec = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))
        poset = torus.build_isotropy_poset(spec)
        assert {t.label for t in poset.types} == {"e", "S^1×e", "e×S^1", "T^2"}
        assert poset.dim_Q_of == {"e": 4, "S^1×e": 2, "e×S^1": 2, "T^2": 0}
        result = strata.cl_stratification(poset)
        assert len(result.cl_strata) == 8
        assert sorted((s.dim for s in result.cl_strata), reverse=True) == [
            3, 2, 2, 1, 1, 1, 0, 0,
        ]
        kinds = [s.kind for s in result.cl_strata]
        assert kinds.count(StratumKind.COSPHERE) == 3
        assert kinds.count(StratumKind.COISOTROPIC_SEAM) == 2
        assert kinds.count(StratumKind.LEGENDRIAN_SEAM) == 3
        assert set(result.starred) == {"e", "S^1×e", "e×S^1"}
        assert len(result.frontier) == 19
        assert len(report_closure_only(written_report(result))) == 6
        assert time.perf_counter() - t0 < INVENTORY_BUDGET_S


def test_criterion_2_frontier_hasse_diagram():
    with gate(2):
        spec = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))
        result = strata.cl_stratification(torus.build_isotropy_poset(spec))
        assert set(pairs(result.hasse)) == {
            ("CC(S^1×e)", "Seam(S^1×e>e)"),
            ("CC(e×S^1)", "Seam(e×S^1>e)"),
            ("Seam(S^1×e>e)", "CC(e)"),
            ("Seam(e×S^1>e)", "CC(e)"),
            ("Seam(T^2>e)", "Seam(S^1×e>e)"),
            ("Seam(T^2>e)", "Seam(e×S^1>e)"),
            ("Seam(T^2>S^1×e)", "CC(S^1×e)"),
            ("Seam(T^2>S^1×e)", "Seam(T^2>e)"),
            ("Seam(T^2>e×S^1)", "CC(e×S^1)"),
            ("Seam(T^2>e×S^1)", "Seam(T^2>e)"),
        }


def test_criterion_3_circle_action_and_base_chart():
    with gate(3):
        t0 = time.perf_counter()
        fx = get_fixture("s1-on-r2")
        poset = torus.build_isotropy_poset(fx.spec)
        assert strata.semifree_diagnostics(poset) == ()
        torus_poset = torus.build_isotropy_poset(
            TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))
        )
        assert strata.semifree_diagnostics(torus_poset)
        assert not strata.cl_stratification(torus_poset).smooth_total_space
        result = strata.cl_stratification(poset)
        assert result.smooth_total_space
        dims = {s.name: s.dim for s in result.cl_strata}
        assert dims == {"CC(e)": 1, "Seam(S^1>e)": 0}

        # fiber point over the origin, pushed along the flow for one unit
        p0 = phase.PhasePoint(np.zeros(2), np.array([1.0, 0.0]))
        assert phase.hilbert_map(fx.spec, p0).tolist() == [1.0, 0.0, 1.0]
        p1 = reeb.flow_exact(p0, 1.0)
        image = phase.hilbert_map(fx.spec, p1)
        assert image.tolist() == [2.0, 2.0, 0.0]
        assert phase.k0_project(image).tolist() == [1.0, 0.0, -1.0]
        assert time.perf_counter() - t0 < INVENTORY_BUDGET_S


def test_criterion_4_sampling_battery():
    with gate(4):
        t0 = time.perf_counter()
        for name in ("s1-on-r2", "t2-on-r4"):
            fx = get_fixture(name)
            report = checks.verify_fixture(
                fx, seed=0, count=SAMPLE_COUNT, band=MEMBERSHIP_BAND
            )
            assert report["passed"], report
            for probe in report["probes"]:
                assert probe["max_momentum"] < MOMENTUM_TOL
                assert probe["max_cosphere_error"] <= IDENTITY_TOL
                assert probe["max_cone_rel_error"] <= IDENTITY_TOL
                assert probe["max_membership_residual"] < MEMBERSHIP_BAND
                assert probe["failures"] == []
            assert report["principal_fraction"] >= 0.99
        assert time.perf_counter() - t0 < SAMPLING_BUDGET_S


def test_criterion_5_reeb_flow_battery():
    with gate(5):
        t0 = time.perf_counter()
        # frozen start: the fiber point reaches (2, 2, 0) at t = 1
        table0 = phase.invariant_tables(np.zeros(2), np.array([1.0, 0.0]))
        assert table0.tolist() == [[1.0, 0.0, 1.0, 0.0]]
        assert reeb.flowed_tables(table0, 1.0).tolist() == [[2.0, 2.0, 0.0, 0.0]]
        for name in ("s1-on-r2", "t2-on-r4"):
            report = checks.flow_checks(get_fixture(name), seed=0, starts=FLOW_STARTS)
            # the closed form is checked at these times, RK4 run to t = 2 in
            # steps of 1e-3
            assert report["t_grid"] == [0.1, 0.5, 1.0, 2.0]
            assert (checks.FLOW_T_END, checks.FLOW_STEP) == (2.0, 1e-3)
            assert report["passed"], report
            assert report["closed_vs_exact_max"] <= IDENTITY_TOL
            assert report["rk4_endpoint_error"] <= IDENTITY_TOL
            assert max(report["drift"].values()) <= IDENTITY_TOL
            assert report["seam_flow_failures"] == []
        assert time.perf_counter() - t0 < SAMPLING_BUDGET_S


def _random_poset(rng: random.Random) -> IsotropyPoset:
    n = rng.randint(1, 8)
    labels = [chr(ord("A") + i) for i in range(n)]
    dim_g = n
    dim_q = dim_g + rng.randint(0, 6)
    types = tuple(
        OrbitType(lab, i, is_identity=(i == 0)) for i, lab in enumerate(labels)
    )
    dims = {lab: rng.randint(dim_g - i, dim_q) for i, lab in enumerate(labels)}
    pairs = [
        (a, b)
        for a, b in itertools.combinations(labels, 2)
        if rng.random() < 0.4
    ]
    return IsotropyPoset(
        types=types, order=frozenset(pairs), dim_Q_of=dims, dim_G=dim_g, dim_Q=dim_q
    )


def _random_weights(rng: random.Random) -> TorusActionSpec:
    k = rng.randint(1, 3)
    n = rng.randint(1, 4)
    cols = []
    for _ in range(n):
        col = [0] * k
        while not any(col):
            col = [rng.randint(-5, 5) for _ in range(k)]
        cols.append(col)
    weights = tuple(tuple(cols[j][i] for j in range(n)) for i in range(k))
    return TorusActionSpec(k=k, n=n, weights=weights)


def _structural_properties(poset: IsotropyPoset, tag: str, failures: list[str]) -> None:
    """Seam dimension formula, excess identity, piece count, frontier closure."""
    dims = {t.label: poset.dim_Q_of[t.label] - poset.dim_G + t.dim_H for t in poset.types}
    starred = {label for label, d in dims.items() if d >= 1}
    result = strata.cl_stratification(poset)

    seam_pairs = [(l, h) for (l, h) in poset.order if l in starred]
    if len(result.cl_strata) != len(starred) + len(seam_pairs):
        failures.append(f"{tag}: piece count formula violated")

    pieces = {s.name: s for s in result.cl_strata}
    for lower in starred:
        d_low = dims[lower]
        cc = pieces[strata.cc_name(lower)]
        if cc.dim != 2 * d_low - 1:
            failures.append(f"{tag}: degenerate seam is not the CC dimension")
    for lower, upper in seam_pairs:
        s = pieces[strata.seam_name(upper, lower)]
        d_low = dims[lower]
        d_up = dims[upper]
        excess = s.dim - (2 * d_low - 1 - 1) // 2
        if s.dim < 0 or excess != d_up:
            failures.append(f"{tag}: excess identity fails on Seam({upper}>{lower})")
        legendrian = s.kind is StratumKind.LEGENDRIAN_SEAM
        if legendrian != (excess == 0) or legendrian != (upper not in starred):
            failures.append(f"{tag}: kind of Seam({upper}>{lower}) mislabelled")

    if pair_closure(pairs(result.hasse)) != set(pairs(result.frontier)):
        failures.append(f"{tag}: hasse reduction does not regenerate the frontier")
    names = {s.name for s in result.cl_strata}
    for a, b in pairs(result.frontier):
        if a == b or a not in names or b not in names:
            failures.append(f"{tag}: bad frontier pair ({a}, {b})")


def test_criterion_6_randomized_robustness():
    with gate(6):
        rng = random.Random(20260814)
        failures: list[str] = []
        for i in range(500):
            try:
                poset = _random_poset(rng)
            except PosetError as exc:
                failures.append(f"poset {i}: {exc}")
                continue
            _structural_properties(poset, f"poset {i}", failures)

        for i in range(200):
            spec = _random_weights(rng)
            try:
                poset = torus.build_isotropy_poset(spec)
            except PosetError as exc:
                failures.append(f"weights {i}: {exc}")
                continue
            _structural_properties(poset, f"weights {i}", failures)
            x, u = phase.zero_level_arrays(spec, seed=i, count=2)
            j = phase.momenta(spec, phase.invariant_tables(x, u))
            if float(np.max(np.abs(j))) > MOMENTUM_TOL:
                failures.append(f"weights {i}: sample off the zero level")

        assert failures == [], failures[:10]
