"""Phase-level layer: invariants, momentum, sampling, membership, base chart."""

import dataclasses
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cosphere import checks, phase
from cosphere.fixtures import build_fixture, get_fixture
from cosphere.phase import (
    EmptyKernelError,
    MAX_RETRIES,
    MAX_SAMPLES,
    MAX_STEPS,
    MEMBERSHIP_BAND,
    NoMatchingStratumError,
    NotOnZeroLevelError,
    PhaseError,
    PhasePoint,
    RetriesExhaustedError,
    check_reduced_membership,
    check_run_inputs,
    cone_residuals,
    cosphere_sums,
    hilbert_map,
    invariant_tables,
    k0_project,
    locate_rows,
    momenta,
    reduced_images,
    zero_level_arrays,
)
from cosphere.reeb import flow_exact, flowed_base
from cosphere.torus import (
    MAX_PLANES,
    RankDeficientError,
    TorusActionSpec,
    class_label,
    support_lattices,
    support_types,
)
from test_reference import fixture_probe_cells, ref_classify
from test_torus import CAP_SPEC, weight_specs

T2 = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))
S1 = TorusActionSpec(k=1, n=1, weights=((1,),))


# ---------------------------------------------------------------- points

def test_phase_point_rejects_bad_shapes():
    with pytest.raises(PhaseError):
        PhasePoint(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(PhaseError):
        PhasePoint(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(PhaseError):
        PhasePoint(np.array([]), np.array([]))
    with pytest.raises(PhaseError):
        PhasePoint(np.array([np.nan, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(PhaseError):
        PhasePoint(np.zeros(2), np.array([np.inf, 0.0]))


def test_phase_point_requires_a_unit_covector():
    with pytest.raises(PhaseError):
        PhasePoint(np.zeros(2), np.array([1.0, 1.0]))
    assert PhasePoint(np.zeros(2), np.array([0.6, 0.8])).u.tolist() == [0.6, 0.8]


def test_phase_point_arrays_are_frozen():
    p = PhasePoint(np.zeros(2), np.array([1.0, 0.0]))
    assert not p.x.flags.writeable
    assert not p.u.flags.writeable
    assert p.n == 1


# ------------------------------------------------------------ invariants

def test_invariants_of_the_fiber_point():
    table = invariant_tables(np.zeros(2), np.array([1.0, 0.0]))
    assert table.tolist() == [[1.0, 0.0, 1.0, 0.0]]
    assert cosphere_sums(table) == 2.0
    assert cone_residuals(table).tolist() == [0.0]


def test_invariants_of_a_radial_point():
    table = invariant_tables(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert table.tolist() == [[2.0, 2.0, 0.0, 0.0]]


def test_invariants_pick_up_the_angular_component():
    table = invariant_tables(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    # x crossed with u carries the whole mass: p4 = 1
    assert table.tolist() == [[2.0, 0.0, 0.0, 1.0]]


@st.composite
def unit_points(draw, n_max=3):
    n = draw(st.integers(min_value=1, max_value=n_max))
    coords = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    x = draw(st.lists(coords, min_size=2 * n, max_size=2 * n))
    u = draw(
        st.lists(coords, min_size=2 * n, max_size=2 * n).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        )
    )
    u = np.array(u)
    return PhasePoint(np.array(x), u / np.linalg.norm(u))


@given(unit_points())
def test_cone_identity_and_cosphere_sum(p):
    table = invariant_tables(p.x, p.u)
    scale = 1.0 + float(np.max(table[:, 0])) ** 2
    assert np.max(np.abs(cone_residuals(table))) < 1e-12 * scale
    assert abs(cosphere_sums(table) - 2.0) < 1e-12


@given(unit_points(n_max=2))
def test_momentum_is_linear_in_the_covector(p):
    k = p.n
    weights = tuple(tuple(1 + i + j for j in range(p.n)) for i in range(k))
    spec = TorusActionSpec(k=k, n=p.n, weights=weights)
    direct = momenta(spec, invariant_tables(p.x, p.u))
    via_matrix = momentum_matrix(spec, p.x) @ p.u
    assert np.allclose(direct, via_matrix, atol=1e-12)


def test_momentum_of_the_angular_point():
    p = PhasePoint(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]))
    assert momenta(T2, invariant_tables(p.x, p.u)).tolist() == [1.0, 0.0]
    # hilbert_map refuses a point of another plane count before any numpy
    # shape error
    with pytest.raises(PhaseError, match="point has 2 planes, spec has 1") as err:
        hilbert_map(S1, p)
    assert type(err.value) is PhaseError


# ------------------------------------------------------------ hilbert map

def test_hilbert_map_requires_zero_momentum():
    on = PhasePoint(np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    assert hilbert_map(T2, on).tolist() == [2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    off = PhasePoint(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(NotOnZeroLevelError):
        hilbert_map(T2, off)


def test_hilbert_map_refuses_weights_of_rank_below_n():
    # the diagonal circle on two planes: (z1, z2) and (z1, -z2) lie in
    # different orbits but share every per-plane invariant
    spec = TorusActionSpec(k=1, n=2, weights=((1, 1),))
    x, u = np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.6, 0.0, 0.8, 0.0])
    flip = np.array([1.0, 1.0, -1.0, -1.0])
    p, q = PhasePoint(x, u), PhasePoint(x * flip, u * flip)
    tables = invariant_tables(np.array([p.x, q.x]), np.array([p.u, q.u]))
    assert momenta(spec, tables).tolist() == [[0.0], [0.0]]
    assert tables[0].tolist() == tables[1].tolist()
    for point in (p, q):
        with pytest.raises(RankDeficientError, match="rank 1 < n = 2"):
            hilbert_map(spec, point)


def test_support_and_classification():
    # a radial point on plane 0, a fiber point on plane 1, a generic point
    x = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
    u = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.5, 0.5, 0.5, 0.5]])
    fx = get_fixture("t2-on-r4")
    _, _, lower = locate_rows(fx, reduced_images(invariant_tables(x, u)))
    # the supports {0}, {1} and {0, 1}, by bitmask
    types = support_types(T2)[1]
    assert lower.tolist() == [types[0b01], types[0b10], types[0b11]]
    labels = [fx.result.labels[t] for t in lower]
    assert sorted(set(labels)) == ["S^1×e", "e", "e×S^1"]
    assert labels == ["e×S^1", "S^1×e", "e"]


def test_support_tolerance():
    table = invariant_tables(
        np.array([1e-12, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])
    )
    _, _, lower = locate_rows(get_fixture("t2-on-r4"), reduced_images(table)[None, :])
    assert lower.tolist() == [support_types(T2)[1][0b10]]


# -------------------------------------------------------------- sampling

def test_sampler_is_deterministic_and_prefix_stable():
    ax, au = zero_level_arrays(T2, seed=7, count=6)
    bx, bu = zero_level_arrays(T2, seed=7, count=6)
    cx, cu = zero_level_arrays(T2, seed=7, count=3)
    assert ax.shape == au.shape == (6, 4)
    assert ax.tolist() == bx.tolist() and au.tolist() == bu.tolist()
    assert cx.tolist() == ax[:3].tolist() and cu.tolist() == au[:3].tolist()
    dx, _ = zero_level_arrays(T2, seed=8, count=3)
    assert dx.tolist() != cx.tolist()


def test_sampler_lands_on_the_zero_level():
    x, u = zero_level_arrays(T2, seed=11, count=64)
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-12
    tables = invariant_tables(x, u)
    assert np.max(np.abs(momenta(T2, tables))) < 1e-12
    assert np.max(np.abs(cosphere_sums(tables) - 2.0)) < 1e-12
    assert np.max(np.abs(cone_residuals(tables))) < 1e-12


def test_sampler_respects_patterns():
    x, _ = zero_level_arrays(T2, seed=3, count=16, support_pattern=(1,))
    assert (x[:, :2] == 0.0).all()
    # a pattern naming every plane draws what no pattern draws
    ax, au = zero_level_arrays(T2, seed=3, count=16)
    bx, bu = zero_level_arrays(T2, seed=3, count=16, support_pattern=(0, 1),
                               covector_pattern=(0, 1))
    assert ax.tobytes() == bx.tobytes() and au.tobytes() == bu.tobytes()
    _, u = zero_level_arrays(T2, seed=3, count=16, covector_pattern=(0,))
    assert (u[:, 2:] == 0.0).all()
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) < 1e-12
    with pytest.raises(EmptyKernelError):
        zero_level_arrays(T2, seed=3, count=1, covector_pattern=())
    with pytest.raises(PhaseError):
        zero_level_arrays(T2, seed=3, count=1, support_pattern=(5,))
    with pytest.raises(PhaseError, match="seed must be nonnegative, got -1"):
        zero_level_arrays(T2, seed=-1, count=1)
    with pytest.raises(PhaseError, match="count must be nonnegative, got -1"):
        zero_level_arrays(T2, seed=0, count=-1)
    with pytest.raises(PhaseError, match=f"count {MAX_SAMPLES + 1} exceeds the cap of"):
        zero_level_arrays(T2, seed=0, count=MAX_SAMPLES + 1)
    x, u = zero_level_arrays(T2, seed=0, count=0)
    assert x.shape == u.shape == (0, 4)
    assert reduced_images(invariant_tables(x, u)).shape == (0, 6)


def test_sampled_covectors_solve_the_momentum_to_roundoff():
    # projecting g - pinv(M) M g only once leaves |J| above 1e-13 here
    x, u = zero_level_arrays(S1, seed=0, count=10_000)
    assert float(np.max(np.abs(momenta(S1, invariant_tables(x, u))))) <= 1e-13


def reference_draw(seed, attempt, row, column):
    """Draw (row, column) of ``attempt`` in Python integers: SplitMix64's
    finalizer on the counter times the golden ratio plus the seed's key."""
    mask = (1 << 64) - 1

    def mix(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        return z ^ z >> 31

    key = 0x9E3779B97F4A7C15
    while True:  # the seed's 64-bit words, low first, at least one
        key = mix(key ^ seed & mask)
        seed >>= 64
        if not seed:
            break
    z = mix((((attempt << 20 | row) << 6 | column) * 0x9E3779B97F4A7C15 + key) & mask)
    return (2 * (z >> 12) + 1) * 2.0**-52 - 1.0


@given(st.integers(0, 2**200), st.integers(0, MAX_RETRIES - 1),
       st.lists(st.integers(0, MAX_SAMPLES - 1), max_size=5), st.integers(1, 4 * MAX_PLANES))
@example(0, 0, [0], 1)
@example(2**64 - 1, MAX_RETRIES - 1, [MAX_SAMPLES - 1], 4 * MAX_PLANES)
def test_draws_match_the_integer_reference(seed, attempt, rows, width):
    # the counter is injective only while its three fields fit their bits
    assert MAX_RETRIES <= 2**6 and MAX_SAMPLES <= 2**20 and 4 * MAX_PLANES <= 2**6
    draws = phase._draws(seed, attempt, rows, width)
    assert draws.shape == (len(rows), width)
    assert draws.tolist() == [[reference_draw(seed, attempt, i, c) for c in range(width)]
                              for i in rows]
    assert ((np.abs(draws) < 1.0) & (draws != 0.0)).all()


# the first row of the stream at seeds 0 and 7, and the attempt-1 redraw of
# row 3 at seed 7: a change to the stream changes these bits
KNOWN_DRAWS = {
    (0, 0, 0): ["-0x1.bef3eec806194p-2", "0x1.3836e97a68cbcp-2", "0x1.9c15182fa20a4p-2",
                "-0x1.ce56eab045408p-3", "0x1.4055d46433204p-2", "0x1.26d6b8419a63ep-1",
                "-0x1.6a41765976f7ep-1", "0x1.1d56eeb2122f2p-1"],
    (7, 0, 0): ["-0x1.023f70c6de5eap-1", "-0x1.3616a8fc432c0p-6", "-0x1.537a202d3f3b0p-4",
                "0x1.76173d439cc36p-1", "-0x1.7129ccef813c4p-2", "-0x1.4e286957d95a2p-1",
                "-0x1.278bb36a3d590p-4", "0x1.03596b1d0ac38p-3"],
    (7, 1, 3): ["0x1.3741aa43e5342p-1", "-0x1.bd02f868b1a3cp-2", "-0x1.c7b7b1f7d0d28p-3",
                "0x1.54c354d54468ap-1", "0x1.e1c09b593f28cp-2", "-0x1.d6f34e43b38fep-1",
                "0x1.2302760c8feeap-1", "0x1.d38e4afafe366p-1"],
}


@pytest.mark.parametrize("seed, attempt, row", sorted(KNOWN_DRAWS))
def test_draws_are_pinned(seed, attempt, row):
    draws = phase._draws(seed, attempt, [row], 8)[0]
    assert [float.hex(v) for v in draws.tolist()] == KNOWN_DRAWS[seed, attempt, row]
    if attempt == 0:
        x, u = zero_level_arrays(T2, seed=seed, count=1)
        assert x[0].tolist() == draws[:4].tolist()


def test_seeds_of_any_size_draw_their_own_blocks():
    # the key folds every 64-bit word of the seed, so 2^64 + 7 is not 7
    assert phase._draws(7, 0, np.arange(4), 8).tolist() != (
        phase._draws(2**64 + 7, 0, np.arange(4), 8).tolist())
    x, _ = zero_level_arrays(T2, seed=2**64 + 7, count=4)
    assert x.tolist() != zero_level_arrays(T2, seed=7, count=4)[0].tolist()
    report = checks.verify_fixture(get_fixture("t2-on-r4"), seed=10**30, count=200)
    assert report["passed"] and report["seed"] == 10**30


def fixed_block(real_draws, block):
    """A stand-in for ``phase._draws`` whose attempt 0 is ``block``."""
    return lambda seed, attempt, rows, width: (
        real_draws(seed, attempt, rows, width) if attempt else block
    )


def test_sampler_redraws_rows_without_a_covector(monkeypatch):
    # an all-zero block leaves every row without a covector, so each sample
    # comes from its own (seed, index, 1) redraw
    real_draws = phase._draws
    monkeypatch.setattr(phase, "_draws", fixed_block(real_draws, np.zeros((3, 8))))
    x, u = zero_level_arrays(T2, seed=4, count=3)
    for index in range(3):
        assert x[index].tolist() == real_draws(4, 1, [index], 8)[0, :4].tolist()
    assert np.max(np.abs(momenta(T2, invariant_tables(x, u)))) < 1e-12
    monkeypatch.setattr(phase, "MAX_RETRIES", 1)
    with pytest.raises(RetriesExhaustedError, match="after 1 draws for sample 0"):
        zero_level_arrays(T2, seed=4, count=3)


def test_sampler_redraws_a_row_with_a_zero_base_plane(monkeypatch):
    # x_0 = 0 on a drawn plane zeroes a row of M(x), so the independent
    # rows may drop rank: that row is redrawn from its own
    # (seed, index, 1) redraw, the others keep their draws
    real_draws = phase._draws
    block = real_draws(4, 0, np.arange(3), 8)
    block[1, :2] = 0.0
    monkeypatch.setattr(phase, "_draws", fixed_block(real_draws, block))
    x, u = zero_level_arrays(T2, seed=4, count=3)
    assert x[1].tolist() == real_draws(4, 1, [1], 8)[0, :4].tolist()
    assert x[[0, 2]].tolist() == block[[0, 2], :4].tolist()
    assert np.max(np.abs(momenta(T2, invariant_tables(x, u)))) < 1e-12


DEGENERATE_WEIGHTS = {
    "diagonal": ((1, 0), (0, 1)),
    "coupled": ((1, 1), (0, 1)),
    "ill-conditioned": ((16, 15), (15, 14)),
    # eight planes, eight independent rows
    "eight-planes": tuple(tuple((3 * i + 5 * j) % 7 - 3 + 9 * (i == j) for j in range(8))
                          for i in range(8)),
}


# an exactly zero plane on the diagonal weights is the test above
@pytest.mark.parametrize("name, value", [(name, 1e-200) for name in DEGENERATE_WEIGHTS]
                         + [(name, 0.0) for name in DEGENERATE_WEIGHTS if name != "diagonal"])
def test_sampler_redraws_a_row_with_a_degenerate_base_plane(monkeypatch, name, value):
    # base coordinates of 1e-200 on plane 0 are not zero, but a pivot of M_R
    # is then numerically zero: its square underflows to 0, or it falls
    # under the rank cut.  That row is redrawn from its own
    # (seed, index, 1) redraw rather than losing a constraint, with no
    # warning, as is a row whose plane 0 is exactly zero, also when its
    # other pivots must not grow through eight rows
    weights = DEGENERATE_WEIGHTS[name]
    n = len(weights[0])
    spec = TorusActionSpec(k=len(weights), n=n, weights=weights)
    real_draws = phase._draws
    block = real_draws(4, 0, np.arange(3), 4 * n)
    block[1, :2] = value
    monkeypatch.setattr(phase, "_draws", fixed_block(real_draws, block))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, u = zero_level_arrays(spec, seed=4, count=3)
    assert x[1].tolist() == real_draws(4, 1, [1], 4 * n)[0, : 2 * n].tolist()
    assert x[[0, 2]].tolist() == block[[0, 2], : 2 * n].tolist()
    assert np.max(np.abs(momenta(spec, invariant_tables(x, u)))) <= 1e-13


def momentum_matrix(spec, x):
    """The k x 2n matrix M(x) with J(x, u) = M(x) u (momentum is linear in
    u); for (N, 2n) rows of base points the result has shape (N, k, 2n)."""
    weights = np.array(spec.weights, dtype=float)
    xs = x.reshape(x.shape[:-1] + (spec.n, 2))
    m = np.zeros(xs.shape[:-2] + (spec.k, 2 * spec.n))
    m[..., 0::2] = -weights * xs[..., None, :, 1]
    m[..., 1::2] = weights * xs[..., None, :, 0]
    return m


def svd_zero_level_rows(spec, xcols, ucols, draws):
    """The sampler's rows with the covector projected onto an orthonormal
    basis of ker M(x) from one batched SVD, with null_space's rank cut:
    the oracle for the Gram-Schmidt projection."""
    x = np.zeros((len(draws), 2 * spec.n))
    x[:, xcols] = draws[:, : xcols.size]
    g = draws[:, xcols.size :]
    m = momentum_matrix(spec, x)[:, :, ucols]
    _, s, vt = np.linalg.svd(m)
    cut = max(m.shape[1:]) * np.finfo(float).eps * s[:, :1]
    rank = np.sum(s > cut, axis=1)
    in_kernel = np.arange(ucols.size) >= rank[:, None]
    coeff = np.where(in_kernel, (vt @ g[:, :, None])[:, :, 0], 0.0)
    u_active = (coeff[:, None, :] @ vt)[:, 0, :]
    norm = np.linalg.norm(u_active, axis=1)
    ok = norm >= phase.MIN_COVECTOR_NORM
    u = np.zeros_like(x)
    u[:, ucols] = u_active / np.where(ok, norm, 1.0)[:, None]
    return x, u, ok


def exact_unit_projection(spec, x, g, rows, ucols):
    """g projected onto ker M_R in exact rational arithmetic, by Gram-Schmidt
    without normalization, then normalized in floating point."""
    xs = [Fraction(float(v)) for v in x]
    turned = [-xs[c + 1] if c % 2 == 0 else xs[c - 1] for c in ucols]
    basis = []
    for i in rows:
        v = [spec.weights[i][c // 2] * t for c, t in zip(ucols, turned)]
        for q in basis:
            c = sum(a * b for a, b in zip(v, q)) / sum(b * b for b in q)
            v = [a - c * b for a, b in zip(v, q)]
        basis.append(v)
    p = [Fraction(float(v)) for v in g]
    for q in basis:
        c = sum(a * b for a, b in zip(p, q)) / sum(b * b for b in q)
        p = [a - c * b for a, b in zip(p, q)]
    return np.array([float(a) for a in p]) / float(sum(a * a for a in p)) ** 0.5


ILL_CONDITIONED = TorusActionSpec(k=2, n=2, weights=((16, 15), (15, 14)))


@pytest.mark.parametrize("seed", [7, 25])
def test_projection_of_ill_conditioned_weights_matches_exact_arithmetic(seed):
    # seeds at which the SVD oracle's covectors are off by 1.0e-12 and
    # 5.6e-12 from the exact projection
    cols = phase._plane_columns((0, 1))
    draws = np.random.default_rng(seed).standard_normal((16, 8))
    rows = phase._independent_rows(ILL_CONDITIONED, {0, 1})
    x, u, ok = phase._zero_level_rows(ILL_CONDITIONED, cols, cols, rows, draws)
    assert ok.all()
    exact = [exact_unit_projection(ILL_CONDITIONED, xi, gi, rows, cols)
             for xi, gi in zip(x, draws[:, 4:])]
    assert float(np.max(np.abs(u[:, cols] - exact))) <= 1e-12
    assert float(np.max(np.abs(momenta(ILL_CONDITIONED, invariant_tables(x, u))))) <= 1e-13


@st.composite
def rank_deficient_specs(draw):
    """Weight matrices of rank below k: every column an integer combination
    of fewer than k generators, so columns repeat up to sign and scale."""
    k = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-2, max_value=2)
    gens = draw(st.lists(
        st.lists(entries, min_size=k, max_size=k).filter(any),
        min_size=1, max_size=k - 1,
    ))
    coeffs = st.lists(st.integers(min_value=-1, max_value=1),
                      min_size=len(gens), max_size=len(gens))
    cols = draw(st.lists(
        coeffs.map(lambda c: tuple(sum(ci * v[i] for ci, v in zip(c, gens)) for i in range(k)))
        .filter(any),
        min_size=n, max_size=n,
    ))
    return TorusActionSpec(k=k, n=n, weights=tuple(zip(*cols)))


@st.composite
def sampler_cases(draw):
    spec = draw(st.one_of(weight_specs(), rank_deficient_specs()))
    plane = st.integers(min_value=0, max_value=spec.n - 1)
    planes_x = draw(st.sets(plane, max_size=spec.n))
    planes_u = draw(st.sets(plane, min_size=1, max_size=spec.n))
    return spec, planes_x, planes_u, draw(st.integers(min_value=0, max_value=2**32 - 1))


@given(sampler_cases())
# ill-conditioned weights (det -1, condition number about 900), and a k = 3
# spec of rank 2 whose third column is the sum of the first two; on the
# ill-conditioned weights the SVD oracle itself is off by up to 5.6e-12 at
# some seeds, which the exact projection below checks instead
@example((ILL_CONDITIONED, {0, 1}, {0, 1}, 0))
@example((TorusActionSpec(k=2, n=3, weights=((16, 15, 1), (15, 14, 1))), {0, 1}, {0, 1, 2}, 3))
@example((TorusActionSpec(k=3, n=3, weights=((1, 0, 1), (1, 1, 2), (0, 1, 1))),
          {0, 1, 2}, {0, 1, 2}, 11))
def test_gram_projection_matches_the_svd_oracle(case):
    spec, planes_x, planes_u, seed = case
    xcols = phase._plane_columns(tuple(sorted(planes_x)))
    ucols = phase._plane_columns(tuple(sorted(planes_u)))
    draws = np.random.default_rng(seed).standard_normal((16, xcols.size + ucols.size))
    rows = phase._independent_rows(spec, planes_x & planes_u)
    x, u, ok = phase._zero_level_rows(spec, xcols, ucols, rows, draws)
    sx, su, sok = svd_zero_level_rows(spec, xcols, ucols, draws)
    assert ok.tolist() == sok.tolist()
    assert x.tobytes() == sx.tobytes()
    assert float(np.max(np.abs(u - su), initial=0.0)) <= 1e-12
    assert float(np.max(np.abs(momenta(spec, invariant_tables(x, u))), initial=0.0)) <= 1e-13


def test_seeds_and_counts_must_be_integers():
    # a float or bool is refused, not truncated to the run of another seed
    # or count; a numpy integer is an integer
    for bad in ({"seed": 7.9}, {"seed": True}, {"seed": np.float64(7.0)},
                {"count": 2.9}, {"count": False}, {"seed": "7"}):
        with pytest.raises(PhaseError, match="must be an integer, not"):
            check_run_inputs(**bad)
    with pytest.raises(PhaseError, match="seed must be an integer, not 7.9"):
        zero_level_arrays(T2, seed=7.9, count=2)
    with pytest.raises(PhaseError, match="sample count must be an integer, not 2.9"):
        zero_level_arrays(T2, seed=7, count=2.9)
    with pytest.raises(PhaseError, match="seed must be an integer, not 7.5"):
        checks.verify_fixture(get_fixture("s1-on-r2"), seed=7.5, count=1)
    x, u = zero_level_arrays(T2, seed=np.int64(7), count=np.int32(2))
    ex, eu = zero_level_arrays(T2, seed=7, count=2)
    assert x.tobytes() == ex.tobytes() and u.tobytes() == eu.tobytes()


@pytest.mark.parametrize("fixture_name", ["s1-on-r2", "t2-on-r4"])
def test_flow_checks_refuse_a_start_count_below_one(fixture_name):
    # the RK4 check flows start 0, so the battery needs at least one start;
    # a negative or bool count keeps the sampler's refusal
    fx = get_fixture(fixture_name)
    with pytest.raises(PhaseError, match="needs at least one start, got 0"):
        checks.flow_checks(fx, starts=0)
    with pytest.raises(PhaseError, match="sample count must be nonnegative, got -1"):
        checks.flow_checks(fx, starts=-1)
    for flag in (True, False):
        with pytest.raises(PhaseError, match=f"sample count must be an integer, not {flag}"):
            checks.flow_checks(fx, starts=flag)


def test_run_sizes_are_capped():
    # the caps themselves pass; one more sample or step is refused, and so
    # is a size that would not fit in memory
    check_run_inputs(count=MAX_SAMPLES, t_end=float(MAX_STEPS), step=1.0)
    with pytest.raises(PhaseError, match=f"sample count {MAX_SAMPLES + 1} exceeds"):
        check_run_inputs(count=MAX_SAMPLES + 1)
    with pytest.raises(PhaseError, match="sample count 1000000000000 exceeds"):
        check_run_inputs(count=10**12)
    with pytest.raises(PhaseError, match=f"flow steps exceeds the cap of {MAX_STEPS}"):
        check_run_inputs(t_end=float(MAX_STEPS) + 1.0, step=1.0)
    with pytest.raises(PhaseError, match="t_end / step = 2e[+]300 flow steps"):
        check_run_inputs(t_end=2.0, step=1e-300)


# ------------------------------------------------------------ membership

# exact dyadic points, cone via the scaled (5, 4, 3) triple
T2_MEMBERS = {
    "CC(e)": [0.625, 0.5, 0.375, 0.625, -0.5, 0.375],
    "Seam(e×S^1>e)": [0.625, 0.5, 0.375, 0.5, 0.0, 0.5],
    "Seam(S^1×e>e)": [0.5, 0.0, 0.5, 0.625, 0.5, 0.375],
    "Seam(T^2>e)": [0.5, 0.0, 0.5, 0.5, 0.0, 0.5],
    "CC(e×S^1)": [1.25, 1.0, 0.75, 0.0, 0.0, 0.0],
    "CC(S^1×e)": [0.0, 0.0, 0.0, 1.25, -1.0, 0.75],
    "Seam(T^2>e×S^1)": [1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    "Seam(T^2>S^1×e)": [0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
}


@pytest.mark.parametrize("piece", sorted(T2_MEMBERS))
def test_membership_hits_each_piece_exactly(piece):
    name, residual = check_reduced_membership(
        get_fixture("t2-on-r4"), np.array(T2_MEMBERS[piece])
    )
    assert name == piece
    assert residual == 0.0


def test_membership_of_the_circle_fixture_components():
    # both branches of the curve are one C-L piece, with no component name
    fx = get_fixture("s1-on-r2")
    left, _ = check_reduced_membership(fx, np.array([1.25, 1.0, 0.75]))
    right, _ = check_reduced_membership(fx, np.array([1.25, -1.0, 0.75]))
    vertex, _ = check_reduced_membership(fx, np.array([1.0, 0.0, 1.0]))
    assert (left, right, vertex) == ("CC(e)", "CC(e)", "Seam(S^1>e)")


def test_membership_rejects_points_off_every_piece():
    with pytest.raises(NoMatchingStratumError) as err:
        check_reduced_membership(
            get_fixture("t2-on-r4"), np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        )
    assert str(err.value) == "no stratum matches the image (p1_1 = -1.000e+00)"
    # a NaN fails every test, so it matches no piece instead of all
    with pytest.raises(NoMatchingStratumError, match=r"\(p1_1 = nan\)"):
        check_reduced_membership(get_fixture("s1-on-r2"), np.full(3, np.nan))


# A band that is a power of two puts each "at" image below exactly on the
# band: every coordinate is dyadic and every test value comes out exact.
# beyond() moves a coordinate one ulp outward.
BAND = 2.0 ** -27  # 7.451e-09
H = 2.0 ** -28


def beyond(v):
    return np.nextafter(v, np.copysign(np.inf, v))


# name -> (image, located piece or None, its residual or the failed test);
# a t2-on-r4 image carries the tested plane first and a plane on the cone
# with p1 - p3 far beyond the band second
LOCATOR_CASES = {
    # |p1_1| within the band: plane 1 off S
    "p1 at +band": ([BAND, 0.0, -BAND, 1.25, -1.0, 0.75], "CC(S^1×e)", BAND),
    "p1 at -band": ([-BAND, 0.0, BAND, 1.25, -1.0, 0.75], "CC(S^1×e)", BAND),
    "p1 beyond +band": ([beyond(BAND), 0.0, -beyond(BAND), 1.25, -1.0, 0.75], "CC(e)", 0.0),
    "p1 beyond -band": ([beyond(-BAND), 0.0, BAND, 1.25, -1.0, 0.75], None,
                        "p1_1 = -7.451e-09"),
    # |p1_1 - p3_1| within the band: plane 1 off S_x; its cone value is
    # (p1 - p3)(p1 + p3) = band / 4
    "p1 - p3 at +band": ([0.125 + H, 0.0, 0.125 - H, 1.09375, 0.875, 0.65625],
                         "Seam(S^1×e>e)", BAND),
    "p1 - p3 at -band": ([0.125 - H, 0.0, 0.125 + H, 1.09375, 0.875, 0.65625],
                         "Seam(S^1×e>e)", BAND),
    "p1 - p3 beyond +band": ([beyond(0.125 + H), 0.0, 0.125 - H, 1.09375, 0.875, 0.65625],
                             "CC(e)", pytest.approx(BAND / 4)),
    "p1 - p3 beyond -band": ([0.125 - H, 0.0, beyond(0.125 + H), 1.09375, 0.875, 0.65625],
                             None, "p1_1 - p3_1 = -7.451e-09"),
    # the cone value 4 - p2^2 - 0 at and just over its band, the band
    # times max(1, p1^2) = 4: (2 - band)^2 rounds to 4 - 4 band, whose
    # residual, the value over 4, is the band; the failed test states the
    # value and the band in full, which differ in the eighth digit
    "cone at band": ([2.0, 2.0 - BAND, 0.0], "CC(e)", BAND),
    "cone beyond band": ([2.0, np.nextafter(2.0 - BAND, 0.0), 0.0], None,
                         "p1_1^2 - p2_1^2 - p3_1^2 = 2.980232327587373e-08, "
                         "beyond band * max(1, p1_1^2) = 2.9802322387695312e-08"),
    # the sum p1 + p3 - 2 at and just over the band, p2 on the cone
    "sum at band": ([1.25 + H, np.sqrt(1.0 + H), 0.75 + H], "CC(e)", BAND),
    "sum beyond band": ([1.25 + H, np.sqrt(1.0 + H), beyond(0.75 + H)], None,
                        "sum(p1 + p3) - 2 = 7.451e-09"),
    # the planes are tested in order, then the sum, then S nonempty
    "nan on plane 2": ([1.25, -1.0, 0.75, np.nan, 0.0, 0.0], None, "p1_2 = nan"),
    "every p1 in the band": ([0.0, 0.0, 1.0, BAND, 0.0, 1.0 - BAND], None,
                             "no plane has p1_j > 7.451e-09"),
}


@pytest.mark.parametrize("case", sorted(LOCATOR_CASES))
def test_locator_at_each_boundary_of_the_band(case):
    image, piece_name, expected = LOCATOR_CASES[case]
    image = np.array(image)
    fx = get_fixture("s1-on-r2" if image.size == 3 else "t2-on-r4")
    piece, residual, _ = locate_rows(fx, image[None, :], BAND)
    if piece_name is None:
        assert piece.tolist() == [-1] and np.isnan(residual[0])
        with pytest.raises(NoMatchingStratumError) as err:
            check_reduced_membership(fx, image, BAND)
        assert str(err.value) == f"no stratum matches the image ({expected})"
    else:
        assert fx.result.pieces[piece[0]] == piece_name
        assert residual[0] == expected
        assert check_reduced_membership(fx, image, BAND) == (piece_name, expected)


# a t2-on-r4 point whose first plane carries p1_1 = |x_1|^2 = 9e-10, inside
# the 1e-8 band, so S is the second plane alone and the point lies in
# CC(S^1×e); with x_1 = 1.5e-4, p1_1 = 2.25e-8 lies beyond the band and S
# holds both planes
BAND_EDGE_U = np.array([0.0, 0.0, 1.0, 0.0])


def band_edge_x(x1):
    return np.array([x1, 0.0, 0.5, 0.0])


def test_the_orbit_type_is_that_of_the_support_of_the_piece():
    fx = get_fixture("t2-on-r4")
    x = np.array([band_edge_x(3e-5), band_edge_x(1.5e-4)])
    tables = invariant_tables(x, np.array([BAND_EDGE_U, BAND_EDGE_U]))
    assert tables[0, 0, 0] < MEMBERSHIP_BAND < tables[1, 0, 0]
    piece, _, lower = locate_rows(fx, reduced_images(tables))
    result = fx.result
    assert [result.pieces[i] for i in piece] == ["CC(S^1×e)", "CC(e)"]
    assert [result.labels[t] for t in lower] == ["S^1×e", "e"]
    assert lower.tolist() == [result.lowers[i] for i in piece]


def test_the_reference_reads_the_support_at_the_band():
    # p1_1 = 9e-10 inside the band puts plane 1 off S, and p1_1 = 1.002e-8
    # just beyond it puts plane 1 on S, for the per-point reference as for
    # the locator
    fx = get_fixture("t2-on-r4")
    x = np.array([band_edge_x(3e-5), band_edge_x(1.001e-4)])
    u = np.array([BAND_EDGE_U, BAND_EDGE_U])
    tables = invariant_tables(x, u)
    assert tables[0, 0, 0] < MEMBERSHIP_BAND < tables[1, 0, 0]
    _, _, lower = locate_rows(fx, reduced_images(tables))
    ref = [ref_classify(fx.spec, PhasePoint(xi, ui)) for xi, ui in zip(x, u)]
    assert ref == [fx.result.labels[t] for t in lower] == ["S^1×e", "e"]


def test_verify_counts_a_band_edge_sample_in_the_type_of_its_piece(monkeypatch):
    # every probe draws the band-edge point: CC(S^1×e) lies in the contact
    # stratum of S^1×e, so its class is S^1×e, read off the same S, not the
    # e that sqrt(p1_1) = 3e-5 alone would suggest
    def band_edge_point(*args, **kwargs):
        return band_edge_x(3e-5)[None, :], BAND_EDGE_U[None, :]

    monkeypatch.setattr(checks, "zero_level_arrays", band_edge_point)
    fx = get_fixture("t2-on-r4")
    result = fx.result
    report = checks.verify_fixture(fx, count=1)
    assert len(report["probes"]) == len(result.pieces)
    for probe in report["probes"]:
        assert probe["class_counts"] == {"S^1×e": 1}
        assert probe["piece_counts"] == {"CC(S^1×e)": 1}
        lowers = {result.labels[result.lowers[result.pieces.index(name)]]: c
                  for name, c in probe["piece_counts"].items()}
        assert probe["class_counts"] == lowers


def with_pieces(fixture, pieces):
    """The fixture with its stratification's pieces replaced by ``pieces``,
    (name, upper label, lower label) triples; a pair may repeat."""
    result = fixture.result
    ranks = [(result.labels.index(k), result.labels.index(h)) for _, k, h in pieces]
    return dataclasses.replace(fixture, result=dataclasses.replace(
        result, pieces=tuple(name for name, _, _ in pieces),
        uppers=tuple(k for k, _ in ranks), lowers=tuple(h for _, h in ranks),
    ))


def test_membership_names_a_pair_of_supports_without_a_cell():
    # every test passes, but a hand-built stratification may lack the piece
    fx = with_pieces(get_fixture("s1-on-r2"), [("CC(e)", "e", "e")])
    assert check_reduced_membership(fx, np.array([1.25, 1.0, 0.75])) == ("CC(e)", 0.0)
    with pytest.raises(NoMatchingStratumError,
                       match=r"\(no piece for these supports\)$"):
        check_reduced_membership(fx, np.array([1.0, 0.0, 1.0]))


def test_membership_names_no_cell_for_an_empty_support():
    # every plane test and the sum pass with S empty (p3 is not tested off
    # S); a hand-built piece of the empty pair's types still names nothing
    fx = with_pieces(get_fixture("t2-on-r4"),
                     [("CC(e)", "e", "e"), ("nowhere", "T^2", "T^2")])
    image = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    piece, residual, _ = locate_rows(fx, image[None, :])
    assert piece.tolist() == [-1] and np.isnan(residual).all()
    with pytest.raises(NoMatchingStratumError, match="no plane has p1_j > "):
        check_reduced_membership(fx, image)


def test_membership_matches_the_seam_strictly_just_off_it():
    # just off the sig seam: sig1 - sig3 = 5e-9 lies inside the band, so
    # the seam claims the image while the implied sig2 = 0 fails by 1e-5
    fx = get_fixture("t2-on-r4")
    image = np.array([0.625, 0.5, 0.375, 0.5 + 2.5e-9, 1e-5, 0.5 - 2.5e-9])
    piece, residual, _ = locate_rows(fx, image[None, :])
    assert fx.result.pieces[piece[0]] == "Seam(e×S^1>e)"
    # the worst equality is p1_2 - p3_2 itself
    assert residual[0] == pytest.approx(5e-9)
    assert check_reduced_membership(fx, image) == ("Seam(e×S^1>e)", residual[0])
    # at a band below 5e-9 the plane moves to S_x, and its cone value
    # 5e-9 - 1e-10 fails there
    with pytest.raises(NoMatchingStratumError,
                       match=r"\(p1_2\^2 - p2_2\^2 - p3_2\^2 = 4.899999961338608e-09, "
                             r"beyond band \* max\(1, p1_2\^2\) = 4e-09\)$"):
        check_reduced_membership(fx, image, band=4e-9)


def test_membership_band_hands_off_without_gaps_or_overlap():
    fx = get_fixture("s1-on-r2")
    # while p1 - p3 is inside the band the vertex seam claims the point;
    # beyond it CC(e) takes over, on either flank of the cone
    images = np.array([
        [1 + e / 2, sign * np.sqrt(2 * e), 1 - e / 2]
        for e, sign in ((5e-9, 1.0), (5e-9, -1.0), (2e-8, 1.0), (2e-8, -1.0))
    ])
    piece, _, _ = locate_rows(fx, images)
    assert [fx.result.pieces[p] for p in piece] == [
        "Seam(S^1>e)", "Seam(S^1>e)", "CC(e)", "CC(e)"
    ]


@pytest.mark.parametrize("band", [np.nan, 0.0, -1e-8, np.inf])
def test_membership_refuses_a_band_that_is_not_finite_and_positive(band):
    image = np.array([1.0, 0.0, 1.0])
    fx = get_fixture("s1-on-r2")
    with pytest.raises(PhaseError, match="band must be finite and positive"):
        locate_rows(fx, image[None, :], band)
    with pytest.raises(PhaseError, match="band must be finite and positive"):
        check_reduced_membership(fx, image, band)


# This start on Seam(e×S^1>e) flowed to t = 0.5 lands at
# rho1 - rho3 = 9.99e-9, inside the 1e-8 band, with rho2 = -1.1e-4.  The
# seam states rho1 = rho3 by eq("p1_1 - p3_1") and the rho cone equation,
# not by the implied eq("p2_1"), so it claims the point that the gt
# constraint of CC(e) refuses.
def test_seam_flow_start_in_the_band_gap_matches_a_piece():
    start = PhasePoint(
        (-0.0711453707959346, 0.38236702400407135, 0.0, 0.0),
        (0.14226488487490266, -0.7645950824534425, -0.3395173180554032,
         0.5290397462951251),
    )
    end = flow_exact(start, 0.5)
    name, residual = check_reduced_membership(
        get_fixture("t2-on-r4"), reduced_images(invariant_tables(end.x, end.u))
    )
    assert name == "Seam(S^1×e>e)"
    assert residual <= MEMBERSHIP_BAND


@pytest.mark.parametrize("fixture_name", ["s1-on-r2", "t2-on-r4"])
def test_flowed_probe_samples_match_exactly_one_piece(fixture_name):
    # the exact Reeb flow moves each sample along a line in the base; on
    # t2-on-r4 a few lines per seed cross a seam within the band on the grid
    fx = get_fixture(fixture_name)
    times = np.linspace(0.0, 2.0, 101)
    for seed in range(4):
        for cell in fixture_probe_cells(fx):
            x, u = zero_level_arrays(
                fx.spec, seed=seed, count=200,
                support_pattern=cell.support_x, covector_pattern=cell.support,
            )
            xs = np.concatenate([flowed_base(x, u, t) for t in times])
            us = np.tile(u, (times.size, 1))
            piece, _, _ = locate_rows(fx, reduced_images(invariant_tables(xs, us)))
            assert (piece >= 0).all(), (seed, cell.name, int(np.sum(piece < 0)))


@given(st.sampled_from(["s1-on-r2", "t2-on-r4"]), st.integers(0, 2**16),
       st.floats(1.0, 1e3))
@example("s1-on-r2", 0, 1e3)
@example("t2-on-r4", 0, 1e3)
def test_scaled_base_points_stay_in_their_pieces(fixture_name, seed, scale):
    # scaling the base point by s keeps J = 0, |u| = 1 and both supports,
    # while the cone value's rounding grows like eps p1^2 ~ eps s^4 |x|^4;
    # its band scales with p1^2, so every row keeps its piece, and its
    # residual, the cone value over max(1, p1^2), stays within the band
    fx = get_fixture(fixture_name)
    for idx, (probe, support_x, support) in enumerate(fx.probes):
        x, u = zero_level_arrays(fx.spec, seed=seed + idx, count=200,
                                 support_pattern=support_x, covector_pattern=support)
        at_one, _, _ = locate_rows(fx, reduced_images(invariant_tables(x, u)))
        scaled, residual, _ = locate_rows(fx, reduced_images(invariant_tables(scale * x, u)))
        assert (at_one == probe).all()
        assert scaled.tolist() == at_one.tolist(), (idx, int(np.sum(scaled != at_one)))
        assert (residual <= MEMBERSHIP_BAND).all(), (idx, float(np.max(residual)))


@pytest.mark.parametrize("fixture_name", ["s1-on-r2", "t2-on-r4"])
def test_sampled_probes_land_in_their_pieces(fixture_name):
    fx = get_fixture(fixture_name)
    for cell in fixture_probe_cells(fx):
        x, u = zero_level_arrays(
            fx.spec,
            seed=101,
            count=40,
            support_pattern=cell.support_x,
            covector_pattern=cell.support,
        )
        for xi, ui in zip(x, u):
            name, residual = check_reduced_membership(
                fx, hilbert_map(fx.spec, PhasePoint(xi, ui))
            )
            assert residual <= MEMBERSHIP_BAND
            assert name == cell.name
        _, _, lower = locate_rows(fx, reduced_images(invariant_tables(x, u)))
        assert {fx.result.labels[t] for t in lower} == {cell.expect_class}


@pytest.mark.parametrize("fixture_name, width", [("s1-on-r2", 6), ("s1-on-r2", 2),
                                                 ("t2-on-r4", 7)])
def test_membership_refuses_images_of_another_width(fixture_name, width):
    # read as planes of the image, the 6-wide image on one plane was located
    # in Seam(S^1>e), the 2-wide one raised IndexError and the 7-wide one on
    # two planes ValueError
    fx = get_fixture(fixture_name)
    image = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])[:width]
    for call in (lambda: check_reduced_membership(fx, image),
                 lambda: locate_rows(fx, image[None, :]),
                 lambda: locate_rows(fx, image)):
        with pytest.raises(PhaseError, match=f"expected .*{3 * fx.spec.n}") as err:
            call()
        assert type(err.value) is PhaseError


def test_get_fixture_unknown_name():
    with pytest.raises(KeyError):
        get_fixture("nope")


# -------------------------------------------------------- kernel oracles
#
# The phase kernels as they stood when they reduced over a plane's two
# coordinates and over the planes; the kernels on per-plane columns must
# give the same bits.

def reference_invariant_tables(x, u):
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    xs = x.reshape(x.shape[:-1] + (x.shape[-1] // 2, 2))
    us = u.reshape(u.shape[:-1] + (u.shape[-1] // 2, 2))
    xx = np.sum(xs * xs, axis=-1)
    uu = np.sum(us * us, axis=-1)
    return np.stack([
        xx + uu,
        2.0 * np.sum(xs * us, axis=-1),
        uu - xx,
        xs[..., 0] * us[..., 1] - xs[..., 1] * us[..., 0],
    ], axis=-1)


def reference_locate_rows(fixture, images, band):
    p1, p2, p3 = images[:, 0::3], images[:, 1::3], images[:, 2::3]
    diff = p1 - p3
    cone = np.abs((p1 * p1 - p2 * p2) - p3 * p3) / np.maximum(1.0, p1 * p1)
    total = np.full(len(images), -2.0)
    for j in range(p1.shape[1]):
        total = total + p1[:, j] + p3[:, j]
    on = p1 > band
    on_x = on & (diff > band)
    plane_ok = (np.abs(p1) <= band) | (
        on & (cone <= band) & (on_x | (np.abs(diff) <= band))
    )
    ok = plane_ok.all(axis=1) & (np.abs(total) <= band) & on.any(axis=1)
    planes = np.where(on, np.fmax(cone, np.where(on_x, 0.0, np.abs(diff))), np.abs(p1))
    residual = np.fmax(np.max(planes, axis=1), np.abs(total))
    n = p1.shape[1]
    bits = 1 << np.arange(n)
    keys, inverse = np.unique((on_x @ bits) << n | on @ bits, return_inverse=True)
    # the piece of the labels of the two supports, the later one of a pair
    # listed twice
    result, table = fixture.result, support_lattices(fixture.spec)
    piece_of = {(result.labels[k], result.labels[h]): i
                for i, (k, h) in enumerate(zip(result.uppers, result.lowers))}

    def label(mask):
        return class_label(fixture.spec.k, table[mask])

    found = np.array([piece_of.get((label(k >> n), label(k & (1 << n) - 1)), -1)
                      for k in keys.tolist()], dtype=int)
    piece = np.where(ok, found[inverse.reshape(-1)], -1)
    return piece, np.where(piece >= 0, residual, np.nan)


def reference_orbit_labels(spec, masks):
    table = support_lattices(spec)
    keys, inverse = np.unique(masks @ (1 << np.arange(spec.n)), return_inverse=True)
    of_key = [class_label(spec.k, table[key]) for key in keys.tolist()]
    labels, position = np.unique(np.array(of_key, dtype=str), return_inverse=True)
    return labels.tolist(), position[inverse.reshape(-1)]


def reference_momenta(spec, tables):
    weights = np.array(spec.weights, dtype=float)
    return (weights @ tables[..., 3, None])[..., 0]


def reference_base_ok(base):
    return (base.reshape(len(base), base.shape[1] // 2, 2) != 0).any(axis=2).all(axis=1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ZEROS = [0.0, -0.0]
NANS = [np.nan, -np.nan, float(np.array(0x7FF8_0000_0000_0001).view(float))]
# a plane is exactly zero, mixes a signed zero or a NaN with a number, or is
# drawn; the numbers stay below 1e100, so no square overflows
NUMBERS = st.floats(-1e100, 1e100)
PLANES = st.one_of(
    st.tuples(st.sampled_from(ZEROS), st.sampled_from(ZEROS)),
    st.tuples(st.sampled_from(ZEROS + [np.nan, 1.0]), NUMBERS).flatmap(st.permutations),
    st.tuples(NUMBERS, NUMBERS),
)
# also infinities and NaNs of either sign and any payload
ANY_PLANES = PLANES | st.tuples(st.floats(width=64), st.sampled_from(NANS + [np.inf, 0.0]))


@st.composite
def coordinate_rows(draw, planes=PLANES, max_planes=4, max_rows=6):
    n = draw(st.integers(1, max_planes))
    rows = st.lists(planes, min_size=n, max_size=n).map(lambda ps: [c for p in ps for c in p])
    count = draw(st.integers(0, max_rows))
    x = np.array(draw(st.lists(rows, min_size=count, max_size=count)), dtype=float)
    u = np.array(draw(st.lists(rows, min_size=count, max_size=count)), dtype=float)
    return x.reshape(count, 2 * n), u.reshape(count, 2 * n)


@given(coordinate_rows())
@example((np.array([[0.0, 0.0]]), np.array([[-0.6, -0.8]])))
@example((np.array([[-0.0, 0.0, 1.0, 0.0]]), np.array([[0.6, -0.0, -0.8, 0.0]])))
@example((np.full((3, 4), np.nan), np.full((3, 4), np.nan)))
def test_invariant_tables_match_the_reference_bit_for_bit(rows):
    x, u = rows
    assert same_bits(invariant_tables(x, u), reference_invariant_tables(x, u))
    for xi, ui in zip(x, u):
        assert same_bits(invariant_tables(xi, ui), reference_invariant_tables(xi, ui))


# Where two different NaNs meet in one operation (a NaN input and the
# negative NaN of inf - inf, say), which comes out depends on the inner
# loop numpy picks for the size and layout of the arrays: the reference
# itself gives other NaN bits for a row alone than for the row in a batch.
# No output tells NaNs apart, so here only the numbers keep their bits.
@given(coordinate_rows(ANY_PLANES))
def test_invariant_tables_match_the_reference_up_to_nan_payloads(rows):
    x, u = rows
    with np.errstate(all="ignore"):
        tables, reference = invariant_tables(x, u), reference_invariant_tables(x, u)
    nan = np.isnan(reference)
    assert (np.isnan(tables) == nan).all()
    assert same_bits(tables[~nan], reference[~nan])


def test_p2_of_a_zero_base_plane_is_positive_zero():
    # a bare x1 u1 + x2 u2 would give -0.0 here, which a CSV spells -0.0
    table = invariant_tables(np.array([0.0, -0.0]), np.array([-0.6, 0.8]))
    assert np.copysign(1.0, table[0, 1]) == 1.0


BUILTIN_SPECS = {fx.spec.n: fx.spec for fx in map(get_fixture, ("s1-on-r2", "t2-on-r4"))}


@given(coordinate_rows(max_planes=max(BUILTIN_SPECS)))
@example((np.array([[0.0, 0.0, 1.0, 0.0]]), np.array([[-0.0, 0.6, -0.8, -0.0]])))
@example((np.array([[np.nan, 0.0, 1.0, -0.0]]), np.array([[0.0, 1.0, np.nan, 2.0]])))
def test_momenta_of_the_builtin_weights_match_the_reference_bit_for_bit(rows):
    # weights of 0 and 1: every product is exact, and the 2-D product keeps
    # the stacked product's bits, its signed zeros and NaNs among them
    x, u = rows
    spec = BUILTIN_SPECS[x.shape[1] // 2]
    tables = invariant_tables(x, u)
    assert same_bits(momenta(spec, tables), reference_momenta(spec, tables))
    for table in tables:
        assert same_bits(momenta(spec, table), reference_momenta(spec, table))


@given(weight_specs(max_k=MAX_PLANES, max_n=MAX_PLANES, max_weight=16), st.data())
def test_momenta_are_within_roundoff_of_the_exact_sum(spec, data):
    # n rounded products and n - 1 rounded sums, in any order, with or
    # without fused multiply-adds: |J - exact| <= gamma_n sum |a p4| with
    # gamma_n = n u / (1 - n u) <= n eps; an underflowing sum is exact
    count = data.draw(st.integers(0, 4))
    p4 = np.array(data.draw(st.lists(
        st.lists(st.floats(-1e100, 1e100), min_size=spec.n, max_size=spec.n),
        min_size=count, max_size=count,
    )), dtype=float).reshape(count, spec.n)
    tables = np.zeros((count, spec.n, 4))
    tables[..., 3] = p4
    j = momenta(spec, tables)
    assert j.shape == (count, spec.k)
    bound = spec.n * Fraction(np.finfo(float).eps)
    for row, values in zip(p4.tolist(), j.tolist()):
        for weights, value in zip(spec.weights, values):
            terms = [Fraction(a) * Fraction(p) for a, p in zip(weights, row)]
            assert abs(Fraction(value) - sum(terms)) <= bound * sum(map(abs, terms))


# a fixture whose pieces are a drawn list of the pieces of a generated one:
# some support pairs have no piece, and a pair may have two
@st.composite
def fixtures_with_drawn_cells(draw):
    spec = draw(st.one_of(
        st.sampled_from([S1, T2]),
        weight_specs(max_n=3).filter(lambda s: len(support_lattices(s)[(1 << s.n) - 1]) == s.n),
    ))
    full = build_fixture("drawn", "", spec)
    r = full.result
    pieces = [(name, r.labels[k], r.labels[h])
              for name, k, h in zip(r.pieces, r.uppers, r.lowers)]
    drawn = draw(st.one_of(
        st.just(pieces),
        st.lists(st.sampled_from(pieces), max_size=len(pieces) + 2),
    ))
    return full, with_pieces(full, drawn)


BAND_EDGES = [BAND, -BAND, beyond(BAND), beyond(-BAND), H, 0.0, -0.0] + NANS


@st.composite
def image_rows(draw, full):
    """(N, 3n) reduced images of sampled probes of ``full``, with drawn
    coordinates set to or moved by a value at an edge of the band, and the
    locator's boundary cases when they have the width."""
    n = full.spec.n
    cell = draw(st.sampled_from(fixture_probe_cells(full)))
    x, u = zero_level_arrays(
        full.spec, seed=draw(st.integers(0, 2**16)), count=draw(st.integers(0, 6)),
        support_pattern=cell.support_x, covector_pattern=cell.support,
    )
    images = reduced_images(invariant_tables(x, u))
    for _ in range(draw(st.integers(0, 4)) if len(images) else 0):
        i, c = draw(st.integers(0, len(images) - 1)), draw(st.integers(0, 3 * n - 1))
        value = draw(st.sampled_from(BAND_EDGES))
        if draw(st.booleans()):
            value = images[i, c] + value
        images[i, c] = value
    cases = [image for image, _, _ in LOCATOR_CASES.values() if len(image) == 3 * n]
    extra = draw(st.lists(st.sampled_from(cases), max_size=3)) if cases else []
    return np.concatenate([images, np.array(extra, dtype=float).reshape(-1, 3 * n)])


@given(st.data())
def test_locate_rows_matches_the_reference_bit_for_bit(data):
    full, fx = data.draw(fixtures_with_drawn_cells())
    images = data.draw(image_rows(full))
    band = data.draw(st.sampled_from([BAND, MEMBERSHIP_BAND, 1e-3]))
    with np.errstate(all="ignore"):
        piece, residual, _ = locate_rows(fx, images, band)
        ref_piece, ref_residual = reference_locate_rows(fx, images, band)
    assert same_bits(piece, ref_piece)
    assert same_bits(residual, ref_residual)


@st.composite
def specs_with_masks(draw):
    spec = draw(weight_specs(max_n=4))
    count = draw(st.integers(0, 12))
    masks = np.array(
        draw(st.lists(st.lists(st.booleans(), min_size=spec.n, max_size=spec.n),
                      min_size=count, max_size=count)),
        dtype=bool,
    ).reshape(count, spec.n)
    return spec, masks


EVERY_SUPPORT = (np.arange(1 << MAX_PLANES)[:, None] >> np.arange(MAX_PLANES)) & 1 == 1


@given(specs_with_masks())
@example((CAP_SPEC, np.zeros((3, MAX_PLANES), dtype=bool)))
@example((CAP_SPEC, np.zeros((0, MAX_PLANES), dtype=bool)))
@example((CAP_SPEC, EVERY_SUPPORT[::-1]))
def test_orbit_labels_match_the_reference(case):
    # the locator reads S off images (1/|S|, 0, 1/|S|) on S and 0 off S; a
    # spec of rank below n has no fixture, so it is given one with no pieces
    spec, masks = case
    images = np.zeros((len(masks), spec.n, 3))
    images[..., 0] = images[..., 2] = masks / np.maximum(masks.sum(axis=1, keepdims=True), 1)
    labels = support_types(spec)[0]
    fx = SimpleNamespace(name="drawn", spec=spec,
                         piece_at=np.full((len(labels), len(labels)), -1))
    _, _, lower = locate_rows(fx, images.reshape(len(masks), 3 * spec.n))
    ref_labels, ref_index = reference_orbit_labels(spec, masks)
    assert lower.dtype == np.intp and lower.shape == (len(masks),)
    assert sorted({labels[t] for t in lower.tolist()}) == ref_labels
    assert [labels[t] for t in lower.tolist()] == [ref_labels[i] for i in ref_index.tolist()]


@given(st.integers(1, 4).flatmap(lambda planes: st.lists(
    st.lists(PLANES, min_size=planes, max_size=planes), max_size=6)))
@example([[(0.0, -0.0), (1.0, 0.0)], [(-0.0, -0.0), (-0.0, 0.0)], [(np.nan, 0.0), (0.0, 2.0)]])
def test_base_plane_check_matches_the_reference(rows):
    # base planes on all but the last plane and a unit covector on it, with
    # no weight rows to orthogonalize: a row is refused exactly when a base
    # plane is zero
    planes = len(rows[0]) if rows else 1
    base = np.array(rows, dtype=float).reshape(len(rows), 2 * planes)
    spec = TorusActionSpec(k=1, n=planes + 1, weights=((1,) * (planes + 1),))
    draws = np.concatenate([base, np.ones((len(base), 2))], axis=1)
    _, _, ok = phase._zero_level_rows(
        spec, np.arange(2 * planes), np.arange(2 * planes, 2 * planes + 2),
        np.zeros(0, dtype=int), draws,
    )
    assert same_bits(ok, reference_base_ok(base))


# -------------------------------------------------------------- base chart

def test_k0_projection_of_a_fiber_point():
    out = k0_project(np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    assert out.tolist() == [0.0, 0.0, 0.0, -1.0, 0.0, 1.0]


def test_k0_projection_accepts_rows():
    image = reduced_images(invariant_tables(np.array([1.0, 0.0]), np.array([1.0, 0.0])))
    out = k0_project(image)
    assert out.tolist() == [1.0, 0.0, -1.0]
    rows = k0_project(np.array([image, [3.0, 0.0, 0.0]]))
    assert rows.tolist() == [[1.0, 0.0, -1.0], [2.0, 0.0, -2.0]]
    with pytest.raises(PhaseError):
        k0_project(np.zeros(4))
