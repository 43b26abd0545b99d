"""The fixtures' probes and piece names against independent routes: the
hand-written pieces (``hand_pieces``), the exact supports of the sampled
points, the cells of every support pair (``test_reference``), and the C-L
stratification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosphere import checks, phase, poset as poset_mod, reeb, strata, torus
from cosphere.fixtures import build_fixture, get_fixture
from cosphere.torus import RankDeficientError
from cosphere.torus import TorusActionSpec, support_lattices

from hand_pieces import oracle_labels
from test_reference import fixture_probe_cells, piece_name, ref_probe_cells

FIXTURES = ("s1-on-r2", "t2-on-r4")

# rank-n weight matrices beyond the builtins: a finite stabilizer, a
# non-diagonal lattice, three planes, and a torus larger than the planes
OTHER_SPECS = (
    TorusActionSpec(k=1, n=1, weights=((2,),)),
    TorusActionSpec(k=2, n=2, weights=((1, 1), (0, 1))),
    TorusActionSpec(k=3, n=3, weights=((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    TorusActionSpec(k=3, n=2, weights=((1, 0), (0, 1), (1, 1))),
)


def probe_samples(fixture, seed, count):
    """(cell, x, u) per probe, drawn from the probe's seed as verify does."""
    for idx, cell in enumerate(fixture_probe_cells(fixture)):
        x, u = phase.zero_level_arrays(
            fixture.spec, seed=checks._probe_seed(seed, idx), count=count,
            support_pattern=cell.support_x, covector_pattern=cell.support,
        )
        yield cell, x, u


def located_names(fixture, x, u):
    piece, _, _ = phase.locate_rows(
        fixture, phase.reduced_images(phase.invariant_tables(x, u))
    )
    names = np.array([*fixture.result.pieces, "(unlocated)"], dtype=object)
    return names[piece]


def support_labels(spec, x, u):
    """The piece of each zero-level row read off its exact supports: S_x
    where x_j is nonzero, S where (x_j, u_j) is."""
    xs, us = x.reshape(len(x), -1, 2), u.reshape(len(u), -1, 2)
    on_x = (xs != 0).any(axis=-1)
    on = on_x | (us != 0).any(axis=-1)
    return [piece_name(spec, np.flatnonzero(sx), np.flatnonzero(s))
            for sx, s in zip(on_x, on)]


def test_builtin_cells_keep_the_probe_order():
    # the probe order fixes each probe's seed, and so every sample stream
    cells = {name: [tuple(c) for c in fixture_probe_cells(get_fixture(name))]
             for name in FIXTURES}
    assert cells["s1-on-r2"] == [
        ("CC(e)", (0,), (0,), "e"),
        ("Seam(S^1>e)", (), (0,), "e"),
    ]
    assert cells["t2-on-r4"] == [
        ("CC(e)", (0, 1), (0, 1), "e"),
        ("Seam(e×S^1>e)", (0,), (0, 1), "e"),
        ("Seam(S^1×e>e)", (1,), (0, 1), "e"),
        ("Seam(T^2>e)", (), (0, 1), "e"),
        ("CC(e×S^1)", (0,), (0,), "e×S^1"),
        ("CC(S^1×e)", (1,), (1,), "S^1×e"),
        ("Seam(T^2>e×S^1)", (), (0,), "e×S^1"),
        ("Seam(T^2>S^1×e)", (), (1,), "S^1×e"),
    ]


@pytest.mark.parametrize("fixture_name", FIXTURES)
def test_generated_labels_agree_with_the_hand_written_pieces(fixture_name):
    fx = get_fixture(fixture_name)
    rows = 0
    for seed in range(32):
        for cell, x, u in probe_samples(fx, seed, 200):
            for t in (0.0, 0.25, 0.5, 1.0):
                xt = reeb.flowed_base(x, u, t)
                images = phase.reduced_images(phase.invariant_tables(xt, u))
                want = oracle_labels(fixture_name, images)
                got = located_names(fx, xt, u)
                assert got.tolist() == want.tolist(), (seed, cell.name, t)
                rows += len(x)
    assert rows == 32 * 4 * 200 * len(fx.probes)


def test_the_vertex_band_follows_p1_minus_p3_not_p2():
    # on the cone with p1 + p3 = 2, p1 - p3 = 8e-9 lies inside the band
    # while |p2| = sqrt(2 (p1 - p3)) = 1.26e-4 lies far outside it
    e = 8e-9
    images = np.array([[1 + e / 2, s * np.sqrt(2 * e), 1 - e / 2] for s in (1.0, -1.0)])
    fx = get_fixture("s1-on-r2")
    assert oracle_labels("s1-on-r2", images).tolist() == ["Seam(S^1>e)"] * 2
    piece, residual, _ = phase.locate_rows(fx, images)
    assert [fx.result.pieces[p] for p in piece] == ["Seam(S^1>e)"] * 2
    assert (residual <= phase.MEMBERSHIP_BAND).all()


@pytest.mark.parametrize("spec", [get_fixture(name).spec for name in FIXTURES] + list(OTHER_SPECS),
                         ids=lambda spec: str(spec.weights))
def test_probe_samples_land_in_the_piece_of_their_supports(spec):
    fx = build_fixture("generated", "", spec)
    for cell, x, u in probe_samples(fx, 3, 100):
        labels = support_labels(spec, x, u)
        assert labels == [cell.name] * len(x)
        assert located_names(fx, x, u).tolist() == labels
        _, _, lower = phase.locate_rows(
            fx, phase.reduced_images(phase.invariant_tables(x, u))
        )
        assert {fx.result.labels[t] for t in lower} == {cell.expect_class}


@pytest.mark.parametrize("spec", [get_fixture(name).spec for name in FIXTURES] + list(OTHER_SPECS),
                         ids=lambda spec: str(spec.weights))
def test_every_generated_name_is_a_piece_of_the_stratification(spec):
    fx = build_fixture("generated", "", spec)
    poset = torus.build_isotropy_poset(spec)
    assert fx.result == strata.cl_stratification(poset)
    names = [c.name for c in fixture_probe_cells(fx)]
    # at full rank one probe per pair S_x ⊆ S of plane sets, S nonempty,
    # each pair its own piece
    assert sorted(names) == sorted(fx.result.pieces) == sorted(s.name for s in fx.result.cl_strata)
    assert len(set(names)) == len(names) == 3 ** spec.n - 1
    assert names[0] == strata.cc_name(poset_mod.principal_type(poset).label)
    assert checks.verify_fixture(fx, seed=1, count=300)["passed"]


def test_generator_refuses_weights_of_rank_below_n():
    with pytest.raises(RankDeficientError, match="rank 1 < n = 2"):
        build_fixture("diagonal", "", TorusActionSpec(k=1, n=2, weights=((1, 1),)))


@st.composite
def full_rank_specs(draw, max_n=4, max_weight=5):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(n, n + 2))
    column = st.lists(st.integers(-max_weight, max_weight), min_size=k, max_size=k)
    columns = draw(st.lists(column.filter(any), min_size=n, max_size=n))
    return TorusActionSpec(k=k, n=n, weights=tuple(zip(*columns)))


@settings(max_examples=200)
@given(full_rank_specs().filter(lambda s: len(support_lattices(s)[(1 << s.n) - 1]) == s.n))
def test_probes_are_the_cells_of_every_support_pair(spec):
    # one probe per piece, at the top supports of its two types, is at full
    # rank one per support pair S_x ⊆ S, in the order of the pairs
    fx = build_fixture("drawn", "", spec)
    assert fixture_probe_cells(fx) == ref_probe_cells(spec)
