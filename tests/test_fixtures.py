"""The generated membership cells against independent routes: the
hand-written pieces (``hand_pieces``), the exact supports of the sampled
points, and the C-L stratification."""

import numpy as np
import pytest

from cosphere import checks, phase, poset as poset_mod, reeb, strata, torus
from cosphere.fixtures import generate_fixture, get_fixture
from cosphere.phase import RankDeficientError
from cosphere.torus import TorusActionSpec

from hand_pieces import oracle_labels
from test_torus import support_label

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
    """(cell, x, u) per cell, drawn from the cell's probe seed as verify does."""
    for idx, cell in enumerate(fixture.cells):
        x, u = phase.zero_level_arrays(
            fixture.spec, seed=checks._probe_seed(seed, idx), count=count,
            support_pattern=cell.support_x, covector_pattern=cell.support,
        )
        yield cell, x, u


def located_names(fixture, x, u):
    piece, _ = phase.locate_rows(
        fixture, phase.reduced_images(phase.invariant_tables(x, u))
    )
    names = np.array([c.name for c in fixture.cells] + ["(unlocated)"], dtype=object)
    return names[piece]


def support_labels(spec, x, u):
    """The piece of each zero-level row read off its exact supports: S_x
    where x_j is nonzero, S where (x_j, u_j) is."""
    xs, us = x.reshape(len(x), -1, 2), u.reshape(len(u), -1, 2)
    on_x = (xs != 0).any(axis=-1)
    on = on_x | (us != 0).any(axis=-1)
    labels = []
    for sx, s in zip(on_x, on):
        upper = support_label(spec, np.flatnonzero(sx))
        lower = support_label(spec, np.flatnonzero(s))
        labels.append(f"CC({lower})" if upper == lower else f"Seam({upper}>{lower})")
    return labels


def test_builtin_cells_keep_the_probe_order():
    # the cell order fixes each probe's seed, and so every sample stream
    cells = {
        name: [(c.name, c.support_x, c.support, c.expect_class)
               for c in get_fixture(name).cells]
        for name in FIXTURES
    }
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
    assert rows == 32 * 4 * 200 * len(fx.cells)


def test_the_vertex_band_follows_p1_minus_p3_not_p2():
    # on the cone with p1 + p3 = 2, p1 - p3 = 8e-9 lies inside the band
    # while |p2| = sqrt(2 (p1 - p3)) = 1.26e-4 lies far outside it
    e = 8e-9
    images = np.array([[1 + e / 2, s * np.sqrt(2 * e), 1 - e / 2] for s in (1.0, -1.0)])
    fx = get_fixture("s1-on-r2")
    assert oracle_labels("s1-on-r2", images).tolist() == ["Seam(S^1>e)"] * 2
    piece, residual = phase.locate_rows(fx, images)
    assert [fx.cells[p].name for p in piece] == ["Seam(S^1>e)"] * 2
    assert (residual <= phase.MEMBERSHIP_BAND).all()


@pytest.mark.parametrize("spec", [get_fixture(name).spec for name in FIXTURES] + list(OTHER_SPECS),
                         ids=lambda spec: str(spec.weights))
def test_probe_samples_land_in_the_piece_of_their_supports(spec):
    fx = generate_fixture("generated", "", spec)
    for cell, x, u in probe_samples(fx, 3, 100):
        labels = support_labels(spec, x, u)
        assert labels == [cell.name] * len(x)
        assert located_names(fx, x, u).tolist() == labels
        tables = phase.invariant_tables(x, u)
        labels, index = phase.orbit_labels(spec, phase.support_masks(tables))
        assert set(np.array(labels, dtype=object)[index]) == {cell.expect_class}


@pytest.mark.parametrize("spec", [get_fixture(name).spec for name in FIXTURES] + list(OTHER_SPECS),
                         ids=lambda spec: str(spec.weights))
def test_every_generated_name_is_a_piece_of_the_stratification(spec):
    fx = generate_fixture("generated", "", spec)
    poset = torus.build_isotropy_poset(spec)
    result = strata.cl_stratification(poset)
    names = [c.name for c in fx.cells]
    # one cell per pair S_x ⊆ S of plane sets, S nonempty
    assert len(set(names)) == len(names) == 3 ** spec.n - 1
    assert set(names) <= {s.name for s in result.cl_strata}
    assert names[0] == strata.cc_name(poset_mod.principal_type(poset).label)
    assert checks.verify_fixture(fx, seed=1, count=300)["passed"]


def test_generator_refuses_weights_of_rank_below_n():
    with pytest.raises(RankDeficientError, match="rank 1 < n = 2"):
        generate_fixture("diagonal", "", TorusActionSpec(k=1, n=2, weights=((1, 1),)))
