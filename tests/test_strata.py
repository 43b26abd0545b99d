"""Stratification layer: starred types, seam classification, C-L frontier.

The starred types and dim Q^(L) come from the formula here, not from the
code under test, and the frontier from the paper's five rules
(``frontier_oracle``).  What the report no longer lists, the pairs from
closure alone and the type each piece fibers over, is derived from the
report entries and compared with those oracles.  ``result_to_json`` is
the report as a dict with the frontier and ``hasse`` flattened to pairs,
the oracle of the ``reduce`` writer.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cosphere import strata as strata_mod, torus
from cosphere.cli import _reduce_report
from cosphere.poset import (
    MAX_TYPES,
    InvalidPosetError,
    IsotropyPoset,
    OrbitType,
)
from cosphere.strata import (
    StratumKind,
    cc_name,
    cl_stratification,
    contact_name,
    quotient_dims,
    result_to_dot,
    seam_name,
    semifree_diagnostics,
)
from cosphere.torus import ActionSpecError, TorusActionSpec, build_isotropy_poset
from order_oracles import pair_closure, pair_covers
from test_poset import chain_types
from test_torus import LADDER_K2_N8, weight_specs

LABELS = "ABCDEFGH"
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "lattice_golden.json"


def two_plane_poset():
    return build_isotropy_poset(TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1))))


def one_plane_poset():
    return build_isotropy_poset(TorusActionSpec(k=1, n=1, weights=((1,),)))


def quotient_dims_oracle(poset):
    """dim Q^(L) = dim Q_(L) - dim G + dim L of every type, by the formula."""
    return {t.label: poset.dim_Q_of[t.label] - poset.dim_G + t.dim_H for t in poset.types}


def starred_oracle(poset):
    """The types whose quotient stratum is at least one-dimensional."""
    return frozenset(label for label, d in quotient_dims_oracle(poset).items() if d >= 1)


def test_starred_lattice_of_the_two_plane_action():
    poset = two_plane_poset()
    dims = quotient_dims_oracle(poset)
    assert (dims["e"], dims["S^1×e"], dims["T^2"]) == (2, 1, 0)
    assert starred_oracle(poset) == {"e", "S^1×e", "e×S^1"}
    assert quotient_dims(poset) == dims
    assert cl_stratification(poset).starred == ("S^1×e", "e", "e×S^1")


def test_contact_strata_dimensions():
    strata = cl_stratification(two_plane_poset()).contact_strata
    dims = {s.name: s.dim for s in strata}
    assert dims == {"Contact(e)": 3, "Contact(S^1×e)": 1, "Contact(e×S^1)": 1}
    assert all(s.kind is StratumKind.CONTACT for s in strata)


def test_contact_frontier_pairs():
    assert contact_frontier(two_plane_poset()) == {
        ("Contact(S^1×e)", "Contact(e)"),
        ("Contact(e×S^1)", "Contact(e)"),
    }


def pieces_by_name(poset):
    return {s.name: s for s in cl_stratification(poset).cl_strata}


def test_classify_seam_degenerate_gives_the_cosphere_piece():
    s = pieces_by_name(two_plane_poset())["CC(e)"]
    assert s.kind is StratumKind.COSPHERE
    assert s.dim == 3
    assert (s.upper, s.lower) == ("e", "e")


def test_classify_seam_coisotropic_and_legendrian():
    pieces = pieces_by_name(two_plane_poset())
    co = pieces["Seam(S^1×e>e)"]
    assert (co.kind, co.dim) == (StratumKind.COISOTROPIC_SEAM, 2)
    assert (co.upper, co.lower) == ("S^1×e", "e")
    leg = pieces["Seam(T^2>e)"]
    assert (leg.kind, leg.dim) == (StratumKind.LEGENDRIAN_SEAM, 1)
    point = pieces["Seam(T^2>S^1×e)"]
    assert (point.kind, point.dim) == (StratumKind.LEGENDRIAN_SEAM, 0)
    # no piece over an unstarred lower type, none for an unordered pair
    assert not any(name.endswith(">T^2)") for name in pieces)
    assert "CC(T^2)" not in pieces and "Seam(e×S^1>S^1×e)" not in pieces


def test_secondary_strata_of_the_open_contact_stratum():
    result = cl_stratification(two_plane_poset())
    pieces = [s for s in result.cl_strata if s.lower == "e"]
    names = [p.name for p in pieces]
    assert names[0] == "CC(e)"
    assert pieces[0].open_dense
    assert set(names[1:]) == {"Seam(S^1×e>e)", "Seam(e×S^1>e)", "Seam(T^2>e)"}
    assert not any(p.open_dense for p in pieces[1:])


EXPECTED_TWO_PLANE_PIECES = {
    "CC(e)": (3, StratumKind.COSPHERE),
    "Seam(S^1×e>e)": (2, StratumKind.COISOTROPIC_SEAM),
    "Seam(e×S^1>e)": (2, StratumKind.COISOTROPIC_SEAM),
    "CC(S^1×e)": (1, StratumKind.COSPHERE),
    "CC(e×S^1)": (1, StratumKind.COSPHERE),
    "Seam(T^2>e)": (1, StratumKind.LEGENDRIAN_SEAM),
    "Seam(T^2>S^1×e)": (0, StratumKind.LEGENDRIAN_SEAM),
    "Seam(T^2>e×S^1)": (0, StratumKind.LEGENDRIAN_SEAM),
}

EXPECTED_TWO_PLANE_HASSE = {
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

EXPECTED_TWO_PLANE_CLOSURE_ONLY = {
    ("Seam(T^2>e×S^1)", "CC(e)"),
    ("Seam(T^2>e×S^1)", "Seam(e×S^1>e)"),
    ("Seam(T^2>e×S^1)", "Seam(S^1×e>e)"),
    ("Seam(T^2>S^1×e)", "CC(e)"),
    ("Seam(T^2>S^1×e)", "Seam(e×S^1>e)"),
    ("Seam(T^2>S^1×e)", "Seam(S^1×e>e)"),
}


def test_two_plane_cl_inventory():
    result = cl_stratification(two_plane_poset())
    got = {s.name: (s.dim, s.kind) for s in result.cl_strata}
    assert got == EXPECTED_TWO_PLANE_PIECES
    assert len(result.cl_strata) == 8
    assert [s.name for s in result.cl_strata if s.open_dense] == ["CC(e)"]
    assert result.starred == ("S^1×e", "e", "e×S^1")


def test_two_plane_frontier_closure_and_hasse():
    result = cl_stratification(two_plane_poset())
    assert len(result.frontier) == len(pairs(result.frontier)) == 19
    assert pairs(result.hasse) == sorted(EXPECTED_TWO_PLANE_HASSE)
    assert report_closure_only(written_report(result)) == EXPECTED_TWO_PLANE_CLOSURE_ONLY
    assert pair_closure(pairs(result.hasse)) == set(pairs(result.frontier))


def pairs(relation):
    """The (A, B) pairs of a relation's rows, in row order."""
    return [(a, b) for a, names in relation.rows for b in names]


def result_to_json(result):
    """The ``reduce`` report as a dict, the frontier and ``hasse`` as lists
    of (A, B) pairs: the oracle of the writer, whose text must be
    ``json.dumps(result_to_json(result), indent=2, sort_keys=True) + "\\n"``.

    Each entry states its pair as ``base_target`` (upper) and
    ``parent_contact`` (Contact(lower)); a seam also as ``seam_upper``.
    """
    def stratum_entry(s):
        entry = {
            "name": s.name,
            "kind": s.kind.value,
            "dim": s.dim,
            "base_target": s.upper,
            "parent_contact": contact_name(s.lower),
            "open_dense": s.open_dense,
        }
        if s.upper != s.lower:
            entry["seam_upper"] = s.upper
        return entry

    return {
        "cl_strata": [stratum_entry(s) for s in sorted(result.cl_strata, key=lambda s: s.name)],
        "contact_strata": [
            stratum_entry(s) for s in sorted(result.contact_strata, key=lambda s: s.name)
        ],
        "frontier": [[a, b] for a, b in pairs(result.frontier)],
        "hasse": [[a, b] for a, b in pairs(result.hasse)],
        "starred": sorted(result.starred),
        "piece_count": len(result.cl_strata),
        # the C-L pieces always refine the contact strata, strictly exactly
        # when the lattice has more than one orbit type
        "finer_than_contact": {"finer": True, "strict": len(result.labels) > 1},
        "smooth_total_space": result.smooth_total_space,
        "poset_valid": True,
    }


def written_report(result):
    """The report the ``reduce`` writer makes of a result, parsed."""
    return json.loads("".join(_reduce_report(result)))


def contact_frontier(poset):
    """Frontier pairs among contact strata: Contact(K) lies in the boundary
    of Contact(H) exactly when (H) < (K)."""
    starred = starred_oracle(poset)
    return frozenset(
        (contact_name(k), contact_name(h))
        for h, k in poset.order
        if h in starred and k in starred
    )


def frontier_oracle(poset):
    """The frontier, its closure-only pairs and its covers, re-derived from
    the five generation rules by triple enumeration, transitive closure and
    transitive reduction."""
    starred = starred_oracle(poset)
    order = poset.order
    labels = [t.label for t in poset.types]
    pairs = set()
    for h, k in order:
        if h in starred and k in starred:
            pairs.add((cc_name(k), cc_name(h)))
            pairs.add((cc_name(k), seam_name(k, h)))
        if h in starred:
            pairs.add((seam_name(k, h), cc_name(h)))
    for h, k, k2 in itertools.product(labels, repeat=3):
        if h in starred and (h, k) in order and (k, k2) in order:
            pairs.add((seam_name(k2, h), seam_name(k, h)))
    for h, h2, k in itertools.product(labels, repeat=3):
        if (
            h in starred
            and h2 in starred
            and (h, h2) in order
            and (h2, k) in order
        ):
            pairs.add((seam_name(k, h2), seam_name(k, h)))
    closed = pair_closure(pairs)
    return closed, closed - pairs, pair_covers(closed)


def pair_oracle(poset):
    """The (upper, lower) pair of every C-L piece by name: CC(H) is (H, H)
    and Seam(K>H) is (K, H), for H starred and (H) < (K)."""
    starred = starred_oracle(poset)
    pairs = {cc_name(h): (h, h) for h in starred}
    pairs.update({seam_name(k, h): (k, h) for h, k in poset.order if h in starred})
    return pairs


def report_pairs(report):
    """The (upper, lower) pair of every C-L piece, read off the report alone:
    upper is ``base_target``, and ``parent_contact`` is Contact(lower)."""
    return {
        e["name"]: (e["base_target"], e["parent_contact"][len("Contact("):-1])
        for e in report["cl_strata"]
    }


def report_closure_only(report):
    """The frontier pairs that come from closure alone, derived from the
    report: both coordinates of the pair move, and it is not CC(K) < CC(H)."""
    pair = report_pairs(report)

    def is_cc(name):
        return pair[name][0] == pair[name][1]

    return {
        (a, b) for a, b in report["frontier"]
        if pair[a][0] != pair[b][0] and pair[a][1] != pair[b][1]
        and not (is_cc(a) and is_cc(b))
    }


def assert_report_order(relation):
    """Rows in report order: one non-empty tuple row per first name, the
    pairs sorted, each pair once, and the length the number of pairs."""
    assert isinstance(relation.rows, tuple)
    assert all(isinstance(names, tuple) and names for _, names in relation.rows)
    firsts = [a for a, _ in relation.rows]
    assert len(firsts) == len(set(firsts))
    flat = pairs(relation)
    assert flat == sorted(set(flat))
    assert len(relation) == len(flat)


def assert_matches_oracle(poset):
    result = cl_stratification(poset)
    report = written_report(result)
    frontier, closure_only, hasse = frontier_oracle(poset)
    assert_report_order(result.frontier)
    assert_report_order(result.hasse)
    assert set(pairs(result.frontier)) == frontier
    # the writer spells its own frontier rows from the same block routine
    assert [tuple(p) for p in report["frontier"]] == pairs(result.frontier)
    assert set(pairs(result.hasse)) == hasse
    assert report_closure_only(report) == closure_only
    # each piece fibers over its upper type (base_target, the bundle target)
    assert report_pairs(report) == pair_oracle(poset)
    assert {s.name: (s.upper, s.lower) for s in result.cl_strata} == pair_oracle(poset)


def test_two_plane_frontier_matches_the_rule_oracle():
    assert_matches_oracle(two_plane_poset())


@pytest.mark.parametrize("cells", [1, 24, 64, 2000])
@pytest.mark.parametrize("spec", [
    TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1))),
    LADDER_K2_N8,
])
def test_frontier_rows_do_not_depend_on_the_block_size(spec, cells, monkeypatch):
    # blocks of one row, blocks of 3 rows with the last one cut short, one
    # block of all 8 pieces of the two-plane lattice, and blocks across
    # several lower types of the 38-type lattice
    monkeypatch.setattr(strata_mod, "_FRONTIER_CELLS", cells)
    assert_matches_oracle(build_isotropy_poset(spec))


@pytest.mark.parametrize("rows_per_block", [None, 1, 2, 7])
def test_frontier_rows_at_the_type_cap(rows_per_block, monkeypatch):
    # t0 < t1 < ... < t63, every type starred: the most pieces the type cap
    # admits, at the default block size, in blocks of one row, of two, and of
    # seven with the last one cut short
    result = cl_stratification(IsotropyPoset(*chain_types(MAX_TYPES)))
    count = len(result.pieces)
    if rows_per_block is not None:
        monkeypatch.setattr(strata_mod, "_FRONTIER_CELLS", rows_per_block * count)
    rows = strata_mod.frontier_rows(result, np.array(result.pieces, dtype=object))
    assert count == len(rows) == 2080
    # each piece as its pair of chain positions (K, H), t_i at position i
    position = [int(label[1:]) for label in result.labels]
    pair = [(position[k], position[h]) for k, h in zip(result.uppers, result.lowers)]
    # row (K', H'): the pieces (K, H) with H <= H' and H <= K <= K', but itself
    assert [len(row) for row in rows] == [
        sum(top - h + 1 for h in range(low + 1)) - 1 for top, low in pair]
    assert sum(map(len, rows)) == 1_485_120
    for i in range(0, count, 37):
        top, low = pair[i]
        assert rows[i] == [result.pieces[j] for j, (k, h) in enumerate(pair)
                           if j != i and h <= k <= top and h <= low]


def test_frontier_is_built_on_first_read_and_kept():
    result, other = cl_stratification(two_plane_poset()), cl_stratification(two_plane_poset())
    assert "frontier" not in vars(result)
    assert result.frontier is result.frontier
    assert "frontier" in vars(result) and "frontier" not in vars(other)
    # the kept frontier takes no part in ==, hash or repr: the table does
    assert result == other and hash(result) == hash(other)
    assert repr(result) == repr(other) and "frontier" not in repr(result)


VIEWS = ("cl_strata", "contact_strata", "starred")


def test_views_are_built_on_first_read_and_kept():
    result, other = cl_stratification(two_plane_poset()), cl_stratification(two_plane_poset())
    assert not set(VIEWS) & set(vars(result))
    for view in VIEWS:
        assert getattr(result, view) is getattr(result, view)
    assert set(VIEWS) <= set(vars(result)) and not set(VIEWS) & set(vars(other))
    assert result == other and hash(result) == hash(other)
    assert repr(result) == repr(other) and "Stratum(" not in repr(result)


def test_one_plane_inventory():
    result = cl_stratification(one_plane_poset())
    got = {s.name: (s.dim, s.kind) for s in result.cl_strata}
    assert got == {
        "CC(e)": (1, StratumKind.COSPHERE),
        "Seam(S^1>e)": (0, StratumKind.LEGENDRIAN_SEAM),
    }
    assert pairs(result.frontier) == [("Seam(S^1>e)", "CC(e)")]
    assert report_closure_only(written_report(result)) == set()


def test_cl_stratification_rejects_invalid_posets():
    # an invalid poset is refused when it is built, so none reaches
    # cl_stratification
    with pytest.raises(InvalidPosetError, match=r"dim_Q_of = 9 outside \[0, dim_Q\]"):
        IsotropyPoset(
            (OrbitType("A", 0, is_identity=True),),
            frozenset(),
            {"A": 9},
            1,
            3,
        )


@st.composite
def valid_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    labels = list(LABELS[:n])
    dim_g = n
    dim_q = draw(st.integers(min_value=dim_g, max_value=dim_g + 6))
    pairs = draw(
        st.lists(
            st.sampled_from(
                [(a, b) for a, b in itertools.combinations(labels, 2)] or [("A", "A")]
            ),
            max_size=10,
        )
    ) if n > 1 else []
    types = tuple(
        OrbitType(lab, i, is_identity=(i == 0)) for i, lab in enumerate(labels)
    )
    dims = {
        lab: draw(st.integers(min_value=dim_g - i, max_value=dim_q))
        for i, lab in enumerate(labels)
    }
    return IsotropyPoset(
        types=types,
        order=frozenset(pairs),
        dim_Q_of=dims,
        dim_G=dim_g,
        dim_Q=dim_q,
    )


def piece_table_reference(poset):
    """Each piece's (upper, lower), kind, dim and open_dense by name, and
    the ``hasse`` pairs, from label sets and :func:`pair_covers`: (K', H') covers
    (K, H') when K' covers K in the lattice, and (K', H) when H' covers H
    in the lattice restricted to starred types."""
    dims, starred = quotient_dims_oracle(poset), starred_oracle(poset)
    labels = [t.label for t in poset.types]
    below = {k: {k} | {a for a, b in poset.order if b == k} for k in labels}
    minimal = [k for k in labels if below[k] == {k}]
    pieces, name_of = {}, {}
    for k in labels:
        for h in below[k] & starred:
            if k == h:
                name, kind = cc_name(h), StratumKind.COSPHERE
            elif k in starred:
                name, kind = seam_name(k, h), StratumKind.COISOTROPIC_SEAM
            else:
                name, kind = seam_name(k, h), StratumKind.LEGENDRIAN_SEAM
            pieces[name] = ((k, h), kind, dims[k] + dims[h] - 1, minimal == [k] == [h])
            name_of[k, h] = name
    starred_order = frozenset((a, b) for a, b in poset.order if {a, b} <= starred)
    hasse = {(name_of[k, h], name_of[c, h])
             for c, k in pair_covers(poset.order) for h in starred if (c, h) in name_of}
    hasse |= {(name_of[k, h], name_of[k, c])
              for c, h in pair_covers(starred_order) for k in labels if (k, h) in name_of}
    return pieces, hasse


# labels that are prefixes of one another: "Z2 x" and "Z2×e" extend "Z2", so
# Seam(Z2 x>e) < Seam(Z2>e) < Seam(Z2×e>e) by name, and Contact(Z2 x) <
# Contact(Z2), while the types rank Z2 < Z2 x < Z2×e
PREFIX_LABELS = IsotropyPoset(
    types=(OrbitType("e", 0, is_identity=True), OrbitType("Z2", 0, finite_tag="2"),
           OrbitType("Z2 x", 1), OrbitType("Z2×e", 1, finite_tag="2"), OrbitType("T", 2)),
    order=frozenset({("e", "Z2"), ("Z2", "Z2 x"), ("Z2", "Z2×e"), ("Z2 x", "T"),
                     ("Z2×e", "T")}),
    dim_Q_of={"e": 6, "Z2": 4, "Z2 x": 3, "Z2×e": 4, "T": 0},
    dim_G=2,
    dim_Q=6,
)


def assert_piece_table_matches_the_reference(poset):
    result = cl_stratification(poset)
    pieces, hasse = piece_table_reference(poset)
    assert result.labels == tuple(sorted(t.label for t in poset.types))
    assert result.pieces == tuple(sorted(pieces))
    assert {s.name: ((s.upper, s.lower), s.kind, s.dim, s.open_dense)
            for s in result.cl_strata} == pieces
    assert [s.name for s in result.cl_strata] == sorted(pieces, key=lambda a: (-pieces[a][2], a))
    assert [s.name for s in result.contact_strata] == sorted(
        contact_name(h) for h in starred_oracle(poset))
    assert result.starred == tuple(sorted(starred_oracle(poset)))
    assert_report_order(result.hasse)
    assert set(pairs(result.hasse)) == hasse


def test_prefix_labels_order_names_apart_from_types():
    result = cl_stratification(PREFIX_LABELS)
    assert result.labels == ("T", "Z2", "Z2 x", "Z2×e", "e")
    seams = [name for name in result.pieces if name.startswith("Seam(Z2") and name.endswith(">e)")]
    assert seams == ["Seam(Z2 x>e)", "Seam(Z2>e)", "Seam(Z2×e>e)"]
    assert [s.name for s in result.contact_strata][:2] == ["Contact(Z2 x)", "Contact(Z2)"]
    assert_piece_table_matches_the_reference(PREFIX_LABELS)
    assert_matches_oracle(PREFIX_LABELS)


@given(st.one_of(valid_posets(), weight_specs()))
@example(PREFIX_LABELS)
@example(LADDER_K2_N8)
def test_fuzz_piece_table_matches_the_reference(source):
    if isinstance(source, TorusActionSpec):
        source = build_isotropy_poset(source)
    assert_piece_table_matches_the_reference(source)


# abstract posets, and torus lattices up to k=3, n=6 with the k=2, n=8 and
# k=3, n=6 reference specs of the benchmark ladder (38 and 47 orbit types)
@given(st.one_of(valid_posets(), weight_specs(max_n=6)))
@example(TorusActionSpec(k=2, n=8, weights=(
    (-4, 0, 0, -3, -2, -5, -1, 1),
    (2, -3, -1, 5, -3, 0, 5, -4),
)))
@example(TorusActionSpec(k=3, n=6, weights=(
    (4, 4, 4, -4, -1, -3),
    (-5, 4, -4, 2, -3, 3),
    (4, -2, 1, 3, 4, -2),
)))
def test_fuzz_frontier_matches_oracle(source):
    if isinstance(source, TorusActionSpec):
        source = build_isotropy_poset(source)
    assert_matches_oracle(source)


@given(valid_posets())
def test_fuzz_piece_inventory_shape(poset):
    result = cl_stratification(poset)
    starred = starred_oracle(poset)
    assert set(result.starred) == starred
    seam_pairs = [(l, h) for (l, h) in poset.order if l in starred]
    assert len(result.cl_strata) == len(starred) + len(seam_pairs)
    names = {s.name for s in result.cl_strata}
    for s in result.cl_strata:
        assert s.dim >= 0
    for a, b in pairs(result.frontier):
        assert a in names and b in names
        assert a != b
    assert set(pairs(result.hasse)) <= set(pairs(result.frontier))
    assert pair_closure(pairs(result.hasse)) == set(pairs(result.frontier))


@given(valid_posets())
def test_fuzz_seam_excess_identity(poset):
    starred = starred_oracle(poset)
    dims = quotient_dims_oracle(poset)
    pieces = {s.name: s for s in cl_stratification(poset).cl_strata}
    seam_pairs = [(l, h) for (l, h) in poset.order if l in starred]
    assert sum(s.upper != s.lower for s in pieces.values()) == len(seam_pairs)
    for lower, upper in seam_pairs:
        s = pieces[seam_name(upper, lower)]
        assert (s.upper, s.lower) == (upper, lower)
        d_low = dims[lower]
        assert s.dim - (d_low - 1) == dims[upper]
        expect_coiso = upper in starred
        assert (s.kind is StratumKind.COISOTROPIC_SEAM) == expect_coiso
        if s.kind is StratumKind.LEGENDRIAN_SEAM:
            contact_dim = 2 * d_low - 1
            assert s.dim == (contact_dim - 1) // 2


@given(valid_posets())
def test_fuzz_rule_one_is_the_contact_frontier(poset):
    result = cl_stratification(poset)
    cc_pairs = {
        (a, b) for a, b in pairs(result.frontier)
        if a.startswith("CC(") and b.startswith("CC(")
    }
    starred = starred_oracle(poset)
    expected = {
        (cc_name(k), cc_name(h))
        for (h, k) in poset.order
        if h in starred and k in starred
    }
    # closure adds no CC-to-CC pairs beyond rule (i): the order is transitive
    assert cc_pairs == expected
    contact_pairs = {
        (a.replace("Contact(", "CC("), b.replace("Contact(", "CC("))
        for a, b in contact_frontier(poset)
    }
    assert contact_pairs == expected


@given(valid_posets())
def test_fuzz_open_dense_piece(poset):
    result = cl_stratification(poset)
    opens = [s for s in result.cl_strata if s.open_dense]
    principal = poset.types[0]  # the strategy makes label index 0 minimal-dim
    has_min = all(
        (principal.label, t.label) in poset.order
        for t in poset.types
        if t.label != principal.label
    )
    if has_min and principal.label in starred_oracle(poset):
        assert [s.name for s in opens] == [cc_name(principal.label)]
    assert len(opens) <= 1


def content_digest(report):
    """sha256 of the sorted [name, dim, kind] list and the sorted frontier."""
    content = {
        "strata": sorted([s["name"], s["dim"], s["kind"]] for s in report["cl_strata"]),
        "frontier": sorted(report["frontier"]),
    }
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_lattice_reports():
    refused = 0
    for ref in json.loads(GOLDEN.read_text()):
        spec = TorusActionSpec(k=ref["k"], n=ref["n"],
                               weights=tuple(map(tuple, ref["weights"])))
        if ref["types"] > MAX_TYPES:
            with pytest.raises(ActionSpecError) as refusal:
                build_isotropy_poset(spec)
            assert str(refusal.value) == (
                f"{ref['types']} orbit types exceeds the cap of {MAX_TYPES}")
            refused += 1
            continue
        poset = build_isotropy_poset(spec)
        assert len(poset.types) == ref["types"]
        report = result_to_json(cl_stratification(poset))
        assert (report["piece_count"], len(report["frontier"])) == (
            ref["pieces"], ref["frontier_pairs"])
        assert content_digest(report) == ref["digest"]
    assert refused == 1


def test_golden_reports_derive_closure_only_and_targets():
    # the largest reports: up to 64 types, 599 pieces and 30,434 frontier pairs
    for ref in json.loads(GOLDEN.read_text()):
        if ref["types"] <= MAX_TYPES:
            assert_matches_oracle(build_isotropy_poset(TorusActionSpec(
                k=ref["k"], n=ref["n"], weights=tuple(map(tuple, ref["weights"])))))


def test_spec_over_the_type_cap_is_refused_before_the_type_build(monkeypatch):
    (ref,) = [r for r in json.loads(GOLDEN.read_text()) if r["types"] > MAX_TYPES]
    spec = TorusActionSpec(k=ref["k"], n=ref["n"], weights=tuple(map(tuple, ref["weights"])))

    def unreachable(*args, **kwargs):
        raise AssertionError("the type build ran for a refused spec")

    # labels, Smith invariants, the order pass and the poset's closure all
    # come after the support table
    for name in ("class_label", "_nontrivial_divisors", "IsotropyPoset"):
        monkeypatch.setattr(torus, name, unreachable)
    with pytest.raises(ActionSpecError, match=f"^{ref['types']} orbit types exceeds the cap"):
        build_isotropy_poset(spec)


def test_unstarred_middle_type_emits_no_ghost_seam():
    # A < B < C with B unstarred: rule (v) must not reference Seam(C>B)
    types = (
        OrbitType("A", 0, is_identity=True),
        OrbitType("B", 1),
        OrbitType("C", 2),
    )
    poset = IsotropyPoset(
        types=types,
        order={("A", "B"), ("B", "C")},
        dim_Q_of={"A": 4, "B": 1, "C": 0},
        dim_G=2,
        dim_Q=4,
    )
    result = cl_stratification(poset)
    assert result.starred == ("A",)
    names = {s.name for s in result.cl_strata}
    assert names == {"CC(A)", "Seam(B>A)", "Seam(C>A)"}
    for a, b in pairs(result.frontier):
        assert a in names and b in names


def test_finer_than_contact():
    def finer(poset):
        return written_report(cl_stratification(poset))["finer_than_contact"]

    assert finer(two_plane_poset()) == {"finer": True, "strict": True}
    single = IsotropyPoset(
        (OrbitType("e", 0, is_identity=True),),
        frozenset(),
        {"e": 3},
        0,
        3,
    )
    assert finer(single) == {"finer": True, "strict": False}


def test_bundle_targets_are_single_orbit_type_strata():
    result = cl_stratification(two_plane_poset())
    report = written_report(result)
    assert "bundle_targets" not in report and "closure_only" not in report
    targets = {name: upper for name, (upper, _) in report_pairs(report).items()}
    assert targets["CC(e)"] == "e"
    assert targets["Seam(T^2>e)"] == "T^2"
    assert targets["Seam(S^1×e>e)"] == "S^1×e"
    assert targets == {s.name: s.upper for s in result.cl_strata}
    # a seam also states its upper type, a cosphere-like piece does not
    for e in report["cl_strata"]:
        assert e.get("seam_upper") == (None if e["name"].startswith("CC(") else e["base_target"])


def test_semifree_decomposition_of_the_circle_action():
    poset = one_plane_poset()
    result = cl_stratification(poset)
    got = {s.name: s.dim for s in result.cl_strata}
    assert got == {"CC(e)": 1, "Seam(S^1>e)": 0}
    assert semifree_diagnostics(poset) == ()
    assert result.smooth_total_space
    assert written_report(result)["smooth_total_space"] is True
    seam = next(s for s in result.cl_strata if s.name.startswith("Seam"))
    assert seam.kind is StratumKind.LEGENDRIAN_SEAM


def test_semifree_decomposition_two_equal_planes():
    poset = build_isotropy_poset(TorusActionSpec(k=1, n=2, weights=((1, 1),)))
    result = cl_stratification(poset)
    assert result.smooth_total_space
    got = {s.name: s.dim for s in result.cl_strata}
    assert got == {"CC(e)": 5, "Seam(S^1>e)": 2}


def test_semifree_decomposition_rejects_the_two_plane_torus():
    poset = two_plane_poset()
    assert semifree_diagnostics(poset)
    assert not cl_stratification(poset).smooth_total_space
    assert written_report(cl_stratification(poset))["smooth_total_space"] is False


def test_semifree_decomposition_needs_a_principal_minimum():
    antichain = IsotropyPoset(
        (OrbitType("A", 0, is_identity=True), OrbitType("B", 0, finite_tag="2")),
        frozenset(),
        {"A": 2, "B": 2},
        1,
        2,
    )
    diagnostics = semifree_diagnostics(antichain)
    assert diagnostics[0].startswith("(a)")
    assert not cl_stratification(antichain).smooth_total_space


E = OrbitType("e", 0, is_identity=True)


@pytest.mark.parametrize("types, order, dim_q_of, dim_q, diagnostic", [
    # dim Q = dim G = 1: the free part has a point quotient, C_0 is empty
    ((E,), (), {"e": 1}, 1, "the principal type (e) is not starred, so C_0 is empty"),
    ((E, OrbitType("S", 1)), (("e", "S"),), {"e": 1, "S": 0}, 1,
     "the principal type (e) is not starred, so C_0 is empty"),
    # the free part fills only half of Q
    ((E,), (), {"e": 2}, 4, "the free part is not open dense: dim Q_(e) = 2 < dim Q = 4"),
])
def test_hand_posets_that_are_not_semifree(types, order, dim_q_of, dim_q, diagnostic):
    poset = IsotropyPoset(types, frozenset(order), dim_q_of, 1, dim_q)
    assert semifree_diagnostics(poset) == (diagnostic,)
    assert not cl_stratification(poset).smooth_total_space


def test_single_type_reduce():
    free = IsotropyPoset(
        (OrbitType("e", 0, is_identity=True),),
        frozenset(),
        {"e": 3},
        0,
        3,
    )
    (s,) = cl_stratification(free).cl_strata
    assert (s.name, s.dim, s.kind) == ("CC(e)", 5, StratumKind.COSPHERE)
    assert s.open_dense
    # transitive action: the quotient is a point, C_0 is empty
    point = IsotropyPoset(
        (OrbitType("e", 0, is_identity=True),),
        frozenset(),
        {"e": 2},
        2,
        2,
    )
    assert cl_stratification(point).cl_strata == ()


def test_result_json_schema_and_determinism():
    result = cl_stratification(two_plane_poset())
    data = written_report(result)
    assert data["piece_count"] == 8
    assert data["starred"] == ["S^1×e", "e", "e×S^1"]
    assert data["finer_than_contact"] == {"finer": True, "strict": True}
    assert data["frontier"] == sorted(data["frontier"])
    assert len(data["hasse"]) == 10
    assert data == written_report(cl_stratification(two_plane_poset())) == result_to_json(result)


def test_result_dot_lists_every_piece_and_cover():
    result = cl_stratification(two_plane_poset())
    dot = result_to_dot(result)
    for name in EXPECTED_TWO_PLANE_PIECES:
        assert f'"{name}"' in dot
    assert dot.count(" -> ") == 10
