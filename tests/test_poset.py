"""Isotropy poset layer: closure, reduction, validation, serialization."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from cosphere import poset as poset_module
from cosphere.poset import (
    MAX_TYPES,
    InvalidPosetError,
    IsotropyPoset,
    NoUniqueMinimumError,
    OrbitType,
    PosetError,
    _bits,
    _violations,
    covers,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    principal_type,
    transitive_closure,
)
from order_oracles import pair_closure, pair_covers

LABELS = "ABCDEFGH"


def closure_oracle(pairs):
    """Boolean matrix powering; independent of the bitmask and DFS closures."""
    nodes = sorted({x for p in pairs for x in p})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for a, b in pairs:
        reach[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return frozenset(
        (nodes[i], nodes[j]) for i in range(n) for j in range(n) if reach[i][j]
    )


@st.composite
def digraphs(draw, max_nodes=8):
    """Labels and arbitrary pairs of them, cycles and loops included."""
    nodes = LABELS[:draw(st.integers(min_value=1, max_value=max_nodes))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                          max_size=12))
    return nodes, [tuple(p) for p in pairs]


@st.composite
def dags(draw, max_nodes=8):
    """Pairs compatible with the alphabetical order, hence acyclic."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = LABELS[:n]
    candidates = [(a, b) for a, b in itertools.combinations(nodes, 2)]
    chosen = draw(st.lists(st.sampled_from(candidates), max_size=14)) if candidates else []
    return nodes, [tuple(p) for p in chosen]


def tagged_poset(nodes, pairs):
    """A poset on ``nodes`` with generators ``pairs``: the types share
    dimension 0 and have distinct finite tags, so any acyclic order on them
    is a valid isotropy lattice."""
    types = tuple(OrbitType(label, 0, finite_tag=label) for label in nodes)
    return IsotropyPoset(types, frozenset(pairs), dict.fromkeys(nodes, 0), 0, 0)


def cover_pairs(poset, masks):
    return {(poset.labels[s], poset.labels[t]) for t, mask in enumerate(masks)
            for s in _bits(mask)}


@given(digraphs())
def test_transitive_closure_matches_matrix_oracle(data):
    nodes, pairs = data
    closed = closure_oracle(pairs)
    assert pair_closure(pairs) == closed
    if any(a == b for a, b in closed):
        with pytest.raises(InvalidPosetError, match="order is not irreflexive"):
            tagged_poset(nodes, pairs)
    else:
        assert tagged_poset(nodes, pairs).order == closed


@given(dags())
def test_transitive_closure_is_idempotent(data):
    poset = tagged_poset(*data)
    assert transitive_closure(poset.under) == poset.under
    again = tagged_poset(data[0], poset.order)
    assert (again.order, again.under) == (poset.order, poset.under)


@given(dags())
def test_hasse_regenerates_the_closure(data):
    poset = tagged_poset(*data)
    assert transitive_closure(covers(poset.under)) == poset.under


@given(dags())
def test_hasse_has_no_composite_edges(data):
    poset = tagged_poset(*data)
    closed = poset.order
    reduced = cover_pairs(poset, covers(poset.under))
    for a, b in reduced:
        assert not any((a, c) in closed and (c, b) in closed for c, _ in closed)
    assert reduced == pair_covers(closure_oracle(data[1]))
    edges = set(re.findall(r'^  "(.*)" -> "(.*)";$', poset_to_dot(poset), re.M))
    assert edges == reduced


def test_hasse_drops_the_diagonal_shortcut():
    poset = tagged_poset("ABC", [("A", "B"), ("B", "C"), ("A", "C")])
    assert cover_pairs(poset, covers(poset.under)) == {("A", "B"), ("B", "C")}
    # within A and C, C covers A; entry B lists its covers among them too
    assert covers(poset.under, within=0b101) == [0, 0b001, 0b001]


def test_hasse_rejects_cycles():
    # a cyclic order never becomes a poset, so nothing reduces it
    with pytest.raises(InvalidPosetError, match=re.escape(
            "order is not irreflexive: ('A', 'A'); order is not antisymmetric: 'A' and 'B'")):
        tagged_poset("AB", [("A", "B"), ("B", "A")])
    with pytest.raises(InvalidPosetError, match=re.escape(
            "invalid isotropy poset: order is not irreflexive: ('A', 'A')")):
        tagged_poset("A", [("A", "A")])


def two_plane_poset():
    # the lattice of the 2-torus acting on two planes, by hand
    types = (
        OrbitType("e", 0, is_identity=True),
        OrbitType("S^1×e", 1),
        OrbitType("e×S^1", 1),
        OrbitType("T^2", 2),
    )
    order = {("e", "S^1×e"), ("e", "e×S^1"), ("S^1×e", "T^2"), ("e×S^1", "T^2")}
    dims = {"e": 4, "S^1×e": 2, "e×S^1": 2, "T^2": 0}
    return IsotropyPoset(types=types, order=order, dim_Q_of=dims, dim_G=2, dim_Q=4)


def test_post_init_stores_the_closure():
    poset = two_plane_poset()
    assert ("e", "T^2") in poset.order
    assert len(poset.order) == 5


def refused(text):
    """Construction must raise, naming the violation ``text``."""
    return pytest.raises(InvalidPosetError, match=re.escape(text))


def test_validate_accepts_the_reference_lattice():
    poset = two_plane_poset()  # an invalid poset raises here
    assert _violations(poset) == []


def test_validate_flags_empty_and_duplicate_types():
    with refused("invalid isotropy poset: type list is empty"):
        IsotropyPoset((), frozenset(), {}, 0, 0)
    with refused("orbit type labels are not unique"):
        IsotropyPoset(
            (OrbitType("A", 0), OrbitType("A", 0)),
            frozenset(),
            {"A": 1},
            1,
            1,
        )


def test_validate_flags_unknown_order_labels():
    with refused("order pair ('A', 'Z') references an unknown label"):
        IsotropyPoset(
            (OrbitType("A", 0, is_identity=True),),
            {("A", "Z")},
            {"A": 1},
            1,
            1,
        )


def test_validate_flags_bad_dimensions():
    with refused("type 'A': dim_H = 3 outside [0, dim_G]"):
        IsotropyPoset(
            (OrbitType("A", 3),),
            frozenset(),
            {"A": 1},
            2,
            1,
        )
    with refused("type 'A': dim_Q_of = 9 outside [0, dim_Q]"):
        IsotropyPoset(
            (OrbitType("A", 0, is_identity=True),),
            frozenset(),
            {"A": 9},
            1,
            3,
        )


def test_validate_flags_orbit_dimension_deficit():
    # an orbit of the trivial class has dimension dim_G = 2, so a
    # 1-dimensional orbit-type manifold cannot contain it
    with refused("type 'A': dim_Q_of = 1 below the orbit dimension 2"):
        IsotropyPoset(
            (OrbitType("A", 0, is_identity=True),),
            frozenset(),
            {"A": 1},
            2,
            4,
        )


def test_validate_flags_missing_and_extra_dim_entries():
    with pytest.raises(InvalidPosetError) as info:
        IsotropyPoset((OrbitType("A", 0),), frozenset(), {"B": 1}, 1, 2)
    out = str(info.value)
    assert "type 'A': missing dim_Q_of entry" in out
    assert "dim_Q_of entry 'B' matches no orbit type" in out


def test_validate_flags_two_identity_classes():
    with refused("more than one orbit type is flagged as the identity class"):
        IsotropyPoset(
            (OrbitType("A", 0, is_identity=True), OrbitType("B", 0, is_identity=True)),
            frozenset(),
            {"A": 2, "B": 2},
            1,
            2,
        )


def test_validate_flags_identity_with_finite_tag():
    with refused("type 'A': identity class must have dim 0 and no finite tag"):
        IsotropyPoset(
            (OrbitType("A", 0, is_identity=True, finite_tag="2"),),
            frozenset(),
            {"A": 2},
            1,
            2,
        )


def test_validate_flags_cycles_as_order_violations():
    with pytest.raises(InvalidPosetError, match="irreflexive|antisymmetric"):
        IsotropyPoset(
            (OrbitType("A", 0, is_identity=True), OrbitType("B", 1)),
            {("A", "B"), ("B", "A")},
            {"A": 2, "B": 1},
            1,
            2,
        )


def test_validate_flags_dimension_reversal_along_order():
    with refused("('A') < ('B') but dim 1 > 0: a subgroup cannot exceed"):
        IsotropyPoset(
            (OrbitType("A", 1), OrbitType("B", 0, is_identity=True)),
            {("A", "B")},
            {"A": 1, "B": 2},
            1,
            2,
        )


def test_validate_requires_distinct_finite_data_at_equal_dimension():
    IsotropyPoset(
        (OrbitType("A", 0, is_identity=True), OrbitType("B", 0, finite_tag="2")),
        {("A", "B")},
        {"A": 4, "B": 2},
        1,
        4,
    )
    with refused("('A') < ('B') with equal dimension and equal finite tag: "
                 "strict subconjugation needs distinct finite data"):
        IsotropyPoset(
            (OrbitType("A", 0, finite_tag="2"), OrbitType("B", 0, finite_tag="2")),
            {("A", "B")},
            {"A": 4, "B": 2},
            1,
            4,
        )


def chain_types(m):
    """A valid chain t0 < t1 < ... of m finite types, as constructor fields."""
    types = [OrbitType("t0", 0, is_identity=True)]
    types += [OrbitType(f"t{i}", 0, finite_tag=str(i + 1)) for i in range(1, m)]
    order = {(f"t{i}", f"t{i + 1}") for i in range(m - 1)}
    return types, order, {f"t{i}": 2 * m - i for i in range(m)}, 1, 2 * m


def test_the_type_cap_is_checked_before_the_closure(monkeypatch):
    assert len(IsotropyPoset(*chain_types(MAX_TYPES)).order) == MAX_TYPES * (MAX_TYPES - 1) // 2

    def no_closure(under):
        raise AssertionError("transitive_closure ran on an over-cap poset")

    monkeypatch.setattr(poset_module, "transitive_closure", no_closure)
    with pytest.raises(InvalidPosetError) as info:
        IsotropyPoset(*chain_types(MAX_TYPES + 1))
    # the cap alone: nothing else is checked on a refused size
    assert str(info.value) == (
        f"invalid isotropy poset: {MAX_TYPES + 1} orbit types exceeds the cap of {MAX_TYPES}"
    )


def test_unknown_order_labels_are_refused_before_the_closure(monkeypatch):
    def no_closure(under):
        raise AssertionError("transitive_closure ran on a poset with unknown labels")

    monkeypatch.setattr(poset_module, "transitive_closure", no_closure)
    # a chain from the one type through labels of no type: only the
    # generator pairs naming an unknown label are listed, not their closure
    order = {("e", "u0"), ("u0", "u1"), ("u1", "u2")}
    with pytest.raises(InvalidPosetError) as info:
        IsotropyPoset((OrbitType("e", 0, is_identity=True),), order, {"e": 2}, 1, 2)
    assert str(info.value) == (
        "invalid isotropy poset: order pair ('e', 'u0') references an unknown label; "
        "order pair ('u0', 'u1') references an unknown label; "
        "order pair ('u1', 'u2') references an unknown label"
    )


def test_is_subconjugate_is_the_closure_lookup():
    order = two_plane_poset().order
    assert ("e", "T^2") in order
    assert ("T^2", "e") not in order
    assert ("S^1×e", "e×S^1") not in order


def test_principal_type_of_the_reference_lattice():
    assert principal_type(two_plane_poset()).label == "e"


def test_principal_type_requires_a_unique_minimum():
    p = IsotropyPoset(
        (OrbitType("A", 0, is_identity=True), OrbitType("B", 0, finite_tag="3")),
        frozenset(),
        {"A": 2, "B": 2},
        1,
        2,
    )
    with pytest.raises(NoUniqueMinimumError):
        principal_type(p)


@st.composite
def valid_posets(draw):
    """Valid posets: dims strictly follow the order."""
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
    dims = {}
    for i, lab in enumerate(labels):
        low = dim_g - i
        dims[lab] = draw(st.integers(min_value=low, max_value=dim_q))
    return IsotropyPoset(
        types=types,
        order=frozenset(pairs),
        dim_Q_of=dims,
        dim_G=dim_g,
        dim_Q=dim_q,
    )


@given(valid_posets())
def test_generated_posets_validate(poset):
    # construction checked the poset; the order also strictly raises dim_H
    dim_h = {t.label: t.dim_H for t in poset.types}
    assert all(dim_h[a] < dim_h[b] for a, b in poset.order)


@given(valid_posets())
def test_json_round_trip(poset):
    back = poset_from_json(poset_to_json(poset))
    assert back == poset


def test_json_schema_of_the_reference_lattice():
    data = poset_to_json(two_plane_poset())
    assert set(data) == {"dim_Q", "dim_G", "types", "order"}
    assert data["order"] == sorted(data["order"])
    entry = data["types"][0]
    assert set(entry) == {"label", "dim_H", "dim_Q_of"}
    assert poset_from_json(data) == two_plane_poset()


def test_finite_tags_survive_the_round_trip():
    p = IsotropyPoset(
        (OrbitType("Z2", 0, finite_tag="2"), OrbitType("S^1", 1)),
        {("Z2", "S^1")},
        {"Z2": 2, "S^1": 0},
        1,
        2,
    )
    back = poset_from_json(poset_to_json(p))
    z2 = {t.label: t for t in back.types}["Z2"]
    assert z2.finite_tag == "2"
    assert not z2.is_identity
    assert back == p


def test_malformed_json_raises_poset_error():
    with pytest.raises(PosetError):
        poset_from_json({"types": [{"label": "A"}], "order": []})
    with pytest.raises(PosetError):
        poset_from_json({"dim_Q": 1, "dim_G": 1, "types": "x", "order": []})


def test_invalid_json_poset_is_refused_as_invalid_not_malformed():
    data = poset_to_json(two_plane_poset())
    data["order"].append(["T^2", "e"])
    with pytest.raises(InvalidPosetError, match=r"^invalid isotropy poset: order is not"):
        poset_from_json(data)


def test_dot_output_is_sorted_and_complete():
    dot = poset_to_dot(two_plane_poset())
    assert dot.startswith("digraph isotropy {")
    assert dot.count(" -> ") == 4  # covering relations only
    assert '"e" -> "T^2"' not in dot
    assert dot == poset_to_dot(two_plane_poset())
