"""Isotropy poset layer: closure, reduction, validation, serialization."""

import dataclasses
import itertools
import json
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
from order_oracles import pair_closure, pair_covers, pair_poset

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
    return IsotropyPoset.from_pairs(types, frozenset(pairs), dict.fromkeys(nodes, 0), 0, 0)


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
    return IsotropyPoset.from_pairs(types=types, order=order, dim_Q_of=dims, dim_G=2, dim_Q=4)


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
        IsotropyPoset.from_pairs((), frozenset(), {}, 0, 0)
    with refused("orbit type labels are not unique"):
        IsotropyPoset.from_pairs(
            (OrbitType("A", 0), OrbitType("A", 0)),
            frozenset(),
            {"A": 1},
            1,
            1,
        )


def test_validate_flags_unknown_order_labels():
    with refused("order pair ('A', 'Z') references an unknown label"):
        IsotropyPoset.from_pairs(
            (OrbitType("A", 0, is_identity=True),),
            {("A", "Z")},
            {"A": 1},
            1,
            1,
        )


def test_validate_flags_bad_dimensions():
    with refused("type 'A': dim_H = 3 outside [0, dim_G]"):
        IsotropyPoset.from_pairs(
            (OrbitType("A", 3),),
            frozenset(),
            {"A": 1},
            2,
            1,
        )
    with refused("type 'A': dim_Q_of = 9 outside [0, dim_Q]"):
        IsotropyPoset.from_pairs(
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
        IsotropyPoset.from_pairs(
            (OrbitType("A", 0, is_identity=True),),
            frozenset(),
            {"A": 1},
            2,
            4,
        )


def test_validate_flags_missing_and_extra_dim_entries():
    with pytest.raises(InvalidPosetError) as info:
        IsotropyPoset.from_pairs((OrbitType("A", 0),), frozenset(), {"B": 1}, 1, 2)
    out = str(info.value)
    assert "type 'A': missing dim_Q_of entry" in out
    assert "dim_Q_of entry 'B' matches no orbit type" in out


def test_validate_flags_two_identity_classes():
    with refused("more than one orbit type is flagged as the identity class"):
        IsotropyPoset.from_pairs(
            (OrbitType("A", 0, is_identity=True), OrbitType("B", 0, is_identity=True)),
            frozenset(),
            {"A": 2, "B": 2},
            1,
            2,
        )


def test_validate_flags_identity_with_finite_tag():
    with refused("type 'A': identity class must have dim 0 and no finite tag"):
        IsotropyPoset.from_pairs(
            (OrbitType("A", 0, is_identity=True, finite_tag="2"),),
            frozenset(),
            {"A": 2},
            1,
            2,
        )


def test_validate_flags_cycles_as_order_violations():
    with pytest.raises(InvalidPosetError, match="irreflexive|antisymmetric"):
        IsotropyPoset.from_pairs(
            (OrbitType("A", 0, is_identity=True), OrbitType("B", 1)),
            {("A", "B"), ("B", "A")},
            {"A": 2, "B": 1},
            1,
            2,
        )


def test_validate_flags_dimension_reversal_along_order():
    with refused("('A') < ('B') but dim 1 > 0: a subgroup cannot exceed"):
        IsotropyPoset.from_pairs(
            (OrbitType("A", 1), OrbitType("B", 0, is_identity=True)),
            {("A", "B")},
            {"A": 1, "B": 2},
            1,
            2,
        )


def test_validate_requires_distinct_finite_data_at_equal_dimension():
    IsotropyPoset.from_pairs(
        (OrbitType("A", 0, is_identity=True), OrbitType("B", 0, finite_tag="2")),
        {("A", "B")},
        {"A": 4, "B": 2},
        1,
        4,
    )
    with refused("('A') < ('B') with equal dimension and equal finite tag: "
                 "strict subconjugation needs distinct finite data"):
        IsotropyPoset.from_pairs(
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


def chain_masks(m):
    """The generator masks of ``chain_types(m)``: t(i) under t(i + 1), by
    rank of the sorted labels."""
    rank = {label: r for r, label in enumerate(sorted(f"t{i}" for i in range(m)))}
    under = [0] * m
    for i in range(m - 1):
        under[rank[f"t{i + 1}"]] |= 1 << rank[f"t{i}"]
    return tuple(under)


def no_order_work(monkeypatch, why):
    """Make the closure, and the masks constructor behind the pairs
    conversion, fail the test if they run."""
    def fail(*args):
        raise AssertionError(why)

    monkeypatch.setattr(poset_module, "transitive_closure", fail)
    return fail


def test_the_type_cap_is_checked_before_the_closure(monkeypatch):
    types, order, dims, dim_g, dim_q = chain_types(MAX_TYPES)
    at_cap = IsotropyPoset.from_pairs(types, order, dims, dim_g, dim_q)
    assert len(at_cap.order) == MAX_TYPES * (MAX_TYPES - 1) // 2
    assert IsotropyPoset(types, chain_masks(MAX_TYPES), dims, dim_g, dim_q) == at_cap

    fail = no_order_work(monkeypatch, "order work ran on an over-cap poset")
    cap = f"invalid isotropy poset: {MAX_TYPES + 1} orbit types exceeds the cap of {MAX_TYPES}"
    types, order, dims, dim_g, dim_q = chain_types(MAX_TYPES + 1)
    # the cap alone: nothing else is checked on a refused size, neither
    # masks of the wrong shape nor pairs that name a label of no type
    for masks in (chain_masks(MAX_TYPES + 1), (), (-1,) * 3):
        with pytest.raises(InvalidPosetError) as info:
            IsotropyPoset(types, masks, dims, dim_g, dim_q)
        assert str(info.value) == cap
    monkeypatch.setattr(IsotropyPoset, "__post_init__", fail)
    for pairs in (order, order | {("t0", "unknown")}):
        with pytest.raises(InvalidPosetError) as info:
            IsotropyPoset.from_pairs(types, pairs, dims, dim_g, dim_q)
        assert str(info.value) == cap


def test_unknown_order_labels_are_refused_before_the_closure(monkeypatch):
    fail = no_order_work(monkeypatch, "order work ran on a poset with unknown labels")
    # the pairs conversion refuses them before it builds a mask
    monkeypatch.setattr(IsotropyPoset, "__post_init__", fail)
    # a chain from the one type through labels of no type: only the
    # generator pairs naming an unknown label are listed, not their closure,
    # each once however often it is given
    order = [("e", "u0"), ("u1", "u2"), ("u0", "u1"), ("e", "u0")]
    with pytest.raises(InvalidPosetError) as info:
        IsotropyPoset.from_pairs((OrbitType("e", 0, is_identity=True),), order, {"e": 2}, 1, 2)
    assert str(info.value) == (
        "invalid isotropy poset: order pair ('e', 'u0') references an unknown label; "
        "order pair ('u0', 'u1') references an unknown label; "
        "order pair ('u1', 'u2') references an unknown label"
    )


def test_masks_of_the_wrong_shape_are_refused_before_the_closure(monkeypatch):
    no_order_work(monkeypatch, "transitive_closure ran on masks of the wrong shape")
    types = (OrbitType("e", 0, is_identity=True), OrbitType("S^1", 1))
    for masks in ((0,), (0, 0, 0), (0b100, 0), (0, -1)):
        with refused("invalid isotropy poset: order masks must be one per label, "
                     "2 in all, each of bits below 2"):
            IsotropyPoset(types, masks, {"e": 2, "S^1": 0}, 1, 2)


def test_the_poset_stores_masks_and_derives_pairs():
    # labels sort as ("S^1", "e"): rank 0 is S^1, so e < S^1 is bit 1 of under[0]
    types = (OrbitType("e", 0, is_identity=True), OrbitType("S^1", 1))
    poset = IsotropyPoset(types, (0b10, 0), {"e": 2, "S^1": 0}, 1, 2)
    assert (poset.labels, poset.under, poset.order) == (("S^1", "e"), (0b10, 0),
                                                        {("e", "S^1")})
    assert "order" not in {f.name for f in dataclasses.fields(IsotropyPoset)}
    assert IsotropyPoset.from_pairs(types, [("e", "S^1")], {"e": 2, "S^1": 0}, 1, 2) == poset


def outcome(build):
    """What a construction gives: its refusal text, or its labels, closed
    masks and closed pairs."""
    try:
        labels, under, order = build()
    except InvalidPosetError as exc:
        return str(exc)
    return labels, under, frozenset(order)


@st.composite
def hand_fields(draw):
    """Constructor fields of a hand poset over ``digraphs()``: types on all
    or some of its labels (so a pair may name a label of no type), now and
    then one label twice, free dim_H, identity flags and finite tags, and
    dim_Q_of with missing and extra entries; the pairs may hold cycles.
    Half the draws are sound but for the order, whose pairs are at times
    kept to those that raise (dim_H, label), so that some posets are valid."""
    nodes, pairs = draw(digraphs())
    if draw(st.booleans()):
        dim_g = draw(st.integers(0, 2))
        dim_q = draw(st.integers(dim_g, 7))
        types = tuple(OrbitType(label, draw(st.integers(0, dim_g)), finite_tag=label)
                      for label in nodes)
        dims = {t.label: draw(st.integers(dim_g - t.dim_H, dim_q)) for t in types}
        if draw(st.booleans()):
            key = {t.label: (t.dim_H, t.label) for t in types}
            pairs = [(a, b) for a, b in pairs if key[a] < key[b]]
        return types, pairs, dims, dim_g, dim_q
    if draw(st.booleans()):
        labels = list(nodes)
    else:
        labels = draw(st.lists(st.sampled_from(nodes), unique=True))
    if labels and draw(st.integers(0, 5)) == 0:
        labels.append(draw(st.sampled_from(labels)))
    dim_g = draw(st.integers(-1, 2))
    types = tuple(OrbitType(label, draw(st.integers(0, 3)),
                            is_identity=draw(st.integers(0, 3)) == 0,
                            finite_tag=draw(st.sampled_from([None, "2", "3", label])))
                  for label in labels)
    dims = {label: draw(st.integers(-1, 7)) for label in labels if draw(st.integers(0, 7))}
    dims.update({extra: 1 for extra in draw(st.lists(st.sampled_from("XY"), unique=True))})
    return types, pairs, dims, dim_g, draw(st.integers(-1, 7))


@given(hand_fields())
def test_masks_match_the_pair_route(fields):
    # the same refusal text, or the same labels, masks and pairs, by the
    # pairs conversion and by the masks constructor as by the pair oracle
    types, pairs, dims, dim_g, dim_q = fields
    expected = outcome(lambda: pair_poset(*fields))

    def by_pairs():
        poset = IsotropyPoset.from_pairs(*fields)
        return poset.labels, poset.under, poset.order

    assert outcome(by_pairs) == expected
    rank = {label: r for r, label in enumerate(sorted({t.label for t in types}))}
    if all(a in rank and b in rank for a, b in pairs):
        masks = [0] * len(rank)
        for a, b in pairs:
            masks[rank[b]] |= 1 << rank[a]

        def by_masks():
            poset = IsotropyPoset(types, tuple(masks), dims, dim_g, dim_q)
            assert _violations(poset) == []
            return poset.labels, poset.under, poset.order

        assert outcome(by_masks) == expected


def test_is_subconjugate_is_the_closure_lookup():
    order = two_plane_poset().order
    assert ("e", "T^2") in order
    assert ("T^2", "e") not in order
    assert ("S^1×e", "e×S^1") not in order


def test_principal_type_of_the_reference_lattice():
    assert principal_type(two_plane_poset()).label == "e"


def test_principal_type_requires_a_unique_minimum():
    p = IsotropyPoset.from_pairs(
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
    return IsotropyPoset.from_pairs(
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
    p = IsotropyPoset.from_pairs(
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


def test_finite_tags_that_are_not_json_strings_are_refused():
    # e < Z2: a list, a bool or a number is not spelled by str() into a tag
    # such as "['2']" or "True"
    z2 = {"dim_Q": 2, "dim_G": 1, "order": [["e", "Z2"]],
          "types": [{"label": "e", "dim_H": 0, "dim_Q_of": 2},
                    {"label": "Z2", "dim_H": 0, "dim_Q_of": 2, "finite_tag": "2"}]}
    assert {t.label: t.finite_tag for t in poset_from_json(z2).types} == {"e": None, "Z2": "2"}
    for tag, spelled in ((["2"], "['2']"), (True, "True"), (2, "2"), (2.0, "2.0"),
                         ({"2": 2}, "{'2': 2}")):
        data = json.loads(json.dumps(z2))
        data["types"][1]["finite_tag"] = tag
        with pytest.raises(PosetError) as info:
            poset_from_json(data)
        assert str(info.value) == (
            f"malformed isotropy poset JSON: a finite_tag must be a string, not {spelled}")


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
