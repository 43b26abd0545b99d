"""Torus weight matrices: stabilizers, class grouping, lattice order.

Four oracles.  An independent integer solver decides membership of a vector
in the column span over Z by hand-rolled Euclidean column reduction, with
no Hermite or Smith normal form involved; class grouping and the
subconjugation order produced by the builder must agree with it.  sympy's
``hermite_normal_form`` and ``invariant_factors`` check the normal forms
themselves, support by support; the library does not import sympy.  One
HNF of each support's own columns (``support_basis``), not built on a
smaller support, checks the incremental support table row by row.  The
paper's almost-semifree conditions (a)-(c), stated on the weight matrix,
check the poset predicate ``strata.semifree_diagnostics``.
"""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

import cosphere
from cosphere import poset as poset_mod
from cosphere import torus as torus_mod
from cosphere.poset import principal_type
from cosphere.strata import cl_stratification, semifree_diagnostics
from cosphere.torus import (
    MAX_PLANES,
    ActionSpecError,
    TorusActionSpec,
    _lattice_hnf,
    _nontrivial_divisors,
    build_isotropy_poset,
    class_label,
    spec_from_json,
    spec_to_json,
    support_lattices,
    support_types,
)


# -- independent integer linear algebra --------------------------------------

def in_integer_span(columns, v):
    """Whether v is an integer combination of the columns.

    Column gcd elimination brings the generators to a triangular set (free
    columns end up identically zero), then exact-division back substitution
    decides solvability of B c = v over Z.
    """
    k = len(v)
    cols = [list(c) for c in columns if any(c)]
    w = list(v)
    if not any(w):
        return True
    if not cols:
        return False
    pivot_of_row = {}
    free = list(range(len(cols)))
    for r in range(k):
        while True:
            nz = sorted(
                (c for c in free if cols[c][r] != 0), key=lambda c: abs(cols[c][r])
            )
            if len(nz) <= 1:
                break
            c0 = nz[0]
            for c in nz[1:]:
                q = cols[c][r] // cols[c0][r]
                if q:
                    for i in range(k):
                        cols[c][i] -= q * cols[c0][i]
        nz = [c for c in free if cols[c][r] != 0]
        if nz:
            pivot_of_row[r] = nz[0]
            free.remove(nz[0])
    coeff = {}
    for r in range(k):
        resid = w[r] - sum(cols[c][r] * q for c, q in coeff.items())
        c = pivot_of_row.get(r)
        if c is None:
            if resid != 0:
                return False
        else:
            if resid % cols[c][r]:
                return False
            coeff[c] = resid // cols[c][r]
    return True


def same_lattice(cols_a, cols_b):
    return all(in_integer_span(cols_a, v) for v in cols_b) and all(
        in_integer_span(cols_b, v) for v in cols_a
    )


def test_oracle_sanity():
    assert in_integer_span([(2, 0), (0, 1)], (2, 3))
    assert not in_integer_span([(2, 0), (0, 1)], (1, 0))
    assert in_integer_span([(5, 4), (4, 3)], (1, 0))  # unimodular pair
    assert not in_integer_span([(2, 4)], (1, 2))
    assert same_lattice([(1, 1), (0, 2)], [(1, -1), (1, 1)])


# -- spec validation ----------------------------------------------------------

def test_spec_rejects_bad_shapes():
    with pytest.raises(ActionSpecError):
        TorusActionSpec(k=0, n=1, weights=())
    with pytest.raises(ActionSpecError):
        TorusActionSpec(k=1, n=2, weights=((1,),))
    with pytest.raises(ActionSpecError):
        TorusActionSpec(k=1, n=1, weights=((17,),))
    with pytest.raises(ActionSpecError):
        TorusActionSpec(k=1, n=13, weights=((1,) * 13,))
    # a float or a bool is refused, not truncated to an integer weight
    with pytest.raises(ActionSpecError):
        TorusActionSpec(k=1, n=1, weights=((1.5,),))
    with pytest.raises(ActionSpecError):
        TorusActionSpec(k=1, n=1, weights=((True,),))


def test_spec_rejects_inactive_planes():
    with pytest.raises(ActionSpecError):
        TorusActionSpec(k=2, n=2, weights=((1, 0), (2, 0)))


def test_spec_columns_and_json_round_trip():
    spec = TorusActionSpec(k=2, n=3, weights=((1, 0, 2), (0, 1, -1)))
    assert spec.column(2) == (2, -1)
    assert spec_from_json(spec_to_json(spec)) == spec
    with pytest.raises(ActionSpecError):
        spec_from_json({"k": 1, "weights": [[1]]})


# -- stabilizers of single supports -------------------------------------------

def support_basis(spec, support):
    """The oracle for one row of the support table: one HNF of the
    support's own weight columns, not built on a smaller support."""
    return _lattice_hnf([spec.column(j) for j in support], spec.k)


def support_label(spec, support):
    """Orbit-type label of the points whose nonzero planes are ``support``."""
    return class_label(spec.k, support_basis(spec, support))


def mask(support):
    return sum(1 << j for j in support)


def stabilizer(spec, support):
    """(label, dim, nontrivial divisors) of a support, read off the table."""
    basis = support_lattices(spec)[mask(support)]
    return class_label(spec.k, basis), spec.k - len(basis), _nontrivial_divisors(basis, spec.k)


def test_full_rotation_stabilizers():
    spec = TorusActionSpec(k=1, n=1, weights=((1,),))
    assert stabilizer(spec, ()) == ("S^1", 1, ())
    assert stabilizer(spec, (0,)) == ("e", 0, ())


def test_double_speed_rotation_has_z2_stabilizer():
    spec = TorusActionSpec(k=1, n=1, weights=((2,),))
    assert stabilizer(spec, (0,)) == ("Z2", 0, (2,))


def test_trivial_divisors_are_dropped():
    spec = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 3)))
    assert stabilizer(spec, (0, 1)) == ("e×Z3", 0, (3,))


def test_support_index_bounds():
    # one row per support of the n planes, keyed by bitmask, and no other
    spec = TorusActionSpec(k=1, n=1, weights=((1,),))
    assert sorted(support_lattices(spec)) == [0, 1]
    with pytest.raises(KeyError):
        support_lattices(spec)[mask((1,))]


def test_saturation_and_divisors_do_not_identify_lattices():
    # span{(2,0),(0,1)} and span{(1,0),(0,2)} share the saturation Z^2 and
    # the nontrivial divisors (2,) but annihilate to different subgroups
    spec = TorusActionSpec(k=2, n=4, weights=((2, 0, 1, 0), (0, 1, 0, 2)))
    table = support_lattices(spec)
    assert _nontrivial_divisors([spec.column(0), spec.column(1)], 2) == _nontrivial_divisors(
        [spec.column(2), spec.column(3)], 2
    ) == (2,)
    assert stabilizer(spec, (0, 1))[0] == "Z2×e" and stabilizer(spec, (2, 3))[0] == "e×Z2"
    assert table[mask((0, 1))] != table[mask((2, 3))]
    assert not same_lattice(
        [spec.column(0), spec.column(1)], [spec.column(2), spec.column(3)]
    )


def test_class_labels():
    assert class_label(1, ()) == "S^1"
    assert class_label(3, ()) == "T^3"
    assert class_label(2, ((1, 0), (0, 1))) == "e"
    assert class_label(2, ((2, 0),)) == "Z2×S^1"
    assert class_label(1, ((3,),)) == "Z3"
    assert class_label(2, ((1, 1),)) == "ker[1,1]"


# -- poset construction -------------------------------------------------------

def test_two_plane_torus_lattice():
    spec = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))
    poset = build_isotropy_poset(spec)
    assert [t.label for t in poset.types] == ["e", "S^1×e", "e×S^1", "T^2"]
    assert dict(poset.dim_Q_of) == {"e": 4, "S^1×e": 2, "e×S^1": 2, "T^2": 0}
    assert poset.order == {
        ("e", "S^1×e"),
        ("e", "e×S^1"),
        ("e", "T^2"),
        ("S^1×e", "T^2"),
        ("e×S^1", "T^2"),
    }
    assert poset.dim_G == 2 and poset.dim_Q == 4
    assert principal_type(poset).label == "e"


def test_single_circle_lattice():
    poset = build_isotropy_poset(TorusActionSpec(k=1, n=1, weights=((1,),)))
    assert [t.label for t in poset.types] == ["e", "S^1"]
    assert dict(poset.dim_Q_of) == {"e": 2, "S^1": 0}
    assert poset.order == {("e", "S^1")}


def test_equal_weights_merge_supports():
    poset = build_isotropy_poset(TorusActionSpec(k=1, n=2, weights=((2, 2),)))
    assert len(poset.types) == 2
    assert dict(poset.dim_Q_of) == {"Z2": 4, "S^1": 0}
    assert [t.finite_tag for t in poset.types if t.label == "Z2"] == ["2"]


def test_mixed_weights_give_a_chain():
    poset = build_isotropy_poset(TorusActionSpec(k=1, n=2, weights=((1, 2),)))
    assert {t.label for t in poset.types} == {"e", "Z2", "S^1"}
    assert poset.order == {("e", "Z2"), ("e", "S^1"), ("Z2", "S^1")}
    assert dict(poset.dim_Q_of) == {"e": 4, "Z2": 2, "S^1": 0}


@st.composite
def weight_specs(draw, max_k=3, max_n=4, max_weight=5):
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = draw(st.integers(min_value=1, max_value=max_n))
    cols = []
    for _ in range(n):
        col = draw(
            st.lists(
                st.integers(min_value=-max_weight, max_value=max_weight),
                min_size=k,
                max_size=k,
            ).filter(lambda c: any(c))
        )
        cols.append(tuple(col))
    weights = tuple(tuple(cols[j][i] for j in range(n)) for i in range(k))
    return TorusActionSpec(k=k, n=n, weights=weights)


def all_supports(n):
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    )


# two reference specs of the benchmark ladder, beyond the n <= 4 the
# strategy draws: the k=2, n=8 and k=3, n=6 rungs (38 and 47 orbit types)
LADDER_K2_N8 = TorusActionSpec(k=2, n=8, weights=(
    (-4, 0, 0, -3, -2, -5, -1, 1),
    (2, -3, -1, 5, -3, 0, 5, -4),
))
LADDER_K3_N6 = TorusActionSpec(k=3, n=6, weights=(
    (4, 4, 4, -4, -1, -3),
    (-5, 4, -4, 2, -3, 3),
    (4, -2, 1, 3, 4, -2),
))
# the k=3, n=7 reference specs of the ladder at the type cap: one with
# exactly MAX_TYPES = 64 orbit types (599 pieces), one with 67, and twelve
# equal planes, whose 4,095 supports share 23 (basis, plane) reductions
LADDER_K3_N7 = TorusActionSpec(k=3, n=7, weights=(
    (-2, 1, -5, 1, 4, 0, -1),
    (-2, 4, -1, 3, -4, -1, 5),
    (-2, -1, -1, 0, 4, 0, -1),
))
LADDER_K3_N7_OVER = TorusActionSpec(k=3, n=7, weights=(
    (4, 3, 4, -5, -5, 1, -2),
    (4, 1, 2, -2, 2, 0, 2),
    (-1, 1, -5, -1, -2, -1, -2),
))
EQUAL_N12 = TorusActionSpec(k=1, n=12, weights=((2,) * 12,))


def sympy_basis(spec, support):
    """HNF columns of the support's weight columns, by sympy."""
    h = hermite_normal_form(Matrix([[spec.column(j)[i] for j in support]
                                    for i in range(spec.k)]))
    return tuple(tuple(int(h[i, j]) for i in range(spec.k)) for j in range(h.cols))


@given(weight_specs())
@example(LADDER_K2_N8)
@example(LADDER_K3_N6)
@example(LADDER_K3_N7)
@example(EQUAL_N12)
def test_support_table_matches_the_per_support_oracle(spec):
    # the incremental table against one HNF per support, ours and sympy's,
    # for the basis and for the label read off it; the last two examples
    # reuse most of their (basis, plane) reductions
    table = support_lattices(spec)
    assert len(table) == 2 ** spec.n
    for s in all_supports(spec.n):
        basis = table[mask(s)]
        assert basis == support_basis(spec, s), s
        if s:
            assert basis == sympy_basis(spec, s), s
        assert class_label(spec.k, basis) == support_label(spec, s), s


@pytest.mark.parametrize("spec", [EQUAL_N12, LADDER_K3_N7, LADDER_K2_N8])
def test_support_table_reduces_each_basis_and_plane_once(spec, monkeypatch):
    # support S is built from (basis of S minus its last plane j, j); each
    # distinct pair is one HNF, however many supports share it
    calls = []

    def counted(columns, k):
        calls.append(columns)
        return _lattice_hnf(columns, k)

    monkeypatch.setattr(torus_mod, "_lattice_hnf", counted)
    table = support_lattices.__wrapped__(spec)  # past the per-spec cache
    keys = {(table[s & ~(1 << (s.bit_length() - 1))], s.bit_length() - 1) for s in table if s}
    assert len(calls) == len(keys) < len(table) - 1
    if spec == EQUAL_N12:
        assert (len(calls), len(table) - 1) == (23, 4095)


# at the plane cap with weights up to 16, where the support table has all
# 2^12 = 4,096 entries and 93 distinct lattices, past the type cap, which
# the table does not enforce; and twelve equal weights, with 2 lattices
CAP_SPEC = TorusActionSpec(k=2, n=MAX_PLANES, weights=(
    (16, -16, 1, 2, 3, 5, 7, 11, 13, -3, 0, 4),
    (1, 16, 0, -16, 5, 9, -7, 2, 15, 6, 8, -1),
))
EQUAL_ONES_N12 = TorusActionSpec(k=1, n=MAX_PLANES, weights=((1,) * MAX_PLANES,))


def grouped_support_types(spec):
    """(labels, types, tops) by grouping: the supports of one basis form a
    class, the union of a class is its top, each class is labelled by
    ``class_label`` and the labels are sorted."""
    table = support_lattices(spec)
    top = {}
    for s, basis in table.items():
        top[basis] = top.get(basis, 0) | s
    label = {basis: class_label(spec.k, basis) for basis in top}
    labels = tuple(sorted(label.values()))
    rank = {basis: labels.index(label[basis]) for basis in top}
    tops = tuple(top[basis] for basis in sorted(top, key=rank.__getitem__))
    return labels, tuple(rank[table[s]] for s in range(1 << spec.n)), tops


@given(weight_specs())
@example(EQUAL_ONES_N12)
@example(CAP_SPEC)
def test_support_types_match_the_grouping_oracle(spec):
    labels, types, tops = support_types(spec)
    ref_labels, ref_types, ref_tops = grouped_support_types(spec)
    assert labels == ref_labels
    assert types == ref_types
    assert tops == ref_tops
    # each top is a support of its own type
    assert [types[s] for s in tops] == list(range(len(labels)))


@pytest.mark.parametrize("spec, lattices", [
    # twelve equal weights: Z on every nonempty support, 0 on the empty one
    (EQUAL_ONES_N12, 2),
    (CAP_SPEC, len(set(support_lattices(CAP_SPEC).values()))),
])
def test_support_types_labels_each_distinct_lattice_once(monkeypatch, spec, lattices):
    calls = []

    def counted(k, basis):
        calls.append(basis)
        return class_label(k, basis)

    monkeypatch.setattr(torus_mod, "class_label", counted)
    labels, types, tops = support_types.__wrapped__(spec)  # past the per-spec cache
    assert len(calls) == len(set(calls)) == lattices
    assert len(types) == 1 << MAX_PLANES and len(tops) == len(labels)
    assert labels == tuple(sorted({class_label(spec.k, b) for b in calls}))


@given(weight_specs())
@example(LADDER_K2_N8)
@example(LADDER_K3_N6)
def test_normal_forms_match_sympy(spec):
    # every support from scratch; the Smith form of the raw columns and of
    # the canonical basis
    for s in all_supports(spec.n):
        if not s:
            continue
        cols = [spec.column(j) for j in s]
        m = Matrix([[c[i] for c in cols] for i in range(spec.k)])
        basis = sympy_basis(spec, s)
        assert _lattice_hnf(cols, spec.k) == basis, s
        divisors = tuple(int(d) for d in invariant_factors(m) if d not in (0, 1))
        assert _nontrivial_divisors(cols, spec.k) == divisors, s
        assert _nontrivial_divisors(basis, spec.k) == divisors, s


def test_runtime_needs_no_sympy(tmp_path):
    # a None entry in sys.modules makes every import of sympy fail
    script = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from cosphere import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "for args in (['reduce', '--fixture', 't2-on-r4', '--out', out + '/t2.json'],\n"
        "             ['lattice', '--fixture', 't2-on-r4', '--out', out + '/t2'],\n"
        "             ['verify', '--fixture', 's1-on-r2', '--count', '200']):\n"
        "    code = cli.main(args)\n"
        "    if code:\n"
        "        sys.exit(f'{args[0]} exited {code}')\n"
    )
    src = str(Path(cosphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "t2.json").is_file() and (tmp_path / "t2").is_dir()


@given(weight_specs())
@example(LADDER_K2_N8)
@example(LADDER_K3_N6)
def test_class_grouping_matches_the_integer_oracle(spec):
    poset = build_isotropy_poset(spec)
    supports = list(all_supports(spec.n))
    by_label = {}
    for s in supports:
        by_label.setdefault(support_label(spec, s), []).append(s)
    assert sorted(by_label) == sorted(t.label for t in poset.types)
    cols = {s: [spec.column(j) for j in s] for s in supports}
    for label, members in by_label.items():
        rep = members[0]
        for other in members[1:]:
            assert same_lattice(cols[rep], cols[other]), (label, rep, other)
    reps = {label: members[0] for label, members in by_label.items()}
    for la, lb in itertools.permutations(reps, 2):
        # (la) < (lb) iff the lattice of lb is strictly inside that of la
        expected = all(
            in_integer_span(cols[reps[la]], v) for v in cols[reps[lb]]
        ) and not same_lattice(cols[reps[la]], cols[reps[lb]])
        assert ((la, lb) in poset.order) == expected, (la, lb)


@given(weight_specs())
def test_built_posets_validate_with_unique_principal(spec):
    poset = build_isotropy_poset(spec)  # an invalid poset raises here
    principal = principal_type(poset)
    assert poset.dim_Q_of[principal.label] == poset.dim_Q


@given(weight_specs())
def test_divisor_chain_divisibility(spec):
    chain = _nontrivial_divisors([spec.column(j) for j in range(spec.n)], spec.k)
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0


@given(weight_specs())
def test_dim_q_of_is_twice_the_largest_support_of_each_class(spec):
    # the orbit-type manifold is the union of its support cells, of which
    # the largest has real dimension 2 |S|
    largest = {}
    for s in all_supports(spec.n):
        label = support_label(spec, s)
        largest[label] = max(largest.get(label, 0), len(s))
    assert dict(build_isotropy_poset(spec).dim_Q_of) == {
        label: 2 * size for label, size in largest.items()
    }


@given(weight_specs())
@example(LADDER_K2_N8)
@example(LADDER_K3_N6)
@example(LADDER_K3_N7)
def test_order_is_inclusion_of_top_supports(spec):
    # the builder orders the classes by strict inclusion of their top
    # supports; the union rule reads the same order off the table: (a) < (b)
    # when the union of a top support of each is a support of class a.  The
    # builder's masks are that order by rank of the sorted labels, and the
    # pairs the poset derives from them are its pairs
    table = support_lattices(spec)
    supports = {}
    for s in sorted(table, key=int.bit_count):
        supports.setdefault(table[s], []).append(s)
    top = {basis: group[-1] for basis, group in supports.items()}  # the largest
    assert all(s | top[basis] == top[basis] for basis, group in supports.items() for s in group)
    label = {basis: class_label(spec.k, basis) for basis in top}
    union_rule = {
        (label[ba], label[bb])
        for (ba, sa), (bb, sb) in itertools.permutations(top.items(), 2)
        if table[sa | sb] == ba
    }
    poset = build_isotropy_poset(spec)
    assert poset.labels == tuple(sorted(label.values()))
    rank = {name: r for r, name in enumerate(poset.labels)}
    masks = [0] * len(rank)
    for a, b in union_rule:
        masks[rank[b]] |= 1 << rank[a]
    assert poset.under == tuple(masks)
    assert poset.order == union_rule


def test_the_type_cap_specs_of_the_ladder(monkeypatch):
    # 64 types: masks closed as built, so the closure returns them as given,
    # and the finite tag of each class is sympy's nontrivial invariant
    # factors of its basis
    closure, given_masks = poset_mod.transitive_closure, []
    monkeypatch.setattr(poset_mod, "transitive_closure",
                        lambda under: given_masks.append(under) or closure(under))
    poset = build_isotropy_poset(LADDER_K3_N7)
    assert len(poset.types) == poset_mod.MAX_TYPES
    assert given_masks == [poset.under]
    assert len(cl_stratification(poset).pieces) == 599
    tag = {t.label: t.finite_tag for t in poset.types}
    for basis in set(support_lattices(LADDER_K3_N7).values()):
        divisors = _nontrivial_divisors(basis, 3)
        if basis:
            m = Matrix([[c[i] for c in basis] for i in range(3)])
            assert divisors == tuple(int(d) for d in invariant_factors(m) if d not in (0, 1))
        assert tag[class_label(3, basis)] == (",".join(map(str, divisors)) or None)

    # 67 types: refused as soon as the support table is built, before any
    # label, finite tag or order is formed
    def no_order_work(*args):
        raise AssertionError("order work ran on an over-cap spec")

    for name in ("class_label", "_nontrivial_divisors", "IsotropyPoset"):
        monkeypatch.setattr(torus_mod, name, no_order_work)
    monkeypatch.setattr(poset_mod, "transitive_closure", no_order_work)
    with pytest.raises(ActionSpecError, match=r"^67 orbit types exceeds the cap of 64$"):
        build_isotropy_poset(LADDER_K3_N7_OVER)


@given(weight_specs())
def test_builder_is_deterministic(spec):
    assert build_isotropy_poset(spec) == build_isotropy_poset(spec)


def test_hnf_is_canonical_across_generating_sets():
    # the same lattice from redundant and skewed generators
    a = _lattice_hnf([(1, 1), (0, 2)], 2)
    b = _lattice_hnf([(1, -1), (1, 1), (2, 0)], 2)
    assert a == b


# -- almost semifree ----------------------------------------------------------

def almost_semifree_oracle(spec):
    """The three almost-semifree conditions on the weight matrix, with one
    diagnostic per failure.

    (a) the principal stabilizer is trivial; (b) every orbit type of
    non-maximal orbit dimension is a union of isolated orbits,
    dim Q_(H) = dim G - dim H; (c) each nontrivial stabilizer acts freely
    on the nonzero directions of g/h.  The adjoint action of a torus is
    trivial, so (c) holds exactly when every nontrivial stabilizer has the
    full Lie algebra, dim_stab = k.
    """
    poset = build_isotropy_poset(spec)
    diagnostics = []
    # the class of the full weight lattice stabilizes generic points, so the
    # built poset always has a unique minimum
    principal = principal_type(poset)
    if not principal.is_identity:
        diagnostics.append(
            f"(a) principal stabilizer is ({principal.label}), not the trivial group"
        )
    max_orbit_dim = max(spec.k - t.dim_H for t in poset.types)
    for t in poset.types:
        orbit_dim = spec.k - t.dim_H
        if orbit_dim < max_orbit_dim and poset.dim_Q_of[t.label] != orbit_dim:
            diagnostics.append(
                f"(b) orbit type ({t.label}) has dim Q_(H) = {poset.dim_Q_of[t.label]} "
                f"> {orbit_dim} = dim G - dim H, so it is not a union of isolated orbits"
            )
    for t in poset.types:
        if not t.is_identity and t.dim_H < spec.k:
            diagnostics.append(
                f"(c) stabilizer ({t.label}) has dim {t.dim_H} < k = {spec.k}; it acts "
                "trivially, hence not freely, on the nonzero directions of g/h"
            )
    return (not diagnostics, tuple(diagnostics))


def paper_labels(diagnostics):
    """The (a), (b) and (c) labels of the diagnostics, in order."""
    return [m.group() for m in map(re.compile(r"\([abc]\)").match, diagnostics) if m]


@given(weight_specs())
@example(LADDER_K2_N8)
@example(LADDER_K3_N6)
@example(TorusActionSpec(k=1, n=2, weights=((1, 2),)))
def test_semifree_predicate_matches_the_spec_oracle(spec):
    ok, expected = almost_semifree_oracle(spec)
    poset = build_isotropy_poset(spec)
    diagnostics = semifree_diagnostics(poset)
    result = cl_stratification(poset)
    assert (not diagnostics) == ok == result.smooth_total_space
    assert paper_labels(diagnostics) == paper_labels(expected)
    if ok:
        # one cosphere-like piece and one Legendrian seam per singular type,
        # of the dimensions the semifree case predicts
        dims = {s.name: (s.dim, s.kind.value) for s in result.cl_strata}
        free = poset.dim_Q - poset.dim_G
        assert dims == {"CC(e)": (2 * free - 1, "cosphere-like")} | {
            f"Seam({t.label}>e)": (free - 1, "legendrian-seam")
            for t in poset.types if t.label != "e"
        }


def test_single_free_circle_is_almost_semifree():
    poset = build_isotropy_poset(TorusActionSpec(k=1, n=1, weights=((1,),)))
    assert semifree_diagnostics(poset) == ()
    assert cl_stratification(poset).smooth_total_space


def test_equal_weight_circle_action_is_almost_semifree():
    poset = build_isotropy_poset(TorusActionSpec(k=1, n=2, weights=((1, 1),)))
    diag = semifree_diagnostics(poset)
    assert diag == () and cl_stratification(poset).smooth_total_space, diag


def test_two_plane_torus_is_not_almost_semifree():
    poset = build_isotropy_poset(TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1))))
    diag = semifree_diagnostics(poset)
    assert not cl_stratification(poset).smooth_total_space
    joined = ";".join(diag)
    assert "(b)" in joined and "(c)" in joined


def test_nontrivial_principal_stabilizer_fails_condition_a():
    poset = build_isotropy_poset(TorusActionSpec(k=1, n=1, weights=((2,),)))
    diag = semifree_diagnostics(poset)
    assert not cl_stratification(poset).smooth_total_space
    assert any(d.startswith("(a)") for d in diag)
