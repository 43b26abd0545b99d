"""Linear torus actions on R^{2n} and their isotropy lattices.

A k-torus acts on R^{2n} = (R^2)^n by rotating the j-th plane with the
integer weight vector a_j (column j of the k x n weight matrix): the
character of the j-th plane is theta |-> a_j . theta.  The stabilizer of a
point with plane support S is the joint kernel

    Ann(Lambda_S) = {theta in T^k : a_j . theta in Z for all j in S},

so it is determined by the sublattice Lambda_S of Z^k spanned by the
support's weight columns.  Two supports give the same stabilizer exactly
when those column lattices coincide, and containment of stabilizers is
reverse containment of lattices.  One support table per spec,
:func:`support_lattices`, holds the canonical basis of every support's
lattice: its Hermite normal form over Z, computed in Python ints by the
column reduction of Cohen, *A Course in Computational Algebraic Number
Theory*, GTM 138, Algorithm 2.4.5: bottom row up, extended-gcd column
operations, positive pivots, entries right of a pivot reduced into
[0, pivot).  Every stabilizer is read off that table: the rank of the
weight matrix, and the orbit type of every support, labelled once per spec
by :func:`support_types`, whose table the poset, the fixtures and the
sampled points read.  Containment needs no further normal form:
Lambda_S + Lambda_T = Lambda_(S u T), so Lambda_T lies in Lambda_S exactly
when the support table gives S u T the basis of S.  The finite part of a
stabilizer comes from a Smith elimination of the canonical basis.  Nothing
here is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .poset import MAX_TYPES, IsotropyPoset, OrbitType, _integer

MAX_WEIGHT = 16
MAX_PLANES = 12


class ActionSpecError(ValueError):
    pass


@dataclass(frozen=True)
class TorusActionSpec:
    """Weight data of a T^k action on R^{2n}; rows index torus circles."""

    k: int
    n: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _integer(self.k, "k", ActionSpecError))
        object.__setattr__(self, "n", _integer(self.n, "n", ActionSpecError))
        object.__setattr__(
            self,
            "weights",
            tuple(
                tuple(_integer(a, "weight", ActionSpecError) for a in row)
                for row in self.weights
            ),
        )
        if self.k < 1 or self.n < 1:
            raise ActionSpecError("need k >= 1 torus factors and n >= 1 planes")
        if self.n > MAX_PLANES:
            raise ActionSpecError(
                f"n = {self.n} planes: support enumeration is 2^n, capped at {MAX_PLANES}"
            )
        if self.k > MAX_PLANES:
            raise ActionSpecError(
                f"k = {self.k} torus factors: each support lattice has k rows, "
                f"capped at {MAX_PLANES}"
            )
        if len(self.weights) != self.k or any(len(r) != self.n for r in self.weights):
            raise ActionSpecError("weight matrix must be k rows by n columns")
        for row in self.weights:
            for a in row:
                if abs(a) > MAX_WEIGHT:
                    raise ActionSpecError(f"|weight| = {abs(a)} exceeds {MAX_WEIGHT}")
        for j in range(self.n):
            if all(row[j] == 0 for row in self.weights):
                raise ActionSpecError(f"plane {j} has a zero weight column (inactive plane)")

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.weights[i][j] for i in range(self.k))


def spec_to_json(spec: TorusActionSpec) -> dict:
    return {"k": spec.k, "n": spec.n, "weights": [list(r) for r in spec.weights]}


def spec_from_json(data: dict) -> TorusActionSpec:
    try:
        return TorusActionSpec(k=data["k"], n=data["n"], weights=data["weights"])
    except (KeyError, TypeError) as exc:
        raise ActionSpecError(f"malformed action spec JSON: {exc}") from exc


# -- exact lattice algebra ---------------------------------------------------

def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x a + y b = g = gcd(a, b) >= 0, and y = 0 when a | b."""
    if a and b % a == 0:
        return (1 if a > 0 else -1), 0, abs(a)
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (x0, y0, a) if a > 0 else (-x0, -y0, -a)


def _lattice_hnf(columns: Sequence[tuple[int, ...]], k: int) -> tuple[tuple[int, ...], ...]:
    """Canonical basis (HNF columns) of the sublattice of Z^k the columns span.

    Cohen's Algorithm 2.4.5 on the k x r matrix of the columns: row i, from
    the bottom up, gets its pivot in the rightmost column not yet used; the
    extended gcd folds every column to its left into the pivot column, which
    leaves zeros there; the pivot is made positive and the entries to its
    right are reduced into [0, pivot).  A row whose entries left of the
    pivot column are all zero gets no pivot.  The pivot columns are returned
    left to right, so the first has the topmost pivot.
    """
    cols = [list(c) for c in columns if any(c)]
    pivot = len(cols)
    for i in range(k - 1, -1, -1):
        if pivot == 0:
            break
        pivot -= 1
        a = cols[pivot]
        for j in range(pivot - 1, -1, -1):
            b = cols[j]
            if b[i]:
                u, v, d = _gcdex(a[i], b[i])
                r, s = a[i] // d, b[i] // d
                a, cols[j] = (
                    [u * x + v * y for x, y in zip(a, b)],
                    [r * y - s * x for x, y in zip(a, b)],
                )
                cols[pivot] = a
        if a[i] < 0:
            a = cols[pivot] = [-x for x in a]
        p = a[i]
        if p == 0:
            pivot += 1
            continue
        for j in range(pivot + 1, len(cols)):
            q = cols[j][i] // p
            if q:
                cols[j] = [y - q * x for x, y in zip(a, cols[j])]
    return tuple(tuple(c) for c in cols[pivot:])


def _nontrivial_divisors(columns: Sequence[tuple[int, ...]], k: int) -> tuple[int, ...]:
    """Invariant factors other than 0 and 1 of the k x r matrix of the columns.

    Smith elimination over Z on the transpose, which has the same invariant
    factors: an entry of least absolute value goes to the corner and
    reduces its row and column; a nonzero remainder is smaller, so the step
    repeats.  Once the corner is alone in its row and column, a row it does
    not divide is added to its row, and the step repeats; otherwise the
    corner is the next invariant factor and is struck out.
    """
    m = [list(c) for c in columns if any(c)]
    divisors = []
    while m:
        # the first entry of least |v| in row-major order; none is below 1
        least = 0
        for r, row in enumerate(m):
            for c, v in enumerate(row):
                if v and (not least or abs(v) < least):
                    least, i, j = abs(v), r, c
            if least == 1:
                break
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        p = m[0][0]
        for row in m[1:]:
            q = row[0] // p
            if q:
                row[:] = [y - q * x for x, y in zip(m[0], row)]
        for j in range(1, len(m[0])):
            q = m[0][j] // p
            if q:
                for row in m:
                    row[j] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(m[0][1:]):
            continue
        rest = next((row for row in m[1:] if any(v % p for v in row)), None)
        if rest is not None:
            m[0] = [x + y for x, y in zip(m[0], rest)]
            continue
        divisors.append(abs(p))
        m = [row[1:] for row in m[1:] if any(row)]
    return tuple(d for d in divisors if d != 1)


def class_label(k: int, basis: tuple[tuple[int, ...], ...]) -> str:
    """Deterministic subgroup name for the stabilizer Ann of a lattice.

    Lattices spanned by multiples of coordinate axes annihilate to products
    of circle-factor subgroups and get the classical names (e, S^1, Zm,
    T^k, and x-products).  Anything else falls back to a character-kernel
    label built from the canonical basis, which is still injective on
    subgroups.
    """
    if not basis:
        return "S^1" if k == 1 else f"T^{k}"
    axis: dict[int, int] = {}
    diagonal = True
    for col in basis:
        nz = [(i, v) for i, v in enumerate(col) if v != 0]
        if len(nz) != 1 or nz[0][0] in axis:
            diagonal = False
            break
        axis[nz[0][0]] = abs(nz[0][1])
    if diagonal:
        factors = []
        for i in range(k):
            c = axis.get(i, 0)
            factors.append("S^1" if c == 0 else ("e" if c == 1 else f"Z{c}"))
        if all(f == "e" for f in factors):
            return "e"
        return factors[0] if k == 1 else "×".join(factors)
    gens = ";".join(",".join(str(v) for v in col) for col in basis)
    return f"ker[{gens}]"


@lru_cache(maxsize=16)
def support_lattices(spec: TorusActionSpec) -> Mapping[int, tuple[tuple[int, ...], ...]]:
    """Canonical basis of Lambda_S for every plane support S, by bitmask.

    A support is keyed by its bitmask, the sum of 1 << j over its planes, so
    a union of supports is an ``|``.  The table is built incrementally:
    the masks come in increasing order, so S minus its highest plane j, a
    smaller mask, is already in the table, and HNF(S) is the HNF of that
    basis plus column j, at most k + 1 columns whatever |S| is.  That HNF
    is a function of (basis of S minus j, j) alone, and many supports share
    the pair, so each pair is reduced once: the n = 12 spec of twelve equal
    weights needs 23 reductions for its 4,095 supports.  The table is built
    once per spec and shared, so it is read-only.
    """
    columns = [spec.column(j) for j in range(spec.n)]
    basis_of = {0: ()}
    reduced = {}  # (basis, j) -> HNF of basis plus column j
    for mask in range(1, 1 << spec.n):
        j = mask.bit_length() - 1
        key = basis_of[mask ^ 1 << j], j
        basis = reduced.get(key)
        if basis is None:
            basis = reduced[key] = _lattice_hnf(key[0] + (columns[j],), spec.k)
        basis_of[mask] = basis
    return MappingProxyType(basis_of)


@lru_cache(maxsize=16)
def support_types(
    spec: TorusActionSpec,
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """The orbit types of a spec as (labels, types, tops), built once per
    spec and shared.

    ``labels`` are the sorted stabilizer labels, one per distinct lattice of
    :func:`support_lattices` (each labelled once; :func:`class_label` is
    injective), and their order ranks the poset's types.  ``types[S]`` is
    the rank of the type of support S, by bitmask, and ``tops[t]`` the top
    support of type t: the union of its supports, again of type t, since
    Lambda_(S u T) = Lambda_S + Lambda_T.
    """
    basis_of = support_lattices(spec)
    top: dict[tuple[tuple[int, ...], ...], int] = {}  # basis -> union of its supports
    for support, basis in basis_of.items():
        top[basis] = top.get(basis, 0) | support
    label_of = {basis: class_label(spec.k, basis) for basis in top}
    ranked = sorted(top, key=label_of.__getitem__)
    rank = {basis: t for t, basis in enumerate(ranked)}
    types = tuple(rank[basis] for basis in basis_of.values())
    return tuple(map(label_of.get, ranked)), types, tuple(map(top.get, ranked))


class RankDeficientError(ActionSpecError):
    """The weight matrix has rank below n: per-plane invariants do not
    separate the orbits, so the reduced coordinates are not a chart."""


def check_full_rank(spec: TorusActionSpec) -> None:
    """Refuse a weight matrix of rank below n with :class:`RankDeficientError`;
    the rank is the size of the basis of all planes."""
    rank = len(support_lattices(spec)[(1 << spec.n) - 1])
    if rank < spec.n:
        raise RankDeficientError(
            f"weight matrix has rank {rank} < n = {spec.n}: "
            "per-plane invariants do not separate orbits"
        )


def build_isotropy_poset(spec: TorusActionSpec) -> IsotropyPoset:
    """Isotropy lattice of the lifted action, from exhaustive support classes.

    The labels and top supports are read off :func:`support_types`.  Each
    stabilizer class contributes one orbit type, whose finite part is one
    Smith elimination of the basis of its top support, and dim_Q_of is
    twice the size of that top support.  Containment is inclusion of top
    supports: (a) < (b) exactly when the lattice of b lies strictly inside
    that of a, i.e. the union of their top supports S_a and S_b is in the
    class of a, i.e. S_b lies strictly inside S_a.  The order is built as
    the poset stores it, one down-set mask per class over the sorted
    labels, and no order pairs are formed: the classes under b are those
    whose top support holds every plane of S_b, b itself excepted, an AND
    of one mask per plane.  Inclusion is transitive, so the masks are
    closed as built, and the poset's bit pass
    (:func:`cosphere.poset.transitive_closure`) leaves them unchanged.  A
    spec with more than ``MAX_TYPES`` distinct lattices (one per class) is
    refused with :class:`ActionSpecError` before any label is formed.
    """
    basis_of = support_lattices(spec)
    count = len(set(basis_of.values()))
    if count > MAX_TYPES:
        raise ActionSpecError(f"{count} orbit types exceeds the cap of {MAX_TYPES}")
    labels, _, tops = support_types(spec)
    types: list[OrbitType] = []
    for label, support in zip(labels, tops):
        basis = basis_of[support]
        divisors = _nontrivial_divisors(basis, spec.k)
        dim_stab = spec.k - len(basis)
        types.append(
            OrbitType(
                label=label,
                dim_H=dim_stab,
                is_identity=(dim_stab == 0 and not divisors),
                finite_tag=",".join(str(d) for d in divisors) or None,
            )
        )

    # (L) < (H) iff the subgroup L is strictly contained in H, i.e. the
    # lattice of H is strictly contained in the lattice of L, i.e. the top
    # support of H lies strictly inside that of L
    holding = [sum(1 << r for r, s in enumerate(tops) if s >> j & 1) for j in range(spec.n)]
    under = []
    for r, s in enumerate(tops):
        mask = ((1 << len(tops)) - 1) ^ (1 << r)
        for j in range(spec.n):
            if s >> j & 1:
                mask &= holding[j]
        under.append(mask)

    types.sort(key=lambda t: (t.dim_H, t.label))
    return IsotropyPoset(
        types=tuple(types),
        under=tuple(under),
        dim_Q_of={label: 2 * s.bit_count() for label, s in zip(labels, tops)},
        dim_G=spec.k,
        dim_Q=2 * spec.n,
    )
