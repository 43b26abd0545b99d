"""Stratifications of the reduced cosphere bundle at zero momentum.

Three nested decompositions of the singular quotient C_0 are computed from
an isotropy lattice alone:

* the contact stratification, one stratum Contact(L) per starred orbit
  type, of dimension 2 (dim Q_(L) - dim G + dim L) - 1;
* the secondary decomposition of each Contact(L) into a cosphere-like open
  dense piece CC(L) and one seam Seam(H > L) per type H strictly above L;
* the coisotropic-or-Legendrian (C-L) stratification, the union of those
  pieces over all starred L.  Each piece is its pair (upper, lower) of
  orbit types: it lies in Contact(lower) and fibers over the orbit-type
  stratum of upper, so CC(L) is (L, L) and Seam(H > L) is (H, L).  The
  frontier is the product order on the pairs, the transitive closure of
  the paper's five combinatorial rules.

A seam is coisotropic when its upper type is itself starred and Legendrian
otherwise.  With dim Seam(H > L) = dim Q^(H) + dim Q^(L) - 1 the identity

    dim Seam(H > L) - (dim Contact(L) - 1)/2 = dim Q^(H) = dim Q_(H) - dim G + dim H

pins the excess over half the contact dimension; it holds by algebra and
is checked in the tests.

The action is almost semifree when (a) a unique minimal type e exists and
it is the trivial class; (b) every other type has a quotient stratum of
dimension 0, so it is a union of isolated orbits; (c) every nontrivial
stabilizer acts freely on the nonzero directions of g/h, which for a
torus, whose adjoint action is trivial, means dim H = dim G; the free part
is open dense, dim Q_(e) = dim Q; and C_0 is nonempty, e starred.  The
paper's (b) names the types of smaller orbits than e; (c) refuses the
others when dim G >= 1.  Then the C-L stratification is CC(e), of
dimension 2 (dim Q - dim G) - 1, plus one Legendrian seam Seam(H > e) of
dimension dim Q - dim G - 1 per singular type H, over a smooth total
space.  :func:`semifree_diagnostics` names the failed conditions.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .poset import (
    IsotropyPoset,
    NoUniqueMinimumError,
    OrbitType,
    _bits,
    _dot_quoted,
    covers,
    principal_type,
)


class StratumKind(str, Enum):
    CONTACT = "contact-stratum"
    COSPHERE = "cosphere-like"
    COISOTROPIC_SEAM = "coisotropic-seam"
    LEGENDRIAN_SEAM = "legendrian-seam"


@dataclass(frozen=True)
class Stratum:
    """One piece of a stratification of C_0, named by its pair of types.

    The piece lies in Contact(``lower``) and fibers over the orbit-type
    stratum of ``upper`` in Q/G.  A seam has ``upper`` strictly above
    ``lower``; CC(L) and the contact stratum Contact(L) have
    ``upper == lower == L`` (a contact stratum maps onto the closure of
    that stratum).
    """

    name: str
    kind: StratumKind
    dim: int
    upper: str
    lower: str
    open_dense: bool = False


@dataclass(frozen=True)
class Relation:
    """A relation on piece names, kept as per-piece rows (A, (B, ...)).

    There is one row per A with at least one pair, A by name, and each
    row's names are sorted, so the rows read in report order: the pairs
    (A, B) sorted by A, then B, each pair once.  The length of a relation
    is its number of pairs, not of rows.
    """

    rows: tuple[tuple[str, tuple[str, ...]], ...]

    def __len__(self) -> int:
        return sum(len(names) for _, names in self.rows)


@dataclass(frozen=True)
class StratificationResult:
    """The C-L stratification as one piece table.

    The types are ranked by label, as in the poset: type t is
    ``labels[t]``, ``dims[t]`` is its dim Q^(t), and ``below[t]`` is the
    bitmask of the types under it, t included.  Bit t of ``starred_mask``
    is set when t is starred, and ``open_rank`` is the principal type's
    rank (None without a unique minimal type).  Piece i, by name, is
    ``pieces[i]``, the pair of types (``uppers[i]``, ``lowers[i]``).
    ``hasse`` holds the covers of the frontier, built with the table.

    Everything else is read off the table on first use and kept:
    ``cl_strata``, ``contact_strata`` and ``starred``, and ``frontier``,
    the product order on the pairs (the transitive closure of the five
    generation rules), built by :func:`frontier`.  The ``reduce`` writer
    reads the table itself, so it builds none of them.  The views take no
    part in ``==``, ``hash`` or ``repr``.  ``smooth_total_space`` is true
    exactly when the action is almost semifree (see the module docstring).
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    below: tuple[int, ...]
    starred_mask: int
    open_rank: int | None
    pieces: tuple[str, ...]
    uppers: tuple[int, ...]
    lowers: tuple[int, ...]
    hasse: Relation
    smooth_total_space: bool

    def piece_rows(self) -> Iterator[tuple[str, StratumKind, int, int, int, bool]]:
        """(name, kind, dim, upper rank, lower rank, open dense) of each
        piece, by name: dim Seam(K>H) = dim Q^(K) + dim Q^(H) - 1, and a seam
        is coisotropic when its upper type is starred."""
        dims, starred, open_rank = self.dims, self.starred_mask, self.open_rank
        for name, k, h in zip(self.pieces, self.uppers, self.lowers):
            if k == h:
                yield name, StratumKind.COSPHERE, 2 * dims[k] - 1, k, h, k == open_rank
            else:
                kind = (StratumKind.COISOTROPIC_SEAM if starred >> k & 1
                        else StratumKind.LEGENDRIAN_SEAM)
                yield name, kind, dims[k] + dims[h] - 1, k, h, False

    @cached_property
    def cl_strata(self) -> tuple[Stratum, ...]:
        """The C-L pieces by decreasing dimension, then by name."""
        labels = self.labels
        pieces = [
            Stratum(name=name, kind=kind, dim=dim, upper=labels[k], lower=labels[h],
                    open_dense=open_dense)
            for name, kind, dim, k, h, open_dense in self.piece_rows()
        ]
        return tuple(sorted(pieces, key=lambda s: -s.dim))  # stable: by name within a dim

    @cached_property
    def contact_strata(self) -> tuple[Stratum, ...]:
        """One contact stratum Contact(L) per starred L, by name."""
        return tuple(sorted(
            (Stratum(name=contact_name(label), kind=StratumKind.CONTACT,
                     dim=2 * self.dims[t] - 1, upper=label, lower=label)
             for t, label in enumerate(self.labels) if self.starred_mask >> t & 1),
            key=lambda s: s.name,
        ))

    @cached_property
    def starred(self) -> tuple[str, ...]:
        """The starred types, by label."""
        return tuple(self.labels[t] for t in _bits(self.starred_mask))

    @cached_property
    def frontier(self) -> Relation:
        return Relation(tuple(frontier(self)))


def quotient_dims(poset: IsotropyPoset) -> dict[str, int]:
    """dim Q^(L) = dim Q_(L) - dim G + dim L of every type L, the dimension
    of its orbit-type stratum in Q/G; L is starred when it is at least 1."""
    return {t.label: poset.dim_Q_of[t.label] - poset.dim_G + t.dim_H for t in poset.types}


def contact_name(label: str) -> str:
    return f"Contact({label})"


def cc_name(label: str) -> str:
    return f"CC({label})"


def seam_name(upper: str, lower: str) -> str:
    return f"Seam({upper}>{lower})"


def _principal(poset: IsotropyPoset) -> OrbitType | None:
    try:
        return principal_type(poset)
    except NoUniqueMinimumError:
        return None


def _semifree_diagnostics(
    poset: IsotropyPoset, dims: dict[str, int], principal: OrbitType | None
) -> tuple[str, ...]:
    found = []
    if principal is None:
        found.append("(a) there is no unique minimal orbit type")
    else:
        p = principal.label
        if not principal.is_identity:
            found.append(f"(a) the principal type ({p}) is not the trivial class")
        if poset.dim_Q_of[p] != poset.dim_Q:
            found.append(
                f"the free part is not open dense: dim Q_({p}) = {poset.dim_Q_of[p]} "
                f"< dim Q = {poset.dim_Q}"
            )
        if dims[p] < 1:
            found.append(f"the principal type ({p}) is not starred, so C_0 is empty")
        for t in poset.types:
            if t is not principal and dims[t.label]:
                found.append(
                    ("(b) " if t.dim_H > principal.dim_H else "")
                    + f"orbit type ({t.label}) has a {dims[t.label]}-dimensional "
                    "quotient stratum, not isolated orbits"
                )
    for t in poset.types:
        if not t.is_identity and t.dim_H != poset.dim_G:
            found.append(
                f"(c) stabilizer ({t.label}) has dim {t.dim_H} < dim G = {poset.dim_G}, "
                "so it does not act freely on the nonzero directions of g/h"
            )
    return tuple(found)


def semifree_diagnostics(poset: IsotropyPoset) -> tuple[str, ...]:
    """Why the action is not almost semifree; empty exactly when it is.

    Each condition of the module docstring that fails gives one line, those
    of the paper labelled (a), (b) or (c).  :func:`cl_stratification`
    states the verdict as ``smooth_total_space``.
    """
    return _semifree_diagnostics(poset, quotient_dims(poset), _principal(poset))


def cl_stratification(poset: IsotropyPoset) -> StratificationResult:
    """The C-L stratification: its piece table and the covers of its frontier.

    Each piece is a pair (K, H) of types with H starred and H <= K: CC(H)
    is (H, H) and Seam(K>H) is (K, H).  The frontier is the product order
    on these pairs, (K', H') in bd (K, H) iff the pairs differ, H <= H' and
    K <= K'.  It equals the transitive closure of the paper's five rules,
    which supply exactly the pairs where one coordinate moves, plus
    CC(K) < CC(H); the pairs where both coordinates move, other than
    CC(K) < CC(H), come from closure alone.  A cover moves one coordinate
    by one cover: K in the lattice, H among the starred types.  The
    cosphere-like piece over the principal type is the unique open dense
    stratum; without a unique minimal type there is none.

    The ranked labels and down-set bitmasks are the poset's own.  Both
    cover relations come from :func:`cosphere.poset.covers`, the starred
    one within the starred mask, so neither is built as pairs.  The pieces
    are sorted by name once.  ``hasse`` has one row per piece
    A = (K', H') with a cover, by name: the covers (K, H') with K covered
    by K' and H' <= K, and (K', H) with H covered by H' among the starred
    types, by name.  The frontier is not built here (see
    :func:`frontier_rows`).
    """
    dims_of = quotient_dims(poset)
    labels = poset.labels
    dims = tuple(dims_of[label] for label in labels)
    starred = sum(1 << t for t, d in enumerate(dims) if d >= 1)
    below = [mask | 1 << t for t, mask in enumerate(poset.under)]  # t included
    type_covers = [list(_bits(mask)) for mask in covers(poset.under)]
    starred_covers = [list(_bits(mask)) for mask in covers(poset.under, within=starred)]

    pieces = []
    for k, label in enumerate(labels):
        for h in _bits(below[k] & starred):
            pieces.append((cc_name(label) if k == h else seam_name(label, labels[h]), k, h))
    pieces.sort()
    names = tuple(name for name, _, _ in pieces)
    at: list[dict[int, int]] = [{} for _ in labels]  # at[K][H] indexes the piece (K, H)
    for i, (_, k, h) in enumerate(pieces):
        at[k][h] = i
    hasse = []
    for name, k, h in pieces:
        covered = [at[c][h] for c in type_covers[k] if h in at[c]]
        covered += [at[k][c] for c in starred_covers[h]]
        if covered:
            covered.sort()
            hasse.append((name, tuple([names[i] for i in covered])))

    principal = _principal(poset)
    return StratificationResult(
        labels=labels,
        dims=dims,
        below=tuple(below),
        starred_mask=starred,
        open_rank=labels.index(principal.label) if principal else None,
        pieces=names,
        uppers=tuple(k for _, k, _ in pieces),
        lowers=tuple(h for _, _, h in pieces),
        hasse=Relation(tuple(hasse)),
        smooth_total_space=not _semifree_diagnostics(poset, dims_of, principal),
    )


_FRONTIER_CELLS = 1 << 18  # boolean cells per block of frontier rows


def frontier_rows(result: StratificationResult, names: np.ndarray) -> list[list]:
    """Row i of the frontier of a stratification, spelled by ``names``.

    ``names`` is an object array with one entry per piece, by name; row i
    lists ``names[j]`` for the pieces j = (K, H) != i = (K', H') with
    K <= K' and H <= H', the product order, in name order.  The order on
    the types is a boolean matrix ``under``, true at [t, s] when s <= t,
    unpacked from the down-set masks.  The rows are taken by lower type,
    in blocks of ``_FRONTIER_CELLS // pieces`` rows.  The columns of a
    block are the pieces j whose lower type lies under the lower type of
    one of its rows, and the block is ``under[upper of i][:, upper of j]
    & under[lower of i][:, lower of j]`` with the diagonal cleared.
    ``np.nonzero`` lists each row's pieces in rank order, which is name
    order, and one gather from ``names`` spells them.  A block holds at
    most ``_FRONTIER_CELLS`` cells, so the work arrays stay small at any
    size; rows of one lower type share their columns, so at 438 types the
    blocks hold 9 M cells where all rows against all pieces would be 51 M.
    :func:`frontier` and the ``reduce`` writer both read the rows from
    here, the writer with its names already escaped.
    """
    count = len(result.pieces)
    rows: list[list] = [[]] * count
    if not count:
        return rows
    types = len(result.labels)
    width = (types + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in result.below)
    under = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(types, width),
                          axis=1, count=types, bitorder="little").view(bool)
    upper = np.array(result.uppers, dtype=np.intp)
    lower = np.array(result.lowers, dtype=np.intp)
    step = max(1, _FRONTIER_CELLS // count)
    order = np.argsort(lower, kind="stable")
    for start in range(0, count, step):
        block = order[start:start + step]
        lower_under = under[lower[block]]
        (cols,) = lower_under.any(axis=0)[lower].nonzero()
        below = under[upper[block]][:, upper[cols]] & lower_under[:, lower[cols]]
        below[np.arange(len(block)), cols.searchsorted(block)] = False
        hit_rows, hit_cols = below.nonzero()
        gathered = names[cols[hit_cols]].tolist()
        end = 0
        for a, size in zip(block.tolist(), np.bincount(hit_rows, minlength=len(block)).tolist()):
            rows[a] = gathered[end:end + size]
            end += size
    return rows


def frontier(result: StratificationResult) -> Iterator[tuple[str, tuple[str, ...]]]:
    """The frontier rows (A, (B, ...)) of a stratification, in report order:
    one row per piece A below which some piece lies, A by name, its pieces
    B by name (see :func:`frontier_rows`)."""
    rows = frontier_rows(result, np.array(result.pieces, dtype=object))
    for a, row in zip(result.pieces, rows):
        if row:
            yield a, tuple(row)


def result_to_dot(result: StratificationResult) -> str:
    """DOT rendering of the C-L frontier; an edge A -> B means A is
    contained in the closure of B.  Nodes and edges are sorted."""
    lines = ["digraph cl_strata {", '  rankdir="BT";']
    for name, kind, dim, *_ in result.piece_rows():
        name = _dot_quoted(name)
        lines.append(f'  "{name}" [label="{name}\\ndim {dim}, {kind.value}"];')
    for a, covered in result.hasse.rows:
        a = _dot_quoted(a)
        lines.extend(f'  "{a}" -> "{_dot_quoted(b)}";' for b in covered)
    lines.append("}")
    return "\n".join(lines) + "\n"
