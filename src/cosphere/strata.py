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

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .poset import (
    IsotropyPoset,
    NoUniqueMinimumError,
    OrbitType,
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
    """C-L pieces with the covers of their frontier.

    The frontier relates A to B when piece A is contained in the boundary
    of piece B; it is the product order on the (upper, lower) type pairs
    of the pieces, which is the transitive closure of the five generation
    rules.  ``hasse`` is its covering relation, built with the pieces.
    ``frontier`` itself is built on first use, from the pieces and
    ``type_order`` (the poset's closed order), by :func:`frontier`, and
    kept; of the CLI commands only ``reduce`` needs it.  Both are
    :class:`Relation` rows, so neither is ever a list of pairs in memory.
    ``type_order`` takes no part in ``==``, ``hash`` or ``repr``: the
    pieces and their covers already determine the frontier.
    ``smooth_total_space`` is true exactly when the action is almost
    semifree (see the module docstring).
    """

    cl_strata: tuple[Stratum, ...]
    contact_strata: tuple[Stratum, ...]
    hasse: Relation
    starred: tuple[str, ...]
    total_types: int
    smooth_total_space: bool
    type_order: frozenset[tuple[str, str]] = field(compare=False, repr=False)

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


def _covered_by(closed: frozenset[tuple[str, str]]) -> dict[str, list[str]]:
    """Each type -> the types it covers in a closed order."""
    down: dict[str, list[str]] = defaultdict(list)
    for low, high in covers(closed):
        down[high].append(low)
    return down


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
    """The C-L stratification: its pieces and the covers of its frontier.

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

    Only ``hasse`` is built here, as rows, one per piece, already in
    report order: for each piece A = (K', H') by name, its row lists the
    covers (K, H') with K covered by K' and (K', H) with H covered by H'
    among the starred types, by name; a piece with no cover has no row.
    The frontier itself is built by :func:`frontier` when
    ``result.frontier`` is first read, so ``cosphere lattice``, which draws
    the covers, never builds it.
    """
    dims = quotient_dims(poset)
    starred = frozenset(label for label, d in dims.items() if d >= 1)
    below = {t.label: {t.label} for t in poset.types}  # L and every type under it
    for low, high in poset.order:
        below[high].add(low)
    principal = _principal(poset)
    open_label = principal.label if principal else None
    pieces = {}
    names = {h: {} for h in starred}  # names[H][K] names the piece (K, H)
    for k, under in below.items():
        for h in under & starred:
            if k == h:
                name, kind = cc_name(h), StratumKind.COSPHERE
            else:
                name = seam_name(k, h)
                kind = (StratumKind.COISOTROPIC_SEAM if k in starred
                        else StratumKind.LEGENDRIAN_SEAM)
            names[h][k] = name
            pieces[k, h] = Stratum(
                name=name,
                kind=kind,
                dim=dims[k] + dims[h] - 1,
                upper=k,
                lower=h,
                open_dense=k == h == open_label,
            )

    # poset.order is closed, and so is its restriction to the starred types
    upper_covers = _covered_by(poset.order)
    lower_covers = _covered_by(
        frozenset((a, b) for a, b in poset.order if a in starred and b in starred)
    )
    hasse = []
    for a, k2, h2 in sorted((p.name, p.upper, p.lower) for p in pieces.values()):
        covered = [names[h2][k] for k in upper_covers[k2] if k in names[h2]]
        covered += [names[h][k2] for h in lower_covers[h2]]
        if covered:
            hasse.append((a, tuple(sorted(covered))))

    return StratificationResult(
        cl_strata=tuple(sorted(pieces.values(), key=lambda s: (-s.dim, s.name))),
        contact_strata=tuple(sorted(
            (Stratum(
                name=contact_name(label),
                kind=StratumKind.CONTACT,
                dim=2 * dims[label] - 1,
                upper=label,
                lower=label,
            ) for label in starred),
            key=lambda s: s.name,
        )),
        hasse=Relation(tuple(hasse)),
        starred=tuple(sorted(starred)),
        total_types=len(poset.types),
        smooth_total_space=not _semifree_diagnostics(poset, dims, principal),
        type_order=poset.order,
    )


_FRONTIER_CELLS = 1 << 18  # boolean cells per block of frontier rows


def frontier(result: StratificationResult) -> Iterator[tuple[str, tuple[str, ...]]]:
    """The frontier rows (A, (B, ...)) of a stratification, in report order.

    Row A = (K', H') lists the pieces B = (K, H) != A with K <= K' and
    H <= H', the product order, by name.  The pieces are ranked by name,
    and the order on the types is a boolean matrix ``under``, true at
    [t, s] when s <= t.  The rows are taken by lower type, in blocks of
    ``_FRONTIER_CELLS // pieces`` rows.  The columns of a block are the
    pieces B whose lower type lies under the lower type of one of its rows
    A, and the block is ``under[upper of A][:, upper of B] &
    under[lower of A][:, lower of B]`` with the diagonal cleared.
    ``np.nonzero`` lists each row's pieces in rank order, which is name
    order, and one gather from an object array of the names spells them.
    A block holds at most ``_FRONTIER_CELLS`` cells, so the work arrays
    stay small at any size; rows of one lower type share their columns,
    so at 438 types the blocks hold 9 M cells where all rows against all
    pieces would be 51 M.
    """
    pieces = sorted(result.cl_strata, key=lambda s: s.name)
    # CC(L) is (L, L) for every starred L, so the uppers hold every lower
    rank = {label: i for i, label in enumerate(sorted({s.upper for s in pieces}))}
    under = np.eye(len(rank), dtype=bool)
    for low, high in result.type_order:
        if low in rank and high in rank:
            under[rank[high], rank[low]] = True
    upper = np.array([rank[s.upper] for s in pieces], dtype=np.intp)
    lower = np.array([rank[s.lower] for s in pieces], dtype=np.intp)
    names = np.array([s.name for s in pieces], dtype=object)
    rows = [()] * len(pieces)
    step = max(1, _FRONTIER_CELLS // max(1, len(pieces)))
    order = np.argsort(lower, kind="stable")
    for start in range(0, len(pieces), step):
        block = order[start:start + step]
        lower_under = under[lower[block]]
        (cols,) = lower_under.any(axis=0)[lower].nonzero()
        below = under[upper[block]][:, upper[cols]] & lower_under[:, lower[cols]]
        below[np.arange(len(block)), cols.searchsorted(block)] = False
        hit_rows, hit_cols = below.nonzero()
        gathered = names[cols[hit_cols]].tolist()
        end = 0
        for a, count in zip(block.tolist(), np.bincount(hit_rows, minlength=len(block)).tolist()):
            rows[a] = tuple(gathered[end:end + count])
            end += count
    for a, row in zip(names.tolist(), rows):
        if row:
            yield a, row


def result_to_dot(result: StratificationResult) -> str:
    """DOT rendering of the C-L frontier; an edge A -> B means A is
    contained in the closure of B.  Nodes and edges are sorted."""
    lines = ["digraph cl_strata {", '  rankdir="BT";']
    for s in sorted(result.cl_strata, key=lambda s: s.name):
        name = _dot_quoted(s.name)
        lines.append(f'  "{name}" [label="{name}\\ndim {s.dim}, {s.kind.value}"];')
    for a, covered in result.hasse.rows:
        a = _dot_quoted(a)
        lines.extend(f'  "{a}" -> "{_dot_quoted(b)}";' for b in covered)
    lines.append("}")
    return "\n".join(lines) + "\n"
