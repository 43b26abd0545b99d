"""Stratifications of the reduced cosphere bundle at zero momentum.

Three nested decompositions of the singular quotient C_0 are computed from
an isotropy lattice alone:

* the contact stratification, one stratum Contact(L) per starred orbit
  type, of dimension 2 (dim Q_(L) - dim G + dim L) - 1;
* the secondary decomposition of each Contact(L) into a cosphere-like open
  dense piece CC(L) and one seam Seam(H > L) per type H strictly above L;
* the coisotropic-or-Legendrian (C-L) stratification, the union of those
  pieces over all starred L.  Naming CC(L) by the pair (L, L) and
  Seam(H > L) by (H, L), its frontier is the product order on the pairs,
  the transitive closure of the paper's five combinatorial rules.

A seam is coisotropic when its upper type is itself starred and Legendrian
otherwise; the dimension identity

    dim Seam(H > L) - (dim Contact(L) - 1)/2 = dim Q_(H) - dim G + dim H

pins the excess over half the contact dimension and is asserted on every
classification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .poset import (
    IsotropyPoset,
    NoUniqueMinimumError,
    hasse_edges,
    principal_type,
    validate,
)


class StratificationError(ValueError):
    pass


class InvalidPosetError(StratificationError):
    pass


class NotStarredTypeError(StratificationError):
    pass


class MultipleOrbitTypesError(StratificationError):
    pass


class NotAlmostSemifreeError(StratificationError):
    pass


class InconsistentDimensionsError(StratificationError):
    """The seam dimension identity failed; the poset data is inconsistent."""


class StratumKind(str, Enum):
    CONTACT = "contact-stratum"
    COSPHERE = "cosphere-like"
    COISOTROPIC_SEAM = "coisotropic-seam"
    LEGENDRIAN_SEAM = "legendrian-seam"


@dataclass(frozen=True)
class Stratum:
    """One piece of a stratification of C_0.

    ``base_target`` is the orbit-type stratum of Q/G the piece fibers over
    (for contact strata: the open stratum of the closure it maps onto).
    ``parent_contact`` names the contact stratum containing the piece.
    Seams additionally record their upper orbit type.
    """

    name: str
    kind: StratumKind
    dim: int
    base_target: str
    parent_contact: str
    seam_upper: str | None = None
    open_dense: bool = False


@dataclass(frozen=True)
class StratificationResult:
    """C-L pieces with their frontier.

    ``frontier`` holds pairs (A, B) meaning A is contained in the boundary
    of B; it is the product order on the (upper, lower) type pairs of the
    pieces, which is the transitive closure of the five generation rules.
    ``closure_only`` flags the pairs supplied by closure rather than by a
    rule directly.  ``hasse`` is the covering relation of the frontier.
    """

    cl_strata: tuple[Stratum, ...]
    contact_strata: tuple[Stratum, ...]
    frontier: frozenset[tuple[str, str]]
    hasse: tuple[tuple[str, str], ...]
    closure_only: frozenset[tuple[str, str]]
    starred: tuple[str, ...]
    total_types: int
    quotient_connected: bool
    smooth_total_space: bool = False

    @property
    def piece_count(self) -> int:
        return len(self.cl_strata)


def _require_valid(poset: IsotropyPoset) -> None:
    report = validate(poset)
    if not report.ok:
        raise InvalidPosetError("; ".join(report.violations))


def stratum_quotient_dim(poset: IsotropyPoset, label: str) -> int:
    """dim Q^(L) = dim Q_(L) - dim G + dim L, the orbit-type stratum in Q/G."""
    t = poset.get_type(label)
    return poset.dim_Q_of[label] - poset.dim_G + t.dim_H


def starred_lattice(poset: IsotropyPoset) -> frozenset[str]:
    """Orbit types whose quotient stratum is at least one-dimensional."""
    return frozenset(
        t.label for t in poset.types if stratum_quotient_dim(poset, t.label) >= 1
    )


def contact_name(label: str) -> str:
    return f"Contact({label})"


def cc_name(label: str) -> str:
    return f"CC({label})"


def seam_name(upper: str, lower: str) -> str:
    return f"Seam({upper}>{lower})"


def contact_strata(poset: IsotropyPoset) -> tuple[Stratum, ...]:
    """The contact stratification of C_0, one stratum per starred type."""
    _require_valid(poset)
    return _contact_strata(poset, starred_lattice(poset))


def _contact_strata(poset: IsotropyPoset, starred: frozenset[str]) -> tuple[Stratum, ...]:
    out = []
    for t in poset.types:
        if t.label not in starred:
            continue
        d = stratum_quotient_dim(poset, t.label)
        out.append(
            Stratum(
                name=contact_name(t.label),
                kind=StratumKind.CONTACT,
                dim=2 * d - 1,
                base_target=t.label,
                parent_contact=contact_name(t.label),
            )
        )
    return tuple(sorted(out, key=lambda s: s.name))


def contact_frontier(poset: IsotropyPoset) -> frozenset[tuple[str, str]]:
    """Frontier pairs among contact strata: Contact(K) lies in the boundary
    of Contact(H) exactly when (H) < (K)."""
    starred = starred_lattice(poset)
    return frozenset(
        (contact_name(k), contact_name(h))
        for h, k in poset.order
        if h in starred and k in starred
    )


def classify_seam(poset: IsotropyPoset, upper: str, lower: str) -> Stratum:
    """Build and classify the seam of Contact(lower) with upper type ``upper``.

    The degenerate call upper == lower reproduces the cosphere-like piece.
    Coisotropic seams are those whose upper type is starred; otherwise the
    seam is Legendrian of exactly half-boundary dimension.
    """
    return _classify_seam(poset, upper, lower, starred_lattice(poset))


def _classify_seam(
    poset: IsotropyPoset, upper: str, lower: str, starred: frozenset[str]
) -> Stratum:
    if lower not in starred:
        raise NotStarredTypeError(
            f"({lower}) is not starred: its quotient stratum has dimension "
            f"{stratum_quotient_dim(poset, lower)}, so Contact({lower}) is empty"
        )
    if upper != lower and (lower, upper) not in poset.order:
        raise StratificationError(f"({lower}) < ({upper}) does not hold in the lattice")

    d_low = stratum_quotient_dim(poset, lower)
    d_up = stratum_quotient_dim(poset, upper)
    dim = (
        poset.dim_Q_of[upper]
        + poset.dim_Q_of[lower]
        - 2 * poset.dim_G
        + poset.get_type(upper).dim_H
        + poset.get_type(lower).dim_H
        - 1
    )
    if upper == lower:
        return Stratum(
            name=cc_name(lower),
            kind=StratumKind.COSPHERE,
            dim=dim,
            base_target=lower,
            parent_contact=contact_name(lower),
        )

    contact_dim = 2 * d_low - 1
    excess = dim - (contact_dim - 1) // 2
    if excess != d_up or excess < 0:
        raise InconsistentDimensionsError(
            f"seam ({upper}) > ({lower}): excess {excess} does not match "
            f"dim Q^({upper}) = {d_up}"
        )
    kind = StratumKind.COISOTROPIC_SEAM if upper in starred else StratumKind.LEGENDRIAN_SEAM
    return Stratum(
        name=seam_name(upper, lower),
        kind=kind,
        dim=dim,
        base_target=upper,
        parent_contact=contact_name(lower),
        seam_upper=upper,
    )


def secondary_strata(poset: IsotropyPoset, lower: str) -> tuple[Stratum, ...]:
    """The secondary decomposition of Contact(lower): CC piece plus seams."""
    _require_valid(poset)
    starred = starred_lattice(poset)
    cc = replace(_classify_seam(poset, lower, lower, starred), open_dense=True)
    uppers = sorted(h for (l, h) in poset.order if l == lower)
    return (cc, *(_classify_seam(poset, h, lower, starred) for h in uppers))


def cl_stratification(
    poset: IsotropyPoset, quotient_connected: bool = True
) -> StratificationResult:
    """The full C-L stratification with its frontier poset.

    Each piece is a pair (K, H) of types with H starred and H <= K: CC(H)
    is (H, H) and Seam(K>H) is (K, H).  The frontier is the product order
    on these pairs, (K', H') in bd (K, H) iff the pairs differ, H <= H' and
    K <= K'.  It equals the transitive closure of the paper's five rules,
    which supply exactly the pairs where one coordinate moves, plus
    CC(K) < CC(H); the pairs where both coordinates move are the
    ``closure_only`` ones.  A cover moves one coordinate by one cover: K in
    the lattice, H among the starred types.  With a connected quotient the
    cosphere-like piece over the principal type is the unique open dense
    stratum.
    """
    _require_valid(poset)
    starred = starred_lattice(poset)
    above = {t.label: {t.label} for t in poset.types}  # L and every type over it
    for low, high in poset.order:
        above[low].add(high)
    pieces = {
        (k, h): _classify_seam(poset, k, h, starred)
        for h in sorted(starred)
        for k in sorted(above[h])
    }
    if quotient_connected:
        try:
            principal = principal_type(poset).label
        except NoUniqueMinimumError:
            principal = None
        if principal in starred:
            cc = pieces[principal, principal]
            pieces[principal, principal] = replace(cc, open_dense=True)

    upper_covers = hasse_edges(poset.order)
    lower_covers = hasse_edges(
        (a, b) for a, b in poset.order if a in starred and b in starred
    )
    frontier: set[tuple[str, str]] = set()
    hasse: list[tuple[str, str]] = []
    closure_only: set[tuple[str, str]] = set()
    for (k, h), piece in pieces.items():
        for h2 in above[h] & starred:
            for k2 in above[k] & above[h2]:
                if (k2, h2) == (k, h):
                    continue
                edge = (pieces[k2, h2].name, piece.name)
                frontier.add(edge)
                if k2 != k and h2 != h:
                    if not (k == h and k2 == h2):  # rule (i): CC(K) < CC(H)
                        closure_only.add(edge)
                elif (k, k2) in upper_covers or (h, h2) in lower_covers:
                    hasse.append(edge)

    return StratificationResult(
        cl_strata=tuple(sorted(pieces.values(), key=lambda s: (-s.dim, s.name))),
        contact_strata=_contact_strata(poset, starred),
        frontier=frozenset(frontier),
        hasse=tuple(sorted(hasse)),
        closure_only=frozenset(closure_only),
        starred=tuple(sorted(starred)),
        total_types=len(poset.types),
        quotient_connected=quotient_connected,
    )


def bundle_targets(result: StratificationResult) -> dict[str, str]:
    """Which single orbit-type stratum of Q/G each C-L piece fibers over.

    This is the property the contact strata themselves lack: a contact
    stratum maps onto the closure of its quotient stratum, meeting every
    type above it.
    """
    return {s.name: s.base_target for s in result.cl_strata}


def semifree_decomposition(poset: IsotropyPoset) -> StratificationResult:
    """C-L stratification in the almost-semifree case, where it collapses to
    one cosphere-like piece and one Legendrian seam per singular type.

    Combinatorial precondition: the principal type is the trivial class,
    its stratum fills the quotient (dim Q_(e) = dim Q), and every other
    type has a zero-dimensional quotient stratum.  Raises
    :class:`NotAlmostSemifreeError` otherwise.
    """
    _require_valid(poset)
    try:
        principal = principal_type(poset)
    except Exception as exc:
        raise NotAlmostSemifreeError(str(exc)) from exc
    problems = []
    if not principal.is_identity:
        problems.append(f"principal type ({principal.label}) is not the trivial class")
    if poset.dim_Q_of[principal.label] != poset.dim_Q:
        problems.append("the free part is not open dense in Q")
    for t in poset.types:
        if t.label != principal.label and stratum_quotient_dim(poset, t.label) != 0:
            problems.append(
                f"singular type ({t.label}) has a positive-dimensional quotient stratum"
            )
    if problems:
        raise NotAlmostSemifreeError("; ".join(problems))

    result = cl_stratification(poset)
    # shape check: CC(e) of dimension 2(dim Q - dim G) - 1 plus one
    # Legendrian seam of dimension dim Q - dim G - 1 per singular type
    expected = {cc_name(principal.label): 2 * (poset.dim_Q - poset.dim_G) - 1}
    for t in poset.types:
        if t.label != principal.label:
            expected[seam_name(t.label, principal.label)] = poset.dim_Q - poset.dim_G - 1
    got = {s.name: s.dim for s in result.cl_strata}
    if got != expected:
        raise InconsistentDimensionsError(
            f"semifree decomposition mismatch: {got} != {expected}"
        )
    return replace(result, smooth_total_space=True)


def single_type_reduce(poset: IsotropyPoset) -> Stratum | None:
    """Reduction with a single orbit type: the quotient is a manifold and
    C_0 is the cosphere bundle of Q/G.

    Returns None when Q/G is a point (the cosphere bundle of a point is
    empty).  Raises :class:`MultipleOrbitTypesError` for richer lattices.
    """
    _require_valid(poset)
    if len(poset.types) != 1:
        raise MultipleOrbitTypesError(
            f"lattice has {len(poset.types)} orbit types; single-type reduction needs one"
        )
    label = poset.types[0].label
    d = stratum_quotient_dim(poset, label)
    if d == 0:
        return None
    return Stratum(
        name=cc_name(label),
        kind=StratumKind.COSPHERE,
        dim=2 * d - 1,
        base_target=label,
        parent_contact=contact_name(label),
        open_dense=True,
    )


def result_to_json(result: StratificationResult) -> dict:
    """JSON-ready report of a stratification (deterministic ordering)."""
    def stratum_entry(s: Stratum) -> dict:
        entry = {
            "name": s.name,
            "kind": s.kind.value,
            "dim": s.dim,
            "base_target": s.base_target,
            "parent_contact": s.parent_contact,
            "open_dense": s.open_dense,
        }
        if s.seam_upper is not None:
            entry["seam_upper"] = s.seam_upper
        return entry

    frontier = sorted(result.frontier)  # closure_only is a subset, read off in order
    return {
        "cl_strata": [stratum_entry(s) for s in sorted(result.cl_strata, key=lambda s: s.name)],
        "contact_strata": [
            stratum_entry(s) for s in sorted(result.contact_strata, key=lambda s: s.name)
        ],
        "frontier": frontier,
        "hasse": sorted(result.hasse),
        "closure_only": list(filter(result.closure_only.__contains__, frontier)),
        "starred": sorted(result.starred),
        "piece_count": result.piece_count,
        # the C-L pieces always refine the contact strata, strictly exactly
        # when the lattice has more than one orbit type
        "finer_than_contact": {"finer": True, "strict": result.total_types > 1},
        "smooth_total_space": result.smooth_total_space,
        "bundle_targets": dict(sorted(bundle_targets(result).items())),
    }


def result_to_dot(result: StratificationResult) -> str:
    """DOT rendering of the C-L frontier; an edge A -> B means A is
    contained in the closure of B.  Nodes and edges are sorted."""
    lines = ["digraph cl_strata {", '  rankdir="BT";']
    for s in sorted(result.cl_strata, key=lambda s: s.name):
        lines.append(
            f'  "{s.name}" [label="{s.name}\\ndim {s.dim}, {s.kind.value}"];'
        )
    for a, b in sorted(result.hasse):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
