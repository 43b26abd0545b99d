"""Order oracles on relations given as sets of (a, b) pairs: a depth-first
transitive closure, the covers of a closed relation, and the construction
and validation of an isotropy poset pair by pair.

``cosphere.poset`` stores, closes, reduces and validates the type order as
down-set bitmasks; these pair routines are the second, independent route
the tests compare it (and the C-L frontier and its covers) against.
"""

from collections import defaultdict

from cosphere.poset import MAX_TYPES, InvalidPosetError


def pair_closure(pairs):
    """Transitive closure of a finite relation given as ordered pairs."""
    succ = defaultdict(set)
    for a, b in pairs:
        succ[a].add(b)
    closed = set()
    for a in list(succ):
        seen = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            closed.add((a, b))
            stack.extend(succ.get(b, ()))
    return frozenset(closed)


def pair_covers(closed):
    """Covering pairs of a transitively closed strict order: (a, b) with no
    c between them."""
    succ = defaultdict(set)
    pred = defaultdict(set)
    for a, b in closed:
        assert a != b, f"relation has a cycle through {a!r}"
        succ[a].add(b)
        pred[b].add(a)
    return frozenset((a, b) for a, b in closed if succ[a].isdisjoint(pred[b]))


def pair_poset(types, order, dim_Q_of, dim_G, dim_Q):
    """``(labels, under, closed order)`` of the poset the generator pairs
    ``order`` give ``types``, built and checked pair by pair: the type cap
    first, then the labels the pairs name, then every invariant on the
    closed pairs.  A poset that breaks any raises :class:`InvalidPosetError`
    naming each violation, in the order and words of the library."""
    known = {t.label for t in types}
    if len(types) > MAX_TYPES:
        bad = [f"{len(types)} orbit types exceeds the cap of {MAX_TYPES}"]
    else:
        bad = [f"order pair ({a!r}, {b!r}) references an unknown label"
               for a, b in sorted({(a, b) for a, b in order
                                   if a not in known or b not in known})]
    if bad:
        raise InvalidPosetError("invalid isotropy poset: " + "; ".join(bad))
    closed = pair_closure(order)
    labels = tuple(sorted(known))
    rank = {label: t for t, label in enumerate(labels)}
    under = [0] * len(labels)
    for a, b in closed:
        under[rank[b]] |= 1 << rank[a]
    bad = pair_violations(types, closed, dim_Q_of, dim_G, dim_Q)
    if bad:
        raise InvalidPosetError("invalid isotropy poset: " + "; ".join(bad))
    return labels, tuple(under), closed


def pair_violations(types, closed, dim_Q_of, dim_G, dim_Q):
    """Every violated isotropy-lattice invariant of ``types`` under the
    closed pairs ``closed``, naming the order's violations pair by pair."""
    bad = []
    labels = [t.label for t in types]
    if not labels:
        bad.append("type list is empty")
    if len(set(labels)) != len(labels):
        bad.append("orbit type labels are not unique")
    if dim_G < 0 or dim_Q < 0:
        bad.append("dim_G and dim_Q must be nonnegative")
    by_label = {t.label: t for t in types}
    if sum(t.is_identity for t in types) > 1:
        bad.append("more than one orbit type is flagged as the identity class")
    for t in types:
        if t.dim_H < 0 or t.dim_H > dim_G:
            bad.append(f"type {t.label!r}: dim_H = {t.dim_H} outside [0, dim_G]")
        if t.is_identity and (t.dim_H != 0 or t.finite_tag is not None):
            bad.append(f"type {t.label!r}: identity class must have dim 0 and no finite tag")
        if t.label not in dim_Q_of:
            bad.append(f"type {t.label!r}: missing dim_Q_of entry")
            continue
        d = dim_Q_of[t.label]
        if d < 0 or d > dim_Q:
            bad.append(f"type {t.label!r}: dim_Q_of = {d} outside [0, dim_Q]")
        if d < dim_G - t.dim_H:
            bad.append(f"type {t.label!r}: dim_Q_of = {d} below the orbit dimension "
                       f"{dim_G - t.dim_H}")
    for extra in sorted(set(dim_Q_of) - set(labels)):
        bad.append(f"dim_Q_of entry {extra!r} matches no orbit type")
    for a, b in sorted(closed):
        if a == b:
            bad.append(f"order is not irreflexive: ({a!r}, {a!r})")
        elif (b, a) in closed:
            if a < b:
                bad.append(f"order is not antisymmetric: {a!r} and {b!r}")
        else:
            ta, tb = by_label[a], by_label[b]
            if ta.dim_H > tb.dim_H:
                bad.append(f"({a!r}) < ({b!r}) but dim {ta.dim_H} > {tb.dim_H}: "
                           "a subgroup cannot exceed the ambient dimension")
            elif ta.dim_H == tb.dim_H and ta.finite_tag == tb.finite_tag:
                bad.append(f"({a!r}) < ({b!r}) with equal dimension and equal finite tag: "
                           "strict subconjugation needs distinct finite data")
    return bad
