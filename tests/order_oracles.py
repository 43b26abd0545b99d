"""Order oracles on relations given as sets of (a, b) pairs: a depth-first
transitive closure and the covers of a closed relation.

``cosphere.poset`` closes and reduces the type order as down-set bitmasks;
these pair routines are the second, independent route the tests compare
it (and the C-L frontier and its covers) against.
"""

from collections import defaultdict


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
