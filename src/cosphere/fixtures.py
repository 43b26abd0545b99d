"""Builtin verification fixtures: a weight matrix of rank n and its C-L
stratification, probed piece by piece.

At rank n the momentum J = A p4 vanishes only where p4 does, so x_j and
u_j are parallel on every plane of a zero-level point, and two supports
fix the piece of its reduced image:

    S   = {j : p1_j > 0}          the planes where (x_j, u_j) is nonzero,
    S_x = {j : p1_j - p3_j > 0}   the planes where x_j is (p1 - p3 = 2|x_j|^2).

The image lies in the piece (type(S_x), type(S)): CC(L) when both types
are L, Seam(type(S_x) > type(S)) otherwise.  Each piece (K, H) is probed
once, with the base point drawn on top(K) and the covector on top(H),
top(t) the union of the supports of type t.  :func:`phase.locate_rows`
reads the two supports off band tests with two complementary outcomes
each.  S_x is read from p1 - p3, never from the implied p2 = 0: on the
cone |p2| ~ sqrt(2 p1 (p1 - p3)) lies far outside the band while p1 - p3
is inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .strata import StratificationResult, cl_stratification
from .torus import TorusActionSpec, build_isotropy_poset, check_full_rank, support_types


@dataclass(frozen=True)
class Fixture:
    """A weight matrix of rank n and its C-L stratification ``result``;
    ``piece_at`` and ``probes`` are read off it on first use and kept."""

    name: str
    title: str
    spec: TorusActionSpec
    result: StratificationResult

    @cached_property
    def piece_at(self) -> np.ndarray:
        """Read-only (types x types) index: ``piece_at[K, H]`` is the
        position in ``result.pieces`` of the piece (K, H), -1 where there is
        none; a pair listed twice names the later piece."""
        types = len(self.result.labels)
        at = np.full((types, types), -1, dtype=np.intp)
        for i, (k, h) in enumerate(zip(self.result.uppers, self.result.lowers)):
            at[k, h] = i
        at.setflags(write=False)
        return at

    @cached_property
    def probes(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """One probe (piece, S_x, S) per piece (K, H), S_x = top(K) and
        S = top(H) as plane tuples, ordered by (-|S|, -|S_x|, S_x, S); see
        the module docstring.  The principal piece comes first."""
        n, tops = self.spec.n, support_types(self.spec)[2]
        planes = [tuple(j for j in range(n) if top >> j & 1) for top in tops]
        probes = [(i, planes[k], planes[h])
                  for i, (k, h) in enumerate(zip(self.result.uppers, self.result.lowers))]
        return tuple(sorted(probes, key=lambda p: (-len(p[2]), -len(p[1]), p[1], p[2])))


def build_fixture(name: str, title: str, spec: TorusActionSpec) -> Fixture:
    """The fixture of a weight matrix of rank n; one of rank below n is
    refused with :class:`torus.RankDeficientError`."""
    check_full_rank(spec)
    return Fixture(name, title, spec, cl_stratification(build_isotropy_poset(spec)))


# name -> (title, weight matrix)
BUILTIN_FIXTURES = {
    "s1-on-r2": ("circle rotating one plane", ((1,),)),
    "t2-on-r4": ("2-torus rotating two planes", ((1, 0), (0, 1))),
}


@lru_cache(maxsize=None)
def get_fixture(name: str) -> Fixture:
    try:
        title, weights = BUILTIN_FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; builtins: {sorted(BUILTIN_FIXTURES)}"
        ) from None
    spec = TorusActionSpec(k=len(weights), n=len(weights[0]), weights=weights)
    return build_fixture(name, title, spec)
