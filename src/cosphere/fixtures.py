"""Builtin verification fixtures: the reduced space at zero momentum, piece
by piece, generated from the weight matrix.

For a torus action of rank n on R^{2n} the momentum J = A p4 vanishes only
where p4 does, so x_j and u_j are parallel on every plane of a zero-level
point, and two supports fix the piece of its reduced image:

    S   = {j : p1_j > 0}          the planes where (x_j, u_j) is nonzero,
    S_x = {j : p1_j - p3_j > 0}   the planes where x_j is (p1 - p3 = 2|x_j|^2).

With type(P) the stabilizer of the support P, the piece is CC(L) when
type(S_x) = type(S) = L, and Seam(type(S_x) > type(S)) otherwise.  Each
pair S_x ⊆ S with S nonempty is one membership cell, stated as
polynomial constraints over the reduced coordinates (p1, p2, p3 per
plane):

* ``eq(p1_j)`` off S;
* ``gt(p1_j)`` and the cone equation ``eq(p1_j^2 - p2_j^2 - p3_j^2)`` on S;
* ``eq(p1_j - p3_j)`` on S minus S_x and ``gt(p1_j - p3_j)`` on S_x;
* the cosphere equation ``eq(sum(p1 + p3) - 2)``.

An equality holds within the membership band and a strict inequality
needs clearance beyond it, so every eq/gt pair is complementary at one
band and every zero-level image matches exactly one cell.  A cell states
p1 = p3 on a plane by ``eq(p1 - p3)`` and the cone, never by the implied
``eq(p2)``: on the cone p1 - p3 = e forces |p2| ~ sqrt(2 p1 e), so an
image with e inside the band would fail ``eq(p2)`` and ``gt(p1 - p3)``
both.  Each cell has one sampling probe that draws the base point on S_x
and the covector on S, and lands wholly in the cell's piece and in the
orbit type of S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .phase import check_full_rank
from .strata import cc_name, seam_name
from .torus import TorusActionSpec, stabilizer_of_support


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial in the flattened reduced coordinates."""

    const: float = 0.0
    linear: tuple[tuple[float, int], ...] = ()
    quad: tuple[tuple[float, int, int], ...] = ()

    def __call__(self, image: np.ndarray) -> float | np.ndarray:
        """Value at one flattened image, or per row of (N, 3n) images."""
        val = np.full(np.shape(image)[:-1], self.const)
        for c, i in self.linear:
            val += c * image[..., i]
        for c, i, j in self.quad:
            val += c * image[..., i] * image[..., j]
        return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class Constraint:
    kind: str  # "eq" or "gt"
    poly: Poly
    text: str


@dataclass(frozen=True)
class MembershipPiece:
    """One C-L piece of the reduced space, as a constraint list."""

    name: str
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class Probe:
    """A forced-support sampling configuration: the base point on
    ``support_pattern``, the covector on ``covector_pattern`` (None for all
    planes).  Every sample lands in piece ``name`` and orbit type
    ``expect_class``."""

    name: str
    support_pattern: tuple[int, ...] | None
    covector_pattern: tuple[int, ...] | None
    expect_class: str


@dataclass(frozen=True)
class Fixture:
    name: str
    title: str
    spec: TorusActionSpec
    pieces: tuple[MembershipPiece, ...]
    probes: tuple[Probe, ...]


def generate_fixture(name: str, title: str, spec: TorusActionSpec) -> Fixture:
    """The membership cells and probes of a rank-n action, one per support
    pair (S_x, S), ordered by (-|S|, -|S_x|, S_x, S); see module docstring.

    The generic cell comes first.  A weight matrix of rank below n is
    refused with :class:`phase.RankDeficientError`.
    """
    check_full_rank(spec)
    n = spec.n
    p1, diff, cone = [], [], []
    for j in range(n):
        i, k = 3 * j, j + 1
        p1.append(Constraint("eq", Poly(linear=((1.0, i),)), f"p1_{k}"))
        diff.append(Constraint(
            "eq", Poly(linear=((1.0, i), (-1.0, i + 2))), f"p1_{k} - p3_{k}"))
        cone.append(Constraint(
            "eq", Poly(quad=((1.0, i, i), (-1.0, i + 1, i + 1), (-1.0, i + 2, i + 2))),
            f"p1_{k}^2 - p2_{k}^2 - p3_{k}^2"))
    total = Constraint(
        "eq", Poly(const=-2.0, linear=tuple((1.0, 3 * j + c) for j in range(n) for c in (0, 2))),
        "sum(p1 + p3) - 2")

    def subsets(planes):
        return [c for r in range(len(planes) + 1) for c in combinations(planes, r)]

    def label(planes):
        return stabilizer_of_support(spec, planes).label

    def gt(c):
        return Constraint("gt", c.poly, c.text)

    cells = sorted(
        ((sx, s) for s in subsets(range(n)) if s for sx in subsets(s)),
        key=lambda cell: (-len(cell[1]), -len(cell[0]), cell[0], cell[1]),
    )
    pieces, probes = [], []
    for sx, s in cells:
        upper, lower = label(sx), label(s)
        piece = cc_name(lower) if upper == lower else seam_name(upper, lower)
        constraints = []
        for j in range(n):
            if j not in s:
                constraints.append(p1[j])
            else:
                constraints += [gt(p1[j]), cone[j], gt(diff[j]) if j in sx else diff[j]]
        pieces.append(MembershipPiece(piece, tuple(constraints) + (total,)))
        probes.append(Probe(
            piece, None if len(sx) == n else sx, None if len(s) == n else s, lower))
    return Fixture(name, title, spec, tuple(pieces), tuple(probes))


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
    return generate_fixture(name, title, spec)
