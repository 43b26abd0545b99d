"""Builtin verification fixtures: the reduced space at zero momentum, piece
by piece, generated from the weight matrix.

For a torus action of rank n on R^{2n} the momentum J = A p4 vanishes only
where p4 does, so x_j and u_j are parallel on every plane of a zero-level
point, and two supports fix the piece of its reduced image:

    S   = {j : p1_j > 0}          the planes where (x_j, u_j) is nonzero,
    S_x = {j : p1_j - p3_j > 0}   the planes where x_j is (p1 - p3 = 2|x_j|^2).

With type(P) the stabilizer of the support P, the piece is CC(L) when
type(S_x) = type(S) = L, and Seam(type(S_x) > type(S)) otherwise.  Each
pair S_x ⊆ S with S nonempty is one :class:`Cell`: the piece of the
images with those supports, and the probe that samples it by drawing the
base point on S_x and the covector on S.  Every sample of a cell lands
wholly in its piece and in the orbit type of S.

:func:`phase.locate_rows` reads the two supports off an image by band
tests, one per plane, stated in its docstring.  Each test has two
complementary outcomes at one band, so every zero-level image has exactly
one pair of supports.  S_x is read from p1 - p3, never from the implied
p2 = 0: on the cone p1 - p3 = e forces |p2| ~ sqrt(2 p1 e), so an image
with e inside the band has |p2| far outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .phase import check_full_rank
from .strata import cc_name, seam_name
from .torus import TorusActionSpec, class_label, support_lattices


@dataclass(frozen=True)
class Cell:
    """The piece ``name`` of the images with supports (``support_x``,
    ``support``), and its probe: the base point on ``support_x``, the
    covector on ``support``.  Every sample lands in piece ``name`` and
    orbit type ``expect_class``."""

    name: str
    support_x: tuple[int, ...]
    support: tuple[int, ...]
    expect_class: str


@dataclass(frozen=True)
class Fixture:
    name: str
    title: str
    spec: TorusActionSpec
    cells: tuple[Cell, ...]


def generate_fixture(name: str, title: str, spec: TorusActionSpec) -> Fixture:
    """The cells of a rank-n action, one per support pair (S_x, S),
    ordered by (-|S|, -|S_x|, S_x, S); see module docstring.

    The generic cell comes first.  A weight matrix of rank below n is
    refused with :class:`phase.RankDeficientError`.
    """
    check_full_rank(spec)
    table = support_lattices(spec)

    def subsets(planes):
        return [c for r in range(len(planes) + 1) for c in combinations(planes, r)]

    def label(planes):
        return class_label(spec.k, table[sum(1 << j for j in planes)])

    pairs = sorted(
        ((sx, s) for s in subsets(range(spec.n)) if s for sx in subsets(s)),
        key=lambda pair: (-len(pair[1]), -len(pair[0]), pair[0], pair[1]),
    )
    cells = []
    for sx, s in pairs:
        upper, lower = label(sx), label(s)
        piece = cc_name(lower) if upper == lower else seam_name(upper, lower)
        cells.append(Cell(piece, sx, s, lower))
    return Fixture(name, title, spec, tuple(cells))


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
