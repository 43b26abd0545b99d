"""The reduced spaces of the two builtin fixtures, piece by piece, as
hand-written constraint lists: the oracle that the pieces located by
``cosphere.phase.locate_rows`` are checked against.

Each piece is a name and a list of (kind, text, polynomial) constraints
over the reduced coordinates.  An ``eq`` holds within the band; ``gt``,
``lt`` and ``ne`` need clearance beyond it.  ``s1-on-r2`` splits CC(e)
into the two open branches ``CC(e):L`` (s2 > 0) and ``CC(e):R`` (s2 < 0)
joined across the vertex; :func:`oracle_labels` reads both as CC(e).

The vertex states s1 = s3 by ``eq(s1 - s3)`` with the cone and the sum,
and each branch excludes it by ``ne(s1 - s3)``: on the cone p1 - p3 = e
forces |p2| ~ sqrt(2 p1 e), so the implied ``eq(s2)`` would refuse an
image with e inside the band that no branch may claim either.
"""

from typing import NamedTuple

import numpy as np

from cosphere.phase import MEMBERSHIP_BAND


class Poly(NamedTuple):
    """Sparse polynomial in the flattened reduced coordinates: a constant,
    (coeff, index) linear terms and (coeff, i, j) quadratic terms."""

    const: float = 0.0
    linear: tuple = ()
    quad: tuple = ()

    def __call__(self, images):
        """Values on (N, 3n) image rows, the terms added in order."""
        val = np.full(len(images), self.const)
        for c, i in self.linear:
            val = val + c * images[:, i]
        for c, i, j in self.quad:
            val = val + c * images[:, i] * images[:, j]
        return val


def _v(index, coeff=1.0):
    return (coeff, index)


def _lin(*terms, const=0.0):
    return Poly(const=const, linear=tuple(terms))


def _cone(plane):
    """p1^2 - p2^2 - p3^2 for the given plane."""
    i = 3 * plane
    return Poly(quad=((1.0, i, i), (-1.0, i + 1, i + 1), (-1.0, i + 2, i + 2)))


def s1_on_r2_pieces():
    cone = ("eq", "s1^2 - s2^2 - s3^2", _cone(0))
    total = ("eq", "s1 + s3 - 2", _lin(_v(0), _v(2), const=-2.0))
    d = _lin(_v(0), _v(2, -1.0))
    s2 = _lin(_v(1))
    return [
        ("CC(e):L", [cone, total, ("gt", "s2", s2), ("ne", "s1 - s3", d)]),
        ("CC(e):R", [cone, total, ("lt", "s2", s2), ("ne", "s1 - s3", d)]),
        ("Seam(S^1>e)", [("eq", "s1 - s3", d), cone, total]),
    ]


def t2_on_r4_pieces():
    # image layout: (rho1, rho2, rho3, sig1, sig2, sig3)
    r1, r2, r3, s1, s2, s3 = range(6)
    cone_r = ("eq", "rho1^2 - rho2^2 - rho3^2", _cone(0))
    cone_s = ("eq", "sig1^2 - sig2^2 - sig3^2", _cone(1))
    dr, ds = _lin(_v(r1), _v(r3, -1.0)), _lin(_v(s1), _v(s3, -1.0))
    rho1, sig1 = ("gt", "rho1", _lin(_v(r1))), ("gt", "sig1", _lin(_v(s1)))
    rho_zero = [("eq", f"rho{i + 1}", _lin(_v(i))) for i in (r1, r2, r3)]
    sig_zero = [("eq", f"sig{i - 2}", _lin(_v(i))) for i in (s1, s2, s3)]
    rho_mass = ("eq", "rho1 + rho3 - 2", _lin(_v(r1), _v(r3), const=-2.0))
    sig_mass = ("eq", "sig1 + sig3 - 2", _lin(_v(s1), _v(s3), const=-2.0))
    return [
        ("CC(e)", [
            cone_r, cone_s,
            ("eq", "rho1 + rho3 + sig1 + sig3 - 2",
             _lin(_v(r1), _v(r3), _v(s1), _v(s3), const=-2.0)),
            rho1, sig1, ("ne", "rho1 - rho3", dr), ("ne", "sig1 - sig3", ds),
        ]),
        ("Seam(e×S^1>e)", [
            rho1, sig1, ("ne", "rho1 - rho3", dr), ("eq", "sig1 - sig3", ds), cone_s,
            ("eq", "rho1 + rho3 + 2 sig1 - 2", _lin(_v(r1), _v(r3), _v(s1, 2.0), const=-2.0)),
            cone_r,
        ]),
        ("Seam(S^1×e>e)", [
            rho1, sig1, ("eq", "rho1 - rho3", dr), cone_r, ("ne", "sig1 - sig3", ds),
            ("eq", "2 rho1 + sig1 + sig3 - 2", _lin(_v(r1, 2.0), _v(s1), _v(s3), const=-2.0)),
            cone_s,
        ]),
        ("Seam(T^2>e)", [
            rho1, sig1, ("eq", "rho1 - rho3", dr), cone_r, ("eq", "sig1 - sig3", ds), cone_s,
            ("eq", "rho1 + sig1 - 1", _lin(_v(r1), _v(s1), const=-1.0)),
        ]),
        ("CC(e×S^1)", sig_zero + [rho1, rho_mass, cone_r, ("ne", "rho1 - rho3", dr)]),
        ("CC(S^1×e)", rho_zero + [sig1, sig_mass, cone_s, ("ne", "sig1 - sig3", ds)]),
        ("Seam(T^2>e×S^1)", [rho_mass, ("eq", "rho1 - rho3", dr), cone_r] + sig_zero),
        ("Seam(T^2>S^1×e)", rho_zero + [sig_mass, ("eq", "sig1 - sig3", ds), cone_s]),
    ]


HAND_PIECES = {"s1-on-r2": s1_on_r2_pieces(), "t2-on-r4": t2_on_r4_pieces()}


def oracle_labels(fixture_name, images, band=MEMBERSHIP_BAND):
    """The C-L name of the one hand-written piece each (N, 3n) image row
    matches, with the ":L"/":R" suffix dropped; "(none)" or "(several)"
    where not exactly one piece matches."""
    pieces = HAND_PIECES[fixture_name]
    images = np.asarray(images, dtype=float)
    ok = np.ones((len(images), len(pieces)), dtype=bool)
    for p, (_, constraints) in enumerate(pieces):
        for kind, _, poly in constraints:
            v = poly(images)
            ok[:, p] &= {
                "eq": np.abs(v) <= band,
                "gt": v > band,
                "lt": v < -band,
                "ne": np.abs(v) > band,
            }[kind]
    names = np.array(
        [name.split(":")[0] for name, _ in pieces] + ["(none)", "(several)"], dtype=object
    )
    hits = ok.sum(axis=1)
    index = np.where(hits == 1, ok.argmax(axis=1), len(pieces) + (hits > 1))
    return names[index]
