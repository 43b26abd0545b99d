"""Builtin verification fixtures: concrete reductions with known answers.

Two torus actions ship with the package, and for each one the reduced
space at zero momentum is described exactly, piece by piece, as lists of
polynomial equalities and inequalities over the reduced coordinates
(p1, p2, p3 per plane).  The descriptions are data, not code, so a failed
membership check can report which constraint was violated.

``s1-on-r2``: the circle rotating one plane.  The reduced space is the
parabola-like curve {s1 >= 0, s1^2 = s2^2 + s3^2, s1 + s3 = 2}, split into
two open branches L (s2 > 0) and R (s2 < 0) joined across the vertex
(1, 0, 1), which is the single Legendrian seam.

``t2-on-r4``: the 2-torus rotating two planes independently.  Eight C-L
pieces: three cosphere-like pieces, two coisotropic seams, three
Legendrian seams (two of which are points).

The pieces are complementary at one band: every zero-level image matches
exactly one of them.  So a piece that needs p1 = p3 on a plane states
``eq(p1 - p3)`` plus that plane's cone equation, never the implied
``eq(p2)``: on the cone p1 - p3 = e forces |p2| ~ sqrt(2 p1 e), so an
image with e inside the band would fail both ``eq(p2)`` and the
neighbour's ``ne(p1 - p3)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .torus import TorusActionSpec


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
    kind: str  # "eq", "gt", "lt" or "ne"
    poly: Poly
    text: str


@dataclass(frozen=True)
class MembershipPiece:
    """One stratum piece (or connected component of one), as a constraint list.

    Component names use a ":" suffix, e.g. "CC(e):L"; ``stratum_of`` strips
    it to recover the C-L stratum name.
    """

    name: str
    constraints: tuple[Constraint, ...]


def stratum_of(piece_name: str) -> str:
    return piece_name.split(":")[0]


@dataclass(frozen=True)
class Probe:
    """A forced-support sampling configuration and what it must produce."""

    name: str
    support_pattern: tuple[int, ...] | None
    covector_pattern: tuple[int, ...] | None
    expect_pieces: tuple[str, ...]
    expect_class: str
    min_fraction: float = 1.0


@dataclass(frozen=True)
class Fixture:
    name: str
    title: str
    spec: TorusActionSpec
    pieces: tuple[MembershipPiece, ...]
    probes: tuple[Probe, ...]
    k0_offsets: tuple[float, ...]
    k0_geometric: bool
    notes: str = ""


def _v(index: int, coeff: float = 1.0) -> tuple[float, int]:
    return (coeff, index)


def _sq(index: int, coeff: float = 1.0) -> tuple[float, int, int]:
    return (coeff, index, index)


def eq(text: str, poly: Poly) -> Constraint:
    return Constraint("eq", poly, text)


def gt(text: str, poly: Poly) -> Constraint:
    return Constraint("gt", poly, text)


def lt(text: str, poly: Poly) -> Constraint:
    return Constraint("lt", poly, text)


def ne(text: str, poly: Poly) -> Constraint:
    return Constraint("ne", poly, text)


def _cone(plane: int) -> Poly:
    """p1^2 - p2^2 - p3^2 for the given plane (vanishes when p4 does)."""
    i = 3 * plane
    return Poly(quad=(_sq(i), _sq(i + 1, -1.0), _sq(i + 2, -1.0)))


@lru_cache(maxsize=None)
def s1_on_r2() -> Fixture:
    spec = TorusActionSpec(k=1, n=1, weights=((1,),))
    cone = _cone(0)
    total = Poly(const=-2.0, linear=(_v(0), _v(2)))
    pieces = (
        MembershipPiece(
            "CC(e):L",
            (
                eq("s1^2 - s2^2 - s3^2", cone),
                eq("s1 + s3 - 2", total),
                gt("s2", Poly(linear=(_v(1),))),
            ),
        ),
        MembershipPiece(
            "CC(e):R",
            (
                eq("s1^2 - s2^2 - s3^2", cone),
                eq("s1 + s3 - 2", total),
                lt("s2", Poly(linear=(_v(1),))),
            ),
        ),
        MembershipPiece(
            "Seam(S^1>e)",
            (
                eq("s1 - 1", Poly(const=-1.0, linear=(_v(0),))),
                eq("s2", Poly(linear=(_v(1),))),
                eq("s3 - 1", Poly(const=-1.0, linear=(_v(2),))),
            ),
        ),
    )
    probes = (
        Probe(
            "generic",
            support_pattern=None,
            covector_pattern=None,
            expect_pieces=("CC(e):L", "CC(e):R"),
            expect_class="e",
        ),
        Probe(
            "vertex",
            support_pattern=(),
            covector_pattern=None,
            expect_pieces=("Seam(S^1>e)",),
            expect_class="e",
        ),
    )
    return Fixture(
        name="s1-on-r2",
        title="circle rotating one plane",
        spec=spec,
        pieces=pieces,
        probes=probes,
        k0_offsets=(1.0,),
        k0_geometric=True,
        notes=(
            "With a single plane the covector mass is identically 1, so the "
            "base projection (s1 - 1, 0, 1 - s1) is exact on every piece."
        ),
    )


@lru_cache(maxsize=None)
def t2_on_r4() -> Fixture:
    spec = TorusActionSpec(k=2, n=2, weights=((1, 0), (0, 1)))
    # image layout: (rho1, rho2, rho3, sig1, sig2, sig3)
    r1, r2, r3, s1, s2, s3 = range(6)
    cone_r, cone_s = _cone(0), _cone(1)
    total = Poly(const=-2.0, linear=(_v(r1), _v(r3), _v(s1), _v(s3)))
    dr = Poly(linear=(_v(r1), _v(r3, -1.0)))
    ds = Poly(linear=(_v(s1), _v(s3, -1.0)))

    pieces = (
        MembershipPiece(
            "CC(e)",
            (
                eq("rho1^2 - rho2^2 - rho3^2", cone_r),
                eq("sig1^2 - sig2^2 - sig3^2", cone_s),
                eq("rho1 + rho3 + sig1 + sig3 - 2", total),
                gt("rho1", Poly(linear=(_v(r1),))),
                gt("sig1", Poly(linear=(_v(s1),))),
                ne("rho1 - rho3", dr),
                ne("sig1 - sig3", ds),
            ),
        ),
        MembershipPiece(
            "Seam(e×S^1>e)",
            (
                gt("rho1", Poly(linear=(_v(r1),))),
                gt("sig1", Poly(linear=(_v(s1),))),
                ne("rho1 - rho3", dr),
                eq("sig1 - sig3", ds),
                eq("sig1^2 - sig2^2 - sig3^2", cone_s),
                eq("rho1 + rho3 + 2 sig1 - 2",
                   Poly(const=-2.0, linear=(_v(r1), _v(r3), _v(s1, 2.0)))),
                eq("rho1^2 - rho2^2 - rho3^2", cone_r),
            ),
        ),
        MembershipPiece(
            "Seam(S^1×e>e)",
            (
                gt("rho1", Poly(linear=(_v(r1),))),
                gt("sig1", Poly(linear=(_v(s1),))),
                eq("rho1 - rho3", dr),
                eq("rho1^2 - rho2^2 - rho3^2", cone_r),
                ne("sig1 - sig3", ds),
                eq("2 rho1 + sig1 + sig3 - 2",
                   Poly(const=-2.0, linear=(_v(r1, 2.0), _v(s1), _v(s3)))),
                eq("sig1^2 - sig2^2 - sig3^2", cone_s),
            ),
        ),
        MembershipPiece(
            "Seam(T^2>e)",
            (
                gt("rho1", Poly(linear=(_v(r1),))),
                gt("sig1", Poly(linear=(_v(s1),))),
                eq("rho1 - rho3", dr),
                eq("rho1^2 - rho2^2 - rho3^2", cone_r),
                eq("sig1 - sig3", ds),
                eq("sig1^2 - sig2^2 - sig3^2", cone_s),
                eq("rho1 + sig1 - 1", Poly(const=-1.0, linear=(_v(r1), _v(s1)))),
            ),
        ),
        MembershipPiece(
            "CC(e×S^1)",
            (
                eq("sig1", Poly(linear=(_v(s1),))),
                eq("sig2", Poly(linear=(_v(s2),))),
                eq("sig3", Poly(linear=(_v(s3),))),
                gt("rho1", Poly(linear=(_v(r1),))),
                eq("rho1 + rho3 - 2", Poly(const=-2.0, linear=(_v(r1), _v(r3)))),
                eq("rho1^2 - rho2^2 - rho3^2", cone_r),
                ne("rho1 - rho3", dr),
            ),
        ),
        MembershipPiece(
            "CC(S^1×e)",
            (
                eq("rho1", Poly(linear=(_v(r1),))),
                eq("rho2", Poly(linear=(_v(r2),))),
                eq("rho3", Poly(linear=(_v(r3),))),
                gt("sig1", Poly(linear=(_v(s1),))),
                eq("sig1 + sig3 - 2", Poly(const=-2.0, linear=(_v(s1), _v(s3)))),
                eq("sig1^2 - sig2^2 - sig3^2", cone_s),
                ne("sig1 - sig3", ds),
            ),
        ),
        MembershipPiece(
            "Seam(T^2>e×S^1)",
            (
                eq("rho1 + rho3 - 2", Poly(const=-2.0, linear=(_v(r1), _v(r3)))),
                eq("rho1 - rho3", dr),
                eq("rho1^2 - rho2^2 - rho3^2", cone_r),
                eq("sig1", Poly(linear=(_v(s1),))),
                eq("sig2", Poly(linear=(_v(s2),))),
                eq("sig3", Poly(linear=(_v(s3),))),
            ),
        ),
        MembershipPiece(
            "Seam(T^2>S^1×e)",
            (
                eq("rho1", Poly(linear=(_v(r1),))),
                eq("rho2", Poly(linear=(_v(r2),))),
                eq("rho3", Poly(linear=(_v(r3),))),
                eq("sig1 + sig3 - 2", Poly(const=-2.0, linear=(_v(s1), _v(s3)))),
                eq("sig1 - sig3", ds),
                eq("sig1^2 - sig2^2 - sig3^2", cone_s),
            ),
        ),
    )
    probes = (
        Probe(
            "generic",
            support_pattern=None,
            covector_pattern=None,
            expect_pieces=("CC(e)",),
            expect_class="e",
            min_fraction=0.99,
        ),
        Probe(
            "base rho axis",
            support_pattern=(0,),
            covector_pattern=None,
            expect_pieces=("Seam(e×S^1>e)",),
            expect_class="e",
        ),
        Probe(
            "base sig axis",
            support_pattern=(1,),
            covector_pattern=None,
            expect_pieces=("Seam(S^1×e>e)",),
            expect_class="e",
        ),
        Probe(
            "base origin",
            support_pattern=(),
            covector_pattern=None,
            expect_pieces=("Seam(T^2>e)",),
            expect_class="e",
        ),
        Probe(
            "rho cosphere",
            support_pattern=(0,),
            covector_pattern=(0,),
            expect_pieces=("CC(e×S^1)",),
            expect_class="e×S^1",
        ),
        Probe(
            "sig cosphere",
            support_pattern=(1,),
            covector_pattern=(1,),
            expect_pieces=("CC(S^1×e)",),
            expect_class="S^1×e",
        ),
        Probe(
            "rho legendrian point",
            support_pattern=(),
            covector_pattern=(0,),
            expect_pieces=("Seam(T^2>e×S^1)",),
            expect_class="e×S^1",
        ),
        Probe(
            "sig legendrian point",
            support_pattern=(),
            covector_pattern=(1,),
            expect_pieces=("Seam(T^2>S^1×e)",),
            expect_class="S^1×e",
        ),
    )
    return Fixture(
        name="t2-on-r4",
        title="2-torus rotating two planes",
        spec=spec,
        pieces=pieces,
        probes=probes,
        k0_offsets=(1.0, 1.0),
        k0_geometric=False,
        notes=(
            "The printed base projection (p1 - 1, 0, 1 - p1) per plane assumes "
            "the plane carries full covector mass; on strata with a vanishing "
            "plane it leaves the positive-quadrant chart, so geometric base "
            "validation is only run for the one-plane fixture."
        ),
    )


BUILTIN_FIXTURES = {
    "s1-on-r2": s1_on_r2,
    "t2-on-r4": t2_on_r4,
}


def get_fixture(name: str) -> Fixture:
    try:
        return BUILTIN_FIXTURES[name]()
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; builtins: {sorted(BUILTIN_FIXTURES)}"
        ) from None
