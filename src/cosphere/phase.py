"""Cosphere phase-space numerics: momentum, invariants, seeded zero-level
sampling, and reduced-space membership.

Points live on the unit cosphere of R^{2n}: a base point ``x`` and a unit
covector ``u``.  Per plane j the four classical invariants are

    p1 = |x_j|^2 + |u_j|^2      p2 = 2 x_j . u_j
    p3 = |u_j|^2 - |x_j|^2      p4 = x_j1 u_j2 - x_j2 u_j1,

subject to p1 >= 0 and p1^2 = p2^2 + p3^2 + 4 p4^2, and the momentum of a
weight matrix A is J_i = sum_j A[i][j] p4_j.  On the zero level the
reduced-space coordinates drop the momentum components, keeping
(p1, p2, p3) per plane in plane order.

Everything is computed on arrays: ``x`` and ``u`` of shape (N, 2n), one
point per row, give invariant tables of shape (N, n, 4)
(:func:`invariant_tables`), momenta of shape (N, k) (:func:`momenta`),
orbit-type labels (:func:`orbit_labels`) and reduced images of shape
(N, 3n) (:func:`reduced_images`), located in the fixture pieces by
:func:`locate_rows`.  :func:`check_reduced_membership` takes one image and
explains a row that :func:`locate_rows` leaves unlocated.
:class:`PhasePoint` is the validated type of a single point given from
outside (:func:`hilbert_map`, the Reeb flows).

The zero-level sampler solves J = 0 exactly in the covector: for fixed x
the momentum is linear, J = M(x) u, so a Gaussian covector is projected
onto an orthonormal basis of ker M(x), taken from one batched SVD.  One
call draws all its base points and covectors as one row-major block from
one generator seeded with ``seed``, so sample i depends only on
(seed, i), not on the count.  Singular strata are reached by forcing exact
zeros through support patterns, never by thresholding noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .torus import TorusActionSpec, stabilizer_of_support

SUPPORT_TOL = 1e-10
IDENTITY_TOL = 1e-9
MEMBERSHIP_BAND = 1e-8
UNIT_TOL = 1e-12
MIN_COVECTOR_NORM = 1e-8


class PhaseError(ValueError):
    pass


class NotOnZeroLevelError(PhaseError):
    pass


class EmptyKernelError(PhaseError):
    """No admissible covector exists for the drawn base point."""


class RetriesExhaustedError(PhaseError):
    pass


class RankDeficientError(PhaseError):
    """The weight matrix has rank below n: per-plane invariants do not
    separate the orbits, so the reduced coordinates are not a chart."""


class NoMatchingStratumError(PhaseError):
    pass


class AmbiguousMembershipError(PhaseError):
    """More than one stratum matched: the fixture's pieces are not disjoint."""


def check_run_inputs(
    seed: int | None = None,
    count: int | None = None,
    band: float | None = None,
    t_end: float | None = None,
    step: float | None = None,
) -> None:
    """Refuse run parameters out of range with :class:`PhaseError`.

    The one copy of the rules that the sampler, the membership test, the
    Reeb flow and the command line share: seed and sample count
    nonnegative, the membership band and the flow's ``t_end`` and ``step``
    finite and positive.  A parameter left None is not checked; ``t_end``
    and ``step`` are checked together.
    """
    if seed is not None and int(seed) < 0:
        raise PhaseError(f"seed must be nonnegative, got {seed}")
    if count is not None and int(count) < 0:
        raise PhaseError(f"sample count must be nonnegative, got {count}")
    if t_end is not None and not (0 < t_end < np.inf and 0 < step < np.inf):
        raise PhaseError(f"need finite positive t_end and step, got {t_end} and {step}")
    if band is not None and not 0 < band < np.inf:
        raise PhaseError(f"membership band must be finite and positive, got {band}")


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point of the unit cosphere bundle of R^{2n}.

    Both vectors must be finite and the covector normalized: |u| = 1
    within 1e-12.  Use :meth:`normalized` to build one from raw data.
    """

    x: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=float)
        u = np.array(self.u, dtype=float)
        if x.ndim != 1 or x.shape != u.shape or x.size % 2 or x.size == 0:
            raise PhaseError("x and u must be equal-length even-dimensional vectors")
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise PhaseError("x and u must be finite")
        if abs(float(np.linalg.norm(u)) - 1.0) > UNIT_TOL:
            raise PhaseError(f"|u| = {np.linalg.norm(u)} is not 1 within {UNIT_TOL}")
        x.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @classmethod
    def normalized(cls, x: Sequence[float], u: Sequence[float]) -> "PhasePoint":
        u = np.asarray(u, dtype=float)
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            raise PhaseError("cannot normalize a zero covector")
        return cls(np.asarray(x, dtype=float), u / norm)

    @property
    def n(self) -> int:
        return self.x.size // 2


def _planes(v: np.ndarray) -> np.ndarray:
    """(..., 2n) coordinates as (..., n, 2): one row per plane."""
    v = np.asarray(v, dtype=float)
    return v.reshape(v.shape[:-1] + (v.shape[-1] // 2, 2))


def invariant_tables(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invariant tables (..., n, 4) of one point (2n,) or of (N, 2n) rows."""
    xs, us = _planes(x), _planes(u)
    xx = np.sum(xs * xs, axis=-1)
    uu = np.sum(us * us, axis=-1)
    return np.stack([
        xx + uu,
        2.0 * np.sum(xs * us, axis=-1),
        uu - xx,
        xs[..., 0] * us[..., 1] - xs[..., 1] * us[..., 0],
    ], axis=-1)


def reduced_images(tables: np.ndarray) -> np.ndarray:
    """(p1, p2, p3) per plane of (..., n, 4) tables, flattened to (..., 3n)."""
    return tables[..., :3].reshape(tables.shape[:-2] + (3 * tables.shape[-2],))


def cone_residuals(tables: np.ndarray) -> np.ndarray:
    """p1^2 - p2^2 - p3^2 - 4 p4^2 per plane of (..., n, 4) tables."""
    p1, p2, p3, p4 = np.moveaxis(tables, -1, 0)
    return p1**2 - p2**2 - p3**2 - 4.0 * p4**2


def cosphere_sums(tables: np.ndarray) -> np.ndarray:
    """Sum of p1 + p3 over the planes of (..., n, 4) tables."""
    return np.sum(tables[..., 0] + tables[..., 2], axis=-1)


def momenta(spec: TorusActionSpec, tables: np.ndarray) -> np.ndarray:
    """J = A p4 of (..., n, 4) invariant tables, shape (..., k)."""
    weights = np.array(spec.weights, dtype=float)
    return (weights @ tables[..., 3, None])[..., 0]


def check_full_rank(spec: TorusActionSpec) -> None:
    """Refuse a weight matrix of rank below n with :class:`RankDeficientError`."""
    rank = spec.k - stabilizer_of_support(spec, range(spec.n)).dim_stab
    if rank < spec.n:
        raise RankDeficientError(
            f"weight matrix has rank {rank} < n = {spec.n}: "
            "per-plane invariants do not separate orbits"
        )


def hilbert_map(
    spec: TorusActionSpec, point: PhasePoint, tol: float = SUPPORT_TOL
) -> np.ndarray:
    """Reduced-space coordinates of a zero-level point.

    Raises :class:`PhaseError` when the point and the spec differ in their
    number of planes, :class:`RankDeficientError` when the weight matrix
    has rank below n, and :class:`NotOnZeroLevelError` when |J| exceeds
    ``tol``; the momentum components are dropped from the output.
    """
    if point.n != spec.n:
        raise PhaseError(f"point has {point.n} planes, spec has {spec.n}")
    check_full_rank(spec)
    tables = invariant_tables(point.x, point.u)
    norm = float(np.max(np.abs(momenta(spec, tables))))
    if norm > tol:
        raise NotOnZeroLevelError(f"|J| = {norm} exceeds {tol}")
    return reduced_images(tables)


def support_masks(tables: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """(..., n) mask of the planes where (x_j, u_j) is nonzero beyond ``tol``,
    read off (..., n, 4) invariant tables: |(x_j, u_j)| = sqrt(p1_j)."""
    return np.sqrt(tables[..., 0]) > tol


def orbit_labels(spec: TorusActionSpec, masks: np.ndarray) -> np.ndarray:
    """Orbit-type label of each (N, n) support row, as an object array.

    The stabilizer is looked up once per distinct support.
    """
    rows, inverse = np.unique(masks, axis=0, return_inverse=True)
    labels = np.array(
        [stabilizer_of_support(spec, np.flatnonzero(r)).label for r in rows],
        dtype=object,
    )
    return labels[inverse.reshape(-1)]


def momentum_matrix(spec: TorusActionSpec, x: np.ndarray) -> np.ndarray:
    """The k x 2n matrix M(x) with J(x, u) = M(x) u (momentum is linear in u).

    For (N, 2n) rows of base points the result has shape (N, k, 2n).
    """
    weights = np.array(spec.weights, dtype=float)
    xs = _planes(x)
    m = np.zeros(xs.shape[:-2] + (spec.k, 2 * spec.n))
    m[..., 0::2] = -weights * xs[..., None, :, 1]
    m[..., 1::2] = weights * xs[..., None, :, 0]
    return m


def _as_plane_set(pattern: Iterable[int] | None, n: int) -> tuple[int, ...]:
    if pattern is None:
        return tuple(range(n))
    planes = tuple(sorted(set(int(j) for j in pattern)))
    if any(j < 0 or j >= n for j in planes):
        raise PhaseError(f"support pattern {planes} outside 0..{n - 1}")
    return planes


def _plane_columns(planes: tuple[int, ...]) -> np.ndarray:
    return np.array([c for j in planes for c in (2 * j, 2 * j + 1)], dtype=int)


def _zero_level_rows(
    spec: TorusActionSpec, xcols: np.ndarray, ucols: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-level points from (N, |xcols| + |ucols|) standard normal draws.

    The first columns of a row are the base coordinates on ``xcols``, the
    rest a Gaussian covector on ``ucols``, projected onto ker M(x)
    restricted to ``ucols``.  Returns (x, u, ok); rows whose projection is
    shorter than ``MIN_COVECTOR_NORM`` have ok false and must be redrawn.
    """
    x = np.zeros((len(draws), 2 * spec.n))
    x[:, xcols] = draws[:, : xcols.size]
    g = draws[:, xcols.size :]
    m = momentum_matrix(spec, x)[:, :, ucols]
    _, s, vt = np.linalg.svd(m)
    # numerical rank: singular values above max(k, |ucols|) * eps times
    # the largest one
    cut = max(m.shape[1:]) * np.finfo(float).eps * s[:, :1]
    rank = np.sum(s > cut, axis=1)
    in_kernel = np.arange(ucols.size) >= rank[:, None]
    coeff = np.where(in_kernel, (vt @ g[:, :, None])[:, :, 0], 0.0)
    u_active = (coeff[:, None, :] @ vt)[:, 0, :]
    norm = np.linalg.norm(u_active, axis=1)
    ok = norm >= MIN_COVECTOR_NORM
    u = np.zeros_like(x)
    u[:, ucols] = u_active / np.where(ok, norm, 1.0)[:, None]
    return x, u, ok


def zero_level_arrays(
    spec: TorusActionSpec,
    seed: int,
    count: int,
    support_pattern: Iterable[int] | None = None,
    covector_pattern: Iterable[int] | None = None,
    max_retries: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw exact zero-level cosphere points as (count, 2n) arrays (x, u),
    deterministically from the seed.

    Base coordinates are Gaussian on the planes of ``support_pattern`` and
    exactly zero elsewhere; the covector is a Gaussian on the
    ``covector_pattern`` planes projected onto an orthonormal basis of
    ker M(x) restricted to those planes, then normalized, so |J| vanishes
    to machine precision.  All draws of one call come as one row-major
    block from ``default_rng(seed)``, one row per sample, so sample i is
    the same for every ``count`` above i.  A row whose projected covector
    is shorter than 1e-8 is redrawn from ``default_rng([seed, i, attempt])``
    for attempt = 1, 2, ...; after ``max_retries`` draws in all,
    :class:`RetriesExhaustedError` is raised.  A negative seed or count is
    refused with :class:`PhaseError`.
    """
    xcols = _plane_columns(_as_plane_set(support_pattern, spec.n))
    ucols = _plane_columns(_as_plane_set(covector_pattern, spec.n))
    if not ucols.size:
        raise EmptyKernelError("empty covector pattern leaves no unit covector")
    check_run_inputs(seed=seed, count=count)
    width = xcols.size + ucols.size
    block = np.random.default_rng(int(seed)).standard_normal((int(count), width))
    x, u, ok = _zero_level_rows(spec, xcols, ucols, block)
    for index in np.flatnonzero(~ok):
        for attempt in range(1, max_retries):
            redraw = np.random.default_rng([int(seed), int(index), attempt])
            rx, ru, rok = _zero_level_rows(
                spec, xcols, ucols, redraw.standard_normal((1, width))
            )
            if rok[0]:
                x[index], u[index] = rx[0], ru[0]
                break
        else:
            raise RetriesExhaustedError(
                f"no admissible covector after {max_retries} draws for sample {index}"
            )
    return x, u


class MembershipTable(NamedTuple):
    """Membership of N reduced images in the P pieces of a fixture."""

    matched: np.ndarray   # (N, P) bool: every constraint of the piece holds
    residual: np.ndarray  # (N, P) worst equality residual
    violated: np.ndarray  # (N, P) index of the first violated constraint, -1 if none
    value: np.ndarray     # (N, P) its value (absolute for an equality)


def membership_table(
    fixture, images: np.ndarray, band: float = MEMBERSHIP_BAND
) -> MembershipTable:
    """Every constraint of every piece evaluated on (N, 3n) reduced images.

    Equalities accept residuals up to ``band``; strict inequalities demand
    clearance beyond the same band.  A NaN value violates every constraint,
    so a NaN image matches no piece.  Pieces share constraints (the cone and
    cosphere equations above all), so each distinct polynomial is evaluated
    once.  A band that is not finite and
    positive is refused with :class:`PhaseError`.
    """
    check_run_inputs(band=band)
    images = np.asarray(images, dtype=float)
    shape = (images.shape[0], len(fixture.pieces))
    residual = np.zeros(shape)
    violated = np.full(shape, -1)
    value = np.zeros(shape)
    values = {}  # Poly -> its values on the images
    for p, piece in enumerate(fixture.pieces):
        for i, c in enumerate(piece.constraints):
            val = values.get(c.poly)
            if val is None:
                val = values[c.poly] = c.poly(images)
            # each test in complement form, so that a NaN fails every one
            if c.kind == "eq":
                val = np.abs(val)
                fails = ~(val <= band)
                residual[:, p] = np.fmax(residual[:, p], val)
            elif c.kind == "gt":
                fails = ~(val > band)
            else:
                raise PhaseError(f"unknown constraint kind {c.kind!r}")
            first = fails & (violated[:, p] < 0)
            violated[first, p] = i
            value[first, p] = val[first]
    return MembershipTable(violated < 0, residual, violated, value)


def locate_rows(
    fixture, images: np.ndarray, band: float = MEMBERSHIP_BAND
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the one matching piece per image row (-1 for zero or several
    matches) and that piece's worst equality residual (NaN on a -1 row).

    :func:`check_reduced_membership` on a row marked -1 raises the error
    that explains it.
    """
    table = membership_table(fixture, images, band)
    piece = np.where(table.matched.sum(axis=1) == 1, table.matched.argmax(axis=1), -1)
    rows = np.arange(piece.size)
    return piece, np.where(piece >= 0, table.residual[rows, piece], np.nan)


def check_reduced_membership(
    fixture, image: np.ndarray, band: float = MEMBERSHIP_BAND
) -> tuple[str, float]:
    """Locate a (3n,) reduced image inside the fixture's semialgebraic pieces.

    Equalities accept residuals up to ``band``; strict inequalities demand
    clearance beyond the same band, so the pieces stay complementary.
    Returns the unique matching piece name and its worst equality residual.
    Raises :class:`NoMatchingStratumError`, naming the first violated
    constraint of the first four pieces, or
    :class:`AmbiguousMembershipError` otherwise.
    """
    table = membership_table(fixture, np.asarray(image, dtype=float)[None, :], band)
    matched = np.flatnonzero(table.matched[0])
    if not matched.size:
        detail = "; ".join(
            f"{piece.name}: {piece.constraints[i].text} = {v:.3e}"
            for piece, i, v in zip(fixture.pieces[:4], table.violated[0], table.value[0])
        )
        raise NoMatchingStratumError(f"no stratum matches the image ({detail})")
    if matched.size > 1:
        raise AmbiguousMembershipError(
            f"image matches {[fixture.pieces[p].name for p in matched]}: "
            "pieces are not disjoint"
        )
    p = matched[0]
    return fixture.pieces[p].name, float(table.residual[0, p])


def k0_project(
    image: np.ndarray, offsets: Sequence[float] | None = None
) -> np.ndarray:
    """Project reduced coordinates to the singular base chart.

    Per plane j the image is (p1_j - c_j, 0, c_j - p1_j) where c_j is the
    plane's covector-mass offset, 1 by default (the value for which the
    example charts split the cosphere constraint evenly).  Accepts a
    flattened (3n,) reduced image or (N, 3n) rows of them.
    """
    arr = np.asarray(image, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] % 3:
        raise PhaseError("expected a flattened (p1, p2, p3)-per-plane image")
    p1 = arr[..., 0::3]
    n = p1.shape[-1]
    c = np.ones(n) if offsets is None else np.asarray(offsets, dtype=float)
    if c.shape != (n,):
        raise PhaseError(f"need one offset per plane, got shape {c.shape}")
    out = np.zeros(p1.shape[:-1] + (3 * n,))
    out[..., 0::3] = p1 - c
    out[..., 2::3] = c - p1
    return out
