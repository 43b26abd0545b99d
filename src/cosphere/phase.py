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
(N, 3n) (:func:`reduced_images`), located in the fixture cells by
:func:`locate_rows`, whose docstring states the band tests that read the
pair (S_x, S) naming a cell.  :func:`check_reduced_membership` takes one
image and names the test that leaves it unlocated.
:class:`PhasePoint` is the validated type of a single point given from
outside (:func:`hilbert_map`, the Reeb flows).

The zero-level sampler solves J = 0 exactly in the covector: for fixed x
the momentum is linear, J = M(x) u, so a Gaussian covector is projected
onto ker M(x) through the independent rows of M(x), made orthonormal by
classical Gram-Schmidt run twice.  Which rows those are, and so the rank,
is exact integer data: the pivot rows of the canonical lattice basis of
the planes where base point and covector may both be nonzero, read once
per support pattern.  One call draws all its base points and covectors as
one row-major block from one generator seeded with ``seed``, so sample i
depends only on (seed, i), not on the count.  Singular strata come from
exact zeros forced through support patterns, never from thresholded noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .poset import _integer
from .torus import TorusActionSpec, class_label, support_lattices

SUPPORT_TOL = 1e-10
IDENTITY_TOL = 1e-9
MEMBERSHIP_BAND = 1e-8
UNIT_TOL = 1e-12
MIN_COVECTOR_NORM = 1e-8
MAX_RETRIES = 64
# at least 100 times every default, acceptance and benchmark run size
MAX_SAMPLES = 10**6
MAX_STEPS = 10**6


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
    nonnegative integers (a bool or a float is refused, not truncated; a
    numpy integer is accepted), the membership band and the flow's
    ``t_end`` and ``step`` finite and positive.  At most ``MAX_SAMPLES``
    samples and ``MAX_STEPS`` = t_end / step flow steps, so that an absurd
    size is refused before its arrays are allocated.  A parameter left None
    is not checked; ``t_end`` and ``step`` are checked together.
    """
    if seed is not None and _integer(seed, "seed", PhaseError) < 0:
        raise PhaseError(f"seed must be nonnegative, got {seed}")
    if count is not None and _integer(count, "sample count", PhaseError) < 0:
        raise PhaseError(f"sample count must be nonnegative, got {count}")
    if count is not None and count > MAX_SAMPLES:
        raise PhaseError(f"sample count {count} exceeds the cap of {MAX_SAMPLES}")
    if t_end is not None and not (0 < t_end < np.inf and 0 < step < np.inf):
        raise PhaseError(f"need finite positive t_end and step, got {t_end} and {step}")
    if t_end is not None and t_end / step > MAX_STEPS:
        raise PhaseError(
            f"t_end / step = {t_end / step:.6g} flow steps exceeds the cap of {MAX_STEPS}"
        )
    if band is not None and not 0 < band < np.inf:
        raise PhaseError(f"membership band must be finite and positive, got {band}")


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A point of the unit cosphere bundle of R^{2n}.

    Both vectors must be finite and the covector normalized: |u| = 1
    within 1e-12.
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

    @property
    def n(self) -> int:
        return self.x.size // 2


def invariant_tables(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invariant tables (..., n, 4) of one point (2n,) or of (N, 2n) rows.

    Each sum over a plane's two coordinates starts from +0.0, as a numpy
    reduction does, so p2 of an exactly zero base plane is +0.0 whatever
    the signs of its zeros and of the covector.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    x1, x2, u1, u2 = x[..., 0::2], x[..., 1::2], u[..., 0::2], u[..., 1::2]
    xx = x1 * x1 + x2 * x2
    uu = u1 * u1 + u2 * u2
    tables = np.empty(xx.shape + (4,))
    np.add(xx, uu, out=tables[..., 0])
    np.multiply(2.0, x1 * u1 + x2 * u2 + 0.0, out=tables[..., 1])
    np.subtract(uu, xx, out=tables[..., 2])
    np.subtract(x1 * u2, x2 * u1, out=tables[..., 3])
    return tables


def reduced_images(tables: np.ndarray) -> np.ndarray:
    """(p1, p2, p3) per plane of (..., n, 4) tables, flattened to (..., 3n)."""
    return tables[..., :3].reshape(tables.shape[:-2] + (3 * tables.shape[-2],))


def cone_residuals(tables: np.ndarray) -> np.ndarray:
    """p1^2 - p2^2 - p3^2 - 4 p4^2 per plane of (..., n, 4) tables."""
    p1, p2, p3, p4 = (tables[..., c] for c in range(4))
    return p1**2 - p2**2 - p3**2 - 4.0 * p4**2


def cosphere_sums(tables: np.ndarray) -> np.ndarray:
    """Sum of p1 + p3 over the planes of (..., n, 4) tables."""
    return np.sum(tables[..., 0] + tables[..., 2], axis=-1)


def momenta(spec: TorusActionSpec, tables: np.ndarray) -> np.ndarray:
    """J = A p4 of (..., n, 4) invariant tables, shape (..., k).

    One 2-D product of the (..., n) p4 columns with A^T.  On weights of 0
    and 1 with a single 1 per row, as in both builtin fixtures, every
    product and sum is exact.  On other weights J may differ in its last
    bits between orders of summation, and which order numpy takes may
    depend on its BLAS kernel.
    """
    return tables[..., 3] @ np.array(spec.weights, dtype=float).T


def check_full_rank(spec: TorusActionSpec) -> None:
    """Refuse a weight matrix of rank below n with :class:`RankDeficientError`."""
    rank = len(support_lattices(spec)[(1 << spec.n) - 1])
    if rank < spec.n:
        raise RankDeficientError(
            f"weight matrix has rank {rank} < n = {spec.n}: "
            "per-plane invariants do not separate orbits"
        )


def hilbert_map(
    spec: TorusActionSpec, point: PhasePoint, tol: float = SUPPORT_TOL
) -> np.ndarray:
    """Reduced-space coordinates of a zero-level point.

    Raises :class:`PhaseError` when ``tol`` is not finite and positive or
    the point and the spec differ in their number of planes,
    :class:`RankDeficientError` when the weight matrix has rank below n,
    and :class:`NotOnZeroLevelError` when |J| exceeds ``tol``; the
    momentum components are dropped from the output.
    """
    if not 0 < tol < np.inf:
        raise PhaseError(f"zero-level tolerance must be finite and positive, got {tol}")
    if point.n != spec.n:
        raise PhaseError(f"point has {point.n} planes, spec has {spec.n}")
    check_full_rank(spec)
    tables = invariant_tables(point.x, point.u)
    norm = float(np.max(np.abs(momenta(spec, tables))))
    if norm > tol:
        raise NotOnZeroLevelError(f"|J| = {norm} exceeds {tol}")
    return reduced_images(tables)


def support_masks(tables: np.ndarray) -> np.ndarray:
    """(..., n) mask of the planes where (x_j, u_j) is nonzero beyond ``SUPPORT_TOL``,
    read off (..., n, 4) invariant tables: |(x_j, u_j)| = sqrt(p1_j)."""
    return np.sqrt(tables[..., 0]) > SUPPORT_TOL


def orbit_labels(spec: TorusActionSpec, masks: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Orbit types of (N, n) support rows as (labels, index): the sorted
    distinct labels, and the position in them of each row's label.

    A row is keyed by its support bitmask.  The distinct keys are those
    that ``np.bincount`` counts at least once among the 2^n, each is
    labelled once from the support table, and each row reads its position
    from a 2^n lookup table indexed by its key.
    """
    table = support_lattices(spec)
    key = np.zeros(masks.shape[:-1], dtype=np.int64)
    for j in range(spec.n):
        key |= masks[..., j] << j
    keys = np.flatnonzero(np.bincount(key.reshape(-1), minlength=1 << spec.n))
    of_key = [class_label(spec.k, table[k]) for k in keys.tolist()]
    labels = sorted(set(of_key))
    rank = {label: i for i, label in enumerate(labels)}
    position = np.zeros(1 << spec.n, dtype=np.intp)
    position[keys] = [rank[label] for label in of_key]
    return labels, position[key.reshape(-1)]


def _as_plane_set(pattern: Iterable[int] | None, n: int) -> tuple[int, ...]:
    if pattern is None:
        return tuple(range(n))
    planes = tuple(sorted(set(int(j) for j in pattern)))
    if any(j < 0 or j >= n for j in planes):
        raise PhaseError(f"support pattern {planes} outside 0..{n - 1}")
    return planes


def _plane_columns(planes: tuple[int, ...]) -> np.ndarray:
    return np.array([c for j in planes for c in (2 * j, 2 * j + 1)], dtype=int)


def _independent_rows(spec: TorusActionSpec, planes: Iterable[int]) -> np.ndarray:
    """Rows of the weight matrix independent on the columns of ``planes``,
    read off the canonical basis of their lattice: each HNF column has its
    pivot in its last nonzero row, and those rows are distinct."""
    basis = support_lattices(spec)[sum(1 << j for j in planes)]
    return np.array([max(i for i, a in enumerate(col) if a) for col in basis], dtype=int)


def _project_out(v: np.ndarray, basis: list[np.ndarray]) -> None:
    """Classical Gram-Schmidt run twice on ``v`` against orthonormal ``basis``,
    in place; the second pass removes what roundoff left."""
    for _ in range(2):
        coefficients = [np.add.reduce(v * q) for q in basis]
        for c, q in zip(coefficients, basis):
            v -= c * q


def _zero_level_rows(
    spec: TorusActionSpec,
    xcols: np.ndarray,
    ucols: np.ndarray,
    rows: np.ndarray,
    draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-level points from (N, |xcols| + |ucols|) standard normal draws.

    The first columns of a row are the base coordinates on ``xcols``, the
    rest a Gaussian covector g on ``ucols``, projected onto ker M(x)
    restricted to ``ucols``.  While no base plane vanishes that is ker M_R,
    M_R the independent weight ``rows`` of M (row i is a_ij (-x_j2, x_j1) on
    plane j), orthonormalized by :func:`_project_out`, which also projects g.
    Returns (x, u, ok); ok is false, and the row must be redrawn, when the
    base point is exactly zero on a plane of ``xcols``, when a pivot is
    shorter than |ucols| eps times its row (an SVD's rank cut) or its square
    underflows (it then stays that short, so no later row grows), or when
    the projection is shorter than ``MIN_COVECTOR_NORM``.
    """
    base = draws[:, : xcols.size]
    x = np.zeros((len(draws), 2 * spec.n))
    x[:, xcols] = base
    ok = np.ones(len(draws), dtype=bool)
    for c in range(0, xcols.size, 2):
        ok &= (base[:, c] != 0) | (base[:, c + 1] != 0)
    # one coordinate per array row, so products and sums run along contiguous rows
    g = draws[:, xcols.size :].T.copy()
    # M's entry on covector column c is -a x_{c+1} for even c, a x_{c-1} for odd
    swapped = x.T[ucols ^ 1]
    signed = np.array([
        [spec.weights[i][c >> 1] * (1.0 if c & 1 else -1.0) for c in ucols.tolist()]
        for i in rows.tolist()
    ]).reshape(rows.size, ucols.size)
    cut = (ucols.size * np.finfo(float).eps) ** 2
    basis: list[np.ndarray] = []
    for row in signed:
        v = row[:, None] * swapped
        square = np.add.reduce(v * v)
        floor = np.maximum(np.finfo(float).tiny, cut * square)
        # the first row has nothing to be projected off
        if basis:
            _project_out(v, basis)
            square = np.add.reduce(v * v)
        ok &= square >= floor
        v /= np.sqrt(np.maximum(square, floor))
        basis.append(v)
    _project_out(g, basis)
    norm = np.sqrt(np.add.reduce(g * g))
    ok &= norm >= MIN_COVECTOR_NORM
    g /= np.where(ok, norm, 1.0)
    u = np.zeros_like(x)
    u[:, ucols] = g.T
    return x, u, ok


def zero_level_arrays(
    spec: TorusActionSpec,
    seed: int,
    count: int,
    support_pattern: Iterable[int] | None = None,
    covector_pattern: Iterable[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw exact zero-level cosphere points as (count, 2n) arrays (x, u),
    deterministically from the seed.

    Base coordinates are Gaussian on the planes of ``support_pattern`` and
    exactly zero elsewhere; the covector is a Gaussian on the
    ``covector_pattern`` planes projected onto ker M(x) restricted to those
    planes, then normalized, so |J| vanishes to machine precision.  The
    projection is the twice-orthogonalized row basis of
    :func:`_zero_level_rows` on the independent weight rows of the planes in
    both patterns.  All draws of one call come as one row-major block from
    ``default_rng(seed)``, one row per sample, so sample i is the same for
    every ``count`` above i.  A row whose projected covector is shorter than
    1e-8, whose base point is exactly zero on a plane of
    ``support_pattern``, or whose row basis has a numerically zero pivot, is
    redrawn from ``default_rng([seed, i, attempt])`` for attempt = 1, 2,
    ...; after ``MAX_RETRIES`` draws in all, :class:`RetriesExhaustedError`
    is raised.  A negative seed or count, or a count over ``MAX_SAMPLES``,
    is refused with :class:`PhaseError`.
    """
    planes_x = _as_plane_set(support_pattern, spec.n)
    planes_u = _as_plane_set(covector_pattern, spec.n)
    xcols, ucols = _plane_columns(planes_x), _plane_columns(planes_u)
    if not ucols.size:
        raise EmptyKernelError("empty covector pattern leaves no unit covector")
    check_run_inputs(seed=seed, count=count)
    width = xcols.size + ucols.size
    block = np.random.default_rng(int(seed)).standard_normal((int(count), width))
    rows = _independent_rows(spec, set(planes_x) & set(planes_u))
    x, u, ok = _zero_level_rows(spec, xcols, ucols, rows, block)
    for index in np.flatnonzero(~ok):
        for attempt in range(1, MAX_RETRIES):
            redraw = np.random.default_rng([int(seed), int(index), attempt])
            rx, ru, rok = _zero_level_rows(
                spec, xcols, ucols, rows, redraw.standard_normal((1, width))
            )
            if rok[0]:
                x[index], u[index] = rx[0], ru[0]
                break
        else:
            raise RetriesExhaustedError(
                f"no admissible covector after {MAX_RETRIES} draws for sample {index}"
            )
    return x, u


def _plane_tests(columns: np.ndarray, j: int, band: float):
    """The band tests of plane j of reduced images given as (3n, N) columns.

    Returns the (N,) columns p1, p3, p1 - p3 and the cone value
    (p1 p1 - p2 p2) - p3 p3, and (N,) masks: on S, on S_x, and the plane's
    test passed.
    """
    p1, p2, p3 = columns[3 * j], columns[3 * j + 1], columns[3 * j + 2]
    diff = p1 - p3
    cone = (p1 * p1 - p2 * p2) - p3 * p3
    on = p1 > band
    on_x = on & (diff > band)
    # each test in complement form, so that a NaN fails it; on S, the plane
    # is on S_x or within the band of p1 = p3 exactly when diff >= -band
    passed = (np.abs(p1) <= band) | (on & (np.abs(cone) <= band) & (diff >= -band))
    return p1, p3, diff, cone, on, on_x, passed


@lru_cache(maxsize=16)
def _cell_table(fixture) -> np.ndarray:
    """The cell index of each pair (S_x, S) by its base-3 number, -1 where
    the fixture has no cell; see :func:`locate_rows`.  Read-only."""
    n = fixture.spec.n
    table = np.full(3**n, -1, dtype=np.intp)
    # a pair with two cells names the later one
    for i, c in enumerate(fixture.cells):
        table[sum(3**j for j in c.support) + sum(3**j for j in c.support_x)] = i
    # S empty names no cell
    table[0] = -1
    table.setflags(write=False)
    return table


def locate_rows(
    fixture, images: np.ndarray, band: float = MEMBERSHIP_BAND
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the fixture cell of each (N, 3n) reduced image row (-1 when
    a band test fails) and its worst equality residual (NaN on a -1 row).

    Per plane j: |p1_j| <= ``band`` puts j off S and p1_j > ``band`` on S.
    On S the cone value |p1_j^2 - p2_j^2 - p3_j^2| must be within the band,
    and |p1_j - p3_j| <= ``band`` puts j off S_x, p1_j - p3_j > ``band``
    on S_x.  The cosphere sum |sum(p1 + p3) - 2| must be within the band
    and S nonempty.  Any other value, a NaN among them, leaves the row
    unlocated; :func:`check_reduced_membership` on it names the test that
    failed.  The residual is the largest of |p1_j| off S, the cone value on
    S, |p1_j - p3_j| on S minus S_x, and the sum.  The sum adds -2, p1_1,
    p3_1, p1_2, ... in that order, so it does not depend on numpy's
    pairwise summation.  A band that is not finite and positive, or rows
    that are not 3n wide for the n planes of the fixture, are refused with
    :class:`PhaseError`.

    The tests run on a transposed copy of the images, one contiguous row
    per coordinate.  The pair (S_x, S) of a row is the base-3 number whose
    digit j is 0 off S, 1 on S minus S_x and 2 on S_x, and names its cell
    through a table of the 3^n such numbers, as many as the pairs S_x ⊆ S
    that a generated fixture has cells for.
    """
    check_run_inputs(band=band)
    images = np.asarray(images, dtype=float)
    n = fixture.spec.n
    if images.ndim != 2 or images.shape[1] != 3 * n:
        raise PhaseError(
            f"reduced images of shape {images.shape}, expected (N, {3 * n}) "
            f"for n = {n} on {fixture.name}"
        )
    columns = images.T.copy()
    total = np.full(len(images), -2.0)
    ok = np.ones(len(images), dtype=bool)
    key = np.zeros(len(images), dtype=np.intp)
    # every plane's residual is +0.0 or more, or NaN
    worst = np.zeros(len(images))
    for j in range(n):
        p1, p3, diff, cone, on, on_x, passed = _plane_tests(columns, j, band)
        total += p1
        total += p3
        ok &= passed
        key += np.add(on, on_x, dtype=np.intp) * 3**j
        plane = np.where(
            on, np.fmax(np.abs(cone), np.where(on_x, 0.0, np.abs(diff))), np.abs(p1)
        )
        # np.maximum, like np.max, keeps a NaN
        np.maximum(worst, plane, out=worst)
    sum_err = np.abs(total)
    ok &= sum_err <= band
    piece = np.where(ok, _cell_table(fixture)[key], -1)
    return piece, np.where(piece >= 0, np.fmax(worst, sum_err), np.nan)


def check_reduced_membership(
    fixture, image: np.ndarray, band: float = MEMBERSHIP_BAND
) -> tuple[str, float]:
    """The piece name and worst equality residual of one (3n,) reduced
    image, located as by :func:`locate_rows`.

    Raises :class:`NoMatchingStratumError` naming the first band test that
    fails: the planes in order, then the cosphere sum, then S nonempty.  An
    image that is not 3n wide for the n planes of the fixture is refused
    with :class:`PhaseError`.
    """
    rows = np.asarray(image, dtype=float)[None, :]
    piece, residual = locate_rows(fixture, rows, band)
    if piece[0] >= 0:
        return fixture.cells[piece[0]].name, float(residual[0])
    failed = "no cell for these supports"
    total, any_on = -2.0, False
    for j in range(fixture.spec.n):
        p1, p3, diff, cone, on, _, passed = _plane_tests(rows.T, j, band)
        total, any_on = total + p1[0] + p3[0], any_on or on[0]
        if not passed[0]:
            k = j + 1
            if not on[0]:
                failed = f"p1_{k} = {p1[0]:.3e}"
            elif not abs(cone[0]) <= band:
                failed = f"p1_{k}^2 - p2_{k}^2 - p3_{k}^2 = {cone[0]:.3e}"
            else:
                failed = f"p1_{k} - p3_{k} = {diff[0]:.3e}"
            break
    else:
        if not abs(total) <= band:
            failed = f"sum(p1 + p3) - 2 = {total:.3e}"
        elif not any_on:
            failed = f"no plane has p1_j > {band:.3e}"
    raise NoMatchingStratumError(f"no stratum matches the image ({failed})")


def k0_project(image: np.ndarray) -> np.ndarray:
    """Project reduced coordinates to the singular base chart.

    Per plane j the image is (p1_j - 1, 0, 1 - p1_j): the chart in which
    each plane carries the whole covector mass, as on the examples'
    single plane.  Accepts a flattened (3n,) reduced image or (N, 3n) rows
    of them.
    """
    arr = np.asarray(image, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] % 3:
        raise PhaseError("expected a flattened (p1, p2, p3)-per-plane image")
    p1 = arr[..., 0::3]
    out = np.zeros(arr.shape)
    out[..., 0::3] = p1 - 1.0
    out[..., 2::3] = 1.0 - p1
    return out
