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
(:func:`invariant_tables`), momenta of shape (N, k) (:func:`momenta`) and
reduced images of shape (N, 3n) (:func:`reduced_images`), located in the
pieces of a fixture by :func:`locate_rows`, which also names each row's
orbit type, type(S), and whose docstring states the band tests that read
the supports (S_x, S) whose types name a piece.  :func:`check_reduced_membership`
takes one image and names the test that leaves it unlocated.
:class:`PhasePoint` is the validated type of a single point given from
outside (:func:`hilbert_map`, the Reeb flows).

The zero-level sampler solves J = 0 exactly in the covector: for fixed x
the momentum is linear, J = M(x) u, so a drawn covector is projected
onto ker M(x) through the independent rows of M(x), made orthonormal by
classical Gram-Schmidt run twice.  Which rows those are, and so the rank,
is exact integer data: the pivot rows of the canonical lattice basis of
the planes where base point and covector may both be nonzero, read once
per support pattern.  The draws are uniform on (-1, 1) and come from a
counter-based stream of integer arithmetic (:func:`_draws`): draw (i, c)
is a pure function of the seed, the sample index i, the column c and the
attempt, the same bits on every CPU, so sample i depends only on
(seed, i), not on the count.  Singular strata come from exact zeros forced
through support patterns, never from thresholded noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .poset import _integer
from .torus import TorusActionSpec, check_full_rank, support_lattices, support_types

MOMENTUM_TOL = 1e-10
IDENTITY_TOL = 1e-9
MEMBERSHIP_BAND = 1e-8
UNIT_TOL = 1e-12
MIN_COVECTOR_NORM = 1e-8
# the sampler's counter (see _draws) holds attempts below 2^6 and samples below 2^20
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


def hilbert_map(spec: TorusActionSpec, point: PhasePoint) -> np.ndarray:
    """Reduced-space coordinates of a zero-level point.

    Raises :class:`PhaseError` when the point and the spec differ in their
    number of planes, :class:`torus.RankDeficientError` when the weight
    matrix has rank below n, and :class:`NotOnZeroLevelError` when |J|
    exceeds :data:`MOMENTUM_TOL`; the momentum components are dropped from
    the output.
    """
    if point.n != spec.n:
        raise PhaseError(f"point has {point.n} planes, spec has {spec.n}")
    check_full_rank(spec)
    tables = invariant_tables(point.x, point.u)
    norm = float(np.max(np.abs(momenta(spec, tables))))
    if norm > MOMENTUM_TOL:
        raise NotOnZeroLevelError(
            f"|J| = {norm} exceeds {MOMENTUM_TOL}: not on the zero level"
        )
    return reduced_images(tables)


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
    """Zero-level points from (N, |xcols| + |ucols|) draws.

    The first columns of a row are the base coordinates on ``xcols``, the
    rest a covector g on ``ucols``, projected onto ker M(x)
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


# the odd golden-ratio increment and the two multipliers of SplitMix64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> None:
    """SplitMix64's finalizer on a uint64 array, in place and wrapping: a
    bijection of 64-bit words (Steele, Lea and Flood, OOPSLA 2014)."""
    scratch = np.right_shift(z, 30)
    z ^= scratch
    z *= _MIX[0]
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _MIX[1]
    np.right_shift(z, 31, out=scratch)
    z ^= scratch


def _draws(seed: int, attempt: int, rows: Iterable[int], width: int) -> np.ndarray:
    """(len(rows), width) draws on (-1, 1) of ``attempt`` for sample ``rows``.

    Draw (i, c) of attempt a is a pure function of (seed, i, a, c): the
    counter ((a << 20 | i) << 6 | c), injective for i < 2^20, c < 2^6 and
    a < 2^6, times the golden ratio plus the seed's key, through
    :func:`_mix64`; its top 52 bits k give (2k + 1) 2^-52 - 1, exactly, so
    the law is uniform, symmetric and never 0, and the draws are integer
    arithmetic, the same bits on every CPU.  The key folds the seed's 64-bit
    words, low word first, through :func:`_mix64`, so a seed of any size is
    taken and two seeds below 2^64 never share a key.
    """
    seed = int(seed)
    key = np.array([_GOLDEN], dtype=np.uint64)
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key ^= seed >> shift & 0xFFFFFFFFFFFFFFFF
        _mix64(key)
    # the counter's low 6 bits are the column, so its product with the
    # golden ratio is the row part plus the column part, wrapping
    start = (np.asarray(rows, dtype=np.uint64) | attempt << 20) << 6
    start *= _GOLDEN
    start += key
    z = np.empty((start.size, width), dtype=np.uint64)
    np.add(start[:, None], np.arange(width, dtype=np.uint64) * _GOLDEN, out=z)
    _mix64(z)
    # (z >> 11) | 1 is 2k + 1, below 2^53, so the float conversion is exact
    z >>= 11
    z |= 1
    draws = z.astype(float)
    draws *= 2.0**-52
    draws -= 1.0
    return draws


def zero_level_arrays(
    spec: TorusActionSpec,
    seed: int,
    count: int,
    support_pattern: Iterable[int] | None = None,
    covector_pattern: Iterable[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw exact zero-level cosphere points as (count, 2n) arrays (x, u),
    deterministically from the seed.

    Base coordinates are uniform on (-1, 1) on the planes of
    ``support_pattern`` and exactly zero elsewhere; the covector is uniform
    on (-1, 1) on the ``covector_pattern`` planes, projected onto ker M(x)
    restricted to those planes, then normalized, so |J| vanishes to machine
    precision.  Genericity needs only a law with a density; J = 0 comes from
    the projection, which is the twice-orthogonalized row basis of
    :func:`_zero_level_rows` on the independent weight rows of the planes in
    both patterns.  Row i of the block is attempt 0 of sample i in the
    counter-based stream of :func:`_draws`, so sample i is the same for
    every ``count`` above i.  A row whose projected covector is shorter than
    1e-8, whose base point is exactly zero on a plane of
    ``support_pattern``, or whose row basis has a numerically zero pivot, is
    redrawn from attempt 1, 2, ... of its own index; after ``MAX_RETRIES``
    draws in all, :class:`RetriesExhaustedError` is raised.  A negative seed
    or count, or a count over ``MAX_SAMPLES``, is refused with
    :class:`PhaseError`; a seed of any size is taken.
    """
    planes_x = _as_plane_set(support_pattern, spec.n)
    planes_u = _as_plane_set(covector_pattern, spec.n)
    xcols, ucols = _plane_columns(planes_x), _plane_columns(planes_u)
    if not ucols.size:
        raise EmptyKernelError("empty covector pattern leaves no unit covector")
    check_run_inputs(seed=seed, count=count)
    width = xcols.size + ucols.size
    block = _draws(seed, 0, np.arange(int(count)), width)
    rows = _independent_rows(spec, set(planes_x) & set(planes_u))
    x, u, ok = _zero_level_rows(spec, xcols, ucols, rows, block)
    for index in np.flatnonzero(~ok):
        for attempt in range(1, MAX_RETRIES):
            rx, ru, rok = _zero_level_rows(
                spec, xcols, ucols, rows, _draws(seed, attempt, [index], width)
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

    Returns the (N,) columns p1, p3, p1 - p3, the cone value
    (p1 p1 - p2 p2) - p3 p3 and its scaled size |cone| / max(1, p1^2), and
    (N,) masks: on S, on S_x, and the plane's test passed.  The cone value's
    rounding error grows like eps p1^2, so it is the scaled size that is
    held to ``band``.
    """
    p1, p2, p3 = columns[3 * j], columns[3 * j + 1], columns[3 * j + 2]
    diff = p1 - p3
    square = p1 * p1
    cone = (square - p2 * p2) - p3 * p3
    scaled = np.abs(cone) / np.maximum(1.0, square)
    on = p1 > band
    on_x = on & (diff > band)
    # each test in complement form, so that a NaN fails it; on S, the plane
    # is on S_x or within the band of p1 = p3 exactly when diff >= -band
    passed = (np.abs(p1) <= band) | (on & (scaled <= band) & (diff >= -band))
    return p1, p3, diff, cone, scaled, on, on_x, passed


def locate_rows(
    fixture, images: np.ndarray, band: float = MEMBERSHIP_BAND
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index in ``fixture.result.pieces`` of the piece of each (N, 3n)
    reduced image row (-1 when a band test fails), its worst equality
    residual (NaN on a -1 row), and the rank in ``fixture.result.labels``
    of type(S), the row's orbit type, read off the same S as its piece and
    defined on every row, an unlocated or NaN one too.

    Per plane j: |p1_j| <= ``band`` puts j off S and p1_j > ``band`` on S.
    On S the cone value |p1_j^2 - p2_j^2 - p3_j^2| / max(1, p1_j^2) must be
    within ``band``, and |p1_j - p3_j| <= ``band`` puts j off S_x,
    p1_j - p3_j > ``band`` on S_x.  The cosphere sum |sum(p1 + p3) - 2|
    must be within the band and S nonempty.  Any other value, a NaN among
    them, leaves the row unlocated; :func:`check_reduced_membership` names
    the test that failed.  The residual is the largest of the values these
    tests hold to the band: |p1_j| off S, the scaled cone value on S,
    |p1_j - p3_j| on S minus S_x, and the sum, which adds -2, p1_1, p3_1,
    p1_2, ... in that order; so a row is located exactly when its residual
    is within the band and its supports name a piece.  A band that is not
    finite and positive, or rows not 3n wide, are refused with
    :class:`PhaseError`.  The tests run on a transposed copy of the images,
    one contiguous row per coordinate, and the row's piece is
    ``fixture.piece_at`` at the :func:`torus.support_types` of its S_x and S.
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
    support = np.zeros(len(images), dtype=np.intp)
    support_x = np.zeros(len(images), dtype=np.intp)
    # every plane's residual is +0.0 or more, or NaN
    worst = np.zeros(len(images))
    for j in range(n):
        p1, p3, diff, _, scaled, on, on_x, passed = _plane_tests(columns, j, band)
        total += p1
        total += p3
        ok &= passed
        support |= on << j
        support_x |= on_x << j
        plane = np.where(on, np.fmax(scaled, np.where(on_x, 0.0, np.abs(diff))), np.abs(p1))
        # np.maximum, like np.max, keeps a NaN
        np.maximum(worst, plane, out=worst)
    sum_err = np.abs(total)
    ok &= (sum_err <= band) & (support != 0)
    types = np.array(support_types(fixture.spec)[1], dtype=np.intp)
    # piece_at[type(S_x), type(S)], read off the flat table in one gather
    at = fixture.piece_at
    lower = types[support]
    piece = np.where(ok, at.ravel()[types[support_x] * len(at) + lower], -1)
    return piece, np.where(piece >= 0, np.fmax(worst, sum_err), np.nan), lower


def check_reduced_membership(
    fixture, image: np.ndarray, band: float = MEMBERSHIP_BAND
) -> tuple[str, float]:
    """The piece name and worst equality residual of one (3n,) reduced
    image, located as by :func:`locate_rows`.

    Raises :class:`NoMatchingStratumError` naming the first band test that
    fails, with its value (a cone value in full, beside its band ``band``
    max(1, p1^2)): the planes in order, then the cosphere sum, then S
    nonempty.  An image that is not 3n wide for the n planes of the
    fixture is refused with :class:`PhaseError`.
    """
    rows = np.asarray(image, dtype=float)[None, :]
    piece, residual, _ = locate_rows(fixture, rows, band)
    if piece[0] >= 0:
        return fixture.result.pieces[piece[0]], float(residual[0])
    failed = "no piece for these supports"
    total, any_on = -2.0, False
    for j in range(fixture.spec.n):
        p1, p3, diff, cone, scaled, on, _, passed = _plane_tests(rows.T, j, band)
        total, any_on = total + p1[0] + p3[0], any_on or on[0]
        if not passed[0]:
            k = j + 1
            if not on[0]:
                failed = f"p1_{k} = {p1[0]:.3e}"
            elif not scaled[0] <= band:
                bound = band * max(1.0, p1[0] * p1[0])
                failed = (f"p1_{k}^2 - p2_{k}^2 - p3_{k}^2 = {float(cone[0])!r}, "
                          f"beyond band * max(1, p1_{k}^2) = {float(bound)!r}")
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
