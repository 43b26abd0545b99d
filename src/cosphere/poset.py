"""Finite isotropy lattices: orbit-type posets under strict subconjugation.

An isotropy lattice records the conjugacy classes of stabilizer subgroups
occurring in a proper group action, partially ordered by subconjugation:
``(L) < (H)`` when L is conjugate to a proper subgroup of H.  The order is
supplied by the caller (or by the torus-action builder in
:mod:`cosphere.torus`); it is never inferred from group data here.

An :class:`IsotropyPoset` is valid by construction.  More than
``MAX_TYPES`` types, and order pairs that name a label of no type, are
refused before any work on the order; the refusal names those pairs as
given.  The supplied order pairs are then treated as generators, read
into down-set bitmasks over the sorted labels and closed by one
bit-parallel pass, :func:`transitive_closure`; the closed ``order`` pairs,
the covers (:func:`covers`) and the principal type are read off the masks.
The invariants are checked once, on the closed order.  A poset that breaks
any of them, a cyclic order included (its closure contains reflexive
pairs), is refused with :class:`InvalidPosetError`, which names every
violation.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Mapping

MAX_TYPES = 64


class PosetError(ValueError):
    pass


class InvalidPosetError(PosetError):
    pass


class NoUniqueMinimumError(PosetError):
    """No unique minimal orbit type: the quotient is disconnected."""


def _integer(value, name: str, error: type[ValueError] = PosetError) -> int:
    """``value`` as an int; a float, bool or string is refused as ``error``,
    not truncated."""
    if isinstance(value, bool):
        raise error(f"{name} must be an integer, not {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, not {value!r}") from None


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transitive_closure(under: Sequence[int]) -> tuple[int, ...]:
    """Transitive closure of a relation on ranks 0..n-1 given as down-set
    masks: bit s of ``under[t]`` means s < t.  One bit-parallel Warshall
    pass; a rank on a cycle gets its own bit."""
    closed = list(under)
    for k in range(len(closed)):
        bit, below_k = 1 << k, closed[k]
        for t, mask in enumerate(closed):
            if mask & bit:
                closed[t] = mask | below_k
    return tuple(closed)


def covers(under: Sequence[int], within: int = -1) -> list[int]:
    """Cover masks of a strict order given as closed down-set masks,
    restricted to the ranks of ``within``: bit s of entry t is set when s
    lies under t and in ``within``, and no other rank of ``within`` lies
    between them."""
    found = []
    for mask in under:
        strict = mask & within
        inner = 0  # the ranks under a rank of `within` under t
        for s in _bits(strict):
            inner |= under[s]
        found.append(strict & ~inner)
    return found


@dataclass(frozen=True)
class OrbitType:
    """One conjugacy class (H) of stabilizer subgroups.

    ``finite_tag`` distinguishes finite data of classes with equal identity
    component (for tori: the nontrivial elementary divisors); it is what
    permits a strict subconjugation between equal-dimensional classes.
    """

    label: str
    dim_H: int
    is_identity: bool = False
    finite_tag: str | None = None


@dataclass(frozen=True, eq=True)
class IsotropyPoset:
    """Orbit types of an action together with the strict subconjugation order.

    ``order`` holds pairs ``(a, b)`` meaning ``(a) < (b)``; it is stored as
    the transitive closure of whatever generators were passed in, read off
    ``under``: ``labels`` are the distinct labels sorted, and bit s of
    ``under[t]`` is set when ``labels[s]`` lies strictly under ``labels[t]``.
    ``dim_Q_of`` maps each label to the dimension of its orbit-type manifold
    Q_(H), whose components are assumed equidimensional.  Construction
    raises :class:`InvalidPosetError` unless the data form a valid isotropy
    lattice (see the module docstring).
    """

    types: tuple[OrbitType, ...]
    order: frozenset[tuple[str, str]]
    dim_Q_of: Mapping[str, int]
    dim_G: int
    dim_Q: int
    labels: tuple[str, ...] = field(init=False, compare=False, repr=False)
    under: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        known = {t.label for t in self.types}
        # the closure is cubic in the number of labels, so the cap and the
        # labels of the generator pairs come first
        unknown = sorted((a, b) for a, b in self.order if a not in known or b not in known)
        if len(self.types) > MAX_TYPES:
            bad = [f"{len(self.types)} orbit types exceeds the cap of {MAX_TYPES}"]
        elif unknown:
            bad = [f"order pair ({a!r}, {b!r}) references an unknown label" for a, b in unknown]
        else:
            labels = tuple(sorted(known))
            rank = {label: t for t, label in enumerate(labels)}
            under = [0] * len(labels)
            for a, b in self.order:
                under[rank[b]] |= 1 << rank[a]
            under = transitive_closure(under)
            object.__setattr__(self, "labels", labels)
            object.__setattr__(self, "under", under)
            object.__setattr__(self, "order", frozenset(
                (labels[s], b) for b, mask in zip(labels, under) for s in _bits(mask)))
            object.__setattr__(self, "dim_Q_of", dict(self.dim_Q_of))
            bad = _violations(self)
        if bad:
            raise InvalidPosetError("invalid isotropy poset: " + "; ".join(bad))


def _violations(poset: IsotropyPoset) -> list[str]:
    """Every violated isotropy-lattice invariant of a poset of at most
    ``MAX_TYPES`` types whose order is closed and names only their labels;
    empty when it is valid."""
    bad: list[str] = []
    labels = [t.label for t in poset.types]
    if not labels:
        bad.append("type list is empty")
    if len(set(labels)) != len(labels):
        bad.append("orbit type labels are not unique")
    if poset.dim_G < 0 or poset.dim_Q < 0:
        bad.append("dim_G and dim_Q must be nonnegative")

    known = set(labels)
    by_label = {t.label: t for t in poset.types}
    if sum(t.is_identity for t in poset.types) > 1:
        bad.append("more than one orbit type is flagged as the identity class")

    for t in poset.types:
        if t.dim_H < 0 or t.dim_H > poset.dim_G:
            bad.append(f"type {t.label!r}: dim_H = {t.dim_H} outside [0, dim_G]")
        if t.is_identity and (t.dim_H != 0 or t.finite_tag is not None):
            bad.append(f"type {t.label!r}: identity class must have dim 0 and no finite tag")
        if t.label not in poset.dim_Q_of:
            bad.append(f"type {t.label!r}: missing dim_Q_of entry")
            continue
        d = poset.dim_Q_of[t.label]
        if d < 0 or d > poset.dim_Q:
            bad.append(f"type {t.label!r}: dim_Q_of = {d} outside [0, dim_Q]")
        # each orbit of type (H) has dimension dim_G - dim_H and sits inside Q_(H)
        if d < poset.dim_G - t.dim_H:
            bad.append(
                f"type {t.label!r}: dim_Q_of = {d} below the orbit dimension "
                f"{poset.dim_G - t.dim_H}"
            )
    for extra in sorted(set(poset.dim_Q_of) - known):
        bad.append(f"dim_Q_of entry {extra!r} matches no orbit type")

    # strict order: closure is built in, so failures here mean cycles
    for a, b in sorted(poset.order):
        if a == b:
            bad.append(f"order is not irreflexive: ({a!r}, {a!r})")
        elif (b, a) in poset.order:
            if a < b:
                bad.append(f"order is not antisymmetric: {a!r} and {b!r}")
        else:
            ta, tb = by_label[a], by_label[b]
            if ta.dim_H > tb.dim_H:
                bad.append(
                    f"({a!r}) < ({b!r}) but dim {ta.dim_H} > {tb.dim_H}: "
                    "a subgroup cannot exceed the ambient dimension"
                )
            elif ta.dim_H == tb.dim_H and ta.finite_tag == tb.finite_tag:
                bad.append(
                    f"({a!r}) < ({b!r}) with equal dimension and equal finite tag: "
                    "strict subconjugation needs distinct finite data"
                )
    return bad


def principal_type(poset: IsotropyPoset) -> OrbitType:
    """The unique minimal orbit type (principal orbits).

    Raises :class:`NoUniqueMinimumError` when minimality is not unique,
    which signals a disconnected quotient.
    """
    minimal = [label for label, mask in zip(poset.labels, poset.under) if not mask]
    if len(minimal) != 1:
        raise NoUniqueMinimumError(
            f"expected exactly one minimal orbit type, found {minimal}"
        )
    return next(t for t in poset.types if t.label == minimal[0])


def poset_to_json(poset: IsotropyPoset) -> dict:
    """JSON-ready dict with the fixed field names used by the CLI."""
    types = []
    for t in poset.types:
        entry: dict = {
            "label": t.label,
            "dim_H": t.dim_H,
            "dim_Q_of": poset.dim_Q_of[t.label],
        }
        if t.finite_tag is not None:
            entry["finite_tag"] = t.finite_tag
        types.append(entry)
    return {
        "dim_Q": poset.dim_Q,
        "dim_G": poset.dim_G,
        "types": types,
        "order": sorted([a, b] for a, b in poset.order),
    }


def poset_from_json(data: dict) -> IsotropyPoset:
    """Inverse of :func:`poset_to_json`.

    ``is_identity`` is not serialized: an untagged zero-dimensional type is
    taken to be the trivial class, so finite nontrivial stabilizers must
    carry a ``finite_tag``.
    """
    try:
        types, dim_q_of = [], {}
        for t in data["types"]:
            dim_h = _integer(t["dim_H"], "dim_H")
            tag = None if t.get("finite_tag") is None else str(t["finite_tag"])
            types.append(OrbitType(label=str(t["label"]), dim_H=dim_h,
                                   is_identity=(dim_h == 0 and tag is None), finite_tag=tag))
            dim_q_of[str(t["label"])] = _integer(t["dim_Q_of"], "dim_Q_of")
        order = frozenset((str(a), str(b)) for a, b in data["order"])
        dim_g, dim_q = _integer(data["dim_G"], "dim_G"), _integer(data["dim_Q"], "dim_Q")
    except (KeyError, TypeError, ValueError) as exc:
        raise PosetError(f"malformed isotropy poset JSON: {exc}") from exc
    # outside the try: an invalid poset is refused as such, not as malformed
    return IsotropyPoset(types=tuple(types), order=order, dim_Q_of=dim_q_of,
                         dim_G=dim_g, dim_Q=dim_q)


def _dot_quoted(text: str) -> str:
    """``text`` escaped for the inside of a DOT double-quoted string, an ID
    or a label: ``\\`` becomes ``\\\\`` and ``"`` becomes ``\\"``."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def poset_to_dot(poset: IsotropyPoset) -> str:
    """DOT rendering of the isotropy lattice (edges are covering relations).

    Edge a -> b means (a) < (b); node order is sorted for determinism.
    """
    lines = ["digraph isotropy {", '  rankdir="BT";']
    for t in sorted(poset.types, key=lambda t: t.label):
        label = _dot_quoted(t.label)
        lines.append(
            f'  "{label}" [label="({label})\\ndim H = {t.dim_H}, '
            f'dim Q_(H) = {poset.dim_Q_of[t.label]}"];'
        )
    labels = [_dot_quoted(label) for label in poset.labels]
    # ranks follow label order, so sorting by rank sorts the edges by label
    edges = sorted((s, t) for t, mask in enumerate(covers(poset.under)) for s in _bits(mask))
    lines.extend(f'  "{labels[s]}" -> "{labels[t]}";' for s, t in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
