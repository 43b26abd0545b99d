"""Finite isotropy lattices: orbit-type posets under strict subconjugation.

An isotropy lattice records the conjugacy classes of stabilizer subgroups
occurring in a proper group action, partially ordered by subconjugation:
``(L) < (H)`` when L is conjugate to a proper subgroup of H.  The order is
supplied by the caller (or by the torus-action builder in
:mod:`cosphere.torus`); it is never inferred from group data here.

The order is stored once, as down-set bitmasks over the sorted labels.
The constructor closes the generator masks it is given by one bit-parallel
pass, :func:`transitive_closure`; the covers (:func:`covers`), the
principal type and, only when read, the ``order`` pairs come from the
closed masks.  Pairs given by hand or in JSON reach the masks through one
conversion, :meth:`IsotropyPoset.from_pairs`.

An :class:`IsotropyPoset` is valid by construction.  More than
``MAX_TYPES`` types, order pairs that name a label of no type (listed as
given) and masks of the wrong shape are refused before any work on the
order.  The invariants are then checked once, by mask tests on the closed
masks; only a failing test spells its violations pair by pair.  A poset
that breaks any invariant, a cyclic order included (its closure sets a
rank's own bit), is refused with :class:`InvalidPosetError`, which names
every violation.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
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


def _string(value, name: str = "label") -> str:
    """``value`` as a label or tag: a string, refused otherwise, not spelled by ``str``."""
    if not isinstance(value, str):
        raise PosetError(f"a {name} must be a string, not {value!r}")
    return value


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


def _refuse(bad: list[str]) -> None:
    """Raise :class:`InvalidPosetError` naming the violations ``bad``, if any."""
    if bad:
        raise InvalidPosetError("invalid isotropy poset: " + "; ".join(bad))


def _refuse_over_cap(types: tuple[OrbitType, ...]) -> None:
    # the closure is cubic in the number of labels, so the cap comes first
    if len(types) > MAX_TYPES:
        _refuse([f"{len(types)} orbit types exceeds the cap of {MAX_TYPES}"])


@dataclass(frozen=True, eq=True)
class IsotropyPoset:
    """Orbit types of an action together with the strict subconjugation order.

    ``under`` is the one stored order: ``labels`` are the distinct labels
    of ``types`` sorted, and bit s of ``under[t]`` is set when ``labels[s]``
    lies strictly under ``labels[t]``.  The masks passed in are generators,
    stored as their transitive closure; :attr:`order` derives the pairs
    from them.  ``dim_Q_of`` maps each label to the dimension of its
    orbit-type manifold Q_(H), whose components are assumed
    equidimensional.  Construction raises :class:`InvalidPosetError` unless
    the data form a valid isotropy lattice (see the module docstring).
    """

    types: tuple[OrbitType, ...]
    under: tuple[int, ...]
    dim_Q_of: Mapping[str, int]
    dim_G: int
    dim_Q: int
    labels: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        types = tuple(self.types)
        _refuse_over_cap(types)
        labels = tuple(sorted({t.label for t in types}))
        under, top = tuple(self.under), 1 << len(labels)
        if len(under) != len(labels) or any(not 0 <= mask < top for mask in under):
            _refuse([f"order masks must be one per label, {len(labels)} in all, "
                     f"each of bits below {len(labels)}"])
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "under", transitive_closure(under))
        object.__setattr__(self, "dim_Q_of", dict(self.dim_Q_of))
        _refuse(_violations(self))

    @classmethod
    def from_pairs(cls, types: Sequence[OrbitType], order: Iterable[tuple[str, str]],
                   dim_Q_of: Mapping[str, int], dim_G: int, dim_Q: int) -> IsotropyPoset:
        """The poset whose order is generated by the pairs ``(a, b)`` of
        ``order``, each meaning ``(a) < (b)``.  Past the type cap, or with
        pairs that name a label of no type, it is refused before any mask
        is built."""
        types, order = tuple(types), tuple(order)
        _refuse_over_cap(types)
        rank = {label: t for t, label in enumerate(sorted({t.label for t in types}))}
        _refuse([f"order pair ({a!r}, {b!r}) references an unknown label"
                 for a, b in sorted({(a, b) for a, b in order
                                     if a not in rank or b not in rank})])
        under = [0] * len(rank)
        for a, b in order:
            under[rank[b]] |= 1 << rank[a]
        return cls(types, tuple(under), dim_Q_of, dim_G, dim_Q)

    @property
    def order(self) -> frozenset[tuple[str, str]]:
        """The closed order as pairs ``(a, b)`` meaning ``(a) < (b)``."""
        labels = self.labels
        return frozenset((labels[s], b) for b, mask in zip(labels, self.under)
                         for s in _bits(mask))


def _violations(poset: IsotropyPoset) -> list[str]:
    """Every violated isotropy-lattice invariant of a poset of at most
    ``MAX_TYPES`` types whose masks are closed; empty when it is valid."""
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

    # strict order: nothing under a rank may have a larger dim_H, or equal
    # dim_H and an equal finite tag, the rank itself included; a cycle of
    # the closed masks sets a rank's own bit, so that test finds it too
    ranked = [by_label[label] for label in poset.labels]
    same: dict[tuple, int] = {}  # (dim_H, finite_tag) -> its ranks
    at: dict[int, int] = {}  # dim_H -> its ranks
    for r, t in enumerate(ranked):
        same[t.dim_H, t.finite_tag] = same.get((t.dim_H, t.finite_tag), 0) | 1 << r
        at[t.dim_H] = at.get(t.dim_H, 0) | 1 << r
    above, larger = {}, 0  # dim_H -> the ranks of larger dim_H
    for d in sorted(at, reverse=True):
        above[d], larger = larger, larger | at[d]
    if all(not mask & (above[t.dim_H] | same[t.dim_H, t.finite_tag])
           for t, mask in zip(ranked, poset.under)):
        return bad
    order = poset.order
    for a, b in sorted(order):
        if a == b:
            bad.append(f"order is not irreflexive: ({a!r}, {a!r})")
        elif (b, a) in order:
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
    carry a ``finite_tag``.  Labels, tags and order entries must be JSON
    strings.
    """
    try:
        types, dim_q_of = [], {}
        for t in data["types"]:
            dim_h = _integer(t["dim_H"], "dim_H")
            tag = None if t.get("finite_tag") is None else _string(t["finite_tag"], "finite_tag")
            label = _string(t["label"])
            types.append(OrbitType(label=label, dim_H=dim_h,
                                   is_identity=(dim_h == 0 and tag is None), finite_tag=tag))
            dim_q_of[label] = _integer(t["dim_Q_of"], "dim_Q_of")
        order = [(_string(a), _string(b)) for a, b in data["order"]]
        dim_g, dim_q = _integer(data["dim_G"], "dim_G"), _integer(data["dim_Q"], "dim_Q")
    except (KeyError, TypeError, ValueError) as exc:
        raise PosetError(f"malformed isotropy poset JSON: {exc}") from exc
    # outside the try: an invalid poset is refused as such, not as malformed
    return IsotropyPoset.from_pairs(types, order, dim_q_of, dim_g, dim_q)


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
