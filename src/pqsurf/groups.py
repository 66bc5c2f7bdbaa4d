"""Exact finite permutation groups.

Elements are permutations of {0..d-1}; a group enumerates its elements once
(breadth-first from the identity, generator order fixed) so every downstream
enumeration is reproducible bit-for-bit.  Composition convention:
``FiniteGroup.mul(i, j)`` is p * q with (p * q)(x) = p(q(x)), i.e. q acts first.

Every product composes image tuples in C: ``itemgetter(*q)(p)`` is the
tuple (p[q[0]], ..., p[q[d-1]]), the images of p * q.  A group builds an
element's getter on first use and keeps it, so ``FiniteGroup.mul`` is one C
call and one dict lookup and builds no ``Permutation``.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import EngineInconsistencyError, ParseError, ValidationError
from .limits import DEFAULT_ORDER_CAP, parse_int


class DomainMismatchError(ValidationError):
    pass


class OrderCapExceededError(ValidationError):
    pass


def _composer(q: tuple[int, ...]):
    """The map p -> p * q on image tuples, q acting first.  Below degree 2 the
    only permutation is the identity and p * q = p; itemgetter would return a
    bare int there (one index) or refuse to be built (none)."""
    return itemgetter(*q) if len(q) > 1 else tuple


class _LazyTable(dict):
    """A table whose entry for a key is ``build(key)``, made on first lookup."""

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class Permutation:
    """A bijection of {0..d-1}, stored as the tuple of images.

    A frozen ``__slots__`` class, not a named tuple, whose ``*``, ``len``
    and ``+`` would mean repetition, length and concatenation.  Products are
    taken in a ``FiniteGroup``, on element indices."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    def __reduce__(self):
        return Permutation, (self.images,)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. "(0 1 2)(3 4)"; identity is "()"."""
        stripped = text.replace(",", " ").strip()
        if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+", stripped):
            raise ParseError(f"bad cycle notation: {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", stripped):
            entries = [parse_int(tok, "point") for tok in body.split()]
            if len(set(entries)) != len(entries):
                raise ParseError(f"repeated point inside a cycle: {text!r}")
            cycles.append(entries)
        seen: set[int] = set()
        for cyc in cycles:
            if seen & set(cyc):
                raise ParseError(f"cycles are not disjoint: {text!r}")
            seen |= set(cyc)
        d = degree if degree is not None else (max(seen) + 1 if seen else 1)
        if seen and max(seen) >= d:
            raise ParseError(f"point {max(seen)} out of domain 0..{d - 1}")
        images = list(range(d))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(tuple(images))


class FiniteGroup:
    """A finite permutation group with a fixed, deterministic element order.

    Element 0 is the identity.  Elements are addressed by index everywhere;
    products compose raw image tuples with the cached getter of the right
    factor and look the result up by its images; ``images[i]`` is the image
    tuple of element i.
    """

    def __init__(self, images: Sequence[tuple[int, ...]], generator_indices: Sequence[int]):
        self.images: tuple[tuple[int, ...], ...] = tuple(images)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self._index: dict[tuple[int, ...], int] = {p: i for i, p in enumerate(self.images)}
        if self.images[0] != tuple(range(len(self.images[0]))):
            raise EngineInconsistencyError("element 0 must be the identity")
        images, index = self.images, self._index  # not self: no cycle keeps a group alive
        self._inverse = _LazyTable(lambda i: index[_inverse_images(images[i])])
        self._compose = _LazyTable(lambda i: _composer(images[i]))
        self._powers: dict[int, list[int]] = {}

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, i: int, j: int) -> int:
        return self._index[self._compose[j](self.images[i])]

    def conjugate(self, i: int, t: int) -> int:
        """t i t^-1."""
        return self.mul(self.mul(t, i), self._inverse[t])

    def powers(self, i: int) -> list[int]:
        """[e, i, i^2, ..., i^(m-1)] with m the order of i; cached on the group."""
        cached = self._powers.get(i)
        if cached is None:
            cached = [self.identity]
            acc = i
            while acc != self.identity:
                cached.append(acc)
                acc = self.mul(acc, i)
            self._powers[i] = cached
        return cached

    def power(self, i: int, k: int) -> int:
        if k < 0:
            i, k = self._inverse[i], -k
        cycle = self.powers(i)
        return cycle[k % len(cycle)]


def _inverse_images(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


class _SubgroupFields(NamedTuple):
    parent: FiniteGroup
    members: frozenset[int]


class Subgroup(_SubgroupFields):
    """A subgroup given by its member element indices in the parent group."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, parent: FiniteGroup, members: frozenset[int]):
        if parent.identity not in members:
            raise ValidationError("subgroup must contain the identity")
        return super().__new__(cls, parent, members)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members


def group_from_generators(
    gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Close a non-empty generator list under composition, breadth-first."""
    if not gens:
        raise ValidationError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DomainMismatchError("generators act on different domains")
    identity = tuple(range(degree))
    images = [identity]
    index = {identity: 0}
    frontier = [identity]
    # a repeated generator only ever yields products already found
    distinct = [_composer(images) for images in dict.fromkeys(g.images for g in gens)]
    while frontier:
        next_frontier = []
        for p in frontier:
            for compose in distinct:
                q = compose(p)
                if q not in index:
                    index[q] = len(images)
                    images.append(q)
                    next_frontier.append(q)
                    if len(images) > cap:
                        raise OrderCapExceededError(f"group order exceeds cap {cap}")
        frontier = next_frontier
    return FiniteGroup(images, [index[g.images] for g in gens])


def element_order(group: FiniteGroup, g: int) -> int:
    return len(group.powers(g))


def cyclic_subgroup(group: FiniteGroup, g: int) -> Subgroup:
    return Subgroup(group, frozenset(group.powers(g)))


def conjugate_subgroup(group: FiniteGroup, sub: Subgroup, t: int) -> Subgroup:
    return Subgroup(group, frozenset(group.conjugate(h, t) for h in sub.members))


def left_cosets(group: FiniteGroup, sub: Subgroup) -> list[int]:
    """Representatives of the left cosets gH, each the least element index in its coset."""
    covered = [False] * group.order
    reps = []
    for g in range(group.order):
        if not covered[g]:
            reps.append(g)
            for h in sub.members:
                covered[group.mul(g, h)] = True
    assert len(reps) * sub.order == group.order
    return reps
