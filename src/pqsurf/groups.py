"""Exact finite permutation groups.

Elements are permutations of {0..d-1}; a group enumerates its elements once,
in a fixed order, so every downstream enumeration is reproducible
bit-for-bit.  Composition convention: ``FiniteGroup.mul(i, j)`` is p * q with
(p * q)(x) = p(q(x)), i.e. q acts first.

Element order.  Element 0 is the identity.  The generators are taken in their
given order, and one already in the span is skipped.  Adding a generator g
appends, in order, each new p * g for the elements p found so far; then the
elements appended are taken in turn, and each is composed with every
generator kept so far, in their order, appending what is new.  A redundant
generator thus costs one lookup: a fixture that names six generators of A6
is closed over the two that span it.

Every product composes image tuples in C: ``itemgetter(*q)(p)`` is the
tuple (p[q[0]], ..., p[q[d-1]]), the images of p * q.  A group builds an
element's getter on first use and keeps it, so ``FiniteGroup.mul`` is one C
call and one dict lookup and builds no ``Permutation``.  Spans (the group
closure, ``covers``' generation check and the conjugacy classes) go through
``_close`` on image tuples and look up no element index.
"""

from __future__ import annotations

import re
from itertools import islice
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
    tuple of element i, and ``index`` maps images[i] to i.
    """

    def __init__(self, images: Sequence[tuple[int, ...]], generator_indices: Sequence[int], index: dict):
        self.images: tuple[tuple[int, ...], ...] = tuple(images)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self._index: dict[tuple[int, ...], int] = index
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


def _close(
    found: list, index: dict, moves: Sequence, start: int, end: int | None = None, stop: float = float("inf")
) -> bool:
    """Apply ``moves`` to the image tuples at positions start..end of ``found``
    (to the end of ``found`` as it grows when ``end`` is None): each tuple is
    taken in turn and each move applied to it, in order, and a result not yet
    in ``index`` is appended and recorded there at its position.  With no
    ``end`` this closes found[start:] breadth-first.  Stops, and returns True,
    as soon as ``found`` holds more than ``stop`` tuples."""
    for p in islice(found, start, end):  # a list iterator also yields what is appended
        for move in moves:
            q = move(p)
            if q not in index:
                index[q] = len(found)
                found.append(q)
                if len(found) > stop:
                    return True
    return False


def _span(identity: tuple[int, ...], generators: Sequence[tuple[int, ...]], stop: float) -> tuple[list, dict]:
    """The image tuples of the group spanned by ``generators`` (image tuples
    of the degree of ``identity``), in the element order of the module
    docstring, and the position of each; stops as soon as more than ``stop``
    are found."""
    found, index = [identity], {identity: 0}
    kept: list = []
    for g in generators:
        if g in index:
            continue
        old = len(found)
        kept.append(_composer(g))
        # the coset S g, all of it new, then the closure of what it added
        if _close(found, index, kept[-1:], 0, old, stop) or _close(found, index, kept, old, stop=stop):
            break
    return found, index


def group_from_generators(
    gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """The group a non-empty generator list spans, elements in the order of
    the module docstring; refused as soon as the span passes ``cap``."""
    if not gens:
        raise ValidationError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DomainMismatchError("generators act on different domains")
    images, index = _span(tuple(range(degree)), [g.images for g in gens], cap)
    if len(images) > cap:
        raise OrderCapExceededError(f"group order exceeds cap {cap}")
    return FiniteGroup(images, [index[g.images] for g in gens], index)


def spans_more_than(group: FiniteGroup, generators: Sequence[int], bound: int) -> bool:
    """Whether the elements span a subgroup of more than ``bound`` elements;
    the span is closed only until it passes the bound."""
    found, _ = _span(group.images[0], [group.images[g] for g in generators], bound)
    return len(found) > bound


class ConjugacyClasses:
    """The conjugacy classes of a group, each closed when first asked for.

    ``conjugators`` must generate the group.  The closure works on image
    tuples: c y c^-1 is ``map(c.__getitem__, y∘c^-1)``, with one cached
    getter of c^-1 per conjugator.  A class asked for again, through any of
    its members, is found among those already closed."""

    def __init__(self, group: FiniteGroup, conjugators: Sequence[int]) -> None:
        self._images = group.images
        self._moves = [_conjugation(group.images[c]) for c in dict.fromkeys(conjugators)]
        self._closed: list[dict] = []

    def of(self, x: int) -> dict[tuple[int, ...], int]:
        """The class of element x, keyed by the image tuples of its members."""
        key = self._images[x]
        for members in self._closed:
            if key in members:
                return members
        members = {key: 0}
        _close([key], members, self._moves, 0)
        self._closed.append(members)
        return members


def _conjugation(c: tuple[int, ...]):
    """The map y -> c y c^-1 on image tuples."""
    right = _composer(_inverse_images(c))
    left = c.__getitem__
    return lambda y: tuple(map(left, right(y)))


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
