"""Exact finite permutation groups.

Elements are permutations of {0..d-1}; a group enumerates its elements once,
in a fixed order, so every downstream enumeration is reproducible
bit-for-bit.  Composition convention: ``FiniteGroup.mul(i, j)`` is p * q with
(p * q)(x) = p(q(x)), i.e. q acts first.  There is no subgroup type: the
cyclic group <g> is the cached list ``FiniteGroup.powers(g)``, and a subgroup
is a set of element indices.

Element order.  Element 0 is the identity.  The generators are taken in their
given order, and one already in the span is skipped.  Adding a generator g
appends, in order, each g * p for the elements p found so far (all new, as
the span found so far is a group without g); then the elements appended are
taken in turn, and each is multiplied on the left by every generator kept so
far, in their order, appending what is new.  A redundant generator thus
costs one lookup.  A ``.pq`` file's group is spanned by its first system
without the last element (``inputs.realize``), so the element order follows
that system, not the order of the ``[group]`` lines.  No output depends on
the order: the singular locus lists its points by cell and type.

An element is one ``bytes`` string of its images, so a degree is at most 256
(``limits.MAX_DEGREE``).  With the 256-byte table of p (its images, then the
identity), ``q.translate(table)`` is the image string of p * q: one C call,
whose result caches its hash.  ``product_images`` builds the table of its
left factor on each call, for ``FiniteGroup.mul`` and the words of a
``.pq`` file.  A span (the closure and ``covers``' generation check) builds
one table per generator and multiplies on the left, g * p being
``p.translate(table_g)``; a conjugacy class, a query cached on the group as
powers are, builds the table of each member once.  Neither builds a
``Permutation``.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple, Sequence

from .errors import EngineInconsistencyError, ParseError, ValidationError
from .limits import DEFAULT_ORDER_CAP, MAX_DEGREE, parse_int, shortened


_POINTS = bytes(range(MAX_DEGREE))  # every point an element can name; p's table is p + _POINTS[len(p):]
_CYCLES = re.compile(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+")  # cycles, each "(" points ")", none between them


class _PermutationFields(NamedTuple):
    images: tuple[int, ...]


class Permutation(_PermutationFields):
    """A bijection of {0..d-1}, stored as the tuple of images.

    Products are taken in a ``FiniteGroup``, on element indices: the
    tuple's own ``*`` and ``+`` are repetition and concatenation."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValidationError(f"not a bijection of 0..{len(images) - 1}: {images}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. "(0 1 2)(3 4)"; identity is "()".

        One pattern match reads the whole text, so a point is read by ``int``
        (``parse_int`` only names a token too long to convert), and one set
        of the points seen finds a repeat, inside a cycle or across two."""
        stripped = text.replace(",", " ").strip()
        if not _CYCLES.fullmatch(stripped):
            raise ParseError(f"bad cycle notation: {shortened(text)!r}")
        cycles = []
        seen: set[int] = set()
        disjoint = True
        for body in stripped[1:-1].split(")("):
            tokens = body.split()
            try:
                cyc = [int(tok) for tok in tokens]
            except ValueError:
                cyc = [parse_int(tok, "point") for tok in tokens]
            size = len(seen)
            seen.update(cyc)
            if len(seen) - size != len(cyc):  # a repeat inside a cycle is named before cycles that meet
                if len(set(cyc)) != len(cyc):
                    raise ParseError(f"repeated point inside a cycle: {shortened(text)!r}")
                disjoint = False
            cycles.append(cyc)
        if not disjoint:
            raise ParseError(f"cycles are not disjoint: {shortened(text)!r}")
        # an inferred domain stops at the ceiling, so a larger point is refused before d images are built
        d = degree if degree is not None else min(max(seen, default=0) + 1, MAX_DEGREE)
        if seen and max(seen) >= d:
            raise ParseError(f"point {shortened(str(max(seen)))} out of domain 0..{d - 1}")
        images = list(range(d))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(tuple(images))


class FiniteGroup:
    """A finite permutation group with a fixed, deterministic element order.

    Element 0 is the identity.  Elements are addressed by index everywhere;
    a product translates the images of the right factor by the table of the
    left one and looks the result up by its images; ``images[i]`` is the
    image bytes of element i, and ``index`` maps images[i] to i.  The
    elements ``generator_indices`` span the group, so a tuple that contains
    them generates it (``covers.validate_system`` relies on this).
    """

    def __init__(self, images: Sequence[bytes], generator_indices: Sequence[int], index: dict):
        self.images: tuple[bytes, ...] = tuple(images)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self.index: dict[bytes, int] = index
        if self.images[0] != _POINTS[:len(self.images[0])]:
            raise EngineInconsistencyError("element 0 must be the identity")
        self._powers: dict[int, list[int]] = {}
        tail = _POINTS[len(self.images[0]):]  # c^-1 and the table of c, once per generator c
        self._conjugators = [(_inverse_images(self.images[c]), self.images[c] + tail)
                             for c in dict.fromkeys(self.generator_indices)]
        self._classes: list[dict[bytes, int]] = []

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, i: int, j: int) -> int:
        return self.index[product_images(self.images[i], self.images[j])]

    def conjugate(self, i: int, t: int) -> int:
        """t i t^-1."""
        return self.mul(self.mul(t, i), self.index[_inverse_images(self.images[t])])

    def powers(self, i: int) -> list[int]:
        """[e, i, i^2, ..., i^(m-1)] with m the order of i; cached on the group."""
        cached = self._powers.get(i)
        if cached is None:
            cached = [self.identity]
            acc = i
            while acc != self.identity:
                cached.append(acc)
                acc = self.mul(i, acc)
            self._powers[i] = cached
        return cached

    def conjugacy_class(self, x: int) -> dict[bytes, int]:
        """The class of element x, keyed by the image bytes of its members;
        closed when first asked for and cached on the group, so asking again,
        through any member, returns the same dict.  It is closed on image
        bytes, conjugating by ``generator_indices``: with the table of y
        built once, c y c^-1 is ``c_inv.translate(table_y).translate(table_c)``."""
        key = self.images[x]
        for members in self._classes:
            if key in members:
                return members
        tail = _POINTS[len(key):]
        found, members = [key], {key: 0}
        for y in found:  # a list iterator also yields what is appended
            table = y + tail
            for c_inv, table_c in self._conjugators:
                q = c_inv.translate(table).translate(table_c)
                if q not in members:
                    members[q] = len(found)
                    found.append(q)
        self._classes.append(members)
        return members


def _inverse_images(p: bytes) -> bytes:
    """The images of p^-1: the table mapping each p[x] back to x, cut to degree."""
    return bytes.maketrans(p, _POINTS[:len(p)])[:len(p)]


def product_images(p: bytes, q: bytes) -> bytes:
    """The images of p * q, q acting first."""
    return q.translate(p + _POINTS[len(p):])


def power_images(p: bytes, k: int) -> bytes:
    """The images of p^k for k of either sign: each cycle of p is rotated by
    k mod its length, so the cost is the degree, however large k or the
    order of p."""
    images = bytearray(len(p))
    seen = bytearray(len(p))
    for start in range(len(p)):
        if not seen[start]:
            cycle = [start]
            while (x := p[cycle[-1]]) != start:
                cycle.append(x)
            shift = k % len(cycle)
            for x, y in zip(cycle, cycle[shift:] + cycle[:shift]):
                images[x] = y
                seen[x] = 1
    return bytes(images)


def _span(identity: bytes, generators: Sequence[bytes], stop: float) -> tuple[list, dict]:
    """The image bytes of the group spanned by ``generators`` (of the degree
    of ``identity``), in the element order of the module docstring, and the
    position of each; stops as soon as more than ``stop`` are found."""
    found, index = [identity], {identity: 0}
    tail = _POINTS[len(identity):]
    tables: list[bytes] = []
    for g in generators:
        if g in index:
            continue
        tables.append(g + tail)
        old = len(found)
        # the coset g S, then the closure of what it added; a list iterator
        # also yields what is appended
        for start, end, moves in ((0, old, tables[-1:]), (old, None, tables)):
            for p in islice(found, start, end):
                for table in moves:
                    q = p.translate(table)
                    if q not in index:
                        index[q] = len(found)
                        found.append(q)
                        if len(found) > stop:
                            return found, index
    return found, index


def group_spanned_by(generators: Sequence[bytes], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The group that non-empty image strings of one degree span, elements
    in the order of the module docstring; refused as soon as the span passes
    ``cap``.  Its ``generator_indices`` are those of ``generators``."""
    images, index = _span(_POINTS[:len(generators[0])], generators, cap)
    if len(images) > cap:
        raise ValidationError(f"group order exceeds cap {cap}")
    return FiniteGroup(images, [index[g] for g in generators], index)


def group_from_generators(
    gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """``group_spanned_by`` on a non-empty list of permutations, checked to
    act on one domain of at most ``MAX_DEGREE`` points."""
    if not gens:
        raise ValidationError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValidationError("generators act on different domains")
    if degree > MAX_DEGREE:
        raise ValidationError(f"degree {degree} is above the ceiling {MAX_DEGREE}")
    return group_spanned_by([bytes(g.images) for g in gens], cap)


def spans_more_than(group: FiniteGroup, generators: Sequence[int], bound: int) -> bool:
    """Whether the elements span a subgroup of more than ``bound`` elements;
    the span is closed only until it passes the bound."""
    found, _ = _span(group.images[0], [group.images[g] for g in generators], bound)
    return len(found) > bound
