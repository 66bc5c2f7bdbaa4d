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
costs one lookup, and only the kept ones are the group's
``generator_indices``.  A ``.pq`` file's group is spanned by its first
system (``inputs.realize``), so the element order follows that system, not
the order of the ``[group]`` lines.  No output depends on the order: the
singular locus lists its points by cell and type.

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

from itertools import chain, islice
from typing import NamedTuple, Sequence

from .errors import EngineInconsistencyError, ParseError, ValidationError, checked
from .limits import DEFAULT_ORDER_CAP, MAX_DEGREE, parse_int, shortened


_POINTS = bytes(range(MAX_DEGREE))  # every point an element can name; p's table is p + _POINTS[len(p):]


@checked
class Permutation(NamedTuple):
    """A bijection of {0..d-1}, stored as the tuple of images.

    Products are taken in a ``FiniteGroup``, on element indices: the
    tuple's own ``*`` and ``+`` are repetition and concatenation."""

    images: tuple[int, ...]

    def _check(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValidationError(f"not a bijection of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. "(0 1 2)(3 4)"; identity is "()".

        The text is one or more cycles, each "(", points split by white
        space, ")", with nothing between them; a point is decimal digits.
        Only a text that is all notation is read: each point by ``int``
        (``parse_int`` only names a token too long to convert), each cycle
        then checked for a repeated point, and at the end two cycles for
        a shared one."""
        stripped = text.replace(",", " ").strip()
        tokens = [body.split() for body in stripped[1:-1].split(")(")]
        if not (stripped[:1] == "(" and stripped[-1:] == ")" and all(map(str.isdecimal, chain(*tokens)))):
            raise ParseError(f"bad cycle notation: {shortened(text)!r}")
        cycles = []
        for cyc in tokens:
            try:
                points = [int(tok) for tok in cyc]
            except ValueError:
                points = [parse_int(tok, "point") for tok in cyc]
            if len(set(points)) != len(points):  # a repeat inside a cycle is named before cycles that meet
                raise ParseError(f"repeated point inside a cycle: {shortened(text)!r}")
            cycles.append(points)
        seen = set(chain(*cycles))
        if len(seen) != sum(map(len, cycles)):
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
    elements ``generator_indices``, each of which grew the span, span the
    group, so a tuple that contains them generates it
    (``covers.validate_system`` relies on this).
    """

    def __init__(self, images: Sequence[bytes], generator_indices: Sequence[int], index: dict):
        self.images: tuple[bytes, ...] = tuple(images)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self.index: dict[bytes, int] = index
        if self.images[0] != _POINTS[:len(self.images[0])]:
            raise EngineInconsistencyError("element 0 must be the identity")
        self._powers: dict[int, list[int]] = {}
        tail = _POINTS[len(self.images[0]):]  # c^-1 and the table of c, once per generator c
        self._conjugators = [(inverse_images(self.images[c]), self.images[c] + tail)
                             for c in self.generator_indices]
        self._classes: list[dict[bytes, int]] = []

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, i: int, j: int) -> int:
        return self.index[product_images(self.images[i], self.images[j])]

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


def inverse_images(p: bytes) -> bytes:
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


def _span(identity: bytes, generators: Sequence[bytes], stop: float) -> tuple[list, dict, list]:
    """The image bytes of the group spanned by ``generators`` (of the degree
    of ``identity``), in the element order of the module docstring, the
    position of each, and the generators that grew the span; stops as soon as
    more than ``stop`` are found."""
    found, index, kept = [identity], {identity: 0}, []
    tail = _POINTS[len(identity):]
    tables: list[bytes] = []
    for g in generators:
        if g in index:
            continue
        kept.append(g)
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
                            return found, index, kept
    return found, index, kept


def group_spanned_by(degree: int, generators: Sequence[bytes], cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The group that image strings of the degree span, elements in the
    order of the module docstring; refused as soon as the span passes
    ``cap``.  Its ``generator_indices`` are the generators that grew it."""
    images, index, kept = _span(_POINTS[:degree], generators, cap)
    if len(images) > cap:
        raise ValidationError(f"group order exceeds cap {cap}")
    return FiniteGroup(images, [index[g] for g in kept], index)


def group_from_generators(
    gens: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """``group_spanned_by`` on a non-empty list of permutations, checked to
    act on one domain of at most ``MAX_DEGREE`` points."""
    if not gens:
        raise ValidationError("need at least one generator")
    degree = len(gens[0].images)
    if any(len(g.images) != degree for g in gens):
        raise ValidationError("generators act on different domains")
    if degree > MAX_DEGREE:
        raise ValidationError(f"degree {degree} is above the ceiling {MAX_DEGREE}")
    return group_spanned_by(degree, [bytes(g.images) for g in gens], cap)


def spans_more_than(group: FiniteGroup, generators: Sequence[int], bound: int) -> bool:
    """Whether the elements span a subgroup of more than ``bound`` elements;
    the span is closed only until it passes the bound."""
    found, _, _ = _span(group.images[0], [group.images[g] for g in generators], bound)
    return len(found) > bound
