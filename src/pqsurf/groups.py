"""Exact finite permutation groups.

Elements are permutations of {0..d-1}; a group enumerates its elements once
(breadth-first from the identity, generator order fixed) so every downstream
enumeration is reproducible bit-for-bit.  Composition convention:
(p * q)(x) = p(q(x)), i.e. q acts first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from .errors import EngineInconsistencyError, ParseError, ValidationError
from .limits import DEFAULT_ORDER_CAP


class DomainMismatchError(ValidationError):
    pass


class OrderCapExceededError(ValidationError):
    pass


class ActionAxiomError(EngineInconsistencyError):
    pass


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..d-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValidationError(f"not a bijection of 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise DomainMismatchError(f"degrees {self.degree} and {other.degree} differ")
        return Permutation(tuple(self.images[other.images[x]] for x in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(self.images[x] == x for x in range(self.degree))

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. "(0 1 2)(3 4)"; identity is "()"."""
        stripped = text.replace(",", " ").strip()
        if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+", stripped):
            raise ParseError(f"bad cycle notation: {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", stripped):
            entries = [int(tok) for tok in body.split()]
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

    def cycle_string(self) -> str:
        seen: set[int] = set()
        parts = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) or "()"


class FiniteGroup:
    """A finite permutation group with a fixed, deterministic element order.

    Element 0 is the identity.  Elements are addressed by index everywhere;
    products compose raw image tuples and look the result up by its images.
    Use ``element(i)`` for the underlying permutation.
    """

    def __init__(self, images: Sequence[tuple[int, ...]], generator_indices: Sequence[int]):
        self.images: tuple[tuple[int, ...], ...] = tuple(images)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self._index: dict[tuple[int, ...], int] = {p: i for i, p in enumerate(self.images)}
        if self.images[0] != tuple(range(len(self.images[0]))):
            raise EngineInconsistencyError("element 0 must be the identity")
        self._inverse = [self._index[_inverse_images(p)] for p in self.images]
        self._powers: dict[int, list[int]] = {}

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def identity(self) -> int:
        return 0

    @property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(p) for p in self.images)

    def element(self, i: int) -> Permutation:
        return Permutation(self.images[i])

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise ValidationError(f"permutation {p.cycle_string()} is not in the group") from None

    def mul(self, i: int, j: int) -> int:
        a = self.images[i]
        return self._index[tuple([a[x] for x in self.images[j]])]

    def inv(self, i: int) -> int:
        return self._inverse[i]

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


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its member element indices in the parent group."""

    parent: FiniteGroup
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.parent.identity not in self.members:
            raise ValidationError("subgroup must contain the identity")

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
    distinct = list(dict.fromkeys(g.images for g in gens))
    while frontier:
        next_frontier = []
        for p in frontier:
            for g in distinct:
                q = tuple([p[x] for x in g])
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


def intersect_subgroups(group: FiniteGroup, h1: Subgroup, h2: Subgroup) -> Subgroup:
    members = h1.members & h2.members
    for a in members:
        for b in members:
            if group.mul(a, b) not in members:
                raise EngineInconsistencyError("subgroup intersection not closed")
    return Subgroup(group, frozenset(members))


def coset_reps(group: FiniteGroup, sub: Subgroup) -> list[int]:
    """For each element g, the least element index of its left coset g*sub."""
    rep = [-1] * group.order
    for g in range(group.order):
        if rep[g] < 0:
            for h in sub.members:
                rep[group.mul(g, h)] = g
    return rep


def left_cosets(group: FiniteGroup, sub: Subgroup) -> list[int]:
    """Representatives of the left cosets gH, each the least element index in its coset."""
    reps = [g for g, r in enumerate(coset_reps(group, sub)) if g == r]
    assert len(reps) * sub.order == group.order
    return reps


def orbit_partition(
    group: FiniteGroup,
    points: Iterable[Hashable],
    action: Callable[[int, Hashable], Hashable],
) -> list[list[Hashable]]:
    """Partition points into G-orbits; orbit order follows first appearance."""
    points = list(points)
    point_set = set(points)
    _spot_check_action(group, points, point_set, action)
    gens = _distinct_generators(group) or tuple(range(group.order))
    seen: set[Hashable] = set()
    orbits: list[list[Hashable]] = []
    for p in points:
        if p in seen:
            continue
        orbit = [p]
        seen.add(p)
        queue = [p]
        while queue:
            q = queue.pop()
            for g in gens:
                r = action(g, q)
                if r not in point_set:
                    raise ActionAxiomError(f"action leaves the point set: {r!r}")
                if r not in seen:
                    seen.add(r)
                    orbit.append(r)
                    queue.append(r)
        orbits.append(orbit)
    return orbits


def _spot_check_action(group, points, point_set, action) -> None:
    sample = points[:5]
    for p in sample:
        if action(group.identity, p) != p:
            raise ActionAxiomError("identity does not act trivially")
    gens = _distinct_generators(group) or (group.identity,)
    for g in gens:
        for h in gens:
            gh = group.mul(g, h)
            for p in sample:
                if action(g, action(h, p)) != action(gh, p):
                    raise ActionAxiomError("action is not compatible with composition")


def _distinct_generators(group: FiniteGroup) -> tuple[int, ...]:
    return tuple(dict.fromkeys(group.generator_indices))
