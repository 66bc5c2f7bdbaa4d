"""Independent oracles for the differential tests, and the group helpers
only they use.

* ``enumerate_singularities``: the singular locus by brute force.  Every coset
  pair of every branch-pair cell is classified on its own, by intersecting
  the two stabilizers and reading rotation exponents off cyclic groups
  (``rotation_exponent``), then the fixed pairs are split into G-orbits.
  It costs |G/H_i| * |G/K_j| classifications per cell;
  ``pqsurf.singularities`` counts the same orbits from conjugacy classes
  without looking at a pair.  Points come in orbit discovery order within a
  cell, so a comparison sorts each cell by (n, a).
* ``fibre_genus``: the genus of a central component by Riemann-Hurwitz over
  the branch fibres of the opposite curve, intersecting subgroups point by
  point.  ``pqsurf.bounds`` reads the same genus off the singular locus.
* ``orbit_partition``, ``cyclic_subgroup`` and ``intersect_subgroups``, the
  generic group operations both oracles are built from; a subgroup is a
  frozenset of element indices.
* ``closure_images``: the group spanned by image tuples, with products
  composed by a plain list comprehension, in the element order
  ``pqsurf.groups`` documents and ``group_from_generators`` must keep.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Callable, Hashable, Iterable

from pqsurf.covers import SphericalSystem, branch_fiber, rh_genus
from pqsurf.errors import EngineInconsistencyError, ValidationError
from pqsurf.groups import FiniteGroup
from pqsurf.hj import SingularityType
from pqsurf.singularities import SingularLocus, SingularPoint
from pqsurf.surface import BasisCurve, SurfaceModel


class ActionAxiomError(EngineInconsistencyError):
    pass


def cyclic_subgroup(group: FiniteGroup, g: int) -> frozenset[int]:
    return frozenset(group.powers(g))


def intersect_subgroups(group: FiniteGroup, h1: frozenset[int], h2: frozenset[int]) -> frozenset[int]:
    members = h1 & h2
    if group.identity not in members:
        raise EngineInconsistencyError("subgroup intersection lacks the identity")
    for a in members:
        for b in members:
            if group.mul(a, b) not in members:
                raise EngineInconsistencyError("subgroup intersection not closed")
    return members


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


def closure_images(generators: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every element of the group the image tuples generate, in the documented
    order: the identity; then for each generator g not yet in the span S, the
    coset g S in the order of S, then breadth-first over the new elements,
    each multiplied on the left by every generator kept so far."""
    identity = tuple(range(len(generators[0])))
    found = [identity]
    seen = {identity}
    kept = []
    for g in generators:
        if g in seen:
            continue
        kept.append(g)
        coset = [tuple(g[x] for x in p) for p in found]  # g * p: p acts first
        seen.update(coset)
        assert len(seen) == 2 * len(found), "a coset g S with g outside S is disjoint from S"
        found += coset
        queue = deque(coset)
        while queue:
            p = queue.popleft()
            for h in kept:
                q = tuple(h[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    found.append(q)
                    queue.append(q)
    return found


def fibre_genus(model: SurfaceModel, curve: BasisCurve) -> int:
    """Genus of N_i = C2/H_i (or M_j = C1/K_j): every point of the opposite
    curve adds |H_i ∩ its stabilizer| - 1 to the ramification."""
    if curve.kind not in ("N", "M"):
        raise ValidationError("central components only")
    own, other = (model.sys1, model.sys2) if curve.kind == "N" else (model.sys2, model.sys1)
    group = own.group
    h = cyclic_subgroup(group, own.generators[curve.index - 1])
    ramification = 0
    for j in range(1, other.branch_count + 1):
        for point in branch_fiber(other, j):
            ramification += len(intersect_subgroups(group, h, point.stabilizer)) - 1
    two_g_minus_2 = Fraction(2 * rh_genus(other) - 2 - ramification, len(h))
    if two_g_minus_2.denominator != 1 or two_g_minus_2.numerator % 2 != 0:
        raise EngineInconsistencyError(f"Riemann-Hurwitz gives 2g - 2 = {two_g_minus_2} on {curve.label}")
    return two_g_minus_2.numerator // 2 + 1


def coset_of(group: FiniteGroup, sub: frozenset[int], g: int) -> int:
    """Canonical representative (least element index) of the coset g*sub."""
    return min(group.mul(g, h) for h in sub)


def rotation_exponent(group: FiniteGroup, rotation_generator: int, h: int, n: int) -> int:
    """Exponent k (mod n) with which h rotates the tangent line whose distinguished
    generator is ``rotation_generator``: h = r^e with e = k * (m/n)."""
    powers = group.powers(rotation_generator)
    m = len(powers)
    if m % n != 0:
        raise EngineInconsistencyError("stabilizer order does not divide rotation order")
    try:
        e = powers.index(h)
    except ValueError:
        raise EngineInconsistencyError("element not in the cyclic group of its rotation") from None
    step = m // n
    if e % step != 0:
        raise EngineInconsistencyError("rotation exponent is not a multiple of m/n")
    return (e // step) % n


def _classify_pair(group: FiniteGroup, p, q) -> SingularityType | None:
    """Oriented type of the fixed point (p, q), or None if the pair is free."""
    inter = intersect_subgroups(group, p.stabilizer, q.stabilizer)
    n = len(inter)
    if n == 1:
        return None
    for h in sorted(inter):
        if len(group.powers(h)) != n:
            continue
        if rotation_exponent(group, p.rotation_generator, h, n) == 1:
            a = rotation_exponent(group, q.rotation_generator, h, n)
            return SingularityType(n, a)
    raise EngineInconsistencyError("no stabilizer generator with rotation exponent 1")


def enumerate_singularities(sys1: SphericalSystem, sys2: SphericalSystem) -> SingularLocus:
    """Classify all G-orbits of fixed points on C1 x C2, cell by branch-pair cell."""
    if sys1.group is not sys2.group:
        raise ValidationError("systems must be over the same group")
    group = sys1.group
    points: list[SingularPoint] = []
    free_counts: dict[tuple[int, int], int] = {}
    for i in range(1, sys1.branch_count + 1):
        fiber1 = branch_fiber(sys1, i)
        sub1 = cyclic_subgroup(group, sys1.generators[i - 1])
        for j in range(1, sys2.branch_count + 1):
            fiber2 = branch_fiber(sys2, j)
            sub2 = cyclic_subgroup(group, sys2.generators[j - 1])
            fixed = []
            for p in fiber1:
                for q in fiber2:
                    t = _classify_pair(group, p, q)
                    if t is not None:
                        fixed.append(((p.coset_rep, q.coset_rep), t))
            free_pairs = len(fiber1) * len(fiber2) - len(fixed)
            if free_pairs % group.order != 0:
                raise EngineInconsistencyError("free coset pairs do not split into full orbits")
            free_counts[(i, j)] = free_pairs // group.order
            if not fixed:
                continue
            types = dict(fixed)

            def act(g: int, pair: tuple[int, int]) -> tuple[int, int]:
                s, t_ = pair
                return (
                    coset_of(group, sub1, group.mul(g, s)),
                    coset_of(group, sub2, group.mul(g, t_)),
                )

            for orbit in orbit_partition(group, [pair for pair, _ in fixed], act):
                rep = orbit[0]
                t = types[rep]
                if len(orbit) * t.n != group.order:
                    raise EngineInconsistencyError(
                        f"orbit size {len(orbit)} inconsistent with stabilizer order {t.n}"
                    )
                if any(types[other] != t for other in orbit):
                    raise EngineInconsistencyError("type varies along a G-orbit")
                points.append(SingularPoint((i, j), t, len(orbit)))
    return SingularLocus(tuple(points), free_counts)
