"""The singular locus by brute force: every coset pair of every branch-pair
cell is classified on its own, then the fixed pairs are split into G-orbits.

This is the pair enumeration that ``pqsurf.singularities`` replaced with the
double-coset walk.  It costs |G/H_i| * |G/K_j| classifications per cell, so
it is kept only as an independent oracle for the differential tests.
"""

from __future__ import annotations

from pqsurf.covers import SphericalSystem, branch_fiber, require_valid
from pqsurf.errors import EngineInconsistencyError, ValidationError
from pqsurf.groups import (
    FiniteGroup,
    Subgroup,
    cyclic_subgroup,
    element_order,
    intersect_subgroups,
    orbit_partition,
)
from pqsurf.singularities import (
    SingularityType,
    SingularLocus,
    SingularPoint,
    rotation_exponent,
)


def coset_of(group: FiniteGroup, sub: Subgroup, g: int) -> int:
    """Canonical representative (least element index) of the coset g*sub."""
    return min(group.mul(g, h) for h in sub.members)


def _classify_pair(group: FiniteGroup, p, q) -> SingularityType | None:
    """Oriented type of the fixed point (p, q), or None if the pair is free."""
    inter = intersect_subgroups(group, p.stabilizer, q.stabilizer)
    n = inter.order
    if n == 1:
        return None
    for h in sorted(inter.members):
        if element_order(group, h) != n:
            continue
        if rotation_exponent(group, p.rotation_generator, h, n) == 1:
            a = rotation_exponent(group, q.rotation_generator, h, n)
            return SingularityType(n, a)
    raise EngineInconsistencyError("no stabilizer generator with rotation exponent 1")


def enumerate_singularities(sys1: SphericalSystem, sys2: SphericalSystem) -> SingularLocus:
    """Classify all G-orbits of fixed points on C1 x C2, cell by branch-pair cell."""
    if sys1.group is not sys2.group:
        raise ValidationError("systems must be over the same group")
    require_valid(sys1)
    require_valid(sys2)
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
                points.append(SingularPoint((i, j), t, len(orbit), rep))
    return SingularLocus(tuple(points), free_counts)
