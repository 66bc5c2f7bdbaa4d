"""Singular points of (C1 x C2)/G and their cyclic-quotient types 1/n(1,a).

Over branch point i of C1 the points are the left cosets tH_i, with
H_i = <g_i>; over branch point j of C2 they are the left cosets sK_j, with
K_j = <h_j>.  G acts on the coset pairs of the cell (i, j) diagonally, and
(tH_i, sK_j) -> H_i t^-1 s K_j maps its orbits one-to-one onto the double
cosets H_i \\ G / K_j, the device of Bauer-Catanese-Grunewald-Pignatelli
(Amer. J. Math. 2012).  The orbit through (H_i, dK_j) has the stabilizer
H_i ∩ d K_j d^-1, cyclic of some order n, with rotation generators g_i on the
C1 point and d h_j d^-1 on the C2 point; the orbit has |G|/n pairs.  For
n = 1 the orbit is free and counts toward N[i].M[j]; otherwise it is one
singular point.

The oriented type stores a relative to the first factor: the stabilizer
element acting on the tangent line of the C1 point as the primitive root
itself (exponent 1 mod n) is h = g_i^(m_i/n), and a is the rotation exponent
of h on the C2 point.  Rotation exponents are discrete logarithms in cyclic
groups, so everything stays exact and finite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .covers import SphericalSystem, require_valid
from .errors import EngineInconsistencyError, ValidationError
from .groups import FiniteGroup, coset_reps, cyclic_subgroup
from .hj import SingularityType, dual_type, normalized_key  # noqa: F401 (dual_type is re-exported)


@dataclass(frozen=True)
class SingularPoint:
    """One G-orbit of fixed points, over branch pair (i, j)."""

    branch_pair: tuple[int, int]
    type: SingularityType
    orbit_size: int
    rep: tuple[int, int]  # canonical coset representatives on each factor


@dataclass(frozen=True)
class SingularLocus:
    points: tuple[SingularPoint, ...]
    # (i, j) -> number of free G-orbits of coset pairs over that branch pair
    free_orbit_counts: dict[tuple[int, int], int]

    def type_counts(self) -> Counter:
        return Counter(p.type for p in self.points)

    def normalized_counts(self) -> Counter:
        return Counter(normalized_key(p.type) for p in self.points)

    def to_json(self) -> list[dict]:
        return [
            {
                "n": p.type.n,
                "a": p.type.a,
                "a_normalized": normalized_key(p.type).a,
                "branch_pair": list(p.branch_pair),
                "orbit_size": p.orbit_size,
            }
            for p in self.points
        ]


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


def enumerate_singularities(sys1: SphericalSystem, sys2: SphericalSystem) -> SingularLocus:
    """Classify all G-orbits of fixed points on C1 x C2, one double coset
    H_i d K_j at a time, cell by branch-pair cell.

    Points keep the order of the pair enumeration they replace: within a cell
    they are sorted by ``rep``, the least pair of coset representatives over
    the orbit, which is (identity, least element of H_i d K_j)."""
    if sys1.group is not sys2.group:
        raise ValidationError("systems must be over the same group")
    sys1, sys2 = require_valid(sys1), require_valid(sys2)
    group = sys1.group
    order = group.order
    # the K_j-coset representative of every element, once per branch point of C2
    reps2 = [coset_reps(group, cyclic_subgroup(group, h)) for h in sys2.generators]
    points: list[SingularPoint] = []
    free_counts: dict[tuple[int, int], int] = {}
    for i, g in enumerate(sys1.generators, start=1):
        powers1 = group.powers(g)
        sub1 = set(powers1)
        m = len(powers1)
        for j, h in enumerate(sys2.generators, start=1):
            rep2 = reps2[j - 1]
            seen: set[int] = set()
            free = covered = 0
            # the least element d of each double coset comes first in index order
            for d in range(order):
                if rep2[d] != d or d in seen:
                    continue
                cosets = {rep2[group.mul(x, d)] for x in powers1}
                seen |= cosets
                # the orbit meets every coset of H_i in as many pairs as it meets H_i in
                size = (order // m) * len(cosets)
                covered += size
                conj = group.conjugate(h, d)  # rotation generator on the C2 point dK_j
                powers2 = group.powers(conj)
                n = sum(1 for x in powers2 if x in sub1)
                if size * n != order:
                    raise EngineInconsistencyError(
                        f"cell ({i}, {j}): orbit size {size} inconsistent with stabilizer order {n}"
                    )
                if n == 1:
                    free += 1
                    continue
                if m % n != 0:
                    raise EngineInconsistencyError("stabilizer order does not divide rotation order")
                unit = powers1[m // n]  # rotation exponent 1 on the C1 point
                if unit not in powers2:
                    raise EngineInconsistencyError("no stabilizer generator with rotation exponent 1")
                t = SingularityType(n, rotation_exponent(group, conj, unit, n))
                points.append(SingularPoint((i, j), t, size, (group.identity, d)))
            if covered != (order // m) * (order // len(group.powers(h))):
                raise EngineInconsistencyError(f"cell ({i}, {j}): orbits do not cover the coset pairs")
            free_counts[(i, j)] = free
    return SingularLocus(tuple(points), free_counts)
