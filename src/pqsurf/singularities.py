"""Singular points of (C1 x C2)/G and their cyclic-quotient types 1/n(1,a).

Over branch point i of C1 the points are the left cosets tH_i, H_i = <g_i> of
order m; over branch point j of C2 the left cosets sK_j, K_j = <h_j> of order
m'.  The stabilizer of (tH_i, sK_j) is cyclic of an order n | gcd(m, m'); its
element rotating the C1 tangent line with exponent 1 is t u t^-1, u =
g_i^(m/n), and the pair has type 1/n(1,a) (a relative to the first factor)
when that element is s v s^-1, v = h_j^(a m'/n).  Following Bauer-Catanese-
Grunewald-Pignatelli (Amer. J. Math. 2012), t u t^-1 = s v s^-1 has
|G| |C_G(u)| solutions (t, s) if u ~ v and none otherwise, m m' per coset
pair, so P(n, a) = |G| |C_G(u)| [u ~ v] / (m m') pairs of the cell (i, j) are
fixed by an element of type (n, a).  A pair of exact type (N, A) counts in
P(n, A mod n) for every n | N; ``orbit_counts`` inverts over the divisors and
splits each exact count into orbits of size |G|/n, free for n = 1 and one
singular point each otherwise.  Points are listed by cell and by (n, a) within
a cell, so no output depends on the order of the group's elements.

The class of u is a query cached on the group (``FiniteGroup.conjugacy_class``)
and conjugates by its generators: for a .pq file, the elements of the first
system that grew the group's span.
A call makes one ``SingularityType`` per type, shared by its points.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import NamedTuple

from .covers import SphericalSystem
from .errors import EngineInconsistencyError, ValidationError
from .hj import SingularityType


class SingularPoint(NamedTuple):
    """One G-orbit of fixed points, over branch pair (i, j)."""

    branch_pair: tuple[int, int]
    type: SingularityType
    orbit_size: int


class SingularLocus(NamedTuple):
    points: tuple[SingularPoint, ...]
    # (i, j) -> number of free G-orbits of coset pairs over that branch pair
    free_orbit_counts: dict[tuple[int, int], int]

    def type_counts(self) -> Counter:
        return Counter(p.type for p in self.points)


def orbit_counts(
    fixed: dict[tuple[int, int], int], order: int, cell: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """The number of G-orbits of each exact type (n, a) of the cell, in (n, a)
    order, with (1, 0) for the free orbits.  ``fixed[(n, a)]`` is P(n, a), given
    for every n dividing gcd(m, m') and every unit a mod n (a = 0 for n = 1).
    Every exact count must be >= 0 and a whole number of orbits of size |G|/n."""
    exact: dict[tuple[int, int], int] = {}
    for n, a in sorted(fixed, reverse=True):
        count = fixed[(n, a)] - sum(e for (big, b), e in exact.items() if big % n == 0 and b % n == a)
        size = order // n
        if count < 0 or count % size:
            raise EngineInconsistencyError(
                f"cell {cell}: {count} coset pairs of type ({n}, {a}) are not whole orbits of size {size}"
            )
        exact[(n, a)] = count
    return {t: exact[t] // (order // t[0]) for t in sorted(exact)}


def enumerate_singularities(sys1: SphericalSystem, sys2: SphericalSystem) -> SingularLocus:
    """Classify all G-orbits of fixed points on C1 x C2, cell by branch-pair cell."""
    if sys1.group is not sys2.group:
        raise ValidationError("systems must be over the same group")
    group, order = sys1.group, sys1.group.order

    points: list[SingularPoint] = []
    free_counts: dict[tuple[int, int], int] = {}
    by_elements: dict[tuple[int, int], dict[tuple[int, int], int]] = {}  # equal (g_i, h_j), equal counts
    types: dict[tuple[int, int], SingularityType] = {}
    for i, g in enumerate(sys1.generators, start=1):
        powers1 = group.powers(g)
        m = len(powers1)
        for j, h in enumerate(sys2.generators, start=1):
            counts = by_elements.get((g, h))
            if counts is None:
                powers2 = group.powers(h)
                m2 = len(powers2)
                fixed: dict[tuple[int, int], int] = {}
                for n in (n for n in range(1, m + 1) if m % n == m2 % n == 0):
                    u_class = group.conjugacy_class(powers1[m // n % m])
                    pairs = order * (order // len(u_class)) // (m * m2)
                    for a in (a for a in range(n) if gcd(a, n) == 1):
                        v = powers2[a * (m2 // n) % m2]
                        fixed[(n, a)] = pairs if group.images[v] in u_class else 0
                counts = by_elements[(g, h)] = orbit_counts(fixed, order, (i, j))
            free_counts[(i, j)] = counts[(1, 0)]
            for (n, a), k in counts.items():
                if n > 1:
                    t = types.get((n, a)) or types.setdefault((n, a), SingularityType(n, a))
                    points += [SingularPoint((i, j), t, order // n)] * k
    return SingularLocus(tuple(points), free_counts)
