"""The divisor lattice of the resolved surface S with its exact intersection form.

Basis curves: the two generic fiber classes F1, F2, one central component
N[i] / M[j] per branch point of each system, and the components Z[p][k] of
the Hirzebruch-Jung string resolving each singular point p.  Every pairing
is an integer, and so is every coefficient of K and E; the global self-tests
(Noether divisibility, adjunction on fibers and strings) live in the
invariants of this module.

Pairing rules:
  F1.F1 = F2.F2 = 0, F1.F2 = |G|;
  F1.N = 0, F2.N[i] = |G|/m_i (and symmetrically for M);
  a point of type 1/n(1,a) (a taken relative to C1, see singularities) is
  resolved by the H-J string of n/a', a a' = 1 mod n, whose Z_1 meets N[i]
  and Z_l meets M[j];
  N[i]^2 = -sum a'/n and M[j]^2 = -sum a/n over the strings meeting them,
  each summed as a Fraction and gated to be an integer;
  N[i].M[j] = number of free G-orbits of coset pairs over (i, j).

The canonical class follows Serrano's formula with every component of every
singular fiber weighted by (multiplicity - 1) plus the exceptional sum; the
multiplicities of string components inside each fiber are the unique solution
of the linear conditions fiber.Z = 0 and fiber.N = 0 (the string block is
negative definite), found by an integer recurrence along the string and gated
to be positive integers.

Storage: the form is kept once, as one row {neighbour: int pairing} per
basis curve, diagonal included, holding only the curves it meets; |G|/m is
divided with a remainder gate, so no pairing is truncated.  A divisor is a
plain {basis curve: coefficient} map, and K and E have int coefficients.  K
and E are built once per model, and ``lattice_numbers`` reads the ints
(K.C, E.C, C^2) off the row of C in O(deg C), once per curve; adjunction
and the bound reports read nothing else.  K^2 alone still goes through
``intersect``, which sums Fractions over every pair of coefficients: a K^2
linear in the basis size is to land with its closed-form gate
(Bauer-Pignatelli, Serrano), and with a benchmark whose peak-memory reading
does not grow with the number of operations it completes, since that
reading would otherwise rise with the speed-up.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .covers import SphericalSystem, require_genus_at_least_two
from .errors import EngineInconsistencyError, ValidationError
from .hj import dual_type, hj_expand
from .inputs import TableRowSummary, euler_chi_pg, singularity_multiset
from .singularities import SingularLocus, SingularPoint, enumerate_singularities


class BasisCurve(NamedTuple):
    kind: str  # "F1", "F2", "N", "M", "Z"
    index: int = 0  # branch index for N/M, singular-point index for Z
    pos: int = 0  # 1-based component position inside a string

    @property
    def label(self) -> str:
        if self.kind in ("F1", "F2"):
            return self.kind
        if self.kind == "Z":
            return f"Z{self.index}.{self.pos}"
        return f"{self.kind}{self.index}"


class StringData(NamedTuple):
    """Resolution data of the singular point of the same index in the locus,
    whose string meets N[i] and M[j] for the point's branch pair (i, j)."""

    b: tuple[int, ...]  # expands the dual n/a' of the point's type 1/n(1,a)
    sigma1_multiplicities: tuple[int, ...]  # of Z_k inside the sigma_1 fiber
    sigma2_multiplicities: tuple[int, ...]


class SurfaceModel:
    """The lattice of S; g1 and g2 are the genera of C1 and C2 (``rh_genus``)."""

    def __init__(self, sys1: SphericalSystem, sys2: SphericalSystem, locus: SingularLocus, g1: int, g2: int):
        self.sys1 = sys1
        self.sys2 = sys2
        self.locus = locus
        self.group = sys1.group
        self.g1, self.g2 = g1, g2
        self.sig1, self.sig2 = sys1.signature, sys2.signature  # each read once per model
        self.F1 = BasisCurve("F1")
        self.F2 = BasisCurve("F2")
        self.N = [BasisCurve("N", i) for i in range(1, sys1.branch_count + 1)]
        self.M = [BasisCurve("M", j) for j in range(1, sys2.branch_count + 1)]
        # the singular points whose strings meet each central component, in locus order
        self.points_on: dict[BasisCurve, list[SingularPoint]] = {c: [] for c in (*self.N, *self.M)}
        self.strings: list[StringData] = []
        self.Z: list[list[BasisCurve]] = []
        # one row per basis curve, in basis order: Z rows are added by _build
        self._rows: dict[BasisCurve, dict[BasisCurve, int]] = {
            c: {} for c in (self.F1, self.F2, *self.N, *self.M)
        }
        self._build()
        self._k = self.canonical_class()
        self._e = self.exceptional_class()
        self._numbers: dict[BasisCurve, tuple[int, int, int]] = {}

    # -- construction ------------------------------------------------------

    def _set(self, c1: BasisCurve, c2: BasisCurve, value: int) -> None:
        self._rows[c1][c2] = self._rows[c2][c1] = value

    def _row(self, curve: BasisCurve) -> dict[BasisCurve, int]:
        try:
            return self._rows[curve]
        except KeyError:
            raise ValidationError(f"unknown basis element {curve.label}") from None

    def pair(self, c1: BasisCurve, c2: BasisCurve) -> Fraction:
        return Fraction(self._rows.get(c1, {}).get(c2, 0))

    def _build(self) -> None:
        order = self.group.order
        self._set(self.F1, self.F2, order)
        for fiber, centrals, sig in ((self.F2, self.N, self.sig1), (self.F1, self.M, self.sig2)):
            for curve, m in zip(centrals, sig):
                degree, rest = divmod(order, m)  # an integer by Lagrange, gated all the same
                if rest:
                    raise EngineInconsistencyError(f"|G| = {order} is not divisible by m = {m} of {curve.label}")
                self._set(fiber, curve, degree)
        for (i, j), count in self.locus.free_orbit_counts.items():
            if count:
                self._set(self.N[i - 1], self.M[j - 1], count)

        n_selfs = [Fraction(0)] * len(self.N)
        m_selfs = [Fraction(0)] * len(self.M)
        for p_index, point in enumerate(self.locus.points):
            i, j = point.branch_pair
            n, a, a_dual = point.type.n, point.type.a, dual_type(point.type).a
            self.points_on[self.N[i - 1]].append(point)
            self.points_on[self.M[j - 1]].append(point)
            b = tuple(hj_expand(n, a_dual))
            comps = [BasisCurve("Z", p_index, k) for k in range(1, len(b) + 1)]
            self.Z.append(comps)
            self._rows.update((comp, {}) for comp in comps)
            for k, comp in enumerate(comps):
                self._set(comp, comp, -b[k])
                if k + 1 < len(comps):
                    self._set(comp, comps[k + 1], 1)
            self._set(comps[0], self.N[i - 1], 1)
            self._set(comps[-1], self.M[j - 1], 1)
            n_selfs[i - 1] -= Fraction(a_dual, n)
            m_selfs[j - 1] -= Fraction(a, n)
            self.strings.append(StringData(
                b,
                _string_multiplicities(b, n, self.sig1[i - 1], first_end=True),
                _string_multiplicities(b, n, self.sig2[j - 1], first_end=False),
            ))
        for value, curve in zip(n_selfs + m_selfs, self.N + self.M):
            if value.denominator != 1:
                raise ValidationError(
                    f"central component {curve.label} has non-integral self-intersection {value}"
                )
            self._set(curve, curve, int(value))

    # -- queries -----------------------------------------------------------

    def intersect(self, d1: Mapping[BasisCurve, Fraction], d2: Mapping[BasisCurve, Fraction]) -> Fraction:
        """D1.D2 of two divisors given as {basis curve: coefficient} maps."""
        for c in (*d1, *d2):
            self._row(c)  # raises on a curve outside the basis
        total = Fraction(0)
        for c1, v1 in d1.items():
            for c2, v2 in d2.items():
                total += v1 * v2 * self.pair(c1, c2)
        return total

    def canonical_class(self) -> dict[BasisCurve, int]:
        coeffs = {self.F1: -2, self.F2: -2}
        for curve, m in zip(self.N, self.sig1):
            coeffs[curve] = m - 1
        for curve, m in zip(self.M, self.sig2):
            coeffs[curve] = m - 1
        for data, comps in zip(self.strings, self.Z):
            for k, comp in enumerate(comps):
                c1 = data.sigma1_multiplicities[k]
                c2 = data.sigma2_multiplicities[k]
                coeffs[comp] = c1 + c2 - 1
        return coeffs

    def exceptional_class(self) -> dict[BasisCurve, int]:
        return {c: 1 for comps in self.Z for c in comps}

    def numerical_invariants(self) -> TableRowSummary:
        """The summary of S, unnamed: K^2 from the lattice; e, chi and P_g from
        ``euler_chi_pg``, whose failed gates are engine inconsistencies here."""
        ksq = self.intersect(self._k, self._k)
        if ksq.denominator != 1:
            raise EngineInconsistencyError(f"K^2 = {ksq} is not an integer")
        sings = singularity_multiset((t.n, t.a, c) for t, c in self.locus.type_counts().items())
        try:
            e, chi, pg = euler_chi_pg(self.group.order, self.g1, self.g2, sings, int(ksq))
        except ValidationError as exc:
            raise EngineInconsistencyError(str(exc)) from None
        return TableRowSummary("", self.group.order, self.g1, self.g2, sings, e, int(ksq), chi, 0, pg)

    def lattice_numbers(self, curve: BasisCurve) -> tuple[int, int, int]:
        """(K.C, E.C, C^2) of one basis curve, read off its row of the form
        and kept for the life of the model."""
        numbers = self._numbers.get(curve)
        if numbers is None:
            row = self._row(curve)
            k, e = self._k, self._e
            numbers = (
                sum(v * k.get(c, 0) for c, v in row.items()),
                sum(v * e.get(c, 0) for c, v in row.items()),
                row.get(curve, 0),
            )
            self._numbers[curve] = numbers
        return numbers

    def adjunction_genus(self, curve: BasisCurve) -> int:
        k_dot_c, _, c_sq = self.lattice_numbers(curve)
        two_g_minus_2 = k_dot_c + c_sq
        if two_g_minus_2 % 2:
            raise EngineInconsistencyError(f"adjunction gives 2g - 2 = {two_g_minus_2} on {curve.label}")
        g = two_g_minus_2 // 2 + 1
        if g < 0:
            raise EngineInconsistencyError(f"adjunction gives negative genus on {curve.label}")
        return g


def _string_multiplicities(b: tuple[int, ...], n: int, m: int, first_end: bool) -> tuple[int, ...]:
    """Multiplicities of the string components inside the fiber of multiplicity m
    whose central component touches the string at the given end: the solution
    c of T c = m * e_end, T the (negated) string matrix of a point of order n.
    Read from the far end, d_l = 1, d_{l+1} = 0 and d_{k-1} = b_k d_k - d_{k+1}
    solve T d = d_0 e_1 with d_0 = n, so c = m d / n."""
    d = [1]  # d_l, d_{l-1}, ..., d_0, starting at the end away from the central component
    after = 0
    for b_k in reversed(b) if first_end else b:
        d.append(b_k * d[-1] - after)
        after = d[-2]
    if d.pop() != n:
        raise EngineInconsistencyError(f"string {b} does not resolve a point of order {n}")
    if first_end:
        d.reverse()
    for d_k in d:
        if m * d_k % n or m * d_k <= 0:
            raise EngineInconsistencyError(f"non-integral string multiplicity {Fraction(m * d_k, n)} for {b}, m={m}")
    return tuple(m * d_k // n for d_k in d)


def build_surface_model(
    sys1: SphericalSystem, sys2: SphericalSystem, locus: SingularLocus | None = None
) -> SurfaceModel:
    if sys1.group is not sys2.group:
        raise ValidationError("systems must be over the same group")
    g1 = require_genus_at_least_two(sys1)
    g2 = require_genus_at_least_two(sys2)
    if locus is None:
        locus = enumerate_singularities(sys1, sys2)
    return SurfaceModel(sys1, sys2, locus, g1, g2)
