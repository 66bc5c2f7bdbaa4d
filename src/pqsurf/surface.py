"""The divisor lattice of the resolved surface S with its exact intersection form.

Basis curves: the two generic fiber classes F1, F2, one central component
N[i] / M[j] per branch point of each system, and the components Z[p][k] of
the Hirzebruch-Jung string resolving each singular point p.  Every pairing
is an integer, and so is every coefficient of K and E.  Where the classical
self-tests run: Noether's 12 | K^2 + e in ``inputs.euler_chi_pg``, which
``numerical_invariants`` reports as an engine fault; adjunction on F1, F2,
N and M only, in ``adjunction_genus``, for the bound reports; K.Z = b - 2
on the string components only in ``tests/test_acceptance.py``.  The two
second routes at the end of this docstring are gated on every call.

Pairing rules:
  F1.F1 = F2.F2 = 0, F1.F2 = |G|;
  F1.N = 0, F2.N[i] = |G|/m_i (and symmetrically for M);
  a point of type 1/n(1,a) (a taken relative to C1, see singularities) is
  resolved by the H-J string of n/a', a a' = 1 mod n, whose Z_1 meets N[i]
  and Z_l meets M[j];
  N[i]^2 = -sum a'/n and M[j]^2 = -sum a/n over the strings meeting them,
  each summed in integers over a common denominator and gated to be an
  integer;
  N[i].M[j] = number of free G-orbits of coset pairs over (i, j).

The canonical class follows Serrano's formula with every component of every
singular fiber weighted by (multiplicity - 1) plus the exceptional sum; the
multiplicities of string components inside each fiber are the unique solution
of the linear conditions fiber.Z = 0 and fiber.N = 0 (the string block is
negative definite), found by an integer recurrence along the string and gated
to be positive integers.

Storage: the form is kept once, as one row {neighbour: int pairing} per
basis curve, diagonal included, holding only the curves it meets; |G|/m is
divided with a remainder gate, so no pairing is truncated.  Each distinct
singularity type of the locus has one ``TypeData`` record per model: a',
the string of n/a', its share k_x of K^2 and the string multiplicities for
each pair of adjacent branch orders, which the rows, the central
self-intersections, the string defects of the bound reports and the
closed-form gate all read.  A divisor is a plain {basis curve: coefficient}
map, and K and E have int coefficients.  K and E are built once per model,
and ``lattice_numbers`` reads the ints (K.C, E.C, C^2) off the row of C in
O(deg C), once per curve; adjunction and the bound reports read nothing
else, and ask for some curves more than once, so the numbers are kept: on
A6 the report pass of ``bounds`` took 88 us with them kept and 136 us
without (medians of 300, 2 vCPUs, Python 3.11.7).  K^2 alone still goes through ``intersect``, which fetches the row of
each left curve once and sums one Fraction per pair of coefficients.  It
stays quadratic in the basis size until the benchmark's peak-memory reading
stops growing with the number of operations a run completes: a linear K^2
is an order of magnitude faster, so that reading would rise with the
speed-up.  K^2 = sum_C k_C (K.C) took the many_points operation from 106.4
to 5.3 ms at the median, and its peak RSS from 22.6 to 29.5 MB, as a run
completed 932 operations in place of 254 and kept every output (2 vCPUs,
Python 3.11.7).

Two second routes are gated on every call.  Every fibre is numerically a
general fibre (Serrano): over the cell (i, j),
  m_i N_i.M_j + sum_p d^{sigma1}_last(p) = F1.M_j = |G|/m'_j and
  m'_j N_i.M_j + sum_p d^{sigma2}_first(p) = F2.N_i = |G|/m_i,
the sums over the points p of the cell, which reads the free-orbit counts
and the string multiplicities twice.  And K^2 from the lattice equals the
closed form 8(g1-1)(g2-1)/|G| - sum_x k_x, k_x = -2 + (2+a+a')/n + sum(b_i-2)
(Bauer-Pignatelli, Math. Comp. 2012), summed in integers over a common
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple

from .covers import SphericalSystem, require_genus_at_least_two
from .errors import EngineInconsistencyError, ValidationError
from .hj import SingularityType, hj_expand
from .inputs import TableRowSummary, summarize
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


class TypeData(NamedTuple):
    """Resolution data of one singularity type 1/n(1,a) of the locus, derived
    once per model and read for every point of that type."""

    a_dual: int  # a a' = 1 mod n
    b: tuple[int, ...]  # expands n/a'
    k_num: int  # n k_x, k_x = -2 + (2 + a + a')/n + sum(b_i - 2)
    strings: dict[tuple[int, int], StringData]  # by the branch orders (m_i, m'_j) of a point's cell


def _type_data(t: SingularityType) -> TypeData:
    a_dual = pow(t.a, -1, t.n)
    b = tuple(hj_expand(t.n, a_dual))
    return TypeData(a_dual, b, 2 - 2 * t.n + t.a + a_dual + t.n * (sum(b) - 2 * len(b)), {})


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
        self.types: dict[SingularityType, TypeData] = {}
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

        ends: dict[tuple[int, int], list[int]] = {}  # (i, j) -> the fibre relations' string sums
        for p_index, point in enumerate(self.locus.points):
            i, j = point.branch_pair
            t = point.type
            data = self.types.get(t)
            if data is None:
                data = self.types[t] = _type_data(t)
            orders = (self.sig1[i - 1], self.sig2[j - 1])
            string = data.strings.get(orders)
            if string is None:
                string = data.strings[orders] = StringData(
                    data.b,
                    _string_multiplicities(data.b, t.n, orders[0], first_end=True),
                    _string_multiplicities(data.b, t.n, orders[1], first_end=False),
                )
            self.strings.append(string)
            self.points_on[self.N[i - 1]].append(point)
            self.points_on[self.M[j - 1]].append(point)
            b = data.b
            comps = [BasisCurve("Z", p_index, k) for k in range(1, len(b) + 1)]
            self.Z.append(comps)
            self._rows.update((comp, {}) for comp in comps)
            for k, comp in enumerate(comps):
                self._set(comp, comp, -b[k])
                if k + 1 < len(comps):
                    self._set(comp, comps[k + 1], 1)
            self._set(comps[0], self.N[i - 1], 1)
            self._set(comps[-1], self.M[j - 1], 1)
            sums = ends.setdefault((i, j), [0, 0])
            sums[0] += string.sigma1_multiplicities[-1]
            sums[1] += string.sigma2_multiplicities[0]
        self._check_fibre_relations(ends)
        for curve in self.N + self.M:
            # -sum a'/n on N[i], -sum a/n on M[j], in integers over the common denominator
            points = self.points_on[curve]
            den = lcm(*(p.type.n for p in points))
            num = -sum(den // p.type.n * (self.types[p.type].a_dual if curve.kind == "N" else p.type.a)
                       for p in points)
            value, rest = divmod(num, den)
            if rest:  # the systems were validated, so only a wrong locus or lattice gets here
                raise EngineInconsistencyError(
                    f"central component {curve.label} has non-integral self-intersection {Fraction(num, den)}"
                )
            self._set(curve, curve, value)

    def _check_fibre_relations(self, ends: dict[tuple[int, int], list[int]]) -> None:
        """The fibre m_i N_i + sum d Z over branch point i of system1 meets M_j
        as F1 does, and m'_j M_j + sum d Z meets N_i as F2 does, in every cell."""
        counts = self.locus.free_orbit_counts
        for i, (n_curve, m) in enumerate(zip(self.N, self.sig1), start=1):
            for j, (m_curve, m2) in enumerate(zip(self.M, self.sig2), start=1):
                count = counts.get((i, j), 0)
                last, first = ends.get((i, j), (0, 0))
                for fibre, m_fibre, general, curve, meets in (
                    (n_curve, m, self.F1, m_curve, m * count + last),
                    (m_curve, m2, self.F2, n_curve, m2 * count + first),
                ):
                    expected = self._rows[general][curve]
                    if meets != expected:
                        raise EngineInconsistencyError(
                            f"fibre relation fails in cell {(i, j)}: ({m_fibre} {fibre.label} + sum d Z).{curve.label}"
                            f" = {meets} != {general.label}.{curve.label} = {expected}"
                        )

    # -- queries -----------------------------------------------------------

    def intersect(self, d1: Mapping[BasisCurve, Fraction], d2: Mapping[BasisCurve, Fraction]) -> Fraction:
        """D1.D2 of two divisors given as {basis curve: coefficient} maps."""
        rows = [(self._row(c1), v1) for c1, v1 in d1.items()]  # each raises on a curve outside the basis
        for c in d2:
            self._row(c)
        total = Fraction(0)
        for row, v1 in rows:
            for c2, v2 in d2.items():
                total += v1 * v2 * Fraction(row.get(c2, 0))
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
        """The summary of S, unnamed: K^2 from the lattice, the rest from
        ``inputs.summarize``, whose failed gates are engine inconsistencies here.

        Then the rank gate: F1, F2 and the string components span a lattice
        of rank 2 + sum l_x (l_x the length of the string of point x) inside
        H^{1,1}, so 2 + sum l_x <= h^{1,1} = e - 2 - 2 P_g, as q = 0.  The
        gate is one-sided: it catches an e too small or a P_g too large, not
        the reverse.

        Last the closed form: the lattice K^2 must equal
        8(g1-1)(g2-1)/|G| - sum_x k_x, read off the type records."""
        ksq = self.intersect(self._k, self._k)
        if ksq.denominator != 1:
            raise EngineInconsistencyError(f"K^2 = {ksq} is not an integer")
        type_counts, order = self.locus.type_counts(), self.group.order
        try:
            summary = summarize("", order, self.g1, self.g2, ((*t, c) for t, c in type_counts.items()), int(ksq))
        except ValidationError as exc:
            raise EngineInconsistencyError(str(exc)) from None
        rank, h11 = 2 + sum(map(len, self.Z)), summary.e - 2 - 2 * summary.pg
        if rank > h11:
            raise EngineInconsistencyError(f"rank 2 + sum l_x = {rank} exceeds h^1,1 = e - 2 - 2 p_g = {h11}")
        den = lcm(order, *(t.n for t in type_counts))
        closed = 8 * (self.g1 - 1) * (self.g2 - 1) * (den // order) - sum(
            c * self.types[t].k_num * (den // t.n) for t, c in type_counts.items())
        if closed != ksq * den:
            raise EngineInconsistencyError(
                f"K^2 = {ksq} from the lattice != 8(g1-1)(g2-1)/|G| - sum k_x = {Fraction(closed, den)}"
            )
        return summary

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
