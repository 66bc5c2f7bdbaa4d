"""The divisor lattice of the resolved surface S with its exact intersection form.

Basis curves: the two generic fiber classes F1, F2, one central component
N[i] / M[j] per branch point of each system, and the components Z[p][k] of
the Hirzebruch-Jung string resolving each singular point p.  All pairings
are exact rationals; the global self-tests (Noether divisibility, adjunction
on fibers and strings) live in the invariants of this module.

Pairing rules:
  F1.F1 = F2.F2 = 0, F1.F2 = |G|;
  F1.N = 0, F2.N[i] = |G|/m_i (and symmetrically for M);
  N[i]^2 = -sum a/n over strings attached to N[i], must be an integer;
  string internals from the H-J matrix, Z_1 meets N and Z_l meets M;
  N[i].M[j] = number of free G-orbits of coset pairs over (i, j).

The canonical class follows Serrano's formula with every component of every
singular fiber weighted by (multiplicity - 1) plus the exceptional sum; the
multiplicities of string components inside each fiber are solved exactly
from the linear conditions fiber.Z = 0 and fiber.N = 0 (the string block is
negative definite, so they are unique) and gated to be positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .covers import SphericalSystem, require_genus_at_least_two, require_valid, rh_genus
from .errors import EngineInconsistencyError, ValidationError
from .hj import SingularityType, dual_type, hj_expand
from .singularities import SingularLocus, enumerate_singularities


@dataclass(frozen=True, order=True)
class BasisCurve:
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


class DivisorClass:
    """Finitely supported rational combination of basis curves."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[BasisCurve, Fraction] | None = None):
        self.coefficients: dict[BasisCurve, Fraction] = {
            c: Fraction(v) for c, v in (coefficients or {}).items() if v != 0
        }

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        out = dict(self.coefficients)
        for c, v in other.coefficients.items():
            out[c] = out.get(c, Fraction(0)) + v
        return DivisorClass(out)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "DivisorClass":
        return DivisorClass({c: v * factor for c, v in self.coefficients.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorClass) and self.coefficients == other.coefficients

    def __getitem__(self, curve: BasisCurve) -> Fraction:
        return self.coefficients.get(curve, Fraction(0))

    @classmethod
    def of(cls, curve: BasisCurve) -> "DivisorClass":
        return cls({curve: Fraction(1)})


@dataclass(frozen=True)
class Invariants:
    e: int
    ksq: int
    chi: int
    q: int
    pg: int

    @property
    def c1sq(self) -> int:
        return self.ksq

    @property
    def c2(self) -> int:
        return self.e

    def to_json(self) -> dict:
        return {"e": self.e, "Ksq": self.ksq, "chi": self.chi, "q": self.q, "pg": self.pg}


@dataclass
class StringData:
    """Resolution data of one singular point, attached to N[i] and M[j]."""

    point_index: int
    branch_pair: tuple[int, int]
    type: SingularityType
    b: tuple[int, ...]
    sigma1_multiplicities: tuple[int, ...]  # of Z_k inside the sigma_1 fiber
    sigma2_multiplicities: tuple[int, ...]


class SurfaceModel:
    def __init__(self, sys1: SphericalSystem, sys2: SphericalSystem, locus: SingularLocus):
        self.sys1 = sys1
        self.sys2 = sys2
        self.locus = locus
        self.group = sys1.group
        self.g1 = rh_genus(sys1)
        self.g2 = rh_genus(sys2)
        self.F1 = BasisCurve("F1")
        self.F2 = BasisCurve("F2")
        self.N = [BasisCurve("N", i) for i in range(1, sys1.branch_count + 1)]
        self.M = [BasisCurve("M", j) for j in range(1, sys2.branch_count + 1)]
        self.strings: list[StringData] = []
        self.Z: list[list[BasisCurve]] = []
        self._pairing: dict[tuple[BasisCurve, BasisCurve], Fraction] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _set(self, c1: BasisCurve, c2: BasisCurve, value) -> None:
        key = (c1, c2) if c1 <= c2 else (c2, c1)
        self._pairing[key] = Fraction(value)

    def pair(self, c1: BasisCurve, c2: BasisCurve) -> Fraction:
        key = (c1, c2) if c1 <= c2 else (c2, c1)
        return self._pairing.get(key, Fraction(0))

    def _build(self) -> None:
        order = self.group.order
        self._set(self.F1, self.F2, order)
        for i, n_curve in enumerate(self.N):
            self._set(self.F2, n_curve, Fraction(order, self.sys1.signature[i]))
        for j, m_curve in enumerate(self.M):
            self._set(self.F1, m_curve, Fraction(order, self.sys2.signature[j]))
        for (i, j), count in self.locus.free_orbit_counts.items():
            if count:
                self._set(self.N[i - 1], self.M[j - 1], count)

        n_selfs = [Fraction(0)] * len(self.N)
        m_selfs = [Fraction(0)] * len(self.M)
        for p_index, point in enumerate(self.locus.points):
            i, j = point.branch_pair
            t = point.type
            b = tuple(hj_expand(t.n, t.a))
            comps = [BasisCurve("Z", p_index, k) for k in range(1, len(b) + 1)]
            self.Z.append(comps)
            for k, comp in enumerate(comps):
                self._set(comp, comp, -b[k])
                if k + 1 < len(comps):
                    self._set(comp, comps[k + 1], 1)
            self._set(comps[0], self.N[i - 1], 1)
            self._set(comps[-1], self.M[j - 1], 1)
            n_selfs[i - 1] -= Fraction(t.a, t.n)
            m_selfs[j - 1] -= Fraction(dual_type(t).a, t.n)
            self.strings.append(
                StringData(
                    point_index=p_index,
                    branch_pair=(i, j),
                    type=t,
                    b=b,
                    sigma1_multiplicities=_string_multiplicities(b, self.sys1.signature[i - 1], first_end=True),
                    sigma2_multiplicities=_string_multiplicities(b, self.sys2.signature[j - 1], first_end=False),
                )
            )
        for value, curve in zip(n_selfs + m_selfs, self.N + self.M):
            if value.denominator != 1:
                raise ValidationError(
                    f"central component {curve.label} has non-integral self-intersection {value}"
                )
            self._set(curve, curve, value)

    # -- queries -----------------------------------------------------------

    @property
    def basis(self) -> list[BasisCurve]:
        return [self.F1, self.F2, *self.N, *self.M, *(c for comps in self.Z for c in comps)]

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> Fraction:
        known = set(self.basis)
        for d in (d1, d2):
            for c in d.coefficients:
                if c not in known:
                    raise ValidationError(f"unknown basis element {c.label}")
        total = Fraction(0)
        for c1, v1 in d1.coefficients.items():
            for c2, v2 in d2.coefficients.items():
                total += v1 * v2 * self.pair(c1, c2)
        return total

    def canonical_class(self) -> DivisorClass:
        coeffs: dict[BasisCurve, Fraction] = {
            self.F1: Fraction(2 * self.sys1.base_genus - 2),
            self.F2: Fraction(2 * self.sys2.base_genus - 2),
        }
        for i, curve in enumerate(self.N):
            coeffs[curve] = Fraction(self.sys1.signature[i] - 1)
        for j, curve in enumerate(self.M):
            coeffs[curve] = Fraction(self.sys2.signature[j] - 1)
        for data, comps in zip(self.strings, self.Z):
            for k, comp in enumerate(comps):
                c1 = data.sigma1_multiplicities[k]
                c2 = data.sigma2_multiplicities[k]
                coeffs[comp] = Fraction(c1 + c2 - 1)
        return DivisorClass(coeffs)

    def exceptional_class(self) -> DivisorClass:
        return DivisorClass({c: Fraction(1) for comps in self.Z for c in comps})

    def euler_number(self) -> int:
        e = Fraction((2 - 2 * self.g1) * (2 - 2 * self.g2), self.group.order)
        for point, comps in zip(self.locus.points, self.Z):
            e += 1 - Fraction(1, point.type.n)
            e += len(comps)
        if e.denominator != 1:
            raise EngineInconsistencyError(f"Euler number {e} is not an integer")
        return int(e)

    def numerical_invariants(self) -> Invariants:
        e = self.euler_number()
        k = self.canonical_class()
        ksq = self.intersect(k, k)
        if ksq.denominator != 1:
            raise EngineInconsistencyError(f"K^2 = {ksq} is not an integer")
        chi = Fraction(int(ksq) + e, 12)
        if chi.denominator != 1 or chi <= 0:
            raise EngineInconsistencyError(f"chi = (K^2 + e)/12 = {chi} is not a positive integer")
        q = self.sys1.base_genus + self.sys2.base_genus
        pg = int(chi) - 1 + q
        return Invariants(e=e, ksq=int(ksq), chi=int(chi), q=q, pg=pg)

    def adjunction_genus(self, curve: BasisCurve) -> int:
        k = self.canonical_class()
        d = DivisorClass.of(curve)
        two_g_minus_2 = self.intersect(k + d, d)
        if two_g_minus_2.denominator != 1 or (int(two_g_minus_2) + 2) % 2 != 0:
            raise EngineInconsistencyError(f"adjunction gives 2g - 2 = {two_g_minus_2} on {curve.label}")
        g = (int(two_g_minus_2) + 2) // 2
        if g < 0:
            raise EngineInconsistencyError(f"adjunction gives negative genus on {curve.label}")
        return g

    def strings_meeting(self, curve: BasisCurve) -> list[int]:
        """Indices of singular points whose string meets the given curve."""
        out = []
        for data, comps in zip(self.strings, self.Z):
            if any(self.pair(curve, comp) != 0 for comp in comps):
                out.append(data.point_index)
        return out


def _string_multiplicities(b: tuple[int, ...], m: int, first_end: bool) -> tuple[int, ...]:
    """Multiplicities of the string components inside the fiber of multiplicity m
    whose central component touches the string at the given end: the unique exact
    solution of T c = m * e_end with T the (negated) string matrix."""
    l = len(b)
    rhs = [Fraction(0)] * l
    rhs[0 if first_end else -1] = Fraction(m)
    # T = tridiagonal(-1, b_k, -1); forward elimination, back substitution
    diag = [Fraction(x) for x in b]
    for k in range(1, l):
        factor = Fraction(-1) / diag[k - 1]
        diag[k] -= Fraction(1) / diag[k - 1]
        rhs[k] -= factor * rhs[k - 1]
    c = [Fraction(0)] * l
    c[-1] = rhs[-1] / diag[-1]
    for k in range(l - 2, -1, -1):
        c[k] = (rhs[k] + c[k + 1]) / diag[k]
    for value in c:
        if value.denominator != 1 or value <= 0:
            raise EngineInconsistencyError(f"non-integral string multiplicity {value} for {b}, m={m}")
    return tuple(int(v) for v in c)


def build_surface_model(
    sys1: SphericalSystem, sys2: SphericalSystem, locus: SingularLocus | None = None
) -> SurfaceModel:
    if sys1.group is not sys2.group:
        raise ValidationError("systems must be over the same group")
    sys1, sys2 = require_valid(sys1), require_valid(sys2)
    require_genus_at_least_two(sys1)
    require_genus_at_least_two(sys2)
    if locus is None:
        locus = enumerate_singularities(sys1, sys2)
    return SurfaceModel(sys1, sys2, locus)
