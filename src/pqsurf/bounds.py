"""Degree bounds and genus checks for the basis curves of a surface model.

Verifies, curve by curve, the inequality (K - E).C <= 2(2g(C) - 2) for
curves not contained in the exceptional divisor, together with the
tangent-case arithmetic for central components (K_Y.Y, Y.E, Y^2 and the
non-negative string defect r - sum a_i/n_i over the r strings meeting Y,
where a_i/n_i is the string's share of -Y^2: a'/n on N_i and a/n on M_j
for a point of type 1/n(1,a), a a' = 1 mod n, with a' read off the model's
record of the type).  K.C, E.C and C^2 are the
ints of ``SurfaceModel.lattice_numbers``, read once per curve off its row
of the form, so a report builds no divisor and calls no ``intersect``.  The
string defect is summed in integers over the common denominator of its n_i:
it is the second route of the gate Y.E + Y^2 = r - sum a_i/n_i.

The genus of each central component N_i = C2/H_i or M_j = C1/K_j is taken
two ways: by adjunction on S, and by Riemann-Hurwitz over the singular
locus, whose points over branch point i of C1 give the ramification of
C2 -> C2/H_i.  ``lemma_cc_check`` reads every central genus through that
cross-check, so each ``bounds`` report runs it; a mismatch raises
EngineInconsistencyError (exit 4).  Everything here is read off the model
and its locus: no group products, no subgroup arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import EngineInconsistencyError, ValidationError
from .surface import BasisCurve, SurfaceModel


class TangentCaseData(NamedTuple):
    ky_dot_y: int  # K_Y.Y = (K_S + Y).Y
    y_dot_e: int
    y_sq: int
    string_defect: int  # r - sum a_i/n_i, an integer once the gate has passed; must be >= 0


class CurveReport(NamedTuple):
    curve: BasisCurve
    genus: int
    kme_degree: int  # (K - E).C
    bound: int  # 2(2g - 2)
    satisfied: bool
    n1_e: int  # E.C: the strings meeting N_i or M_j, each meets it once; 0 on F1, F2
    tangent_case: TangentCaseData | None = None


def degree_bound_report(model: SurfaceModel, curve: BasisCurve) -> CurveReport:
    if curve.kind == "Z":
        raise ValidationError("string components lie inside E; the bound excludes them")
    k_dot_c, e_dot_c, c_sq = model.lattice_numbers(curve)
    genus = model.adjunction_genus(curve)
    kme = k_dot_c - e_dot_c
    bound = 2 * (2 * genus - 2)
    tangent = None
    if curve.kind in ("N", "M"):
        y_sq, y_dot_e, ky_dot_y = c_sq, e_dot_c, k_dot_c + c_sq
        num, den = _string_defect(model, curve)
        if (y_dot_e + y_sq) * den != num:
            raise EngineInconsistencyError(
                f"Y.E + Y^2 = {y_dot_e + y_sq} != r - sum a/n = {Fraction(num, den)} on {curve.label}"
            )
        tangent = TangentCaseData(ky_dot_y, y_dot_e, y_sq, y_dot_e + y_sq)
    return CurveReport(
        curve=curve,
        genus=genus,
        kme_degree=kme,
        bound=bound,
        satisfied=kme <= bound,
        n1_e=e_dot_c,
        tangent_case=tangent,
    )


def _string_defect(model: SurfaceModel, curve: BasisCurve) -> tuple[int, int]:
    """r - sum a_i/n_i over the r strings meeting the curve, as a numerator
    over the common denominator of the n_i."""
    points, types = model.points_on[curve], model.types
    den = lcm(*(p.type.n for p in points))
    return sum(den - den // p.type.n * (types[p.type].a_dual if curve.kind == "N" else p.type.a) for p in points), den


def central_component_genus_crosscheck(model: SurfaceModel, curve: BasisCurve) -> int:
    """Genus of a central component by Riemann-Hurwitz over the singular locus,
    gated against adjunction on S.

    N_i is C2/H_i with H_i cyclic of order m_i.  A singular point p over the
    branch pair (i, j) puts m_i/n_p points of C2 with an H_i-stabilizer of
    order n_p over one point of C1, and every other point of C2 is free, so
    2g(N_i) - 2 = (2g2 - 2 - sum_p (m_i/n_p)(n_p - 1)) / m_i.  M_j is C1/K_j,
    the same with the factors swapped.  Every n_p divides m_i: the model
    refuses a string whose multiplicities are not integers."""
    if curve.kind == "N":
        m, genus_cover = model.sig1[curve.index - 1], model.g2
    elif curve.kind == "M":
        m, genus_cover = model.sig2[curve.index - 1], model.g1
    else:
        raise ValidationError("cross-check applies to central components only")
    rest_of_cover = 2 * genus_cover - 2 - sum(m // p.type.n * (p.type.n - 1) for p in model.points_on[curve])
    two_g_minus_2, rest = divmod(rest_of_cover, m)
    if rest or two_g_minus_2 % 2:
        raise EngineInconsistencyError(f"Riemann-Hurwitz gives 2g - 2 = {Fraction(rest_of_cover, m)} on {curve.label}")
    rh = two_g_minus_2 // 2 + 1
    adj = model.adjunction_genus(curve)
    if adj != rh:
        raise EngineInconsistencyError(
            f"genus mismatch on {curve.label}: adjunction {adj}, Riemann-Hurwitz {rh}"
        )
    return rh


class LemmaCCReport(NamedTuple):
    genera: tuple[tuple[str, int], ...]
    asserted: bool  # whether the non-rationality claim was in scope
    violations: tuple[str, ...]


def lemma_cc_check(model: SurfaceModel, in_scope: bool) -> LemmaCCReport:
    """Report central-component genera, each through the Riemann-Hurwitz
    cross-check; assert genus >= 1 only when the caller declares the surface
    in the P_g = 0, c_1^2 = 6 class."""
    genera = []
    violations = []
    for curve in model.N + model.M:
        g = central_component_genus_crosscheck(model, curve)
        genera.append((curve.label, g))
        if g == 0:
            violations.append(curve.label)
    return LemmaCCReport(tuple(genera), in_scope, tuple(violations))
