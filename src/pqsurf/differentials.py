"""Local model of the resolution chart at an ordinary double point 1/2(1,1).

Sections a(z1, z2) (dz1 dz2)^m are pulled back through the chart
z1 = mu1^(1/2), z2 = mu1^(1/2) mu2, producing symmetric differentials with
half-integer mu1 exponents.  Only this chart is supported: every surface in
scope has exactly this local model; other types are rejected.

Exponents of mu1 are exact rationals with denominator dividing 2, never
floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import ValidationError, checked
from .limits import MAX_CERTIFICATE_POWER


@checked
class SourceSection(NamedTuple):
    """a(z1,z2) (dz1 dz2)^m with a = sum of c * z1^i * z2^j."""

    m: int
    terms: tuple[tuple[int, int, Fraction], ...]

    def _check(self) -> None:
        if self.m < 1:
            raise ValidationError("tensor power m must be >= 1")
        for i, j, _ in self.terms:
            if i < 0 or j < 0:
                raise ValidationError("source exponents must be non-negative")


@checked
class PuiseuxDifferential(NamedTuple):
    """sum of c * mu1^p * mu2^q * dmu1^alpha * dmu2^beta with alpha + beta = 2m."""

    m: int
    terms: tuple[tuple[Fraction, int, int, int, Fraction], ...]  # (p, q, alpha, beta, c)

    def _check(self) -> None:
        for p, q, alpha, beta, _ in self.terms:
            if alpha + beta != 2 * self.m:
                raise ValidationError("every term must have total differential degree 2m")
            if p.denominator not in (1, 2):
                raise ValidationError("mu1 exponents must be half-integers")

    def min_mu1_exponent(self) -> Fraction | None:
        """Vanishing (or pole) order along mu1 = 0; None for the zero section."""
        if not self.terms:
            return None
        return min(p for p, *_ in self.terms)


# differential monomials are dicts (p, q, alpha, beta) -> coefficient
_DZ1 = {(Fraction(-1, 2), 0, 1, 0): Fraction(1, 2)}
_DZ2 = {
    (Fraction(-1, 2), 1, 1, 0): Fraction(1, 2),
    (Fraction(1, 2), 0, 0, 1): Fraction(1),
}


def _multiply(x: dict, y: dict) -> dict:
    out: dict = {}
    for (p1, q1, a1, b1), c1 in x.items():
        for (p2, q2, a2, b2), c2 in y.items():
            key = (p1 + p2, q1 + q2, a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def invariance_check(s: SourceSection) -> bool:
    """True iff a(z1, z2) is invariant under (z1, z2) -> (-z1, -z2)."""
    return all((i + j) % 2 == 0 for i, j, _ in s.terms)


def gamma_pullback(s: SourceSection) -> PuiseuxDifferential:
    """Exact term-by-term substitution z1 = mu1^(1/2), z2 = mu1^(1/2) mu2,
    dz1 = mu1^(-1/2)/2 dmu1, dz2 = mu1^(-1/2) mu2 / 2 dmu1 + mu1^(1/2) dmu2,
    with the symmetric power (dz1 dz2)^m expanded as a commutative product."""
    form = {(Fraction(0), 0, 0, 0): Fraction(1)}
    pair = _multiply(_DZ1, _DZ2)
    for _ in range(s.m):
        form = _multiply(form, pair)
    result: dict = {}
    for i, j, coeff in s.terms:
        # a o phi for the monomial z1^i z2^j
        monomial = {(Fraction(i + j, 2), j, 0, 0): coeff}
        for key, value in _multiply(monomial, form).items():
            result[key] = result.get(key, Fraction(0)) + value
    terms = tuple(
        sorted((p, q, alpha, beta, c) for (p, q, alpha, beta), c in result.items() if c != 0)
    )
    return PuiseuxDifferential(s.m, terms)


def gamma_closed_form(s: SourceSection) -> PuiseuxDifferential:
    """Independent oracle: sum_j C(m,j) mu2^(m-j) (a o phi) / (2^(2m-j) mu1^(m-j))
    dmu1^(2m-j) dmu2^j."""
    m = s.m
    result: dict = {}
    for i, j0, coeff in s.terms:
        for j in range(m + 1):
            p = Fraction(i + j0, 2) - (m - j)
            q = j0 + (m - j)
            key = (p, q, 2 * m - j, j)
            value = coeff * comb(m, j) / Fraction(2 ** (2 * m - j))
            result[key] = result.get(key, Fraction(0)) + value
    terms = tuple(
        sorted((p, q, alpha, beta, c) for (p, q, alpha, beta), c in result.items() if c != 0)
    )
    return PuiseuxDifferential(m, terms)


def is_holomorphic(d: PuiseuxDifferential) -> bool:
    """True iff no term has a fractional or negative mu1 exponent."""
    return all(p.denominator == 1 and p >= 0 for p, *_ in d.terms)


def vanishing_conditions(m: int, k: int) -> Fraction:
    """Sufficient conditions to vanish along E with multiplicity m at k ordinary
    double points: (1 + 2 + ... + 2m)/2 per point, halved by invariance."""
    if m < 1 or k < 0:
        raise ValidationError("need m >= 1 and k >= 0")
    return Fraction(k * m * (2 * m + 1), 2)


def plurigenus_lower_bound(ksq: int, chi: int, m: int) -> int:
    """Exact h^0(mK) = chi + m(m-1)/2 K^2 on a minimal general-type surface, m >= 2."""
    return chi + m * (m - 1) // 2 * ksq


class BignessCertificate(NamedTuple):
    m_star: int
    value: Fraction


def certificate_lower_bound(ksq: int, chi: int, k: int, m: int) -> Fraction:
    return plurigenus_lower_bound(ksq, chi, m) - vanishing_conditions(m, k)


def bigness_certificate(
    ksq: int, chi: int, k: int, m_max: int = MAX_CERTIFICATE_POWER
) -> BignessCertificate | None:
    """Smallest m >= 2 with a positive section-count lower bound for m(K-E), or None.

    The count is a lower bound only: the vanishing conditions are sufficient,
    not known to be independent.
    """
    for m in range(2, m_max + 1):
        value = certificate_lower_bound(ksq, chi, k, m)
        if value > 0:
            return BignessCertificate(m, value)
    return None
