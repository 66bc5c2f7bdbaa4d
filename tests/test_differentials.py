from fractions import Fraction

import pytest

from pqsurf.differentials import (
    BignessCertificate,
    SourceSection,
    bigness_certificate,
    certificate_lower_bound,
    gamma_closed_form,
    gamma_pullback,
    invariance_check,
    is_holomorphic,
    plurigenus_lower_bound,
    vanishing_conditions,
)
from pqsurf.errors import ValidationError

F = Fraction


def coefficient(d, p, q: int, alpha: int, beta: int) -> Fraction:
    """The coefficient of mu1^p mu2^q dmu1^alpha dmu2^beta in d, 0 if absent."""
    return {t[:4]: t[4] for t in d.terms}.get((F(p), q, alpha, beta), F(0))


def monomial(m: int, i: int, j: int, coeff=1) -> SourceSection:
    """The section coeff * z1^i z2^j (dz1 dz2)^m."""
    return SourceSection(m, ((i, j, F(coeff)),))


class TestSourceSections:
    def test_monomial(self):
        s = monomial(2, 1, 3)
        assert s.terms == ((1, 3, F(1)),)

    def test_bad_power(self):
        with pytest.raises(ValidationError):
            monomial(0, 1, 1)

    def test_negative_exponent(self):
        with pytest.raises(ValidationError):
            SourceSection(1, ((-1, 0, F(1)),))

    @pytest.mark.parametrize(
        "i, j, invariant", [(0, 0, True), (1, 1, True), (2, 0, True), (1, 0, False), (2, 1, False)]
    )
    def test_invariance(self, i, j, invariant):
        assert invariance_check(monomial(1, i, j)) is invariant

    def test_invariance_of_sums(self):
        s = SourceSection(1, ((2, 0, F(1)), (0, 2, F(-1, 2))))
        assert invariance_check(s)
        s = SourceSection(1, ((2, 0, F(1)), (0, 1, F(1))))
        assert not invariance_check(s)


class TestPullback:
    def test_bare_form_m1(self):
        # (dz1 dz2)^1 -> 1/4 mu1^-1 mu2 dmu1^2 + 1/2 dmu1 dmu2
        d = gamma_pullback(monomial(1, 0, 0))
        assert coefficient(d, -1, 1, 2, 0) == F(1, 4)
        assert coefficient(d, 0, 0, 1, 1) == F(1, 2)
        assert len(d.terms) == 2
        assert not is_holomorphic(d)

    def test_z1_squared_m1(self):
        # z1^2 (dz1 dz2) -> 1/4 mu2 dmu1^2 + 1/2 mu1 dmu1 dmu2
        d = gamma_pullback(monomial(1, 2, 0))
        assert coefficient(d, 0, 1, 2, 0) == F(1, 4)
        assert coefficient(d, 1, 0, 1, 1) == F(1, 2)
        assert is_holomorphic(d)

    def test_z1_z2_m1(self):
        # z1 z2 (dz1 dz2) -> 1/4 mu1^0... : z1 z2 = mu1 mu2
        d = gamma_pullback(monomial(1, 1, 1))
        assert coefficient(d, 0, 2, 2, 0) == F(1, 4)
        assert coefficient(d, 1, 1, 1, 1) == F(1, 2)
        assert is_holomorphic(d)

    def test_odd_monomial_has_half_integer_exponents(self):
        d = gamma_pullback(monomial(1, 1, 0))
        assert any(p.denominator == 2 for p, *_ in d.terms)
        assert not is_holomorphic(d)

    def test_linearity(self):
        a = monomial(2, 2, 0, coeff=3)
        b = monomial(2, 0, 2, coeff=-1)
        combined = SourceSection(2, a.terms + b.terms)
        da, db, dc = gamma_pullback(a), gamma_pullback(b), gamma_pullback(combined)
        keys = {t[:4] for t in da.terms} | {t[:4] for t in db.terms}
        for key in keys:
            assert coefficient(dc, *key) == coefficient(da, *key) + coefficient(db, *key)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_closed_form(self, m):
        for i in range(9):
            for j in range(9):
                s = monomial(m, i, j)
                assert gamma_pullback(s) == gamma_closed_form(s)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_holomorphic_iff_degree_at_least_2m(self, m):
        for i in range(0, 2 * m + 4):
            for j in range(0, 2 * m + 4):
                if (i + j) % 2 != 0:
                    continue  # only invariant monomials descend
                s = monomial(m, i, j)
                assert is_holomorphic(gamma_pullback(s)) == (i + j >= 2 * m)

    def test_min_mu1_exponent(self):
        d = gamma_pullback(monomial(2, 0, 0))
        assert d.min_mu1_exponent() == -2
        d = gamma_pullback(monomial(2, 4, 0))
        assert d.min_mu1_exponent() == 0


class TestCounting:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_vanishing_conditions_two_points(self, m):
        assert vanishing_conditions(m, 2) == 2 * m * m + m

    def test_vanishing_conditions_can_be_half_integral(self):
        assert vanishing_conditions(1, 1) == F(3, 2)

    def test_vanishing_conditions_validation(self):
        with pytest.raises(ValidationError):
            vanishing_conditions(0, 2)

    def test_plurigenus(self):
        assert plurigenus_lower_bound(6, 1, 2) == 7
        assert plurigenus_lower_bound(6, 1, 3) == 19
        assert plurigenus_lower_bound(8, 1, 2) == 9

    def test_certificate_polynomial_c1sq_6(self):
        # chi = 1, K^2 = 6, k = 2: lower(m) = m^2 - 4m + 1
        for m in range(2, 30):
            assert certificate_lower_bound(6, 1, 2, m) == m * m - 4 * m + 1

    def test_certificate_c1sq_6(self):
        cert = bigness_certificate(6, 1, 2)
        assert cert == BignessCertificate(4, F(1))

    def test_certificate_no_singular_points(self):
        cert = bigness_certificate(8, 1, 0)
        assert cert == BignessCertificate(2, F(9))

    def test_certificate_fails_when_points_dominate(self):
        assert bigness_certificate(4, 5, 36) is None

    def test_certificate_respects_m_max(self):
        assert bigness_certificate(6, 1, 2, m_max=3) is None
