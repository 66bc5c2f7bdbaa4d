from fractions import Fraction
from math import gcd

import pytest

from pqsurf.errors import EngineInconsistencyError, ValidationError
from pqsurf.hj import (
    SingularityType,
    dual_type,
    hj_evaluate,
    hj_expand,
    leading_minors,
    string_intersection_matrix,
    string_length,
)

COPRIME_PAIRS = [
    (n, a) for n in range(2, 51) for a in range(1, n) if gcd(a, n) == 1
]


class TestExpansion:
    @pytest.mark.parametrize(
        "n, a, expected",
        [
            (2, 1, [2]),
            (3, 1, [3]),
            (3, 2, [2, 2]),
            (4, 1, [4]),
            (4, 3, [2, 2, 2]),
            (5, 2, [3, 2]),
            (5, 3, [2, 3]),
            (7, 3, [3, 2, 2]),
            (12, 5, [3, 2, 3]),
            (19, 7, [3, 4, 2]),
        ],
    )
    def test_examples(self, n, a, expected):
        assert hj_expand(n, a) == expected

    @pytest.mark.parametrize("n, a", COPRIME_PAIRS)
    def test_round_trip(self, n, a):
        assert hj_evaluate(hj_expand(n, a)) == Fraction(n, a)

    @pytest.mark.parametrize("n, a", COPRIME_PAIRS)
    def test_reversal_gives_dual(self, n, a):
        t = SingularityType(n, a)
        dual = dual_type(t)
        assert hj_expand(n, a)[::-1] == hj_expand(dual.n, dual.a)

    def test_entries_at_least_two(self):
        for n, a in COPRIME_PAIRS:
            assert all(b >= 2 for b in hj_expand(n, a))

    @pytest.mark.parametrize("n, a", [(4, 2), (6, 3), (5, 0), (1, 1)])
    def test_bad_input(self, n, a):
        with pytest.raises(ValidationError):
            hj_expand(n, a)

    def test_evaluate_rejects_small_entries(self):
        with pytest.raises(ValidationError):
            hj_evaluate([2, 1, 2])
        with pytest.raises(ValidationError):
            hj_evaluate([])


class TestStrings:
    def test_string_validates_its_type(self):
        # [2, 2] is 3/2, not 5/2: a wrong expansion is an engine fault, not bad input
        with pytest.raises(EngineInconsistencyError, match=r"^string \[2, 2\] does not evaluate to n/a = 5/2$"):
            string_intersection_matrix(SingularityType(5, 2), [2, 2])

    @pytest.mark.parametrize("n, a", COPRIME_PAIRS)
    def test_determinant_is_n(self, n, a):
        mat = string_intersection_matrix(SingularityType(n, a), hj_expand(n, a))
        assert abs(_det(mat)) == n

    @pytest.mark.parametrize("n, a", [(2, 1), (5, 2), (7, 3), (12, 5), (30, 11)])
    def test_negative_definite(self, n, a):
        # alternating-sign leading minors == negative definiteness
        for k, minor in enumerate(leading_minors(hj_expand(n, a)), start=1):
            assert minor * (-1) ** k > 0

    def test_matrix_shape(self):
        mat = string_intersection_matrix(SingularityType(7, 3), hj_expand(7, 3))
        assert [row[i] for i, row in enumerate(mat)] == [-3, -2, -2]
        assert mat[0][1] == mat[1][0] == 1
        assert mat[0][2] == 0

    @pytest.mark.parametrize(
        "n, a, expected", [(2, 1, 1), (4, 3, 3), (5, 2, 2), (19, 7, 3)]
    )
    def test_length(self, n, a, expected):
        assert string_length(SingularityType(n, a)) == expected

    def test_length_matches_the_expansion_for_every_small_type(self):
        # string_length reads the regular continued fraction, not the expansion
        pairs = [(n, a) for n in range(2, 200) for a in range(1, n) if gcd(n, a) == 1]
        assert [string_length(SingularityType(n, a)) for n, a in pairs] == [len(hj_expand(n, a)) for n, a in pairs]


def _det(mat):
    # fraction-free Gaussian elimination on a copy, small matrices only
    from fractions import Fraction as F

    m = [[F(x) for x in row] for row in mat]
    det = F(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det
