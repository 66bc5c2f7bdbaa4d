"""Cyclic quotient singularity types, Hirzebruch-Jung continued fractions and
exceptional-string intersection data.

n/a = b_1 - 1/(b_2 - 1/(... - 1/b_l)) with every b_i >= 2; the expansion is
unique and computed by the greedy ceiling recursion in exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import EngineInconsistencyError, ValidationError


@dataclass(frozen=True, order=True)
class SingularityType:
    n: int
    a: int

    def __post_init__(self) -> None:
        if self.n < 2 or not 1 <= self.a <= self.n - 1 or gcd(self.a, self.n) != 1:
            raise ValidationError(f"not a valid singularity type 1/{self.n}(1,{self.a})")

    def __str__(self) -> str:
        return f"1/{self.n}(1,{self.a})"


def dual_type(t: SingularityType) -> SingularityType:
    """(n, a') with a*a' = 1 mod n."""
    return SingularityType(t.n, pow(t.a, -1, t.n))


def normalized_key(t: SingularityType) -> SingularityType:
    """The lexicographically smaller of (n, a) and its dual; convention-free reporting key."""
    return min(t, dual_type(t))


def hj_expand(n: int, a: int) -> list[int]:
    """Greedy expansion: b = ceil(n/a), then (n, a) <- (a, b*a - n)."""
    SingularityType(n, a)  # validates
    b = []
    while a > 0:
        q = -(-n // a)  # ceiling division
        b.append(q)
        n, a = a, q * a - n
    assert all(x >= 2 for x in b)
    return b


def hj_evaluate(b: list[int]) -> Fraction:
    """Evaluate [b_1, ..., b_l] right-to-left; the independent oracle for hj_expand."""
    if not b or any(x < 2 for x in b):
        raise ValidationError("every continued-fraction entry must be >= 2")
    value = Fraction(b[-1])
    for x in reversed(b[:-1]):
        value = x - 1 / value
    return value


@dataclass(frozen=True)
class HJString:
    b: tuple[int, ...]
    source_type: SingularityType

    def __post_init__(self) -> None:
        if hj_evaluate(list(self.b)) != Fraction(self.source_type.n, self.source_type.a):
            raise ValidationError("string does not evaluate to n/a of its source type")

    @property
    def length(self) -> int:
        return len(self.b)


def string_for(t: SingularityType) -> HJString:
    return HJString(tuple(hj_expand(t.n, t.a)), t)


def string_intersection_matrix(s: HJString) -> list[list[int]]:
    """Diagonal -b_i, super/sub-diagonal 1, zero elsewhere.

    |det| = n is asserted at construction time: it catches sign-convention
    bugs cheaply.
    """
    l = s.length
    mat = [[0] * l for _ in range(l)]
    for i in range(l):
        mat[i][i] = -s.b[i]
        if i + 1 < l:
            mat[i][i + 1] = 1
            mat[i + 1][i] = 1
    det = _tridiagonal_det(s.b, l)
    if abs(det) != s.source_type.n:
        raise EngineInconsistencyError(
            f"|det| = {abs(det)} != n = {s.source_type.n} for string {s.b}"
        )
    return mat


def _tridiagonal_det(b: tuple[int, ...], k: int) -> int:
    """Determinant of the leading k x k block of the string matrix."""
    prev2, prev1 = 0, 1
    for i in range(k):
        prev2, prev1 = prev1, -b[i] * prev1 - prev2
    return prev1


def leading_minors(s: HJString) -> list[int]:
    return [_tridiagonal_det(s.b, k) for k in range(1, s.length + 1)]


def string_length(t: SingularityType) -> int:
    return len(hj_expand(t.n, t.a))
