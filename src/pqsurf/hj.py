"""Cyclic quotient singularity types, Hirzebruch-Jung continued fractions and
exceptional-string intersection data.

n/a = b_1 - 1/(b_2 - 1/(... - 1/b_l)) with every b_i >= 2; the expansion is
unique and computed by the greedy ceiling recursion in exact integers.  An
exceptional string is passed as that expansion, a plain list.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import EngineInconsistencyError, ValidationError
from .limits import shortened


# Records are named tuples: ``dataclasses`` imports ``inspect``, which costs a
# short command more than its arithmetic.  A record that checks its fields
# does so in the ``__new__`` of a thin subclass, since a NamedTuple body may
# not define ``__new__``, and routes ``_make`` (which ``_replace`` calls)
# through that constructor, so that no copy skips the check.
class _SingularityTypeFields(NamedTuple):
    n: int
    a: int


class SingularityType(_SingularityTypeFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, a: int):
        if n < 2 or not 1 <= a <= n - 1 or gcd(a, n) != 1:
            raise ValidationError(f"not a valid singularity type 1/{shortened(str(n))}(1,{shortened(str(a))})")
        return super().__new__(cls, n, a)


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


def string_intersection_matrix(t: SingularityType, b: list[int]) -> list[list[int]]:
    """Diagonal -b_i, super/sub-diagonal 1, zero elsewhere, for the expansion b of t.

    b must evaluate to n/a, and the last leading minor must have |det| = n,
    which catches sign-convention bugs cheaply; a failure is an engine bug.
    """
    if hj_evaluate(b) != Fraction(t.n, t.a):
        raise EngineInconsistencyError(f"string {shortened(str(b))} does not evaluate to n/a = {t.n}/{t.a}")
    det = leading_minors(b)[-1]
    if abs(det) != t.n:
        raise EngineInconsistencyError(f"|det| = {abs(det)} != n = {t.n} for string {shortened(str(b))}")
    l = len(b)
    mat = [[0] * l for _ in range(l)]
    for i in range(l):
        mat[i][i] = -b[i]
        if i + 1 < l:
            mat[i][i + 1] = 1
            mat[i + 1][i] = 1
    return mat


def leading_minors(b: list[int]) -> list[int]:
    """Determinants D_1, ..., D_l of the leading k x k blocks of the string
    matrix of b, in one pass of D_k = -b_k D_(k-1) - D_(k-2), D_0 = 1, D_(-1) = 0."""
    minors, prev2, prev1 = [], 0, 1
    for x in b:
        prev2, prev1 = prev1, -x * prev1 - prev2
        minors.append(prev1)
    return minors


def string_length(t: SingularityType) -> int:
    """``len(hj_expand(t.n, t.a))`` in O(log n) steps, read off the regular
    continued fraction n/a = c_1 + 1/(c_2 + 1/(...)): a c_i at an odd
    position gives one entry of the string, one at an even position c_i - 1
    entries (a run of twos)."""
    n, a, length, odd = t.n, t.a, 0, True
    while a:
        c, (n, a) = n // a, (a, n % a)
        length += 1 if odd else c - 1
        odd = not odd
    return length
