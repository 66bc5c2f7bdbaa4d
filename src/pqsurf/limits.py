"""Ceilings on work, and on the digits of exact results, whose size comes
from user input.

They live apart from the modules that enforce them, so that the command-line
parser can show them as defaults without importing those modules.  The
command line refuses a value above its ceiling before any work starts.  The
bigness certificate needs none: its m* is exact, and the work does not grow
with m (``differentials.bigness_certificate``).
"""

from .errors import ParseError, ValidationError

DEFAULT_ORDER_CAP = 10_000  # largest group closed unless --max-group-order says otherwise
MAX_ORDER_CAP = 100_000  # largest --max-group-order accepted
MAX_LOCAL_M = 200  # largest local-check --m accepted
MAX_HJ_ORDER = 1_000  # largest n that `hj n a` expands into a dense string matrix
# A group element is one bytes string, so no point past 255 can be named.  At
# degree 256 an element and its index entry take ~390 bytes (80,640 elements
# took 30 MB on Python 3.11), so a closure at MAX_ORDER_CAP takes ~40 MB; the
# .pq parser checks this ceiling before any permutation is built.
MAX_DEGREE = 256  # largest [group] degree accepted in a .pq file
# Systems of r1 and r2 elements give r1 * r2 cells of the singular locus, each
# a node on Z/2, and K^2 is quadratic in the curves the nodes add.  With 20
# and 20 on Z/2, `invariants` took 584 ms and `bounds` 3.7 ms in process
# (best of 7, 2 vCPUs, Python 3.11.7); the .pq parser checks this ceiling
# before any group work.
MAX_BRANCH_POINTS = 20  # largest number of generator words in a [systemN] section
# Python writes an int of at most 4300 digits as text by default, and a result
# can have about twice the digits of what it is computed from: a table row's e
# is about 4 g1 g2 / |G|.  So a number that an exact result grows with has at
# most MAX_DIGITS digits, and the numbers of a local-check section, whose
# coefficients are summed over a common denominator, that many in all.
MAX_DIGITS = 2000


def shortened(value) -> str:
    """An input value as an error message quotes it: whole up to 24 characters,
    else its first and last ten, so that no value makes a long line.  A number
    (an int or a Fraction) is written through ``decimal``, which writes an int
    of any length, where ``str`` refuses one of more than 4300 digits."""
    if not isinstance(value, str):
        from decimal import Decimal

        value = str(Decimal(value.numerator)) + ("" if value.denominator == 1 else f"/{Decimal(value.denominator)}")
    return value if len(value) <= 24 else f"{value[:10]}...{value[-10:]}"


def parse_int(token: str, what: str) -> int:
    """The integer of a token by the one integer grammar of every input: a sign
    or none, then decimal digits, white space around them allowed; other text,
    such as '1_0' (10 to ``int``), is a ValueError.  Python converts at most
    4300 digits by default; a longer token is a ParseError that names it."""
    text = token.strip()
    if not (text[1:] if text[:1] in ("+", "-") else text).isdecimal():
        raise ValueError(f"not an integer: {shortened(token)!r}")
    try:
        return int(token)
    except ValueError:
        digits = len(token.lstrip("+-"))
        raise ParseError(
            f"{what} {shortened(token)!r} has {digits} digits, more than Python converts to an integer"
        ) from None


def require_digits(value: int, what: str) -> None:
    """Refuse a number of more than ``MAX_DIGITS`` digits, before any work."""
    if abs(value) >= 10**MAX_DIGITS:
        raise ValidationError(f"{what} = {shortened(value)} is above the ceiling of {MAX_DIGITS} digits")
