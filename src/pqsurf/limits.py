"""Ceilings on work whose size comes from user input.

They live apart from the modules that enforce them, so that the command-line
parser can show them as defaults without importing those modules.  The
command line refuses a value above its ceiling before any work starts.
"""

import re

from .errors import ParseError

DEFAULT_ORDER_CAP = 10_000  # largest group closed unless --max-group-order says otherwise
MAX_ORDER_CAP = 100_000  # largest --max-group-order accepted
MAX_CERTIFICATE_POWER = 100  # largest m tried by the bigness certificate unless --max-m says otherwise
MAX_CERTIFICATE_SEARCH = 10_000  # largest bigness --max-m accepted
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


def shortened(text: str) -> str:
    """An input value as an error message quotes it: whole up to 24 characters,
    else its first and last ten, so that no value makes a long line."""
    return text if len(text) <= 24 else f"{text[:10]}...{text[-10:]}"


def parse_int(token: str, what: str) -> int:
    """The integer of a token by the one integer grammar of every input: a sign
    or none, then decimal digits, white space around them allowed; other text,
    such as '1_0' (10 to ``int``), is a ValueError.  Python converts at most
    4300 digits by default; a longer token is a ParseError that names it."""
    if not re.fullmatch(r"\s*[+-]?\d+\s*", token):
        raise ValueError(f"not an integer: {shortened(token)!r}")
    try:
        return int(token)
    except ValueError:
        digits = len(token.lstrip("+-"))
        raise ParseError(
            f"{what} {shortened(token)!r} has {digits} digits, more than Python converts to an integer"
        ) from None
