"""Ceilings on work whose size comes from user input.

They live apart from the modules that enforce them, so that the command-line
parser can show them as defaults without importing those modules.  The
command line refuses a value above its ceiling before any work starts.
"""

from .errors import ParseError

DEFAULT_ORDER_CAP = 10_000  # largest group closed unless --max-group-order says otherwise
MAX_ORDER_CAP = 100_000  # largest --max-group-order accepted
MAX_CERTIFICATE_POWER = 100  # largest m tried by the bigness certificate unless --max-m says otherwise
MAX_CERTIFICATE_SEARCH = 10_000  # largest bigness --max-m accepted
MAX_LOCAL_M = 200  # largest local-check --m accepted
MAX_HJ_ORDER = 1_000  # largest n that `hj n a` expands into a dense string matrix
# A closed group keeps, per element, its image tuple and the getter that
# composes with it, each `degree` references long: ~16 bytes a point.  So this
# ceiling holds an element to ~16 KB and a closure at DEFAULT_ORDER_CAP to
# ~160 MB; the .pq parser checks it before any permutation is built.
MAX_DEGREE = 1_000  # largest [group] degree accepted in a .pq file


def parse_int(token: str, what: str) -> int:
    """The integer of a token already matched as digits.  Python converts at most
    4300 digits by default; a longer token is a ParseError that names it."""
    try:
        return int(token)
    except ValueError:
        shown = token if len(token) <= 24 else f"{token[:10]}...{token[-10:]}"
        digits = len(token.lstrip("-"))
        raise ParseError(f"{what} {shown!r} has {digits} digits, more than Python converts to an integer") from None
