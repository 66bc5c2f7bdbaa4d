"""Ceilings on work whose size comes from user input.

They live apart from the modules that enforce them, so that the command-line
parser can show them as defaults without importing those modules.  The
command line refuses a value above its ceiling before any work starts.
"""

DEFAULT_ORDER_CAP = 10_000  # largest group closed unless --max-group-order says otherwise
MAX_ORDER_CAP = 100_000  # largest --max-group-order accepted
MAX_CERTIFICATE_POWER = 100  # largest m tried by the bigness certificate unless --max-m says otherwise
MAX_CERTIFICATE_SEARCH = 10_000  # largest bigness --max-m accepted
MAX_LOCAL_M = 200  # largest local-check --m accepted
MAX_HJ_ORDER = 1_000  # largest n that `hj n a` expands into a dense string matrix
