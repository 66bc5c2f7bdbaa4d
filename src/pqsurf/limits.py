"""Ceilings on work whose size comes from user input.

They live apart from the modules that enforce them, so that the command-line
parser can show them as defaults without importing those modules.
"""

DEFAULT_ORDER_CAP = 10_000  # largest group closed unless --max-group-order says otherwise
MAX_CERTIFICATE_POWER = 100  # largest m tried by the bigness certificate unless --max-m says otherwise
MAX_HJ_ORDER = 1_000  # largest n that `hj n a` expands into a dense string matrix
