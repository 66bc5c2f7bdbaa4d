"""Exact intersection theory and numerical invariants of product-quotient surfaces.

Each public name is imported from the submodule that defines it, e.g.
``from pqsurf.inputs import parse_input``.  ``import pqsurf`` imports none
of them.
"""

__version__ = "0.1.0"
