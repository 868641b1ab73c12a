"""whcalc: exact-arithmetic calculator for Whitehead-torsion calculus,
homology of the order-two group, and lens-space inertia sets.

Everything is computed over Z or Q with arbitrary precision; outputs are
deterministic byte for byte.  All integer linear algebra goes through
one pure-Python exact kernel (``lattice`` and ``_snf``).
"""

__version__ = "0.1.0"
