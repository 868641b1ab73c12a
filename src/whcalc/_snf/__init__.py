"""Integer Smith normal form with its left transform, for
``lattice.smith_basis`` alone: the arbitrary-precision kernel in ``pure``.

``BACKEND`` names the kernel in benchmark stamps; there is only one.
"""

from .pure import smith

BACKEND = "pure"
