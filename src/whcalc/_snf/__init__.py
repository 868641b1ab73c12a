"""Integer diagonal form with its left transform, for
``lattice.smith_basis`` alone: ``pure.smith`` runs the diagonalisation
of ``lattice`` on the sparse kernel, with no elimination of its own.

``BACKEND`` names the kernel in benchmark stamps; there is only one.
"""

from .pure import smith

BACKEND = "pure"
