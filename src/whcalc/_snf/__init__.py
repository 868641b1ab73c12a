"""Integer Smith normal form: the arbitrary-precision kernel in ``pure``.

``BACKEND`` names the kernel in benchmark stamps; there is only one.
"""

from .pure import smith

BACKEND = "pure"
