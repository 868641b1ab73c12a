"""Smith normal form over Z, with its left transform, on the sparse
kernel: ``smith`` runs ``lattice._diagonal``, the one diagonalisation of
the package, with the rows of the identity riding along.  Its one caller
is ``lattice.smith_basis``, on the small dense relation matrix of a
group.
"""

from __future__ import annotations


def smith(rows):
    """Diagonalise an integer matrix by unimodular row/column operations.

    Returns ``(diag, left)``: ``diag`` lists the nonzero diagonal entries
    (positive, not necessarily a divisibility chain) and ``left`` is the
    unimodular product of the row operations, so that column operations
    alone take ``left @ rows`` to a matrix whose row i holds ``diag[i]``
    and nothing else, and whose rows past ``diag`` are zero.  Row i
    carries e_i at the coordinates n.., and ``left`` reads those
    coordinates back: the pivot rows first, then the zero rows.  The
    column operations are not recorded.
    """
    # lattice imports this package when it loads
    from ..lattice import _diagonal

    m = len(rows)
    n = len(rows[0]) if m else 0
    diag, zero = _diagonal(
        [dict(enumerate(row)) | {n + i: 1} for i, row in enumerate(rows)], n)
    left = [[row.get(n + j, 0) for j in range(m)]
            for row in [row for _d, row in diag] + zero]
    return [d for d, _row in diag], left
