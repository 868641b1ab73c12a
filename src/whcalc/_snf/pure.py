"""Smith normal form over Z, with its left transform.

Arbitrary-precision and deterministic: the pivot is always the smallest
nonzero entry in absolute value of the remaining block, ties broken in
row-major order.  Its one caller is ``lattice.smith_basis``, on the small
dense relation matrix of a group, and it reads only the diagonal and the
left transform; kernels, solutions, cokernels and quotients go through
``lattice._eliminate`` instead.
"""

from __future__ import annotations


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith(rows):
    """Diagonalise an integer matrix by unimodular row/column operations.

    Returns ``(diag, left)``: ``diag`` lists the nonzero invariant
    factors of ``rows`` (positive, each dividing the next) and ``left`` is
    the unimodular product of the row operations, so that column
    operations alone take ``left @ rows`` to the diagonal form.  The
    column operations are not recorded.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")
    left = identity(m)

    k = 0
    size = min(m, n)
    while k < size:
        pivot = _find_pivot(a, k, m, n)
        if pivot is None:
            break
        _move_pivot(a, left, k, pivot)
        while True:
            if _clear_column(a, left, k, m):
                continue
            if _clear_row(a, k, n):
                continue
            if _lift_nondivisible(a, left, k, m, n):
                continue
            break
        k += 1

    diag = [a[i][i] for i in range(k)]
    return diag, left


def _find_pivot(a, k, m, n):
    best = 0
    best_i = best_j = -1
    for i in range(k, m):
        row = a[i]
        for j in range(k, n):
            v = row[j]
            if v:
                if v < 0:
                    v = -v
                if best == 0 or v < best:
                    if v == 1:
                        return i, j
                    best, best_i, best_j = v, i, j
    if best == 0:
        return None
    return best_i, best_j


def _move_pivot(a, left, k, pivot):
    i, j = pivot
    if i != k:
        a[k], a[i] = a[i], a[k]
        left[k], left[i] = left[i], left[k]
    if j != k:
        for row in a:
            row[k], row[j] = row[j], row[k]
    if a[k][k] < 0:
        a[k] = [-x for x in a[k]]
        left[k] = [-x for x in left[k]]


def _nearest_quotient(v, p):
    """Quotient leaving the symmetric remainder in (-p/2, p/2]."""
    q = v // p
    r = v - q * p
    if r > p - r:
        q += 1
    return q


def _clear_column(a, left, k, m):
    """Zero out column k below the pivot; True means the pivot shrank."""
    pk = a[k][k]
    rk = a[k]
    for i in range(k + 1, m):
        v = a[i][k]
        if v:
            q = _nearest_quotient(v, pk)
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], rk)]
                left[i] = [x - q * y for x, y in zip(left[i], left[k])]
            if a[i][k]:
                a[k], a[i] = a[i], a[k]
                left[k], left[i] = left[i], left[k]
                if a[k][k] < 0:
                    a[k] = [-x for x in a[k]]
                    left[k] = [-x for x in left[k]]
                return True
    return False


def _clear_row(a, k, n):
    """Zero out row k right of the pivot; True means the pivot moved."""
    pk = a[k][k]
    for j in range(k + 1, n):
        v = a[k][j]
        if v:
            q = _nearest_quotient(v, pk)
            if q:
                for row in a:
                    row[j] -= q * row[k]
            if a[k][j]:
                for row in a:
                    row[k], row[j] = row[j], row[k]
                if a[k][k] < 0:
                    for row in a:
                        row[k] = -row[k]
                return True
    return False


def _lift_nondivisible(a, left, k, m, n):
    """Fold a row breaking the divisibility chain into row k."""
    pk = a[k][k]
    if pk == 1:
        return False
    for i in range(k + 1, m):
        row = a[i]
        for j in range(k + 1, n):
            if row[j] % pk:
                a[k] = [x + y for x, y in zip(a[k], row)]
                left[k] = [x + y for x, y in zip(left[k], left[i])]
                return True
    return False
