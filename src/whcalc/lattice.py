"""Exact integer linear algebra: solving, kernels, lattices, subquotients.

All vectors are tuples or lists of Python ints.  A matrix is a sequence
of int rows (``from_columns`` and ``columns_of`` convert), and a
generating set of a lattice -- relations, numerators, denominators,
bases -- is a list of column vectors.  Rows and vectors handed to the
eliminating functions (kernels, bases, quotients, ``Lattice``) may also
be sparse ``{index: value}`` dicts, as ``falg`` expands its face-block
equations after their presolve.  Kernel bases, lattice bases, quotient
coordinates and the echelon columns of ``Lattice`` are such dicts; only
``Solver``'s solution, the mixed-radix vectors of
``quotient_with_generators`` and ``smith_basis`` are dense.
``Lattice.reduce`` and ``Lattice.contains`` take k vectors of Z^dim at
once, stacked into one vector of k * dim coordinates.
Kernels, lattice bases, quotient coordinates and the echelon bases of
``Lattice`` come from one sparse unimodular column elimination
(``_eliminate``; Dumas, Saunders and Villard 2001, Kaczynski, Mischaikow
and Mrozek 2004, ch. 3) applied to the constraint systems directly.
``Solver`` solves A x = b on the same elimination, as the kernel of
[-b | A].  The one diagonalisation, ``_diagonal``, alternates it on the
rows and on the columns of a matrix until that is diagonal; cokernels
and quotients take it bare (``cokernel_factors``), and ``_snf.smith``,
which serves only ``smith_basis`` on the relation matrix of a group,
takes it with the rows of the identity riding along.  ``smith_basis``
keeps that left transform, which turns membership in a lattice into one
congruence per coordinate.  A finite
quotient is listed from echelon forms alone: ``quotient_with_generators``
gives the numerator's echelon vectors, each with the pivot of the
relations' echelon form as its radix, and ``span_elements`` runs
through their digits, each element once.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import mul

from . import _snf


def _is_prime(p):
    """Trial division, here so that testing primality loads no group ring."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def from_columns(cols, dim):
    """Matrix (list of rows) whose columns are the given vectors."""
    return [[col[i] for col in cols] for i in range(dim)]


def columns_of(a):
    return [list(c) for c in zip(*a)] if a else []


def _sparse(vec):
    """A fresh zero-free ``{index: value}`` copy of a dense sequence or a
    dict: ``_eliminate`` consumes its columns and divides by their entries."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {i: x for i, x in items if x}


def _sparse_columns(rows, n):
    """The columns of a matrix (rows dense or sparse, n wide) as sparse dicts."""
    cols = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in _sparse(row).items():
            cols[j][i] = x
    return cols


def _eliminate(cols, keep=0):
    """Sparse unimodular column elimination (consumes ``cols``).

    ``cols`` are ``{row: value}`` dicts.  Rows are processed in increasing
    order.  At each row the pivot is the column whose entry there has the
    least absolute value, ties broken by fewest nonzeros and then by
    lowest column index; every other column with an entry in that row is
    reduced against it by the nearest quotient, and the choice repeats
    until the pivot is the only column left in the row.  The pivot then
    retires.  Only unimodular column operations are applied, tracked on
    the first ``keep`` coordinates of each column's transform.

    Returns ``(pivots, kernel)``: ``pivots`` lists ``(row, column)`` by
    increasing row with a positive entry at ``row`` and zeros above it,
    a column echelon basis of the span; ``kernel`` lists the transforms
    (``{coordinate: value}``, cut to the first ``keep`` coordinates) of
    the columns that became zero, which project an exact Z-basis of the
    kernel onto those coordinates.
    """
    active = {}
    trans = {}
    kernel = []
    by_row = {}  # row -> indices of the active columns with an entry there
    for j, col in enumerate(cols):
        t = {j: 1} if j < keep else {}
        if not col:
            kernel.append(t)
            continue
        active[j] = col
        trans[j] = t
        for r in col:
            by_row.setdefault(r, set()).add(j)

    pivots = []
    for r in sorted(by_row):
        here = by_row[r]
        while len(here) > 1:
            piv = min(here, key=lambda j: (abs(active[j][r]), len(active[j]), j))
            p, tp = active[piv], trans[piv]
            pr2 = 2 * p[r]
            for j in sorted(here - {piv}):
                c, t = active[j], trans[j]
                q = (2 * c[r] + p[r]) // pr2  # nearest quotient
                for i, x in p.items():
                    y = c.get(i, 0) - q * x
                    if y:
                        if i not in c:
                            by_row[i].add(j)
                        c[i] = y
                    else:
                        del c[i]
                        by_row[i].discard(j)
                for i, x in tp.items():
                    y = t.get(i, 0) - q * x
                    if y:
                        t[i] = y
                    else:
                        del t[i]
                if not c:
                    del active[j]
                    kernel.append(trans.pop(j))
        if here:
            (piv,) = here
            p = active.pop(piv)
            del trans[piv]
            for i in p:
                by_row[i].discard(piv)
            if p[r] < 0:
                p = {i: -x for i, x in p.items()}
            pivots.append((r, p))
    return pivots, kernel


def _coordinates(pivots, rows, vec):
    """Coefficients of ``vec`` in an echelon basis, whose pivot rows are
    ``rows``, as a zero-free ``{position: coefficient}`` dict, or None if
    outside its span.

    Back-substitution by increasing pivot row: a remainder left at a pivot
    row, like any entry off the pivot rows, is never cleared again.  A
    pivot column has no entry above its row, so the walk starts at the
    first pivot at or after the least entry of ``vec`` and stops once
    nothing is left.
    """
    v = _sparse(vec)
    coords = {}
    k = bisect_left(rows, min(v, default=0))
    while v and k < len(pivots):
        r, col = pivots[k]
        q = v.get(r, 0) // col[r]
        if q:
            for i, x in col.items():
                y = v.get(i, 0) - q * x
                if y:
                    v[i] = y
                else:
                    del v[i]
            coords[k] = q
        k += 1
    return None if v else coords


class Solver:
    """Exact solver for A x = b on the sparse kernel: no Smith form."""

    def __init__(self, rows):
        self.rows = rows
        self.n = len(rows[0]) if rows else 0

    def solve(self, b):
        """One integer solution of A x = b, or None.

        The kernel of [-b | A] meets coordinate 0 in d Z, d the entry
        there of the first vector of its echelon basis (0 when that
        vector leads later), so A x = b is solvable exactly when d = 1;
        that vector's other coordinates are then x.
        """
        rows = [[-c, *r] for c, r in zip(b, self.rows)]
        basis = kernel_with_denominator(rows, [], self.n + 1)
        if not basis or basis[0].get(0) != 1:
            return None
        return [basis[0].get(i, 0) for i in range(1, self.n + 1)]


def solve(rows, b):
    return Solver(rows).solve(b)


def lattice_basis(gens, dim):
    """Independent vectors spanning the same lattice as ``gens`` in Z^dim:
    the column echelon basis of sparse elimination, as zero-free
    ``{index: value}`` dicts by increasing leading index."""
    pivots, _kernel = _eliminate([_sparse(g) for g in gens])
    return [col for _row, col in pivots]


def _diagonal(vecs, n):
    """Diagonalise the matrix whose rows are ``vecs`` (dense or sparse)
    at the coordinates below n.

    Coordinates from n on ride along with their row: row eliminations
    combine them, and column eliminations never see them.  ``_eliminate``
    on the rows, which is row operations, alternates with ``_eliminate``
    on the columns of the pivot rows until each pivot is alone in its row
    and its column (Kannan and Bachem, SIAM J. Comput. 8, 1979); an input
    that one row elimination already diagonalises takes no column pass.

    Returns ``(diag, zero)``: ``diag`` lists ``(d, row)`` for each
    diagonal entry d > 0, ``row`` holding d as its one entry below n and
    its ride-along coordinates, and ``zero`` lists the rows that went to
    zero below n.  The diagonal need not be a divisibility chain.
    """
    pivots, _kernel = _eliminate([_sparse(v) for v in vecs])
    zero = [row for r, row in pivots if r >= n]
    pivots = [(r, row) for r, row in pivots if r < n]
    while True:
        heads = [{i: x for i, x in row.items() if i < n}
                 for _r, row in pivots]
        if all(len(head) == 1 for head in heads):
            return [(row[r], row) for r, row in pivots], zero
        cols, _kernel = _eliminate(_sparse_columns(heads, n))
        # the rows after the column operations, the pivot columns
        # renumbered from 0 so that they stay below n
        rows = [{i: x for i, x in row.items() if i >= n}
                for _r, row in pivots]
        for c, (_k, col) in enumerate(cols):
            for k, x in col.items():
                rows[k][c] = x
        if all(len(col) == 1 for _k, col in cols):
            return [(col[k], rows[k]) for k, col in cols], zero
        pivots, _kernel = _eliminate(rows)


def cokernel_factors(gens, dim):
    """Moduli of the cyclic summands of Z^dim / span(gens): those above 1,
    then one 0 per free summand, not necessarily a divisibility chain
    (callers pass them through ``FgAbGroup.from_factors``).  The
    generators are the rows of the transpose of the relation matrix, so
    ``_diagonal`` of them with no ride-along coordinates gives the
    moduli."""
    diag, _zero = _diagonal(gens, dim)
    return [d for d, _row in diag if d != 1] + [0] * (dim - len(diag))


def smith_basis(gens, dim):
    """A diagonal form of the lattice spanned by ``gens`` in Z^dim.

    Returns ``(moduli, left)``: ``left`` is the unimodular left transform
    of a diagonal form of the relation matrix, as tuples of rows, and
    ``moduli`` has one entry per coordinate of ``left`` times a vector.
    Since ``left`` maps the lattice onto the sum of the ``moduli[i] * Z``,
    w lies in it exactly when every ``(left w)_i`` is a multiple of
    ``moduli[i]``; a modulus of 0 means that coordinate must be 0.
    """
    diag, left = _snf.smith(from_columns(gens, dim))
    return tuple(diag) + (0,) * (dim - len(diag)), tuple(map(tuple, left))


def kernel_with_denominator(c_rows, den_cols, n_unknowns):
    """Basis of the lattice {x in Z^n : C x lies in span(den_cols)}.

    Rows of C and ``den_cols`` (vectors in its row space Z^m) are dense
    or ``{index: value}`` dicts; an empty ``den_cols`` asks for the plain
    integer kernel.  The kernel of the augmented matrix [C | den]
    projects onto the first n coordinates as exactly this lattice, so
    only those coordinates of the transforms are tracked; eliminated once
    more, they give the echelon basis.  Its columns are returned as they
    come: zero-free ``{index: value}`` dicts, by increasing leading index,
    each with a positive entry there.
    """
    cols = _sparse_columns(c_rows, n_unknowns) + [_sparse(d) for d in den_cols]
    _pivots, kernel = _eliminate(cols, keep=n_unknowns)
    pivots, _kernel = _eliminate(kernel)
    return [col for _row, col in pivots]


def _relations(num_basis, den_gens):
    """Echelon basis of span(num_basis) and the coordinates of each
    denominator vector in it."""
    pivots, _kernel = _eliminate([_sparse(b) for b in num_basis])
    rows = [r for r, _col in pivots]
    rel = []
    for d in den_gens:
        y = _coordinates(pivots, rows, d)
        if y is None:
            raise ValueError("denominator not contained in numerator")
        rel.append(y)
    return pivots, rel


def quotient_factors(num_basis, den_gens):
    """``cokernel_factors`` of span(num_basis)/span(den_gens), den inside
    num: of the denominator's coordinates in the numerator's echelon
    basis, whose size is the rank of the numerator."""
    pivots, rel = _relations(num_basis, den_gens)
    return cokernel_factors(rel, len(pivots))


def quotient_with_generators(num_basis, den_gens, dim):
    """``quotient_factors`` and a mixed-radix basis of the quotient.

    Returns ``(factors, gens, radices)``.  ``gens`` are echelon basis
    vectors b_r of the numerator in Z^dim, and radix d_r is the pivot of
    the relations' column echelon form at coordinate r, 0 where that
    coordinate has no pivot (the quotient is then infinite); radix-1
    digits are dropped.  For a full-rank column echelon R in Z^k the
    vectors c with 0 <= c_r < d_r are exactly the canonical
    representatives of ``Lattice.reduce`` modulo R, and there are
    prod d_r = |Z^k / R| of them, so the sums of the c_r b_r list each
    element of a finite quotient once.
    """
    pivots, rel = _relations(num_basis, den_gens)
    k = len(pivots)
    radix = [0] * k
    for col in lattice_basis(rel, k):
        radix[min(col)] = col[min(col)]
    gens, radices = [], []
    for (_row, col), d in zip(pivots, radix):
        if d != 1:
            gens.append([col.get(i, 0) for i in range(dim)])
            radices.append(d)
    return cokernel_factors(rel, k), gens, radices


def span_elements(gens, orders, dim):
    """``sum c_i * gens[i]`` for every 0 <= c_i < orders[i], the first
    coefficient varying slowest, as unreduced tuples of Z^dim.

    For the vectors and radices of ``quotient_with_generators`` these
    are the elements of the finite quotient, each exactly once.  Over
    the identity numerator the sums are the digit vectors themselves,
    already canonical representatives; other callers reduce them.  A
    zero order means an infinite quotient and raises ValueError.
    """
    if any(f == 0 for f in orders):
        raise ValueError("cannot enumerate an infinite group")

    def rec(i, acc):
        if i == len(orders):
            yield tuple(acc)
            return
        for c in range(orders[i]):
            yield from rec(i + 1, [a + c * b for a, b in zip(acc, gens[i])])

    yield from rec(0, [0] * dim)


class Lattice:
    """Sublattice of Z^dim spanned by ``gens``, with canonical coset reps.

    The basis is the sparse column echelon form from ``_eliminate``.
    ``reduce`` returns the unique representative whose entry at each
    pivot row lies in [0, pivot); pivot rows and positive pivot values
    are invariants of the lattice, so the representative does not depend
    on the generators.  ``reduce`` and ``contains`` take a vector of
    k * dim coordinates, k blocks of ``dim`` (k = 1 is a single vector),
    and treat each block as its own vector of Z^dim: one call reduces or
    tests every block, pivot by pivot over all blocks.  Each pivot
    subtracts only the other nonzeros of its column, and a pivot column
    with no other nonzero reduces by one modulo.
    """

    def __init__(self, gens, dim):
        self.dim = dim
        self.pivots, _kernel = _eliminate([_sparse(g) for g in gens])
        # (row, pivot, the column's other entries as (offset from row,
        # value)), an empty tuple for a single-entry column
        self._steps = tuple(
            (row, col[row], tuple((i - row, x) for i, x in col.items()
                                  if i != row))
            for row, col in self.pivots)

    def reduce(self, v):
        """Canonical representative of every block of ``v`` modulo the
        lattice, as one tuple."""
        v = list(v)
        n, dim = len(v), self.dim
        if n % dim if dim else n:
            raise ValueError(f"{n} coordinates are not blocks of {dim}")
        for row, d, rest in self._steps:
            if not rest:
                v[row::dim] = [x % d for x in v[row::dim]]
                continue
            for i in range(row, n, dim):
                q = v[i] // d
                if q:
                    v[i] -= q * d
                    for j, x in rest:
                        v[i + j] -= q * x
        return tuple(v)

    def contains(self, v):
        """Whether every block of ``v`` lies in the lattice: ``reduce(v)``
        is zero."""
        return not any(self.reduce(v))
