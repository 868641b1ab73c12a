"""Independent oracles used to cross-check library computations.

Everything here is deliberately implemented by a different route than
the package: fraction-free (Bareiss) elimination instead of integer SNF,
brute-force element enumeration instead of lattice subquotients,
Sylvester resultants instead of conjugate products, a schoolbook
product and an index map on Z[zeta_p] instead of the lift to Z[C_p]
(``cyclotomic_product``, ``cyclotomic_galois``), and plain pair and
subset loops instead of the per-ambient plans of ``whcalc.falg``.
The contractibility oracle ``is_acyclic_and_connected`` reads its face
bitmasks itself (vertices, connectivity by union-find, boundary
matrices) and calls nothing of ``whcalc.simplicial``.
``attached_value`` evaluates a functor on a complex by attaching one
maximal face at a time, along every admissible attachment, on reduced
values, where ``TorsionFunctor`` evaluates one closed-form integer form
per complex.  The structure maps and the group law of torsion
functors work face by face on ``{face: value}`` dicts, as
``TorsionFunctor`` did before it gathered its flat vector.  A
``Table``, such as the ``raw_degeneracy`` that breaks the pushout-square
condition, stores a value for every contractible subcomplex, the one
kind of functor ``whcalc.falg`` does not represent.
``is_simplex_values`` and ``boundary_squares_to_zero`` test simplices
and the normalized complex with those maps and ``duality_holds``, not
with the compiled checks or the constraint rows of ``whcalc.falg``;
``unit_class_equal`` and ``symbol_class_equal`` multiply by the inverse
and read a trivial unit off the coefficients of the quotient, where
``wh_class_equal`` compares class keys; ``bass_unit`` is the unit of
Z[C_p] that their tests at larger primes use.  ``membership_equations``
writes every constraint as a full face-block equation, and
``merge_identified_blocks`` finds the identifications among them by
their shape, where ``falg`` keeps identifications as pairs and writes
each horn once on the face classes.  ``smith_form`` is a dense Smith form
that keeps both transforms, for the kernel and solve oracles, where the
package takes cokernels on its sparse elimination and keeps only the
left transform of ``smith_basis``; ``mobius_form`` sums the coefficients
of a complex's form over every pair of faces, where
``falg._complex_form`` takes a superset sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

import whcalc
from whcalc.abelian import FgAbGroup
from whcalc.falg import NotContractibleError, iota_shriek
from whcalc.groupring import GroupRingElement
from whcalc.report import ReportDocument, Stage
from whcalc.simplicial import (SubComplex, codegeneracy_face, coface_face,
                               enumerate_contractible_subcomplexes,
                               is_contractible)


def bareiss_determinant(rows):
    """Fraction-free determinant, independent of the SNF kernel."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def bareiss_rank(rows):
    """Rank by fraction-free (Bareiss) forward elimination over Z.

    After the k-th pivot every entry below the pivot rows is the minor on
    the pivot rows and columns so far plus its own row and column, so the
    division by the previous pivot is exact (Sylvester's identity) and no
    entry outgrows a minor of the input.  While the pivot equals the
    previous one the division cancels the scaling: rows with a zero in
    the pivot column stay as they are, and the others change on the
    pivot row's support only.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        p = prow[col]
        support = [j for j in range(col + 1, n) if prow[j]]
        for i in range(rank + 1, m):
            row = a[i]
            x = row[col]
            if p != prev:
                for j in range(col + 1, n):
                    row[j] = (p * row[j] - x * prow[j]) // prev
            elif x:
                for j in support:
                    row[j] -= x * prow[j] // p
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def factored_chain(values):
    """Invariant factors of a factor list by trial-division factoring,
    independent of the pairwise gcd/lcm normal form of
    ``abelian._factor_chain``."""
    free = sum(1 for v in values if v == 0)
    exps = {}
    for v in values:
        v = abs(v)
        if v in (0, 1):
            continue
        d = 2
        while d * d <= v:
            e = 0
            while v % d == 0:
                v //= d
                e += 1
            if e:
                exps.setdefault(d, []).append(e)
            d += 1
        if v > 1:
            exps.setdefault(v, []).append(1)
    depth = max((len(v) for v in exps.values()), default=0)
    chain = [1] * depth
    for p, es in exps.items():
        es = sorted(es)
        for slot, e in enumerate(es):
            chain[depth - len(es) + slot] *= p ** e
    return tuple(c for c in chain if c != 1) + (0,) * free


def cyclic_c2_homology(m, sign, n):
    """Closed-form homology of the order-two group on Z/m (m=0 means Z),
    evaluated by brute force on elements, never by matrices.

    Degree 0: quotient by {b - sign*b}; degree n >= 1: the subquotient
    {a = (-1)^(n+1) sign a} / {b + (-1)^(n+1) sign b}.
    """
    if m == 0:
        return _cyclic_c2_homology_free(sign, n)
    elements = list(range(m))
    if n == 0:
        image = {(b - sign * b) % m for b in elements}
        return _cyclic_quotient(m, len(_subgroup(image, m)))
    eps = 1 if (n + 1) % 2 == 0 else -1
    kernel = [a for a in elements if (a - eps * sign * a) % m == 0]
    image = _subgroup({(b + eps * sign * b) % m for b in elements}, m)
    return _cyclic_quotient(len(kernel), len(image))


def _subgroup(gens, m):
    seen = {0}
    frontier = set(gens)
    while frontier:
        new = set()
        for x in frontier:
            for g in gens:
                y = (x + g) % m
                if y not in seen:
                    seen.add(y)
                    new.add(y)
        frontier = new
    return seen


def _cyclic_quotient(knum, kden):
    order = knum // kden
    return FgAbGroup.from_factors([] if order == 1 else [order])


def _cyclic_c2_homology_free(sign, n):
    # hand evaluation of the displayed formulas for A = Z
    if n == 0:
        return FgAbGroup.from_factors([0] if sign == 1 else [2])
    eps = 1 if (n + 1) % 2 == 0 else -1
    if eps * sign == 1:
        # kernel all of Z, image 2Z
        return FgAbGroup.from_factors([2])
    return FgAbGroup.trivial()


# -- reduced simplicial homology ----------------------------------------


def _face_dim(face):
    return bin(face).count("1") - 1


def _vertices(face):
    return [v for v in range(face.bit_length()) if face >> v & 1]


def vertices(faces):
    """The vertices of a set of face bitmasks, sorted."""
    mask = 0
    for f in faces:
        mask |= f
    return _vertices(mask)


def euler_characteristic(faces):
    return sum(-1 if _face_dim(f) % 2 else 1 for f in faces)


def is_connected(faces):
    """Whether the edges of ``faces`` join all its vertices (union-find)."""
    verts = vertices(faces)
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for f in faces:
        vs = _vertices(f)
        for a, b in zip(vs, vs[1:]):
            parent[find(a)] = find(b)
    return len({find(v) for v in verts}) <= 1


def _ordered_faces(k):
    by_dim = {}
    for f in k.faces:
        by_dim.setdefault(_face_dim(f), []).append(f)
    for d in by_dim:
        by_dim[d].sort()
    return by_dim


def _boundary_matrix(by_dim, d):
    """Matrix of the boundary from d-chains to (d-1)-chains."""
    rows = by_dim.get(d - 1, [])
    cols = by_dim.get(d, [])
    idx = {f: i for i, f in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        verts = _vertices(f)
        for i, v in enumerate(verts):
            sub = f & ~(1 << v)
            mat[idx[sub]][j] += 1 if i % 2 == 0 else -1
    return mat


def is_acyclic_and_connected(k):
    """Homology oracle: connected with vanishing reduced homology over Z.

    Ranks over Q detect the free parts; torsion in degree d-1 equals the
    torsion of the cokernel of the boundary entering degree d-1, detected
    by diagonalization over Z.
    """
    if not is_connected(k.faces):
        return False
    by_dim = _ordered_faces(k)
    # each boundary matrix is built and ranked once: the one leaving
    # degree d + 1 serves degree d here and is the next step's own
    bd, rank_d = _ranked_boundary(by_dim, 1)
    for d in range(1, max(by_dim) + 1):
        bd_up, rank_up = _ranked_boundary(by_dim, d + 1)
        if len(by_dim.get(d, [])) - rank_d != rank_up:
            return False
        if _nonempty(bd) and any(abs(e) > 1 for e in diagonal_divisors(bd)):
            return False
        bd, rank_d = bd_up, rank_up
    return True


def _ranked_boundary(by_dim, d):
    bd = _boundary_matrix(by_dim, d)
    return bd, bareiss_rank(bd) if _nonempty(bd) else 0


def _nonempty(mat):
    return bool(mat) and bool(mat[0])


def diagonal_divisors(mat):
    """Diagonal entries of a full unimodular diagonalization over Z.

    No divisibility chain is enforced, which is irrelevant for torsion
    detection: the cokernel is the direct sum of Z modulo the entries
    whatever their order.  Written without the package kernel.
    """
    a = [list(r) for r in mat]
    divisors = []
    while a and a[0] and any(any(r) for r in a):
        m, n = len(a), len(a[0])
        bi, bj = min(((i, j) for i in range(m) for j in range(n) if a[i][j]),
                     key=lambda t: abs(a[t[0]][t[1]]))
        a[0], a[bi] = a[bi], a[0]
        for row in a:
            row[0], row[bj] = row[bj], row[0]
        while True:
            p = a[0][0]
            moved = False
            for i in range(1, m):
                if a[i][0]:
                    q = a[i][0] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
                    if a[i][0]:
                        a[0], a[i] = a[i], a[0]
                        moved = True
                        break
            if moved:
                continue
            for j in range(1, n):
                if a[0][j]:
                    q = a[0][j] // p
                    for row in a:
                        row[j] -= q * row[0]
                    if a[0][j]:
                        for row in a:
                            row[0], row[j] = row[j], row[0]
                        moved = True
                        break
            if not moved:
                break
        divisors.append(a[0][0])
        a = [row[1:] for row in a[1:]]
    return divisors


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def smith_form(rows):
    """The full Smith normal form: ``(diag, left, right)`` with
    ``left @ rows @ right`` diagonal, ``diag`` its nonzero entries
    (positive, each dividing the next), ``left`` and ``right`` unimodular.

    Dense row and column operations with both transforms recorded, the
    pivot the least nonzero entry of the remaining block; the package's
    ``smith`` records only the left one.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    left, right = identity(m), identity(n)

    def swap_rows(i, j):
        for mat in (a, left):
            mat[i], mat[j] = mat[j], mat[i]

    def swap_cols(i, j):
        for mat in (a, right):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def shrink(k):
        """One step at pivot k: reduce its column, else its row, else fold
        in a row the pivot does not divide; False once none applies."""
        p = a[k][k]
        for i in range(k + 1, m):
            if a[i][k]:
                q = a[i][k] // p
                for mat in (a, left):
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[k])]
                if a[i][k]:
                    swap_rows(k, i)
                return True
        for j in range(k + 1, n):
            if a[k][j]:
                q = a[k][j] // p
                for mat in (a, right):
                    for row in mat:
                        row[j] -= q * row[k]
                if a[k][j]:
                    swap_cols(k, j)
                return True
        for i in range(k + 1, m):
            if any(x % p for x in a[i][k + 1:]):
                for mat in (a, left):
                    mat[k] = [x + y for x, y in zip(mat[k], mat[i])]
                return True
        return False

    k = 0
    while k < min(m, n):
        block = [(abs(a[i][j]), i, j) for i in range(k, m)
                 for j in range(k, n) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        swap_rows(k, i)
        swap_cols(k, j)
        while shrink(k):
            pass
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            left[k] = [-x for x in left[k]]
        k += 1
    return [a[i][i] for i in range(k)], left, right


def mobius_form(faces):
    """The closed form of ``falg._complex_form`` summed face by face:
    face g of the closure K of ``faces`` has the coefficient sum of
    (-1)^(dim f - dim g) over every f in K that contains g."""
    closure = set()
    for f in faces:
        closure.update(s for s in range(1, f + 1) if s & f == s)
    coeffs = {g: sum((-1) ** (_face_dim(f) - _face_dim(g))
                     for f in closure if f & g == g) for g in closure}
    return tuple((g, c) for g, c in sorted(coeffs.items()) if c)


def sylvester_resultant(f, g):
    """Resultant of two polynomials (coefficient lists, low to high)."""
    f = list(f)
    g = list(g)
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    df, dg = len(f) - 1, len(g) - 1
    if df < 0 or dg < 0:
        return Fraction(0)
    size = df + dg
    if size == 0:
        return Fraction(1)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in range(dg):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = Fraction(c)
    for i in range(df):
        for j, c in enumerate(reversed(g)):
            mat[dg + i][i + j] = Fraction(c)
    return _fraction_determinant(mat)


def _cyclotomic_fold(p, ext):
    """Coefficients in the basis 1, zeta, ..., zeta^{p-2} of the sum of
    ext[k] zeta^k over k < p, by zeta^{p-1} = -(1 + ... + zeta^{p-2})."""
    return tuple(ext[k] - ext[p - 1] for k in range(p - 1))


def cyclotomic_product(p, a, b):
    """Schoolbook product in Z[zeta_p] of two coefficient tuples in the
    basis 1, zeta, ..., zeta^{p-2}."""
    ext = [0] * p
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            ext[(i + j) % p] += x * y
    return _cyclotomic_fold(p, ext)


def cyclotomic_galois(p, a, i):
    """Image of a coefficient tuple under zeta -> zeta^i, by the index map
    k -> k*i mod p."""
    ext = [0] * p
    for k, x in enumerate(a):
        ext[(k * i) % p] += x
    return _cyclotomic_fold(p, ext)


def _fraction_determinant(mat):
    a = [row[:] for row in mat]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def unit_order_pow(i, n):
    """Multiplicative order of i modulo n."""
    assert gcd(i, n) == 1
    k, x = 1, i % n
    while x != 1:
        x = (x * i) % n
        k += 1
    return k


# -- torsion-functor checks by brute force -----------------------------------


def contractible_keys(p):
    """The face sets of the contractible subcomplexes of the p-simplex,
    in the order of ``enumerate_contractible_subcomplexes``."""
    return [frozenset(k.faces) for k in enumerate_contractible_subcomplexes(p)]


class Table:
    """A functor given by its value on every contractible subcomplex of
    the ambient simplex, as ``table``: a dict keyed by the sorted faces
    of each complex.  ``value_on`` looks up the closure of the faces it
    is given, so anything that only evaluates functors, such as
    ``square_condition_holds``, reads a table as it reads a
    ``TorsionFunctor``; unlike one, a table may break pushout squares."""

    def __init__(self, ambient, target, table):
        self.ambient = ambient
        self.target = target
        self.table = table

    def value_on(self, faces):
        """The entry of the closure of ``faces`` (a ``SubComplex`` or
        masks): ValueError for a mask outside the ambient simplex,
        NotContractibleError for a complex without an entry."""
        faces = getattr(faces, "faces", faces)
        key = tuple(sorted(SubComplex.closure(self.ambient, faces).faces))
        if key not in self.table:
            raise NotContractibleError("complex outside the table")
        return self.table[key]


def raw_degeneracy(tf, i):
    """The uncorrected degeneracy of ``tf`` at i, as a ``Table`` one
    ambient up: each contractible complex takes the value of its image
    under the codegeneracy collapsing i, i+1 -> i.  It generally breaks
    the pushout-square condition, which is why the corrected degeneracy
    re-extends from face values.  From ambient 3 onward a contractible
    complex can collapse onto a circle (the edge path 02, 23, 13 onto
    the boundary of the triangle), whose value raises
    NotContractibleError: there the raw pullback is not even defined."""
    p = tf.ambient + 1
    return Table(p, tf.target, {
        tuple(sorted(k)): tf.value_on([codegeneracy_face(f, i) for f in k])
        for k in contractible_keys(p)})


def pushout_squares(p):
    """Every pair K0 before K1 of contractible subcomplexes of the
    p-simplex with nonempty intersection and contractible intersection
    and union, as ``(K0 & K1, K0 | K1, K0, K1)`` face sets, in pair order."""
    keys = contractible_keys(p)
    keyset = set(keys)
    out = []
    for a, b in combinations(range(len(keys)), 2):
        inter, union = keys[a] & keys[b], keys[a] | keys[b]
        if inter and inter in keyset and union in keyset:
            out.append((inter, union, keys[a], keys[b]))
    return out


def square_condition_holds(tf, squares=None):
    """The pushout-square condition, square by square in pair order,
    stopping at the first failing square.

    Each distinct corner is evaluated by ``value_on`` once, when a square
    first needs it, so an exception from ``value_on`` propagates exactly
    when no earlier square fails.  ``squares`` defaults to
    ``pushout_squares(tf.ambient)``; pass it in to scan many functors.
    """
    if squares is None:
        squares = pushout_squares(tf.ambient)
    seen = {}
    for square in squares:
        for key in square:
            if key not in seen:
                seen[key] = tf.value_on(key)
        inter, union, k0, k1 = (seen[key] for key in square)
        test = tuple(w + x - y - z for w, x, y, z in zip(inter, union, k0, k1))
        if not tf.target.is_zero_element(test):
            return False
    return True


def inclusion_exclusion_value(tf, faces):
    """Inclusion-exclusion over every nonempty subset of ``faces``, one
    term per subset; None when some intersection is empty."""
    faces = sorted(set(faces))
    acc = [0] * tf.target.generator_count
    for r in range(1, len(faces) + 1):
        sign = 1 if r % 2 else -1
        for subset in combinations(faces, r):
            inter = subset[0]
            for f in subset[1:]:
                inter &= f
            if not inter:
                return None
            acc = [a + sign * v for a, v in zip(acc, tf.values[inter])]
    return tf.target.reduce(tuple(acc))


class AttachmentOrderError(ValueError):
    """Two attachments of one complex gave different values."""


def attached_value(tf, faces, memo=None):
    """The value of ``tf`` on the contractible complex ``faces`` by
    recursive face attachment, each step reduced and memoized per complex.

    A complex with one maximal face takes that face's value.  Otherwise
    every maximal face sigma whose attachment is admissible (the closure
    of the other maximal faces and its intersection with sigma are both
    contractible and nonempty) gives the value of the rest plus that of
    sigma less that of the intersection, and all of them must agree:
    AttachmentOrderError when two differ, NotContractibleError when no
    attachment is admissible.
    """
    memo = {} if memo is None else memo
    faces = frozenset(faces)
    if faces in memo:
        return memo[faces]
    values = tf.values
    maximal = sorted(f for f in faces
                     if not any(g != f and g & f == f for g in faces))
    if len(maximal) == 1:
        out = values[maximal[0]]
    else:
        outs = set()
        for sigma in maximal:
            rest = SubComplex.closure(tf.ambient,
                                      [m for m in maximal if m != sigma])
            inter = rest.faces & SubComplex.closure(tf.ambient, [sigma]).faces
            if not inter or not is_contractible(rest) \
                    or not is_contractible(SubComplex(tf.ambient, inter)):
                continue
            a = attached_value(tf, rest.faces, memo)
            c = attached_value(tf, inter, memo)
            outs.add(tf.target.reduce(
                tuple(x + y - z for x, y, z in zip(a, values[sigma], c))))
        if not outs:
            raise NotContractibleError(
                "no admissible face attachment for this complex")
        if len(outs) > 1:
            raise AttachmentOrderError(
                "attachments disagree: malformed functor data")
        out = outs.pop()
    memo[faces] = out
    return out


def boundary_faces(sigma):
    """The codimension-one faces of ``sigma``, the i-th without its i-th
    smallest vertex."""
    return [sigma & ~(1 << v) for v in _vertices(sigma)]


def duality_holds(tf, sigma, index_set):
    """Generalized duality of ``tf`` at face ``sigma`` and index set I.

    The value on the union of the boundary faces in I, minus the value on
    sigma, against the same for the complementary boundary faces acted on
    by the involution (a plain product with its rows) and signed by
    (-1)^dim(sigma); each union by ``inclusion_exclusion_value``, one term per
    subset.  I must be a proper nonempty subset of the boundary indices:
    ValueError otherwise, IndexError for an index out of range.
    """
    bounds = boundary_faces(sigma)
    d = len(bounds) - 1
    idx = sorted(set(index_set))
    if not idx or len(idx) > d:
        raise ValueError("the index set must be a proper nonempty subset")
    if idx[0] < 0 or idx[-1] > d:
        raise IndexError("boundary index out of range")
    base = tf.values[sigma]
    lhs = inclusion_exclusion_value(tf, [bounds[j] for j in idx])
    rhs = inclusion_exclusion_value(
        tf, [b for j, b in enumerate(bounds) if j not in idx])
    inner = [x - y for x, y in zip(rhs, base)]
    acted = [sum(t * x for t, x in zip(row, inner))
             for row in tf.target.involution]
    sgn = 1 if d % 2 == 0 else -1
    return tf.target.is_zero_element(tuple(
        x - y - sgn * z for x, y, z in zip(lhs, base, acted)))


def face_horn_terms(sigma, i):
    """Face-horn duality of face ``sigma`` at horn index i, as ``(ident,
    act)`` face-coefficient dicts of x(d_i sigma) - x(sigma) + T(act),
    by inclusion-exclusion over every nonempty set of the other boundary
    faces, one term per set, zeros dropped."""
    bounds = boundary_faces(sigma)
    d = len(bounds) - 1
    sgn = 1 if d % 2 == 0 else -1
    others = bounds[:i] + bounds[i + 1:]
    act = {sigma: sgn}
    for r in range(1, len(others) + 1):
        for subset in combinations(others, r):
            inter = sigma
            for f in subset:
                inter &= f
            act[inter] = act.get(inter, 0) + sgn * (-1) ** r
    return {bounds[i]: 1, sigma: -1}, {f: c for f, c in act.items() if c}


def membership_equations(ambient):
    """The membership constraints at an ambient level as face-block
    equations ``{k: (a, b)}``, block k the proper face with mask k + 1:
    vanishing on the 0-th face region, then the face-horn duality of
    every face of dimension >= 1 (``face_horn_terms``) in mask order,
    each horn index in turn; the top face is dropped."""
    top = (1 << (ambient + 1)) - 1

    def equation(ident, act):
        return {f - 1: (ident.get(f, 0), act.get(f, 0))
                for f in sorted(ident.keys() | act.keys()) if f != top}

    region = top & ~1
    eqs = [equation({sigma: 1, region: -1}, {})
           for sigma in range(top - 1, 0, -1)
           if sigma != region and sigma & region == sigma]
    for sigma in range(1, top + 1):
        if _face_dim(sigma) >= 1:
            eqs.extend(equation(*face_horn_terms(sigma, i))
                       for i in range(_face_dim(sigma) + 1))
    return eqs, top - 1


def pair_equations(pairs):
    """Face-block pairs ``(a, b)``, as ``falg._face_rows`` writes them, as
    the equations ``{a: (1, 0), b: (-1, 0)}`` of ``membership_equations``:
    x_a - x_b lies in the relation lattice."""
    return [{a: (1, 0), b: (-1, 0)} for a, b in pairs]


def merge_identified_blocks(eqs, n_blocks):
    """A presolve over full face-block equations: merge the blocks that
    an equation of the shape ``{a: (1, 0), b: (-1, 0)}`` identifies, and
    rewrite every other equation onto one block per class.

    Returns ``(cls, reduced)``: the class of each block, numbered by
    first block, and the rewritten equations in their order, those that
    vanish on the classes dropped and duplicates kept."""
    parent = list(range(n_blocks))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    rest = []
    for eq in eqs:
        if len(eq) == 2 and sorted(eq.values()) == [(-1, 0), (1, 0)]:
            a, b = sorted(map(find, eq))
            parent[b] = a
        else:
            rest.append(eq)
    number = {}
    cls = tuple(number.setdefault(find(a), len(number))
                for a in range(n_blocks))
    reduced = []
    for eq in rest:
        new = {}
        for k, (a, b) in eq.items():
            x, y = new.get(cls[k], (0, 0))
            new[cls[k]] = (x + a, y + b)
        new = {k: ab for k, ab in new.items() if ab != (0, 0)}
        if new:
            reduced.append(new)
    return cls, reduced


# -- torsion-functor structure maps on face-value dicts ----------------------


def combine(a, b, op):
    """``op(a, b)`` face by face."""
    others = b.values
    return iota_shriek({f: tuple(op(x, y) for x, y in zip(v, others[f]))
                        for f, v in a.values.items()}, a.ambient, a.target)


def negate(tf):
    """``-tf`` face by face."""
    return iota_shriek({f: tuple(-x for x in v) for f, v in tf.values.items()},
                       tf.ambient, tf.target)


def coface_restrict(tf, j):
    """The restriction of ``tf`` to its j-th boundary face: the value of
    each face's image under the coface, less that boundary face's."""
    p = tf.ambient
    values = tf.values
    base = values[((1 << (p + 1)) - 1) & ~(1 << j)]
    return iota_shriek({
        sigma: tuple(x - y for x, y in zip(values[coface_face(sigma, j)],
                                           base))
        for sigma in range(1, (1 << p) - 1)}, p - 1, tf.target)


def codegeneracy(tf, j):
    """The corrected degeneracy of ``tf``: each face takes the value of
    its image under the codegeneracy collapsing j, j+1 -> j."""
    p = tf.ambient
    values = tf.values
    return iota_shriek({
        sigma: values[codegeneracy_face(sigma, j)]
        for sigma in range(1, (1 << (p + 2)) - 1)}, p + 1, tf.target)


# -- simplices, normalized chains and h-cobordism symbols --------------------


def is_simplex_values(target, p, face_values):
    """Whether ``face_values`` are a p-simplex of the simplicial group: a
    functor at ambient p + 1 (``iota_shriek`` accepts the dict) whose
    faces inside the 0-th face region all take the region's value, with
    face-horn duality (``duality_holds`` at each single horn) at every
    face of dimension >= 1."""
    try:
        tf = iota_shriek(face_values, p + 1, target)
    except ValueError:
        return False
    values = tf.values
    region = (1 << (p + 2)) - 2
    if any(v != values[region] for f, v in values.items() if f & region == f):
        return False
    return all(duality_holds(tf, sigma, (i,)) for sigma in values
               for i in range(_face_dim(sigma) + 1) if _face_dim(sigma) >= 1)


def boundary_squares_to_zero(target, bases):
    """Whether delta_0 delta_0 vanishes on the normalized bases over
    ``target`` that ``moore_complex`` lists, from degree 2 up: each basis
    vector, block k the value on the face with mask k + 1, is read as a
    functor and taken through ``coface_restrict`` at 1 twice, leaving
    only zero values."""
    g = target.generator_count
    for m in range(2, len(bases)):
        for vec in bases[m]:
            tf = iota_shriek({
                f: tuple(vec.get((f - 1) * g + r, 0) for r in range(g))
                for f in range(1, (1 << (m + 2)) - 1)}, m + 1, target)
            twice = coface_restrict(coface_restrict(tf, 1), 1)
            if not all(map(target.is_zero_element, twice.values.values())):
                return False
    return True


def unit_class_equal(x, y):
    """Whether two unit classes differ by a trivial unit +-t^k: whether
    x * y^-1 has a single nonzero coefficient, +-1."""
    q = x.representative * y.inverse
    return sorted(map(abs, q.coeffs)) == [0] * (q.order - 1) + [1]


def symbol_class_equal(a, b):
    """Whether two h-cobordism symbols name one class: dimensions of one
    parity, one twist, and torsion units of one class."""
    return (a.dim - b.dim) % 2 == 0 and a.twist == b.twist \
        and unit_class_equal(a.torsion, b.torsion)


def bass_unit(p):
    """(1 + t)^m + ((1 - 2^m) / p) N in Z[C_p], m the order of 2 mod p and
    N the norm element: augmentation 1, a unit since 1 + zeta is one."""
    m = next(k for k in range(1, p) if pow(2, k, p) == 1)
    one = GroupRingElement.one(p)
    u = one
    for _ in range(m):
        u = u * (one + GroupRingElement.generator(p))
    return u + GroupRingElement(p, ((1 - 2 ** m) // p,) * p)


def report_from_dict(data):
    """The ``ReportDocument`` of a parsed ``to_dict``; the package only
    writes reports.  A report of another tool or version is refused."""
    if (data["tool"], data["version"]) != ("whcalc", whcalc.__version__):
        raise ValueError(f"not a report of whcalc {whcalc.__version__}: "
                         f"{data['tool']} {data['version']}")
    doc = ReportDocument(data["command"], dict(data.get("params", {})))
    doc.stages = [Stage(s["name"], s["status"], s.get("witness"),
                        s.get("citation")) for s in data.get("stages", [])]
    return doc
