"""Torsion functors on contractible subcomplexes and the derived
simplicial abelian group.

A torsion functor is stored by its values on faces only; values on
arbitrary contractible subcomplexes are recovered on demand through the
inclusion-exclusion extension, attaching one face at a time.  The
extension is evaluated along two independent attachment orders and the
results compared, so a disagreement surfaces as an error instead of a
silent wrong answer.

The simplicial group built here has p-simplices the functors at ambient
dimension p+1 that vanish on the 0-th face region and satisfy face-horn
duality for every face.  Its normalized chain complex is degreewise
isomorphic to the two-periodic complex ... -> A -> A -> A -> 0 via the
evaluation at the 0-th vertex, which is the central comparison this
package verifies against the independent C2-homology computation.

The element-level checks split their work by what it depends on.  The
combinatorics of an ambient simplex are computed once and cached
(``lru_cache``, filled on first use, never at import): a Z-basis of the
integer forms of the pushout squares among its contractible
subcomplexes (``_square_basis``: the 1180 squares of the 3-simplex span
a lattice of rank 50 over its 65 contractible subcomplexes), the
face-attachment steps of each complex (``_attachment_plan``), the
(face, omitted index) pairs of its face-horn dualities
(``_face_horns``) and, per involution T, face and index set, one
linear form per output coordinate of a generalized duality
(``_duality_form``), shared by every target with the same action.  The
duality holds when L(v) - sgn T(R(v)) lies in the relation lattice,
where L and R collapse the inclusion-exclusion over the boundary faces
in the index set and its complement (``_union_coeffs``).
Everything that depends on the functor stays per functor: its value on
each subcomplex, through ``value_on`` with the two-attachment-order
check, and one relation-lattice membership test per square-basis form
or per duality.  The constraint rows of the homotopy path
(``_membership_rows``) expand their own inclusion-exclusion and use
none of these plans, so the element checks and the constraint systems
still cross-check each other.
"""

from __future__ import annotations

from functools import lru_cache

from . import lattice
from ._value import Frozen, Record
from .abelian import FgAbGroup, InvolutiveAbelianGroup, _is_int
from .simplicial import (SubComplex, _collapses_to_point, codegeneracy_face,
                         coface_face, face_boundary, face_dim, face_str,
                         face_from_str, maximal_faces, subfaces)

__all__ = [
    "TorsionFunctor",
    "FAlgElement",
    "FAlgGroup",
    "MooreComplex",
    "NotContractibleError",
    "InconsistentFunctorError",
    "iota_shriek",
    "raw_degeneracy",
    "check_square",
    "check_face_horn_duality",
    "generalized_duality_holds",
    "mixed_duality_holds",
    "duality_criterion",
    "falg_group",
    "normalized_group",
    "moore_complex",
    "moore_homotopy",
    "psi",
    "psi_section",
    "psi_is_bijective",
    "all_dualities_hold",
]


class NotContractibleError(ValueError):
    """A torsion functor was evaluated outside its domain."""


class InconsistentFunctorError(ValueError):
    """Two attachment orders disagreed: the input data was malformed."""


def _top_mask(p):
    return (1 << (p + 1)) - 1


def _all_faces(p):
    """The faces of the p-simplex by dimension, then mask, lazily.

    Masks with k vertices come in increasing order by Gosper's
    next-combination step, so a caller that stops early never pays for
    all 2^(p+1) - 1 faces.
    """
    top = _top_mask(p)
    for k in range(1, p + 2):
        f = (1 << k) - 1
        while f <= top:
            yield f
            low = f & -f
            high = f + low
            f = (((high ^ f) >> 2) // low) | high


def _proper_faces(p):
    top = _top_mask(p)
    return [f for f in _all_faces(p) if f != top]


def _closure(faces):
    out = set()
    for f in faces:
        out.update(subfaces(f))
    return frozenset(out)


def _sign(k):
    return 1 if k % 2 == 0 else -1


# -- per-ambient plans: combinatorics shared by every functor -------------


def _union_coeffs(ambient, faces):
    """Inclusion-exclusion over the closures of ``faces``, collapsed.

    The nonzero ``(face, coefficient)`` pairs, sorted by face, with
    value(union) = sum of coefficient * value(face) for every functor at
    this ambient.  Raises ValueError when an iterated intersection is
    empty.
    """
    faces = sorted(faces)
    n = len(faces)
    coeffs = {}
    for mask in range(1, 1 << n):
        inter = _top_mask(ambient)
        bits = 0
        for i in range(n):
            if mask >> i & 1:
                inter &= faces[i]
                bits += 1
        if inter == 0:
            raise ValueError("intersection pattern leaves the face poset")
        coeffs[inter] = coeffs.get(inter, 0) + _sign(bits + 1)
    return tuple((f, c) for f, c in sorted(coeffs.items()) if c)


@lru_cache(maxsize=None)
def _attachment_plan(faces):
    """The face-attachment steps of ``TorsionFunctor._value`` on ``faces``.

    ``(face, ())`` when ``faces`` has the single maximal face ``face``;
    otherwise ``(None, steps)`` with ``steps`` the first and the last
    admissible triple (sigma, closure of the other maximal faces, their
    intersection) in maximal-face order: both when there are several,
    one when there is one, none when no attachment order is admissible.
    """
    maximal = maximal_faces(faces)
    if len(maximal) == 1:
        return maximal[0], ()
    admissible = []
    for sigma in maximal:
        rest = [m for m in maximal if m != sigma]
        rest_closure = _closure(rest)
        inter = rest_closure & frozenset(subfaces(sigma))
        if inter and _collapses_to_point(rest_closure) \
                and _collapses_to_point(inter):
            admissible.append((sigma, rest_closure, inter))
    if len(admissible) > 1:
        return None, (admissible[0], admissible[-1])
    return None, tuple(admissible)


def _combine(form, values, g):
    """sum of coefficient * values[key] over the ``(key, coefficient)``
    pairs of ``form``, unreduced."""
    return [sum([c * values[key][r] for key, c in form]) for r in range(g)]


class TorsionFunctor:
    """Functor on contractible subcomplexes of the ambient simplex,
    valued in an involutive abelian group, satisfying the pushout-square
    condition by construction when built from face values alone.

    ``table``-backed instances carry explicit values on every
    contractible subcomplex instead and may fail the square condition;
    they model raw pullbacks along codegeneracies.
    """

    __slots__ = ("ambient", "target", "values", "table", "_memo")

    def __init__(self, ambient, target, face_values, table=None):
        self.ambient = ambient
        self.target = target
        g = target.generator_count
        zero = (0,) * g
        values = {}
        for face in _all_faces(ambient):
            if face == _top_mask(ambient):
                continue
            if face not in face_values:
                raise ValueError(f"missing value on face {face_str(face)}")
            vec = tuple(face_values[face])
            if len(vec) != g:
                raise ValueError("face value has wrong coordinate length")
            values[face] = target.reduce(vec)
        top = _top_mask(ambient)
        if top in face_values:
            if len(face_values[top]) != g:
                raise ValueError("face value has wrong coordinate length")
            if not target.is_zero_element(face_values[top]):
                raise ValueError("the top face value must be zero")
        values[top] = zero
        self.values = values
        self.table = None
        if table is not None:
            self.table = {k: target.reduce(v) for k, v in table.items()}
        self._memo = {}

    # -- group structure -------------------------------------------------

    @classmethod
    def zero(cls, ambient, target):
        z = (0,) * target.generator_count
        return cls(ambient, target,
                   {f: z for f in _proper_faces(ambient)})

    def _binary(self, other, op):
        if not isinstance(other, TorsionFunctor) \
                or other.ambient != self.ambient \
                or other.target != self.target:
            raise ValueError("functor mismatch")
        vals = {f: tuple(op(x, y) for x, y in zip(self.values[f], other.values[f]))
                for f in _proper_faces(self.ambient)}
        table = None
        if self.table is not None and other.table is not None:
            table = {k: tuple(op(x, y) for x, y in zip(v, other.table[k]))
                     for k, v in self.table.items()}
        return TorsionFunctor(self.ambient, self.target, vals, table)

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __neg__(self):
        vals = {f: tuple(-x for x in v) for f, v in self.values.items()
                if f != _top_mask(self.ambient)}
        table = None
        if self.table is not None:
            table = {k: tuple(-x for x in v) for k, v in self.table.items()}
        return TorsionFunctor(self.ambient, self.target, vals, table)

    def is_zero(self):
        zero = (0,) * self.target.generator_count
        return all(v == zero for v in self.values.values())

    def __eq__(self, other):
        return (isinstance(other, TorsionFunctor)
                and self.ambient == other.ambient
                and self.target == other.target
                and self.values == other.values
                and self.table == other.table)

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.values.items()))))

    # -- evaluation --------------------------------------------------------

    def value_on(self, complex_or_faces):
        """tau(ambient simplex, K) for a contractible subcomplex K."""
        if isinstance(complex_or_faces, SubComplex):
            faces = frozenset(complex_or_faces.faces)
        else:
            faces = frozenset(complex_or_faces)
        if not faces:
            raise NotContractibleError("empty complex")
        if self.table is not None:
            key = tuple(sorted(faces))
            if key in self.table:
                return self.table[key]
            raise NotContractibleError("complex outside the stored table")
        if not _collapses_to_point(faces):
            raise NotContractibleError(
                "torsion functors are defined on contractible subcomplexes only")
        return self._value(faces)

    def _value(self, faces):
        memo = self._memo
        if faces in memo:
            return memo[faces]
        face, steps = _attachment_plan(faces)
        if face is not None:
            out = self.values[face]
        elif not steps:
            raise NotContractibleError(
                "no admissible face-attachment order for this complex")
        else:
            out = self._attach(*steps[0])
            if len(steps) > 1 and self._attach(*steps[1]) != out:
                raise InconsistentFunctorError(
                    "attachment orders disagree: malformed functor data")
        memo[faces] = out
        return out

    def _attach(self, sigma, rest_closure, inter):
        a = self._value(rest_closure)
        b = self.values[sigma]
        c = self._value(inter)
        return self.target.reduce(
            tuple(x + y - z for x, y, z in zip(a, b, c)))

    def pair_value(self, larger, smaller):
        """tau(L, K) = tau(top, K) - tau(top, L) for K inside L."""
        vl = self.value_on(larger)
        vk = self.value_on(smaller)
        return self.target.reduce(tuple(x - y for x, y in zip(vk, vl)))

    def union_of_faces_value(self, face_list):
        """Closed-form value on a union of face closures.

        Requires every iterated intersection to be a nonempty face (true
        for horns and unions of boundary faces of a common face), which
        makes the inclusion-exclusion expansion exact in one pass; its
        collapsed coefficients come from ``_union_coeffs``.
        """
        return self.target.reduce(_combine(
            _union_coeffs(self.ambient, set(face_list)), self.values,
            self.target.generator_count))

    # -- cosimplicial structure maps ----------------------------------------

    def coface_restrict(self, j):
        """Restriction along the coface embedding the (ambient-1)-simplex
        as the j-th boundary face."""
        p = self.ambient
        if not 0 <= j <= p:
            raise IndexError("coface index out of range")
        base = self.values[_top_mask(p) & ~(1 << j)]
        vals = {}
        for sigma in _proper_faces(p - 1):
            img = coface_face(sigma, j)
            v = self.values[img]
            vals[sigma] = tuple(x - y for x, y in zip(v, base))
        return TorsionFunctor(p - 1, self.target, vals)

    def codegeneracy(self, j):
        """Corrected degeneracy: pull back face values along the
        codegeneracy vertex map, then re-extend by inclusion-exclusion."""
        p = self.ambient
        if not 0 <= j <= p:
            raise IndexError("codegeneracy index out of range")
        vals = {}
        for sigma in _proper_faces(p + 1):
            vals[sigma] = self.values[codegeneracy_face(sigma, j)]
        return TorsionFunctor(p + 1, self.target, vals)

    def face_values_copy(self):
        return dict(self.values)

    def __repr__(self):
        parts = ", ".join(f"{face_str(f)}:{list(v)}"
                          for f, v in sorted(self.values.items()))
        return f"TorsionFunctor(p={self.ambient}, {{{parts}}})"


def iota_shriek(face_values, p, target):
    """Extend face values to the full functor (values by face only).

    The extension to any contractible subcomplex happens lazily in
    ``value_on``; attachment-order independence is asserted there.
    """
    return TorsionFunctor(p, target, face_values)


@lru_cache(maxsize=None)
def _contractible_keys(p):
    from .simplicial import enumerate_contractible_subcomplexes
    return [frozenset(k.faces) for k in enumerate_contractible_subcomplexes(p)]


def _squares(p):
    """The pushout squares among the contractible subcomplexes of the
    p-simplex: index quadruples ``(K0 & K1, K0 | K1, K0, K1)`` into
    ``_contractible_keys(p)``, one per pair K0 before K1 whose
    intersection is nonempty and whose intersection and union are
    contractible, in pair order."""
    keys = _contractible_keys(p)
    index = {k: i for i, k in enumerate(keys)}
    out = []
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            inter = keys[a] & keys[b]
            union = keys[a] | keys[b]
            if inter and inter in index and union in index:
                out.append((index[inter], index[union], a, b))
    return tuple(out)


def _square_form(square):
    """v[K0 & K1] + v[K0 | K1] - v[K0] - v[K1] of one ``_squares`` entry,
    as ``(key, coefficient)`` pairs with zero coefficients dropped."""
    coeffs = {}
    for k, c in zip(square, (1, 1, -1, -1)):
        coeffs[k] = coeffs.get(k, 0) + c
    return tuple((k, c) for k, c in sorted(coeffs.items()) if c)


@lru_cache(maxsize=None)
def _square_basis(p):
    """The pushout-square condition at ambient p as a few integer forms.

    Returns ``(order, first, basis)``.  ``order`` lists, as indices into
    ``_contractible_keys(p)``, every subcomplex some square uses, in the
    order a square-by-square scan of ``_squares(p)`` first needs it, and
    ``first[k]`` is the index of the square that first needs
    ``order[k]``.  ``basis`` is a Z-basis of the span of the square forms
    (``_square_form``), from ``lattice._eliminate``, each form as
    ``(key, coefficient)`` pairs: 50 forms for the 1180 squares at
    ambient 3.  Every basis form is an integer combination of square forms
    and every square form one of basis forms, so the values of a functor
    satisfy every square exactly when every basis form of them lies in
    the relation lattice.
    """
    order, first, cols = [], [], []
    seen = set()
    for s, square in enumerate(_squares(p)):
        for k in square:
            if k not in seen:
                seen.add(k)
                order.append(k)
                first.append(s)
        cols.append(dict(_square_form(square)))
    pivots, _kernel = lattice._eliminate(cols)
    basis = tuple(tuple(sorted(col.items())) for _row, col in pivots)
    return tuple(order), tuple(first), basis


def raw_degeneracy(tf, i):
    """The uncorrected degeneracy: plain pullback of all values along the
    codegeneracy.  Generally leaves the square-condition subgroup; kept
    as the counterexample showing why the corrected degeneracy re-extends
    from face values.

    Only available onto ambient dimension <= 2: from ambient 3 onward a
    collapse map can take a contractible subcomplex onto a circle (e.g.
    the edge path 02,23,13 onto the full boundary of the triangle), so
    the raw pullback is not even everywhere defined there.  Face values
    never see this, which is the point of the corrected degeneracy.
    """
    p = tf.ambient + 1
    if p > 2:
        raise ValueError("raw degeneracies exist only onto ambient <= 2")
    if not 0 <= i <= tf.ambient:
        raise IndexError("codegeneracy index out of range")
    table = {}
    face_values = {}
    for faces in _contractible_keys(p):
        img = frozenset(codegeneracy_face(f, i) for f in faces)
        val = tf.value_on(img)
        table[tuple(sorted(faces))] = val
        maximal = maximal_faces(faces)
        if len(maximal) == 1 and len(faces) == len(set(subfaces(maximal[0]))):
            face_values[maximal[0]] = val
    return TorsionFunctor(p, tf.target, face_values, table)


def check_square(tf):
    """Exhaustively verify the pushout-square condition (ambient <= 3).

    Per functor, every contractible subcomplex that some square uses is
    evaluated by ``value_on`` once, in the order a square-by-square scan
    first needs it, so table lookups, the contractibility check and the
    two-order guard of ``_value`` all still run.  Then each form of the
    per-ambient ``_square_basis`` (50 forms for the 1180 squares at
    ambient 3) is tested for membership in the relation lattice, which
    holds for all of them exactly when it holds for every square.  When
    ``value_on`` raises, the squares a scan would have tested before
    needing that subcomplex decide: False if one of them fails, else the
    exception propagates, as from a scan that stops at the first failing
    square.  The constraint rows of ``_membership_rows`` share none of
    this.
    """
    p = tf.ambient
    if p > 3:
        raise ValueError("exhaustive square checking is capped at ambient 3")
    keys = _contractible_keys(p)
    order, first, basis = _square_basis(p)
    target = tf.target
    g = target.generator_count
    values = [None] * len(keys)

    def holds(form):
        return target.is_zero_element(_combine(form, values, g))

    for k, s in zip(order, first):
        try:
            values[k] = tf.value_on(keys[k])
        except Exception:
            if not all(holds(_square_form(sq)) for sq in _squares(p)[:s]):
                return False
            raise
    return all(holds(form) for form in basis)


@lru_cache(maxsize=None)
def _duality_form(involution, ambient, sigma, index_set):
    """The generalized duality of face ``sigma`` at ``index_set`` under
    the involution T, as one linear form.

    Raises ValueError unless the index set is a proper nonempty subset of
    the boundary indices, IndexError for an index out of range.  Let L =
    sum of c_f * v_f - v_sigma over the collapsed inclusion-exclusion
    (``_union_coeffs``) of the boundary faces in the index set, R the
    same over the complementary boundary faces, and sgn = (-1)^dim(sigma).
    The duality holds exactly when L(v) - sgn * T(R(v)) lies in the
    relation lattice: reducing either side first only subtracts lattice
    vectors, and T preserves the lattice.  That map is linear in the face
    values, so it is stored as one tuple per output coordinate r of
    ``(face, j, coefficient)`` triples, zeros dropped: coordinate r is the
    sum of coefficient * v[face][j].  For even-dimensional sigma under the
    identity (odd under -1) the two ``(sigma, -1)`` terms cancel.  The
    form depends on the target only through ``involution``, so targets
    with the same action share it.
    """
    d = face_dim(sigma)
    idx = sorted(set(index_set))
    if not idx or len(idx) > d:
        raise ValueError("the index set must be a proper nonempty subset")
    if idx[0] < 0 or idx[-1] > d:
        raise IndexError("boundary index out of range")
    bounds = [face_boundary(sigma, j) for j in range(d + 1)]
    lhs = _union_coeffs(ambient, [bounds[j] for j in idx]) + ((sigma, -1),)
    rhs = _union_coeffs(ambient, [b for j, b in enumerate(bounds)
                                  if j not in idx]) + ((sigma, -1),)
    sgn = _sign(d)
    forms = []
    for r, t_row in enumerate(involution):
        coeffs = {}
        for f, c in lhs:
            coeffs[f, r] = coeffs.get((f, r), 0) + c
        for f, c in rhs:
            for j, t in enumerate(t_row):
                coeffs[f, j] = coeffs.get((f, j), 0) - sgn * c * t
        forms.append(tuple((f, j, c) for (f, j), c in sorted(coeffs.items())
                           if c))
    return tuple(forms)


def _duality_vanishes(tf, forms):
    """One relation-lattice membership test of a ``_duality_form``."""
    values = tf.values
    return tf.target.is_zero_element(
        [sum([c * values[f][j] for f, j, c in form]) for form in forms])


def _duality_ok(tf, sigma, i):
    """Face-horn duality of tau at ``sigma`` for the omitted index i: the
    generalized duality at the index set {i}."""
    return _duality_vanishes(tf, _duality_form(
        tf.target.involution, tf.ambient, sigma, (i,)))


def check_face_horn_duality(tf, sigma):
    """Face-horn duality of tau at one face, for every omitted index."""
    if face_dim(sigma) < 1:
        return True
    return all(_duality_ok(tf, sigma, i) for i in range(face_dim(sigma) + 1))


@lru_cache(maxsize=None)
def _face_horns(ambient):
    """Every ``(sigma, i)`` with sigma a face of dimension >= 1 of the
    ambient simplex and 0 <= i <= dim sigma, in ``_all_faces`` order."""
    return tuple((sigma, i) for sigma in _all_faces(ambient)
                 if face_dim(sigma) >= 1 for i in range(face_dim(sigma) + 1))


def all_dualities_hold(tf):
    """Face-horn duality at every face, one ``_duality_ok`` per horn."""
    return all(_duality_ok(tf, sigma, i) for sigma, i in _face_horns(tf.ambient))


def generalized_duality_holds(tf, sigma, index_set):
    """tau(sigma, boundary union over I) against the complementary union,
    as one membership test of the folded ``_duality_form``."""
    return _duality_vanishes(tf, _duality_form(
        tf.target.involution, tf.ambient, sigma, tuple(index_set)))


def _pure_boundary(k_faces):
    """Codim-one faces lying in exactly one of the given top faces."""
    counts = {}
    for f in k_faces:
        if face_dim(f) < 1:
            continue
        for i in range(face_dim(f) + 1):
            b = face_boundary(f, i)
            counts[b] = counts.get(b, 0) + 1
    return sorted(b for b, c in counts.items() if c == 1)


def mixed_duality_holds(tf, k_faces, q_faces):
    """Duality for a pure union K of k-faces against a boundary piece Q.

    Q must be a contractible union of (k-1)-faces inside the boundary of
    K; the complementary side is the closure of the remaining boundary
    (k-1)-faces.
    """
    k_faces = sorted(set(k_faces))
    dims = {face_dim(f) for f in k_faces}
    if len(dims) != 1:
        raise ValueError("K must be a union of faces of one dimension")
    k = dims.pop()
    bfaces = _pure_boundary(k_faces)
    q_faces = sorted(set(q_faces))
    if not set(q_faces) <= set(bfaces):
        raise ValueError("Q must consist of boundary faces of K")
    rest = [b for b in bfaces if b not in q_faces]
    kc = _closure(k_faces)
    lhs = tf.pair_value(kc, _closure(q_faces))
    rhs_inner = tf.pair_value(kc, _closure(rest))
    acted = tf.target.act(rhs_inner)
    sgn = _sign(k)
    diff = tuple(x - sgn * y for x, y in zip(lhs, acted))
    return tf.target.is_zero_element(diff)


def duality_criterion(tf):
    """Inductive duality criterion: once every proper face satisfies
    face-horn duality and the top face satisfies it for the 0-th horn,
    check that the top face satisfies it for every horn.

    Raises if the hypothesis itself fails.
    """
    p = tf.ambient
    top = _top_mask(p)
    for sigma in _all_faces(p):
        if sigma == top or face_dim(sigma) < 1:
            continue
        if not check_face_horn_duality(tf, sigma):
            raise ValueError("hypothesis fails: a proper face breaks duality")
    if p >= 1 and not _duality_ok(tf, top, 0):
        raise ValueError("hypothesis fails: 0-th face-horn duality at the top")
    if p == 0:
        return True
    return all(_duality_ok(tf, top, i) for i in range(1, p + 1))


# -- the simplicial abelian group ----------------------------------------


def _z_condition_holds(tf):
    p = tf.ambient
    region = _top_mask(p) & ~1
    base = tf.values[region]
    for sigma in subfaces(region):
        if tf.values[sigma] != base:
            return False
    return True


class FAlgElement(Frozen):
    """A p-simplex of the simplicial group: a torsion functor at ambient
    p+1 vanishing on the 0-th face region and dual at every face."""

    _fields = ("functor",)

    def __init__(self, functor):
        if functor.ambient < 1:
            raise ValueError("simplex degree must be at least 0")
        if not _z_condition_holds(functor):
            raise ValueError("functor does not vanish on the 0-th face region")
        if not all_dualities_hold(functor):
            raise ValueError("functor violates face-horn duality")
        self._freeze(functor)

    @property
    def degree(self):
        return self.functor.ambient - 1

    @property
    def target(self):
        return self.functor.target

    @classmethod
    def from_face_values(cls, target, p, face_values):
        return cls(iota_shriek(face_values, p + 1, target))

    @classmethod
    def zero(cls, target, p):
        return cls(TorsionFunctor.zero(p + 1, target))

    @staticmethod
    def is_valid_values(target, p, face_values):
        """Cheap membership check on raw face values, without construction."""
        try:
            tf = iota_shriek(face_values, p + 1, target)
        except ValueError:
            return False
        return _z_condition_holds(tf) and all_dualities_hold(tf)

    def __add__(self, other):
        return FAlgElement(self.functor + other.functor)

    def __sub__(self, other):
        return FAlgElement(self.functor - other.functor)

    def __neg__(self):
        return FAlgElement(-self.functor)

    def is_zero(self):
        return self.functor.is_zero()

    def face(self, i):
        """delta_i: restriction along the (i+1)-st coface."""
        p = self.degree
        if p == 0:
            raise IndexError("0-simplices have no faces")
        if not 0 <= i <= p:
            raise IndexError("face index out of range")
        return FAlgElement(self.functor.coface_restrict(i + 1))

    def degeneracy(self, i):
        """s_i: the corrected degeneracy at index i+1."""
        p = self.degree
        if not 0 <= i <= p:
            raise IndexError("degeneracy index out of range")
        return FAlgElement(self.functor.codegeneracy(i + 1))

    def is_normalized(self):
        return all(self.face(i).is_zero() for i in range(1, self.degree + 1))

    def psi_value(self):
        """Evaluation at the 0-th vertex (the chain isomorphism to A)."""
        return self.functor.values[1]

    def to_dict(self, target_name=None):
        """The form ``parse_dict`` reads; refused above degree 8, whose
        vertex 10 has no single-digit name."""
        if self.degree > 8:
            raise ValueError("single-digit vertex names cap the degree at 8")
        return {
            "p": self.degree,
            "target": target_name if target_name is not None
            else self.target.to_dict(),
            "face_values": {face_str(f): list(v)
                            for f, v in sorted(self.functor.values.items())
                            if f != _top_mask(self.functor.ambient)},
        }

    @classmethod
    def from_dict(cls, data, target=None):
        return cls.from_face_values(*cls.parse_dict(data, target))

    @staticmethod
    def parse_dict(data, target=None):
        """``(target, p, face_values)`` of a serialized simplex.

        Checks the shape only, not membership; a malformed shape raises
        ValueError.  ``target`` overrides the serialized one.  Every key
        must be the ``face_str`` of a face of the (p+1)-simplex, so a
        key names one face in one way, and every value must have one
        integer per generator.  Vertex names are single digits, which
        address vertices 0 to 9 only: degrees above 8 are refused.
        """
        if not isinstance(data, dict):
            raise ValueError("simplex must be a JSON object")
        if target is None:
            target = InvolutiveAbelianGroup.from_dict(data.get("target"))
        p = data.get("p")
        if not _is_int(p):
            raise ValueError("'p' must be an integer")
        if p < 0:
            raise ValueError("simplex degree must be nonnegative")
        if p > 8:
            raise ValueError("single-digit vertex names cap the degree at 8")
        raw = data.get("face_values")
        if not isinstance(raw, dict):
            raise ValueError("'face_values' must be a JSON object")
        top = _top_mask(p + 1)
        g = target.generator_count
        vals = {}
        for s, v in raw.items():
            digits = isinstance(s, str) and s.isascii() and s.isdigit()
            face = face_from_str(s) if digits else 0
            if not 0 < face <= top or face_str(face) != s:
                raise ValueError(f"{s!r} is not a face of the {p + 1}-simplex")
            if not isinstance(v, list) or not all(_is_int(x) for x in v):
                raise ValueError(f"malformed face value {s!r}: {v!r}")
            if len(v) != g:
                raise ValueError(
                    f"face value {s!r} has {len(v)} coordinates, not {g}")
            vals[face] = tuple(v)
        return target, p, vals


# -- constraint systems ---------------------------------------------------


@lru_cache(maxsize=None)
def _membership_rows(target, ambient):
    """Integer constraint rows for membership at the given ambient level.

    Unknowns: one coordinate block per proper face (dimension g each).
    Each row is a ``{unknown: coefficient}`` dict (an entry may cancel to
    zero), and each returned block of g rows must land in the relation
    lattice.
    """
    g = target.generator_count
    faces = _proper_faces(ambient)
    index = {f: k for k, f in enumerate(faces)}
    t_rows = target.involution
    top = _top_mask(ambient)
    rows = []

    def emit(ident_coeffs, act_coeffs):
        for r in range(g):
            row = {}
            for f, c in ident_coeffs.items():
                if f == top or c == 0:
                    continue
                k = index[f] * g + r
                row[k] = row.get(k, 0) + c
            for f, c in act_coeffs.items():
                if f == top or c == 0:
                    continue
                base = index[f] * g
                for j in range(g):
                    if t_rows[r][j]:
                        row[base + j] = row.get(base + j, 0) + c * t_rows[r][j]
            rows.append(row)

    # vanishing on the 0-th face region
    region = top & ~1
    for sigma in subfaces(region):
        if sigma != region:
            emit({sigma: 1, region: -1}, {})

    # face-horn duality at every face
    for sigma in _all_faces(ambient):
        d = face_dim(sigma)
        if d < 1:
            continue
        sgn = _sign(d)
        for i in range(d + 1):
            ident = {face_boundary(sigma, i): 1, sigma: -1}
            act = {}
            others = [face_boundary(sigma, j) for j in range(d + 1) if j != i]
            for mask in range(1, 1 << len(others)):
                inter = top
                bits = 0
                for b in range(len(others)):
                    if mask >> b & 1:
                        inter &= others[b]
                        bits += 1
                act[inter] = act.get(inter, 0) - sgn * _sign(bits + 1)
            act[sigma] = act.get(sigma, 0) + sgn
            emit(ident, act)

    return rows, len(faces)


def _face_blocks(degree, i):
    """The face map delta_i at simplex degree ``degree``, on face blocks.

    One pair per proper face sigma one degree down, in order: the block
    (index into ``_proper_faces(degree + 1)``) of the image of sigma under
    the (i+1)-st coface, and the block of the (i+1)-st boundary face of
    the top.  The block of delta_i(x) at sigma is their difference.
    """
    ambient = degree + 1
    index = {f: k for k, f in enumerate(_proper_faces(ambient))}
    base = index[_top_mask(ambient) & ~(1 << (i + 1))]
    return [(index[coface_face(sigma, i + 1)], base)
            for sigma in _proper_faces(degree)]


def _face_rows(target, degree, i):
    """Rows forcing delta_i = 0 at the given degree, as sparse dicts."""
    g = target.generator_count
    return [{k * g + r: 1, base * g + r: -1}
            for k, base in _face_blocks(degree, i) for r in range(g)]


def _apply_face(blocks, g, vec):
    """Coordinates of delta_i(x) one degree down, from raw coordinates and
    the ``_face_blocks`` of delta_i."""
    out = []
    for k, base in blocks:
        out.extend(x - y for x, y in zip(vec[k * g:(k + 1) * g],
                                         vec[base * g:(base + 1) * g]))
    return out


def _normalization_rows(target, degree):
    """Rows forcing delta_i = 0 for 1 <= i <= degree (on top of membership)."""
    return [row for i in range(1, degree + 1)
            for row in _face_rows(target, degree, i)]


def _delta0_rows(target, degree):
    """Rows forcing delta_0 = 0 at the given degree."""
    return _face_rows(target, degree, 0)


def _block_lattice_cols(target, n_blocks):
    """Relation columns of the target, one copy per g-coordinate block,
    as sparse dicts."""
    g = target.generator_count
    rel_cols = target.relation_columns()
    return [{k * g + i: x for i, x in enumerate(col) if x}
            for k in range(n_blocks) for col in rel_cols]


def _solution_basis(target, rows, n_unknowns):
    """Basis of {x : every g-block of C x lies in the relation lattice}."""
    g = target.generator_count
    if n_unknowns == 0:
        return []
    if len(rows) % g:
        raise AssertionError("constraint rows are not block aligned")
    den = _block_lattice_cols(target, len(rows) // g)
    return lattice.kernel_with_denominator(rows, den, n_unknowns)


@lru_cache(maxsize=None)
def _falg_basis(target, ambient):
    rows, n_faces = _membership_rows(target, ambient)
    g = target.generator_count
    return _solution_basis(target, rows, g * n_faces), n_faces


@lru_cache(maxsize=None)
def _normalized_basis(target, degree):
    ambient = degree + 1
    rows, n_faces = _membership_rows(target, ambient)
    rows = rows + _normalization_rows(target, degree)
    g = target.generator_count
    return _solution_basis(target, rows, g * n_faces), n_faces


def _vector_to_values(vec, g, faces):
    return {f: tuple(vec[k * g:(k + 1) * g]) for k, f in enumerate(faces)}


class FAlgGroup(Record):
    """The group of p-simplices, solved from the linear constraint system."""

    _fields = ("target", "degree", "isomorphism_type", "generator_vectors",
               "faces")

    def __init__(self, target, degree, isomorphism_type, generator_vectors,
                 faces):
        self.target = target
        self.degree = degree
        self.isomorphism_type = isomorphism_type
        self.generator_vectors = generator_vectors
        self.faces = faces

    @property
    def order(self):
        return self.isomorphism_type.order()

    def generators(self):
        g = self.target.generator_count
        return [FAlgElement.from_face_values(
            self.target, self.degree, _vector_to_values(v, g, self.faces))
            for v in self.generator_vectors]

    def element_vectors(self):
        """All solution vectors, canonically reduced per face block."""
        g = self.target.generator_count

        def reduce_vec(vec):
            out = []
            for k in range(len(self.faces)):
                out.extend(self.target.reduce(vec[k * g:(k + 1) * g]))
            return tuple(out)

        return lattice.span_elements(
            self.generator_vectors, self.isomorphism_type.invariant_factors,
            len(self.faces) * g, reduce_vec)

    def elements(self):
        g = self.target.generator_count
        for vec in self.element_vectors():
            yield FAlgElement.from_face_values(
                self.target, self.degree, _vector_to_values(vec, g, self.faces))


def _solved_group(target, degree, basis, n_faces):
    """The group spanned by ``basis`` modulo the relation blocks."""
    g = target.generator_count
    den = _block_lattice_cols(target, n_faces)
    factors, gens = lattice.quotient_with_generators(basis, den, g * n_faces)
    return FAlgGroup(target, degree, FgAbGroup.from_factors(factors), gens,
                     _proper_faces(degree + 1))


def falg_group(target, p):
    """Solve the membership constraints at simplex degree p (finite target)."""
    if p > 3:
        raise ValueError("constraint solving is capped at degree 3")
    if target.order() is None:
        raise ValueError("the constraint solver requires a finite target")
    return _solved_group(target, p, *_falg_basis(target, p + 1))


def normalized_group(target, degree):
    """The degree-n part of the normalized chain complex, as a group."""
    if target.order() is None:
        raise ValueError("normalized enumeration requires a finite target")
    return _solved_group(target, degree, *_normalized_basis(target, degree))


def moore_homotopy(target, n):
    """Homotopy of the simplicial group: homology of the normalized
    complex at degree n, computed purely from the constraint lattices.

    This path shares no code with ``homology_c2`` beyond the integer
    kernel, which is the point: the two must agree.
    """
    if n > 3:
        raise ValueError("homotopy computation is capped at degree 3")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if target.order() is None:
        raise ValueError("the constraint path requires a finite target")
    g = target.generator_count
    ambient = n + 1
    faces = _proper_faces(ambient)
    n_unknowns = g * len(faces)
    if g == 0:
        return FgAbGroup.trivial()

    rows, _ = _membership_rows(target, ambient)
    rows = rows + _normalization_rows(target, n)
    if n >= 1:
        rows += _delta0_rows(target, n)
    cycles = _solution_basis(target, rows, n_unknowns)

    upstairs, _ = _normalized_basis(target, n + 1)
    blocks = _face_blocks(n + 1, 0)
    boundary_cols = [_apply_face(blocks, g, v) for v in upstairs]
    den = boundary_cols + _block_lattice_cols(target, len(faces))
    return FgAbGroup.from_factors(lattice.quotient_factors(cycles, den))


class MooreComplex(Record):
    """Normalized chain complex data: per-degree lattice bases for the
    normalized subgroups."""

    _fields = ("target", "max_degree", "bases")

    def __init__(self, target, max_degree, bases):
        self.target = target
        self.max_degree = max_degree
        self.bases = bases

    def boundary_squares_to_zero(self):
        g = self.target.generator_count
        for m in range(self.max_degree - 1):
            upper, lower = _face_blocks(m + 2, 0), _face_blocks(m + 1, 0)
            for vec in self.bases[m + 2]:
                twice = _apply_face(lower, g, _apply_face(upper, g, vec))
                for k in range(len(twice) // g if g else 0):
                    if not self.target.is_zero_element(twice[k * g:(k + 1) * g]):
                        return False
        return True


def moore_complex(target, max_degree):
    bases = [_normalized_basis(target, m)[0] for m in range(max_degree + 1)]
    return MooreComplex(target, max_degree, bases)


def psi(element):
    """Evaluation at the 0-th vertex, defined on the normalized part."""
    if not element.is_normalized():
        raise ValueError("psi is defined on normalized simplices")
    return element.psi_value()


def psi_section(target, n, value):
    """The normalized simplex with given 0-th vertex evaluation.

    Inverts psi degreewise: all proper faces carry the value except the
    1-st boundary face, which carries (-1)^(n+1) times the acted value
    (for n = 0 the roles of the two vertices give the same shape).
    """
    value = target.reduce(value)
    acted = target.act(value)
    sgn = _sign(n + 1)
    signed = target.reduce(tuple(sgn * x for x in acted))
    ambient = n + 1
    top = _top_mask(ambient)
    special = top & ~2 if n >= 1 else 1 << 1
    vals = {}
    for f in _proper_faces(ambient):
        vals[f] = signed if f == special else value
    return FAlgElement.from_face_values(target, n, vals)


def psi_is_bijective(target, n):
    """Degreewise bijectivity of psi onto the target, by enumeration."""
    group = normalized_group(target, n)
    images = set()
    count = 0
    for el in group.elements():
        if not el.is_normalized():
            return False
        images.add(target.reduce(el.psi_value()))
        count += 1
    target_elems = set(target.elements())
    return count == len(target_elems) and images == target_elems
