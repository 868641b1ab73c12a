"""Torsion functors on contractible subcomplexes and the derived
simplicial abelian group.

A torsion functor is stored by its values on faces only, in one layout:
the reduced flat vector ``TorsionFunctor.flat``, face mask times g plus
coordinate.  A ``{face: value}`` dict is read only by ``iota_shriek``
and written only by ``TorsionFunctor.values``; the group law and the
structure maps gather over the flat vector.  Faces have one order, their
mask (``_all_faces``): the constraint systems give proper face f the
block f - 1.  Their identifications are pairs of face blocks; the
classes those merge come first, and each face-horn equation is written
once on them (``_presolve``, once per system for every target).  The
systems are solved, and their homotopy quotient taken, on the classes;
a solution copied from each class to its faces is a flat vector once
``_solved_group`` pads on the empty and the top block.  The value on
any other contractible subcomplex K is linear in the face values, one
integer form per complex (``_complex_form``) in closed form: face g of K
has the coefficient sum of (-1)^(dim f - dim g) over the faces f of K
that contain g.  This is Mobius inversion on the face lattice, a valuation
that takes each face value on that face's closure, so it is the value
every attachment order and every inclusion-exclusion would give.

The simplicial group built here has p-simplices the functors at ambient
dimension p+1 that vanish on the 0-th face region and satisfy face-horn
duality for every face.  Its normalized chain complex is degreewise
isomorphic to the two-periodic complex ... -> A -> A -> A -> 0 via the
evaluation psi at the 0-th vertex (``psi_is_bijective`` checks that on
the generators of the normalized group), so its homotopy
(``moore_homotopy``) is the C2-homology of A: the central comparison
this package verifies against the independent ``homology_c2``.

The element-level checks split their work by what it depends on.  The
combinatorics of an ambient simplex are computed once and cached
(``lru_cache``, filled on first use, never at import): the integer
form of each complex (``_complex_form``), the (face, omitted index)
pairs of its face-horn dualities (``_face_horns``) and, per involution
T, face and index set, one linear form per output coordinate of a
generalized duality (``_duality_form``, shared by every target with the
same action).  The duality holds when L(v) - sgn T(R(v)) lies in the
relation lattice, where L and R are the forms of the closures of the
boundary faces in the index set and in its complement.  Each
generalized duality is compiled once per target against the flat vector
of a functor (``_compiled_duality``, by ``_compile_checks``): with the
target's ``smith_basis``, a block of g forms lies in the relation lattice
exactly when each row of the left transform times the block takes a
multiple of its modulus, so each check becomes a few rows ``(getter,
coefficients, modulus)``, rows of modulus 1 dropped.  A face-horn duality
is the one at a single index (``_duality_ok``), and ``all_dualities_hold``
runs it at every horn; the element checks eliminate nothing.  Per functor
run its flat vector, reduced in one blockwise call, a complex form
evaluated on it and reduced once (``value_on``), and the compiled rows
of each check, one at a time until one fails (``_rows_vanish``).  These
checks are Z-linear modulo the relation lattice, so a solved group runs
them on its generators only (``FAlgGroup.elements``).  The
pushout squares need nothing per functor: every functor is built from
face values, and the forms make its squares hold by the valuation law
(``check_square``).  The constraints of the homotopy path
(``_membership_rows``: block pairs, and per face-horn duality one
target-free horn, integer rows only after their presolve) write each
face-horn duality from its own closed form, one signed term per face
containing the horn's vertex, and use none of these forms, so the
element checks and the constraint systems still cross-check each other.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter, mul, neg, sub

from . import lattice
from ._value import Frozen, Record
from .abelian import FgAbGroup, InvolutiveAbelianGroup, _is_int
from .simplicial import (SubComplex, _collapses_to_point, coface_face,
                         face_boundary, face_dim, face_str, face_from_str,
                         subfaces)

__all__ = [
    "TorsionFunctor",
    "FAlgElement",
    "FAlgGroup",
    "NotContractibleError",
    "iota_shriek",
    "check_square",
    "generalized_duality_holds",
    "mixed_duality_holds",
    "falg_group",
    "normalized_group",
    "moore_homotopy",
    "psi_is_bijective",
    "all_dualities_hold",
]


class NotContractibleError(ValueError):
    """A torsion functor was evaluated outside its domain."""


def _top_mask(p):
    return (1 << (p + 1)) - 1


def _all_faces(p):
    """The faces of the p-simplex in mask order, the one face order of
    this module: every proper subface of a face comes before it.  A
    ``range``, so a caller that stops early never pays for all
    2^(p+1) - 1 faces."""
    return range(1, _top_mask(p) + 1)


def _proper_faces(p):
    """The faces of the p-simplex but the top, in mask order: proper face
    f is block f - 1 of the constraint systems."""
    return range(1, _top_mask(p))


def _closure(faces):
    out = set()
    for f in faces:
        out.update(subfaces(f))
    return frozenset(out)


def _sign(k):
    return 1 if k % 2 == 0 else -1


def _check_faces(ambient, faces):
    """Refuse a nonempty collection of masks unless each is a face of the
    ambient simplex, a mask in 1..top."""
    if min(faces) < 1 or max(faces) > _top_mask(ambient):
        raise ValueError("face outside the ambient simplex")


# -- per-ambient plans: combinatorics shared by every functor -------------


@lru_cache(maxsize=None)
def _complex_form(faces):
    """The value of a functor on the closure K of ``faces`` as one integer
    form in its face values: the nonzero ``(face, coefficient)`` pairs,
    sorted by face, whose sum of coefficient * value(face) is the value
    before reduction, at every ambient that holds the faces.

    Face g of K has the coefficient c_g(K) = sum of (-1)^(dim f - dim g)
    over the faces f of K that contain g, that is 1 - chi(link of g in
    K): Mobius inversion on the Boolean face lattice (Rota, On the
    foundations of combinatorial theory I, 1964).  With the empty
    complex taking 0, K -> sum of c_g(K) * v_g is a valuation on all
    subcomplexes, F(K | L) + F(K & L) = F(K) + F(L), and it takes v_f on
    the closure of each face f.  Every face-attachment step, and every
    inclusion-exclusion over face closures, uses only these two facts,
    so each of them computes this same form: no attachment order needs
    choosing, and no two orders can disagree.
    """
    closure = _closure(faces)
    # sum of (-1)^dim f over the faces f of K containing g, one vertex at
    # a time: a face outside K has no superset in K, so K is the domain
    total = {f: _sign(face_dim(f)) for f in closure}
    for i in range(max(closure, default=0).bit_length()):
        bit = 1 << i
        for g in closure:
            if not g & bit and g | bit in total:
                total[g] += total[g | bit]
    return tuple((g, c) for g in sorted(closure)
                 if (c := _sign(face_dim(g)) * total[g]))


def _compile_row(terms):
    """A linear form over a flat vector, from its ``(index, coefficient)``
    terms, as ``(getter, coefficients)``: its value on ``vec`` is
    ``sum(map(mul, coefficients, getter(vec)))``.  A form of fewer than
    two terms is padded with index 0 at coefficient 0, so that the
    ``itemgetter`` always returns a tuple."""
    terms = list(terms) + [(0, 0)] * (2 - len(terms))
    index, coeffs = zip(*terms)
    return itemgetter(*index), coeffs


def _compile_checks(target, block):
    """A block of g linear forms over a flat vector, to be tested for
    membership in the relation lattice, compiled into rows ``(getter,
    coefficients, modulus)`` for ``_rows_vanish``.

    A block is a sequence of ``(key, coefficient)`` terms as
    ``_duality_form`` writes them, key i*g + r for the coefficient of
    form r on index i.  With ``(moduli, left)`` the target's
    ``smith_basis``, a block F lies in the lattice exactly when row i of
    left * F takes a multiple of ``moduli[i]``, and 0 where that modulus
    is 0.  Rows of modulus 1 always hold and are dropped; every other row
    is reduced modulo its modulus (a row of modulus m > 0 matters only
    modulo m) and compiled by ``_compile_row``, in the order of the
    moduli.
    """
    moduli, left = target.smith_basis
    g = target.generator_count
    rows = []
    for m, u_row in zip(moduli, left):
        if m == 1:
            continue
        form = {}
        for k, c in block:
            i, r = divmod(k, g)
            form[i] = form.get(i, 0) + u_row[r] * c
        terms = [(i, x) for i, c in sorted(form.items())
                 if (x := c % m if m else c)]
        if terms:
            rows.append(_compile_row(terms) + (m,))
    return tuple(rows)


def _rows_vanish(rows, vec):
    """Whether every row ``(getter, coefficients, modulus)`` of ``rows``
    takes ``vec`` to a multiple of its modulus (to 0 for modulus 0), row
    by row, stopping at the first that does not."""
    for get, coeffs, m in rows:
        x = sum(map(mul, coeffs, get(vec)))
        if x % m if m else x:
            return False
    return True


class TorsionFunctor:
    """Functor on contractible subcomplexes of the ambient simplex,
    valued in an involutive abelian group, given by its face values
    alone: its value on a complex is the complex's integer form in the
    face values (``_complex_form``), reduced once, and that form is a
    valuation, so every functor satisfies the pushout-square condition.

    The face values live in one layout, the reduced flat tuple ``flat``:
    the g coordinates of the face with mask f sit at f*g .. f*g + g - 1,
    with zeros for the empty mask 0 and the top face.  The constructor
    takes that vector, reduces it, and refuses a wrong length or a
    nonzero empty or top block.  A ``{face: value}`` dict is read only by
    ``iota_shriek`` and written only by ``values``.
    """

    __slots__ = ("ambient", "target", "flat")

    def __init__(self, ambient, target, flat):
        self.ambient = ambient
        self.target = target
        g = target.generator_count
        top = _top_mask(ambient)
        if len(flat) != (top + 1) * g:
            raise ValueError("flat vector has the wrong length")
        self.flat = flat = target.reduce(flat)
        if any(flat[top * g:]):
            raise ValueError("the top face value must be zero")
        if any(flat[:g]):
            raise ValueError("the empty face carries no value")

    @property
    def values(self):
        """A fresh ``{face: value}`` dict of every face, the top included."""
        g, flat = self.target.generator_count, self.flat
        return {f: flat[f * g:f * g + g]
                for f in range(1, _top_mask(self.ambient) + 1)}

    # -- group structure -------------------------------------------------

    @classmethod
    def zero(cls, ambient, target):
        return cls(ambient, target,
                   (0,) * ((_top_mask(ambient) + 1) * target.generator_count))

    def _binary(self, other, op):
        """``op`` on the face values."""
        if not isinstance(other, TorsionFunctor) \
                or other.ambient != self.ambient \
                or other.target != self.target:
            raise ValueError("functor mismatch")
        return TorsionFunctor(self.ambient, self.target,
                              tuple(map(op, self.flat, other.flat)))

    def __add__(self, other):
        return self._binary(other, add)

    def __sub__(self, other):
        return self._binary(other, sub)

    def __neg__(self):
        return TorsionFunctor(self.ambient, self.target,
                              tuple(map(neg, self.flat)))

    def is_zero(self):
        return not any(self.flat)

    def __eq__(self, other):
        return (isinstance(other, TorsionFunctor)
                and self.ambient == other.ambient
                and self.target == other.target
                and self.flat == other.flat)

    def __hash__(self):
        return hash((self.ambient, self.flat))

    # -- evaluation --------------------------------------------------------

    def value_on(self, complex_or_faces):
        """tau(ambient simplex, K) for K the closure of the faces given,
        which must be contractible: the form of K on the face values.  A
        mask that is no face of the ambient simplex raises ValueError."""
        if isinstance(complex_or_faces, SubComplex):
            faces = frozenset(complex_or_faces.faces)
        else:
            faces = frozenset(complex_or_faces)
        if not faces:
            raise NotContractibleError("empty complex")
        _check_faces(self.ambient, faces)
        faces = _closure(faces)
        if not _collapses_to_point(faces):
            raise NotContractibleError(
                "torsion functors are defined on contractible subcomplexes only")
        return self._combine(_complex_form(faces))

    def pair_value(self, larger, smaller):
        """tau(L, K) = tau(top, K) - tau(top, L) for K inside L."""
        vl = self.value_on(larger)
        vk = self.value_on(smaller)
        return self.target.reduce(tuple(x - y for x, y in zip(vk, vl)))

    def _combine(self, form):
        """The ``(face, coefficient)`` form on the face values: one
        unreduced integer sum per coordinate, reduced once."""
        g, flat = self.target.generator_count, self.flat
        return self.target.reduce(
            [sum([c * flat[f * g + r] for f, c in form]) for r in range(g)])

    # -- cosimplicial structure maps ----------------------------------------

    def coface_restrict(self, j):
        """Restriction along the coface embedding the (ambient-1)-simplex
        as the j-th boundary face: each face's value less that face's, one
        gather over the face masks, the empty mask left zero."""
        p = self.ambient
        if p == 0 or not 0 <= j <= p:
            raise IndexError("coface index out of range")
        g, flat = self.target.generator_count, self.flat
        base = (_top_mask(p) & ~(1 << j)) * g
        shift = flat[base:base + g]
        out = [0] * g
        for sigma in range(1, _top_mask(p - 1) + 1):
            f = coface_face(sigma, j) * g
            out += map(sub, flat[f:f + g], shift)
        return TorsionFunctor(p - 1, self.target, out)

    def __repr__(self):
        parts = ", ".join(f"{face_str(f)}:{list(v)}"
                          for f, v in sorted(self.values.items()))
        return f"TorsionFunctor(p={self.ambient}, {{{parts}}})"


def iota_shriek(face_values, p, target):
    """The functor at ambient p with the ``{face: value}`` dict given, its
    one reader.  The faces are checked as they are laid out, in mask
    order: the least face whose value is missing (the top's may be) or
    not of g coordinates raises ValueError.
    """
    g = target.generator_count
    top = _top_mask(p)
    flat = [0] * g
    for face in _all_faces(p):
        vec = face_values.get(face)
        if vec is None:
            if face != top:
                raise ValueError(f"missing value on face {face_str(face)}")
            vec = (0,) * g
        elif len(vec) != g:
            raise ValueError("face value has wrong coordinate length")
        flat += vec
    return TorsionFunctor(p, target, flat)


def check_square(tf):
    """The pushout-square condition, which every functor satisfies: its
    value on a complex K is the form F(K) of ``_complex_form``, and F is
    a valuation (Rota, On the foundations of combinatorial theory I,
    1964), so on a pushout square F(K0 & K1) + F(K0 | K1) - F(K0) - F(K1)
    is the zero form.  A raw pullback along a codegeneracy, which is no
    functor built from face values, can break it; the tests keep that
    counterexample, as its values on every contractible subcomplex, and
    check it square by square.
    """
    return True


@lru_cache(maxsize=None)
def _duality_form(involution, ambient, sigma, index_set):
    """The generalized duality of face ``sigma`` at ``index_set`` under
    the involution T, as one linear form.

    Raises ValueError unless sigma is a face of the ambient simplex and
    the index set a proper nonempty subset of its boundary indices,
    IndexError for an index out of range.  Let L = sum of c_f * v_f -
    v_sigma over the form (``_complex_form``) of the closure of the
    boundary faces in the index set, R the same over the complementary
    boundary faces, and sgn = (-1)^dim(sigma).  The duality holds
    exactly when L(v) - sgn * T(R(v)) lies in the
    relation lattice: reducing either side first only subtracts lattice
    vectors, and T preserves the lattice.  That map is linear in the face
    values, so it is stored as one block: a sorted tuple of ``(key,
    coefficient)`` terms, zeros dropped, whose key i*g + r says that
    output coordinate r takes coefficient * flat[i], for flat index
    i = f*g + j, coordinate j of face f, in the layout of
    ``TorsionFunctor``.  For even-dimensional sigma under the identity
    (odd under -1) the two ``(sigma, -1)`` terms cancel.  The form
    depends on the target only through ``involution``, so it is cached
    per involution and shared by every target with that action; each
    target compiles it against its own relations (``_compiled_duality``).
    """
    _check_faces(ambient, (sigma,))
    d = face_dim(sigma)
    idx = sorted(set(index_set))
    if not idx or len(idx) > d:
        raise ValueError("the index set must be a proper nonempty subset")
    if idx[0] < 0 or idx[-1] > d:
        raise IndexError("boundary index out of range")
    bounds = [face_boundary(sigma, j) for j in range(d + 1)]
    lhs = _complex_form(frozenset(bounds[j] for j in idx)) + ((sigma, -1),)
    rhs = _complex_form(frozenset(b for j, b in enumerate(bounds)
                                  if j not in idx)) + ((sigma, -1),)
    sgn = _sign(d)
    g = len(involution)
    coeffs = {}
    for r, t_row in enumerate(involution):
        for f, c in lhs:
            coeffs[f, r, r] = coeffs.get((f, r, r), 0) + c
        for f, c in rhs:
            for j, t in enumerate(t_row):
                coeffs[f, j, r] = coeffs.get((f, j, r), 0) - sgn * c * t
    return tuple(((f * g + j) * g + r, c)
                 for (f, j, r), c in sorted(coeffs.items()) if c)


@lru_cache(maxsize=None)
def _compiled_duality(target, ambient, sigma, index_set):
    """The generalized duality of ``sigma`` at ``index_set`` for
    ``target``, as the rows of ``_compile_checks``."""
    return _compile_checks(target, _duality_form(target.involution, ambient,
                                                 sigma, index_set))


def _duality_ok(tf, sigma, i):
    """Face-horn duality of tau at ``sigma`` for the omitted index i: the
    generalized duality at the index set {i}."""
    return _rows_vanish(_compiled_duality(tf.target, tf.ambient, sigma, (i,)),
                        tf.flat)


@lru_cache(maxsize=None)
def _face_horns(ambient):
    """Every ``(sigma, i)`` with sigma a face of dimension >= 1 of the
    ambient simplex and 0 <= i <= dim sigma, in ``_all_faces`` order."""
    return tuple((sigma, i) for sigma in _all_faces(ambient)
                 if face_dim(sigma) >= 1 for i in range(face_dim(sigma) + 1))


def all_dualities_hold(tf):
    """Face-horn duality at every face: ``_duality_ok`` at each horn of
    ``_face_horns``, stopping at the first that fails."""
    return all(_duality_ok(tf, sigma, i)
               for sigma, i in _face_horns(tf.ambient))


def generalized_duality_holds(tf, sigma, index_set):
    """tau(sigma, boundary union over I) against the complementary union:
    the rows that ``_compile_checks`` makes of ``_duality_form``."""
    return _rows_vanish(_compiled_duality(tf.target, tf.ambient, sigma,
                                          tuple(index_set)), tf.flat)


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


# -- the simplicial abelian group ----------------------------------------


def _z_condition_holds(tf):
    g, flat = tf.target.generator_count, tf.flat
    region = _top_mask(tf.ambient) & ~1
    base = flat[region * g:region * g + g]
    return all(flat[f * g:f * g + g] == base for f in subfaces(region))


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

    @classmethod
    def _unchecked(cls, functor):
        """An element whose checks hold by construction, unchecked."""
        self = cls.__new__(cls)
        self._freeze(functor)
        return self

    @property
    def degree(self):
        return self.functor.ambient - 1

    @classmethod
    def from_face_values(cls, target, p, face_values):
        return cls(iota_shriek(face_values, p + 1, target))

    @classmethod
    def zero(cls, target, p):
        return cls(TorsionFunctor.zero(p + 1, target))

    def __add__(self, other):
        return FAlgElement(self.functor + other.functor)

    def __sub__(self, other):
        return FAlgElement(self.functor - other.functor)

    def __neg__(self):
        return FAlgElement(-self.functor)

    def is_zero(self):
        return self.functor.is_zero()

    def face(self, i):
        """delta_i: restriction along the (i+1)-st coface, unchecked.  A
        face map is a homomorphism of the simplicial group, so a face of
        an element is an element, as ``FAlgGroup.elements`` argues for
        what it yields."""
        p = self.degree
        if p == 0:
            raise IndexError("0-simplices have no faces")
        if not 0 <= i <= p:
            raise IndexError("face index out of range")
        return FAlgElement._unchecked(self.functor.coface_restrict(i + 1))

    def is_normalized(self):
        return all(self.face(i).is_zero() for i in range(1, self.degree + 1))

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
def _membership_rows(ambient):
    """The membership constraints at the given ambient level as face-block
    ``(pairs, horns, n_blocks)``; every target shares them.

    Block k is the proper face with mask k + 1, which is block k + 1 of
    the flat layout of ``TorsionFunctor``: that drops only the empty and
    the top block.  A pair ``(a, b)`` says that x_a - x_b lies in the
    relation lattice: each face of the 0-th face region against the
    region.  A horn ``(face, sigma, terms)`` is face-horn duality at a
    face sigma of dimension d >= 1 and index i, face its i-th boundary
    face: x(face) - x(sigma) + (-1)^d sum of (-1)^(d - dim tau) T x(tau)
    over the faces tau of sigma that hold its i-th vertex lies in the
    relation lattice, T the target's involution.  That sum, the ``(tau,
    coefficient)`` blocks of ``terms``, is the inclusion-exclusion over
    the other boundary faces, as each such tau is the intersection of
    exactly one set of them.  The top face has no block: its sigma is
    None, and it is no tau.
    """
    top = _top_mask(ambient)
    region = top & ~1
    pairs = tuple((sigma - 1, region - 1) for sigma in subfaces(region)
                  if sigma != region)
    horns = []
    for sigma in _all_faces(ambient):
        d = face_dim(sigma)
        if d < 1:
            continue
        sgn = _sign(d)
        # one (block, coefficient) term per subface, shared by its horns
        terms = [(tau, (tau - 1, sgn * _sign(d - face_dim(tau))))
                 for tau in subfaces(sigma) if tau != top]
        for i in range(d + 1):
            face = face_boundary(sigma, i)
            vertex = sigma & ~face
            horns.append((face - 1, sigma - 1 if sigma != top else None,
                          tuple([term for tau, term in terms
                                 if tau & vertex])))
    return pairs, tuple(horns), top - 1


@lru_cache(maxsize=None)
def _face_rows(degree, i):
    """The face map delta_i at the given degree, as face-block pairs.

    The pair of a proper face sigma one degree down is delta_i(x) at
    sigma: the block of the image of sigma under the (i+1)-st coface
    against the block of the (i+1)-st boundary face of the top.
    Identifying every pair forces delta_i = 0.
    """
    base = (_top_mask(degree + 1) & ~(1 << (i + 1))) - 1
    return tuple((coface_face(sigma, i + 1) - 1, base)
                 for sigma in _proper_faces(degree))


def _expand(target, eqs):
    """The zero-free integer rows of face-block equations ``{k: (a, b)}``:
    row r of an equation is coordinate r of the sum of (a + b T) x_k."""
    g = target.generator_count
    rows = []
    for eq in eqs:
        for r, t_row in enumerate(target.involution):
            row = {}
            for k, (a, b) in eq.items():
                for j, t in enumerate(t_row):
                    if x := a * (j == r) + b * t:
                        row[k * g + j] = x
            rows.append(row)
    return rows


def _normalization_rows(degree):
    """Pairs forcing delta_i = 0 for 1 <= i <= degree."""
    return tuple(pair for i in range(1, degree + 1)
                 for pair in _face_rows(degree, i))


def _delta0_rows(degree):
    """Pairs forcing delta_0 = 0 at the given degree."""
    return _face_rows(degree, 0)


def _block_lattice_cols(target, n_blocks):
    """Relation columns of the target, one copy per g-coordinate block,
    as sparse dicts."""
    g = target.generator_count
    rel_cols = target.relation_columns()
    return [{k * g + i: x for i, x in enumerate(col) if x}
            for k in range(n_blocks) for col in rel_cols]


@lru_cache(maxsize=None)
def _presolve(degree, system):
    """One system of the p-simplices at degree p on the classes of face
    blocks that its pairs identify, which every target shares:
    ``"all"`` (membership), ``"normalized"`` (and delta_i = 0 for
    i >= 1) or ``"cycles"`` (and delta_0 = 0 too, from degree 1 up).

    Returns ``(cls, reduced)``, both tuples: the class of each face
    block, numbered by first block, and each horn written once onto one
    block per class as an equation ``{class: (a, b)}``, the sum of
    (a + b T) x_class lying in the relation lattice, keyed in class
    order; a horn that vanishes on the classes is dropped, and of equal
    equations only the first is kept.
    """
    pairs, horns, n_blocks = _membership_rows(degree + 1)
    if system != "all":
        pairs += _normalization_rows(degree)
    if system == "cycles" and degree >= 1:
        pairs += _delta0_rows(degree)
    parent = list(range(n_blocks))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for pair in pairs:
        a, b = sorted(map(find, pair))
        parent[b] = a
    number = {}
    cls = tuple(number.setdefault(find(a), len(number))
                for a in range(n_blocks))
    reduced = {}
    for face, sigma, terms in horns:
        ident = {cls[face]: 1}
        if sigma is not None:
            ident[cls[sigma]] = ident.get(cls[sigma], 0) - 1
        act = {}
        for tau, c in terms:
            act[cls[tau]] = act.get(cls[tau], 0) + c
        if eq := tuple((k, ab) for k in sorted(ident.keys() | act.keys())
                       if (ab := (ident.get(k, 0), act.get(k, 0))) != (0, 0)):
            reduced.setdefault(eq)
    return cls, tuple(map(dict, reduced))


def _class_lattice(target, degree, system):
    """The solution lattice of a system in face-class coordinates, with
    the number of classes and ``cls``.

    The lattice is {x in Z^(C g) : every reduced equation holds modulo
    the relation lattice L}, C the number of classes, one relation block
    per reduced equation.  Each coefficient a + b T preserves L, so it
    contains L^C; copied from each class to all of its member faces, with
    L on every face added, it is the solution lattice of the whole
    system.
    """
    cls, reduced = _presolve(degree, system)
    n_classes = max(cls) + 1
    basis = lattice.kernel_with_denominator(
        _expand(target, reduced), _block_lattice_cols(target, len(reduced)),
        n_classes * target.generator_count)
    return basis, n_classes, cls


class FAlgGroup(Record):
    """The group of p-simplices, solved from the linear constraint system.

    ``mixed_radix`` is ``(vectors, radices)`` from
    ``lattice.quotient_with_generators`` on the face classes, the vectors
    copied to the flat layout of ``TorsionFunctor``."""

    _fields = ("target", "degree", "isomorphism_type", "mixed_radix")

    def __init__(self, target, degree, isomorphism_type, mixed_radix):
        self.target = target
        self.degree = degree
        self.isomorphism_type = isomorphism_type
        self.mixed_radix = mixed_radix

    def elements(self):
        """Every element once, from the mixed-radix digits, which the
        ``TorsionFunctor`` constructor reduces.

        Before the first is yielded, each generator vector is checked as
        an ``FAlgElement``, and no element after that.  The z-condition
        and every face-horn duality each ask that a Z-linear map of the
        flat vector land in the relation lattice, and each map takes
        relation vectors to relation vectors: the vectors that pass form
        a subgroup closed under reduction, so generators that pass prove
        every reduced Z-combination of them.
        """
        ambient = self.degree + 1
        gens, radices = self.mixed_radix
        for flat in gens:
            FAlgElement(TorsionFunctor(ambient, self.target, flat))
        dim = (_top_mask(ambient) + 1) * self.target.generator_count
        for flat in lattice.span_elements(gens, radices, dim):
            yield FAlgElement._unchecked(
                TorsionFunctor(ambient, self.target, flat))


def _solved_group(target, degree, system):
    """The solutions of a system modulo the relation blocks: its class
    lattice modulo L^C.  Each mixed-radix generator is copied from each
    class to the blocks of its faces, which are already in mask order, so
    with the empty and the top block padded on it is the flat vector of
    ``TorsionFunctor``."""
    basis, n_classes, cls = _class_lattice(target, degree, system)
    g = target.generator_count
    factors, gens, radices = lattice.quotient_with_generators(
        basis, _block_lattice_cols(target, n_classes), n_classes * g)
    pad = [0] * g
    flats = [pad + [gen[c * g + r] for c in cls for r in range(g)] + pad
             for gen in gens]
    return FAlgGroup(target, degree, FgAbGroup.from_factors(factors),
                     (flats, radices))


def falg_group(target, p):
    """Solve the membership constraints at simplex degree p."""
    if p > 3:
        raise ValueError("constraint solving is capped at degree 3")
    if p < 0:
        raise ValueError("degree must be nonnegative")
    return _solved_group(target, p, "all")


def normalized_group(target, degree):
    """The degree-n part of the normalized chain complex, as a group."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _solved_group(target, degree, "normalized")


def moore_homotopy(target, n):
    """Homotopy of the simplicial group: homology of the normalized
    complex at degree n, computed purely from the constraint lattices.

    The quotient is taken on the face classes of the cycle system.  Let
    pi read a vector at the first face of each class: on the cycles plus
    the relation blocks L^F it is onto the cycles' class lattice K, with
    kernel L^F, so the homotopy is K modulo pi of the boundaries plus
    L^C.  The boundaries are delta_0 of the normalized class lattice one
    degree up, whose value at a face sigma is x(coface(sigma, 1)) minus
    x at the first boundary face of the top; delta_0 maps the relation
    blocks upstairs into L^F, so only the class lattice's basis needs
    mapping.  This path shares no code with ``homology_c2`` beyond the
    integer kernel, which is the point: the two must agree.
    """
    if n > 3:
        raise ValueError("homotopy computation is capped at degree 3")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    cycles, n_classes, cls = _class_lattice(target, n, "cycles")
    upstairs, _, up_cls = _class_lattice(target, n + 1, "normalized")
    g = target.generator_count
    base = up_cls[(_top_mask(n + 2) & ~2) - 1]
    read = [up_cls[coface_face(cls.index(c) + 1, 1) - 1]
            for c in range(n_classes)]
    den = [{c * g + r: x for c, u in enumerate(read) for r in range(g)
            if (x := vec.get(u * g + r, 0) - vec.get(base * g + r, 0))}
           for vec in upstairs]
    den += _block_lattice_cols(target, n_classes)
    return FgAbGroup.from_factors(lattice.quotient_factors(cycles, den))


def psi_is_bijective(target, n):
    """Degreewise bijectivity of psi, evaluation at the 0-th vertex, from
    the normalized group at degree n onto the target.

    Each mixed-radix generator is checked once as an ``FAlgElement`` and
    must be normalized.  psi and the face maps are Z-linear modulo the
    relation lattice, so generators that pass prove the whole group.
    psi is onto when its values on the generators and the target's
    relations span Z^g, and a surjection between isomorphic finitely
    generated abelian groups is injective, so no element is listed and
    free targets are answered too.
    """
    group = normalized_group(target, n)
    gens = group.mixed_radix[0]
    if not all(FAlgElement(TorsionFunctor(n + 1, target, flat)).is_normalized()
               for flat in gens):
        return False
    g = target.generator_count
    images = [flat[g:2 * g] for flat in gens] + target.relation_columns()
    return (not lattice.cokernel_factors(images, g)
            and group.isomorphism_type == target.isomorphism_type())
