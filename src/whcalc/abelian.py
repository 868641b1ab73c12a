"""Finitely generated abelian groups with involution and their C2-homology.

A group is presented as Z^g modulo the column lattice of an integer
relation matrix, together with a g x g involution matrix giving the full
action of the order-two symmetry (any dimension-dependent sign is baked
into that matrix by the caller; see ``InvolutiveAbelianGroup.parity_action``).
As in ``lattice``, a matrix is a sequence of int rows and a generating
set is a list of column vectors; a group stores its two matrices as
tuples of row tuples, so groups are hashable and equal by value.
Homology and Tate homology are cokernels and quotients of the stacked
relation/action matrices on the sparse elimination of ``lattice``; the
textbook closed forms only appear in tests, as oracles.  A group reads
its isomorphism type off what it stored when it was built: it puts the
moduli of its ``smith_basis``, which need not divide one another, into
a chain.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import lattice
from ._value import Frozen

__all__ = [
    "FgAbGroup",
    "InvolutiveAbelianGroup",
    "DoubleSubgroup",
    "homology_c2",
    "tate_homology_c2",
    "double_subgroup",
]


def _factor_chain(values):
    """Canonical invariant-factor chain from an arbitrary factor list.

    Replacing a pair (a, b) by (gcd, lcm) keeps every prime's multiset of
    exponents; done for every pair i < j in order, it leaves each entry
    dividing all later ones, so no factor is ever factored.
    """
    free = sum(1 for v in values if v == 0)
    chain = [abs(v) for v in values if abs(v) > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            d = gcd(a, b)
            chain[i], chain[j] = d, a // d * b
    return tuple(c for c in chain if c != 1) + (0,) * free


class FgAbGroup(Frozen):
    """Finitely generated abelian group by invariant factors d1 | d2 | ...

    A factor 0 denotes a free summand; no factor equals 1.
    """

    _fields = ("invariant_factors",)

    def __init__(self, invariant_factors):
        facs = tuple(int(x) for x in invariant_factors)
        torsion = [f for f in facs if f != 0]
        if any(f < 2 for f in torsion):
            raise ValueError("invariant factors must be 0 or at least 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if facs != tuple(torsion) + (0,) * (len(facs) - len(torsion)):
            raise ValueError("free factors must come last")
        self._freeze(facs)

    @classmethod
    def from_factors(cls, values):
        return cls(_factor_chain(values))

    def is_trivial(self):
        return not self.invariant_factors

    def to_dict(self):
        return {"invariant_factors": list(self.invariant_factors)}

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join("Z" if f == 0 else f"Z/{f}"
                          for f in self.invariant_factors)


class InvolutiveAbelianGroup(Frozen):
    """Z^g modulo the relation columns, with a full order-two action.

    The involution matrix is the complete action of the group generator
    (including any parity sign); it must square to the identity modulo
    the relation lattice and preserve that lattice.  The group keeps that
    lattice (``relation_lattice``) and its ``lattice.smith_basis``
    (``smith_basis``), both taken once when it is built; neither is an
    lru cache, so building a group fills none.
    """

    _fields = ("generator_count", "relations", "involution")

    def __init__(self, generator_count, relations, involution):
        g = generator_count
        rel = tuple(tuple(int(x) for x in row) for row in relations)
        inv = tuple(tuple(int(x) for x in row) for row in involution)
        if len(rel) != g or len({len(row) for row in rel}) > 1:
            raise ValueError(
                f"relations must be {g} rows of one length, one per "
                f"generator: a free group takes [[]] * {g}")
        if len(inv) != g or any(len(row) != g for row in inv):
            raise ValueError(f"involution must be a {g} x {g} matrix")
        self._freeze(g, rel, inv)
        # the element checks look their compiled rows up by group on every
        # call, and hashing the nested field tuple each time took a quarter
        # of a generalized duality
        object.__setattr__(self, "_hash", hash(self._key))
        rel_cols = self.relation_columns()
        lat = lattice.Lattice(rel_cols, g)
        object.__setattr__(self, "_lattice", lat)
        for j, col in enumerate(lattice.columns_of(inv)):
            col = lattice.mat_vec(inv, col)  # column j of T^2
            col[j] -= 1
            if not lat.contains(col):
                raise ValueError("involution does not square to the identity")
        for col in rel_cols:
            if not lat.contains(lattice.mat_vec(inv, col)):
                raise ValueError("involution does not preserve the relations")
        object.__setattr__(self, "smith_basis",
                           lattice.smith_basis(rel_cols, g))

    def __hash__(self):
        return self._hash

    # -- constructors -------------------------------------------------

    @classmethod
    def from_factors(cls, factors, sign=1):
        """Direct sum of Z/d (d=0 meaning Z) with the action sign * id."""
        factors = list(factors)
        g = len(factors)
        cols = []
        for i, d in enumerate(factors):
            if d:
                col = [0] * g
                col[i] = d
                cols.append(col)
        inv = [[sign * (i == j) for j in range(g)] for i in range(g)]
        return cls(g, lattice.from_columns(cols, g), inv)

    @classmethod
    def free(cls, rank, sign=1):
        return cls.from_factors([0] * rank, sign)

    def parity_action(self, d):
        """Same group with the action rescaled by (-1)^(d-1).

        Bakes the dimension convention for torsion modules into the
        stored involution, so homology computations never see ``d``.
        """
        sign = 1 if (d - 1) % 2 == 0 else -1
        return InvolutiveAbelianGroup(
            self.generator_count, self.relations,
            [[sign * x for x in row] for row in self.involution])

    # -- element helpers ----------------------------------------------

    def relation_columns(self):
        """The relation generators, as a list of column vectors."""
        return lattice.columns_of(self.relations)

    def relation_lattice(self):
        """The relation lattice, built once when the group is created."""
        return self._lattice

    def reduce(self, vec):
        return self.relation_lattice().reduce(vec)

    def act(self, vec):
        return tuple(lattice.mat_vec(self.involution, vec))

    def is_zero_element(self, vec):
        return self._lattice.contains(vec)

    def isomorphism_type(self):
        """The moduli of ``smith_basis``, put into a chain."""
        return FgAbGroup.from_factors(self.smith_basis[0])

    # -- parsing --------------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        """The group of a ``{"generators", "relations", "involution"}``
        presentation, rows as lists; a malformed shape raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("group presentation must be a JSON object")
        g = data.get("generators")
        if not _is_int(g) or g < 0:
            raise ValueError("'generators' must be a nonnegative integer")
        if not g:
            return cls(0, (), ())
        # the involution's row count bounds g by the input's size before
        # any row, or the default empty relation rows, is built
        inv_rows = _int_rows(data.get("involution"), "involution", g)
        rel_rows = _int_rows(data.get("relations") or [[] for _ in range(g)],
                             "relations", g)
        return cls(g, rel_rows, inv_rows)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int_rows(rows, name, count):
    """``rows`` as ``count`` equally long integer lists, else ValueError.

    The row count is checked before any row is looked at.
    """
    if not isinstance(rows, list):
        raise ValueError(f"'{name}' must be a list of integer rows")
    if len(rows) != count:
        raise ValueError(f"'{name}' must have one row per generator")
    if not all(isinstance(r, list) and all(_is_int(x) for x in r) for r in rows):
        raise ValueError(f"'{name}' must be a list of integer rows")
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"'{name}' rows must have equal length")
    return rows


def _one_plus(a, s):
    """Rows of 1 + s*T for the stored involution T of ``a``."""
    return [[(i == j) + s * x for j, x in enumerate(row)]
            for i, row in enumerate(a.involution)]


@lru_cache(maxsize=None)
def _norm_subquotient(a, eps):
    """ker(1 - eps*T) / im(1 + eps*T) inside A, as a lattice quotient."""
    g = a.generator_count
    rel_cols = a.relation_columns()
    numerator = lattice.kernel_with_denominator(_one_plus(a, -eps), rel_cols, g)
    denominator = lattice.columns_of(_one_plus(a, eps)) + rel_cols
    return FgAbGroup.from_factors(
        lattice.quotient_factors(numerator, denominator))


def _coinvariants(a):
    """A / {b - b*}: cokernel of the stacked relation/action matrix."""
    g = a.generator_count
    gens = a.relation_columns() + lattice.columns_of(_one_plus(a, -1))
    return FgAbGroup.from_factors(lattice.cokernel_factors(gens, g))


def homology_c2(a, n):
    """H_n of the order-two group with coefficients in A (full action).

    Degree 0 is the coinvariants A/{b - b*}; for n >= 1 the group is the
    subquotient {a = (-1)^(n+1) a*} / {b + (-1)^(n+1) b*}, computed as a
    lattice quotient of the stacked matrices (the closed forms serve as
    independent oracles in the test suite).
    """
    if n < 0:
        raise ValueError("homology degree must be nonnegative")
    if n == 0:
        return _coinvariants(a)
    eps = 1 if n % 2 == 1 else -1  # (-1)^(n+1)
    return _norm_subquotient(a, eps)


def tate_homology_c2(a, n):
    """Tate homology of the order-two group in any integer degree.

    Positive degrees agree with ``homology_c2``.  Every degree n <= 0 is
    a norm-map subquotient, periodic of period two: the kernel/cokernel
    subquotient ker(1 + T)/im(1 - T) at even n, ker(1 - T)/im(1 + T) at
    odd n (degrees <= -2 are group cohomology in degree -n-1).
    """
    if n >= 1:
        return homology_c2(a, n)
    return _norm_subquotient(a, -1 if n % 2 == 0 else 1)


class DoubleSubgroup(Frozen):
    """Image of id + (-1)^d * involution, as a subgroup of A."""

    _fields = ("subgroup", "quotient")

    def __init__(self, subgroup, quotient):
        self._freeze(subgroup, quotient)


def double_subgroup(a, d):
    """Subgroup {sigma + (-1)^d sigma*} of A, for the stored involution.

    Here the stored matrix is read as the raw algebraic involution and
    the dimension parity is applied explicitly; the quotient A/D agrees
    with ``homology_c2(.., 0)`` exactly when the stored action already
    matches the parity convention.
    """
    sign = 1 if d % 2 == 0 else -1
    g = a.generator_count
    rel_cols = a.relation_columns()
    gens = lattice.columns_of(_one_plus(a, sign)) + rel_cols
    sub = FgAbGroup.from_factors(lattice.quotient_factors(gens, rel_cols))
    quot = FgAbGroup.from_factors(lattice.cokernel_factors(gens, g))
    return DoubleSubgroup(sub, quot)
