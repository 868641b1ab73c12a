"""Exact arithmetic in the integral group ring of a finite cyclic group.

Elements of Z[C_n] are stored as length-n coefficient vectors of Python
ints (coefficient k belongs to t^k), so nothing ever overflows.  On top
of the ring arithmetic this module provides the coefficient-reversal
involution, Galois twists t -> t^i, exact unit inversion through the
circulant linear system, unit classes modulo the trivial units +-t^k,
and the projection to the cyclotomic field Q(zeta_p).

Unit classes model the rank-1 part of K_1: two units represent the same
class iff they differ by a trivial unit.  Treating single units as
complete class representatives rests on the vanishing of SK_1 of Z[C_p]
for the primes used here; that is a standing assumption of this library
(documented, never derived).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import lattice
from ._value import Frozen

__all__ = [
    "GroupRingElement",
    "OrientationCharacter",
    "WhiteheadClass",
    "CyclotomicElement",
    "NotAUnitError",
    "ORDER_MAX",
    "involution",
    "galois_twist",
    "invert_unit",
    "wh_class_equal",
    "cyclotomic_project",
]


# Largest group order ``invert_unit`` accepts: it solves a dense n x n
# circulant system, so memory grows as n^2 (the identity unit takes 0.69 s
# and 57 MiB peak at n = 1000, 9.2 s and 640 MiB at n = 4000).
ORDER_MAX = 1000


class NotAUnitError(ValueError):
    """Raised when a unit was required but the element is not invertible."""


class GroupRingElement(Frozen):
    """An element sum_k coeffs[k] * t^k of Z[C_n], n = order."""

    _fields = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("order must be positive")
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != order:
            raise ValueError("coefficient vector must have length = order")
        self._freeze(order, coeffs)

    @classmethod
    def zero(cls, n):
        return cls(n, (0,) * n)

    @classmethod
    def one(cls, n):
        return cls(n, (1,) + (0,) * (n - 1))

    @classmethod
    def generator(cls, n, power=1, sign=1):
        coeffs = [0] * n
        coeffs[power % n] = sign
        return cls(n, tuple(coeffs))

    def _check(self, other):
        if not isinstance(other, GroupRingElement):
            raise TypeError("expected a GroupRingElement")
        if self.order != other.order:
            raise ValueError(
                f"group order mismatch: {self.order} != {other.order}")

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return GroupRingElement(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        n = self.order
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % n] += a * b
        return GroupRingElement(n, tuple(out))

    def augmentation(self):
        """Sum of coefficients (image under t -> 1)."""
        return sum(self.coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def trivial_unit_form(self):
        """(sign, k) if the element is +-t^k, else None."""
        nonzero = [(k, c) for k, c in enumerate(self.coeffs) if c]
        if len(nonzero) == 1 and nonzero[0][1] in (1, -1):
            k, c = nonzero[0]
            return c, k
        return None

    def to_dict(self):
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_dict(cls, data):
        return cls(int(data["order"]), tuple(int(c) for c in data["coeffs"]))

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mon = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    terms.append(mon)
                elif c == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{c}{mon}" if c < 0 else f"{c}{mon}")
        if not terms:
            return "0"
        out = terms[0]
        for term in terms[1:]:
            out += term if term.startswith("-") else "+" + term
        return out


class OrientationCharacter(Frozen):
    """Homomorphism C_n -> {+-1}, recorded by its value on the generator."""

    _fields = ("sign_of_generator",)

    def __init__(self, sign_of_generator=1):
        if sign_of_generator not in (1, -1):
            raise ValueError("character value must be +1 or -1")
        self._freeze(sign_of_generator)

    def value(self, k):
        return 1 if self.sign_of_generator == 1 or k % 2 == 0 else -1

    def check_order(self, n):
        if n % 2 == 1 and self.sign_of_generator == -1:
            raise ValueError("a sign character requires even group order")


TRIVIAL_CHARACTER = OrientationCharacter(1)


def involution(x, w=TRIVIAL_CHARACTER):
    """Coefficient-reversal anti-involution a_k t^k -> w(t^k) a_k t^{-k}."""
    w.check_order(x.order)
    n = x.order
    out = [0] * n
    for k, c in enumerate(x.coeffs):
        out[(n - k) % n] += w.value(k) * c
    return GroupRingElement(n, tuple(out))


def galois_twist(x, i):
    """Ring automorphism t -> t^i of Z[C_n]; requires gcd(i, n) = 1."""
    n = x.order
    if gcd(i, n) != 1:
        raise ValueError(f"{i} is not invertible mod {n}")
    out = [0] * n
    for k, c in enumerate(x.coeffs):
        out[(k * i) % n] += c
    return GroupRingElement(n, tuple(out))


def _circulant(x):
    n = x.order
    return [[x.coeffs[(r - c) % n] for c in range(n)] for r in range(n)]


def invert_unit(x):
    """Exact inverse of x in Z[C_n], or None when x is not a unit.

    Solves the n x n circulant system x*y = 1 over Z; a solution exists
    iff the circulant matrix is invertible over the integers.  Capped at
    ``ORDER_MAX``.
    """
    n = x.order
    if n > ORDER_MAX:
        raise ValueError(f"the group order is capped at {ORDER_MAX}")
    e0 = [1] + [0] * (n - 1)
    y = lattice.solve(_circulant(x), e0)
    if y is None:
        return None
    return GroupRingElement(n, tuple(y))


class WhiteheadClass(Frozen):
    """Unit class in Z[C_n] modulo trivial units +-t^k.

    The constructor inverts the representative; non-units are rejected
    with NotAUnitError, which callers building torsion data propagate.
    """

    _fields = ("representative", "inverse")

    def __init__(self, representative, inverse=None):
        if inverse is None:
            inverse = invert_unit(representative)
            if inverse is None:
                raise NotAUnitError(
                    f"{representative} is not a unit of Z[C_{representative.order}]")
        check = representative * inverse
        if check.trivial_unit_form() != (1, 0):
            raise NotAUnitError("stored inverse does not invert the representative")
        self._freeze(representative, inverse)

    @property
    def order(self):
        return self.representative.order

    @classmethod
    def trivial(cls, n):
        return cls(GroupRingElement.one(n))

    def is_trivial(self):
        return self.representative.trivial_unit_form() is not None

    def times(self, other):
        return WhiteheadClass(self.representative * other.representative,
                              other.inverse * self.inverse)

    def inverse_class(self):
        return WhiteheadClass(self.inverse, self.representative)

    def twist(self, i):
        return WhiteheadClass(galois_twist(self.representative, i),
                              galois_twist(self.inverse, i))

    def conj(self, w=TRIVIAL_CHARACTER):
        return WhiteheadClass(involution(self.representative, w),
                              involution(self.inverse, w))

    def to_dict(self):
        return self.representative.to_dict()

    def __str__(self):
        return f"[{self.representative}]"


def wh_class_equal(x, y):
    """Whether two unit classes agree modulo the trivial units +-t^k."""
    if x.order != y.order:
        raise ValueError("classes live over different group orders")
    q = x.representative * y.inverse
    return q.trivial_unit_form() is not None


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CyclotomicElement(Frozen):
    """Element of Q(zeta_p) in the basis 1, zeta, ..., zeta^{p-2}."""

    _fields = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if not _is_prime(p):
            raise ValueError("p must be prime")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != p - 1:
            raise ValueError("coefficient vector must have length p-1")
        self._freeze(p, coeffs)

    @classmethod
    def zero(cls, p):
        return cls(p, (Fraction(0),) * (p - 1))

    @classmethod
    def one(cls, p):
        return cls(p, (Fraction(1),) + (Fraction(0),) * (p - 2))

    @classmethod
    def zeta(cls, p, power=1):
        ext = [Fraction(0)] * p
        ext[power % p] = Fraction(1)
        return cls._fold(p, ext)

    @classmethod
    def _fold(cls, p, ext):
        # ext has length p (exponents mod p); zeta^{p-1} = -(1 + ... + zeta^{p-2})
        top = ext[p - 1]
        return cls(p, tuple(ext[k] - top for k in range(p - 1)))

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("cyclotomic elements over different primes")

    def __add__(self, other):
        self._check(other)
        return CyclotomicElement(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CyclotomicElement(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CyclotomicElement(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        p = self.p
        ext = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        ext[(i + j) % p] += a * b
        return CyclotomicElement._fold(p, ext)

    def scale(self, c):
        c = Fraction(c)
        return CyclotomicElement(self.p, tuple(c * a for a in self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def galois(self, i):
        """Field automorphism zeta -> zeta^i; requires i nonzero mod p."""
        p = self.p
        if i % p == 0:
            raise ValueError("the automorphism index must be prime to p")
        ext = [Fraction(0)] * p
        for k, a in enumerate(self.coeffs):
            ext[(k * i) % p] += a
        return CyclotomicElement._fold(p, ext)

    def norm(self):
        """Field norm down to Q: the product of all Galois conjugates."""
        p = self.p
        prod = CyclotomicElement.one(p)
        for i in range(1, p):
            prod = prod * self.galois(i)
        if any(prod.coeffs[1:]):
            raise ArithmeticError("norm did not land in Q")
        return prod.coeffs[0]

    def to_dict(self):
        return {"p": self.p, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_dict(cls, data):
        return cls(int(data["p"]), tuple(Fraction(c) for c in data["coeffs"]))

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mon = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            terms.append(f"{c}*{mon}" if k else str(c))
        return " + ".join(terms) if terms else "0"


def cyclotomic_project(x, p):
    """Image of x in Q(zeta_p) under t -> zeta_p (ring homomorphism)."""
    if x.order != p:
        raise ValueError(f"element lives in Z[C_{x.order}], expected order {p}")
    if not _is_prime(p):
        raise ValueError("p must be prime")
    ext = [Fraction(c) for c in x.coeffs]
    return CyclotomicElement._fold(p, ext)
