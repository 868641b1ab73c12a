"""Exact arithmetic in the integral group ring of a finite cyclic group.

Elements of Z[C_n] are stored as length-n coefficient vectors of Python
ints (coefficient k belongs to t^k), so nothing ever overflows.  On top
of the ring arithmetic this module provides the coefficient-reversal
involution t^k -> t^{-k} (it takes no orientation character: C_n of odd
order has only the trivial one), Galois twists t -> t^i, exact unit
inversion through the product of the twists, and unit classes modulo
the trivial units +-t^k, checked once, where an element becomes one:
their algebra sends inverse pairs to inverse pairs.

Unit classes model the rank-1 part of K_1: two units represent the same
class iff they differ by a trivial unit.  Treating single units as
complete class representatives rests on the vanishing of SK_1 of Z[C_p]
for the primes used here; that is a standing assumption of this library
(documented, never derived; Bass-Milnor-Serre, and Milnor, Introduction
to algebraic K-theory, Cor. 16.3).
"""

from __future__ import annotations

from math import gcd

from ._value import Frozen, _setattr

__all__ = [
    "GroupRingElement",
    "WhiteheadClass",
    "NotAUnitError",
    "ORDER_MAX",
    "involution",
    "galois_twist",
    "invert_unit",
    "wh_class_equal",
]


# Largest group order ``invert_unit`` accepts: it multiplies phi(n) twists
# in O(n) memory, but each product takes up to n^2 steps on growing entries
# (a random dense element of augmentation 1: 0.48 s at order 200, 4.3 s at
# 400 and 98 s at 1000; the identity 0.22 s at 1000).
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
    def one(cls, n):
        return cls(n, (1,) + (0,) * (n - 1))

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

    def class_key(self):
        """Least coefficient tuple of +-t^k * x over every k: two elements
        share a key exactly when they differ by a trivial unit."""
        c = self.coeffs
        return min(v[k:] + v[:k] for v in (c, tuple(-a for a in c))
                   for k in range(self.order))

    def to_dict(self):
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

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
                    terms.append(f"{c}{mon}")
        if not terms:
            return "0"
        out = terms[0]
        for term in terms[1:]:
            out += term if term.startswith("-") else "+" + term
        return out


def involution(x):
    """Coefficient-reversal anti-involution a_k t^k -> a_k t^{-k}."""
    c = x.coeffs
    return GroupRingElement(x.order, c[:1] + c[:0:-1])


def galois_twist(x, i):
    """Ring automorphism t -> t^i of Z[C_n]; requires gcd(i, n) = 1."""
    n = x.order
    if gcd(i, n) != 1:
        raise ValueError(f"{i} is not invertible mod {n}")
    out = [0] * n
    for k, c in enumerate(x.coeffs):
        out[(k * i) % n] += c
    return GroupRingElement(n, tuple(out))


def invert_unit(x):
    """Exact inverse of x in Z[C_n], or None when x is not a unit.

    With w the product of the twists sigma_i(x), i in (Z/n)^* other than
    1, v = w*x is fixed by every twist, so each of its components under
    Q[C_n] = prod_{m | n} Q(zeta_m) is rational.  For a unit they are
    also algebraic-integer units, hence +-1, so v*v = 1; conversely
    v*v = 1 makes w*v the inverse.  A unit has augmentation +-1 (a ring
    map to Z), so any other is refused first.  Capped at ``ORDER_MAX``.
    """
    n = x.order
    if n > ORDER_MAX:
        raise ValueError(f"the group order is capped at {ORDER_MAX}")
    if x.augmentation() not in (1, -1):
        return None
    one = GroupRingElement.one(n)
    w = one
    for i in range(2, n):
        if gcd(i, n) == 1:
            w = w * galois_twist(x, i)
    v = w * x
    return w * v if v * v == one else None


class WhiteheadClass(Frozen):
    """Unit class in Z[C_n] modulo trivial units +-t^k.

    Only the constructor checks, through ``invert_unit``; its algebra needs
    no check, as twists and conj are ring maps and (ab)(b^-1 a^-1) = 1.
    """

    _fields = ("representative",)

    def __init__(self, representative):
        inverse = invert_unit(representative)
        if inverse is None:
            raise NotAUnitError(
                f"{representative} is not a unit of Z[C_{representative.order}]")
        self._freeze(representative)
        _setattr(self, "inverse", inverse)

    @classmethod
    def _pair(cls, representative, inverse):
        """A class whose inverse holds by construction, unchecked."""
        self = cls.__new__(cls)
        self._freeze(representative)
        _setattr(self, "inverse", inverse)
        return self

    @property
    def order(self):
        return self.representative.order

    def times(self, other):
        return WhiteheadClass._pair(self.representative * other.representative,
                                    other.inverse * self.inverse)

    def inverse_class(self):
        return WhiteheadClass._pair(self.inverse, self.representative)

    def twist(self, i):
        return WhiteheadClass._pair(galois_twist(self.representative, i),
                                    galois_twist(self.inverse, i))

    def conj(self):
        return WhiteheadClass._pair(involution(self.representative),
                                    involution(self.inverse))

    def to_dict(self):
        return self.representative.to_dict()


def wh_class_equal(x, y):
    """Whether two unit classes agree modulo the trivial units +-t^k:
    whether their representatives have one class key."""
    if x.order != y.order:
        raise ValueError("classes live over different group orders")
    return x.representative.class_key() == y.representative.class_key()

