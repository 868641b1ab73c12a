"""Symbolic calculus of h-cobordisms over a Whitehead-value group.

A symbol is the complete data the composition/duality formulas consume:
the manifold dimension (only its parity matters), the torsion measured
from the incoming end, and the fundamental-group identification twist of
the natural homotopy equivalence, modeled as a Galois twist t -> t^i.

Torsion values are written multiplicatively as unit classes while the
usual formulas are additive; the adapter is fixed once here:
sum -> product, (-1)-multiple -> inverse class, involution ->
coefficient reversal, pushforward -> Galois twist.  The same formulas
also run additively over an involutive abelian group through
``ModuleValues``, which is what the homology-level checks consume.
"""

from __future__ import annotations

from math import gcd

from ._value import Frozen
from .abelian import InvolutiveAbelianGroup
from .groupring import GroupRingElement, WhiteheadClass
from .lattice import mat_vec

__all__ = [
    "HCobordismSymbol",
    "UnitClassValues",
    "ModuleValues",
    "compose",
    "reverse",
    "double",
    "inertial_twist",
    "inertial_twist_torsion",
    "basepoint_change_torsion",
]


class HCobordismSymbol(Frozen):
    """(dimension, torsion class, identification twist)."""

    _fields = ("dim", "torsion", "twist")

    def __init__(self, dim, torsion, twist):
        n = torsion.order
        if gcd(twist, n) != 1:
            raise ValueError("the twist must be invertible mod the group order")
        self._freeze(dim, torsion, twist % n)

    @property
    def order(self):
        return self.torsion.order

    def twist_inverse(self):
        return pow(self.twist, -1, self.order)

    def to_dict(self):
        return {"d": self.dim, "torsion": self.torsion.to_dict(),
                "twist": self.twist}


def _check_composable(w, w2):
    if w.dim != w2.dim:
        raise ValueError("cannot compose cobordisms of different dimensions")
    if w.order != w2.order:
        raise ValueError("cannot compose over different value groups")


def compose(w, w2):
    """Torsion of the composite (w first, then w2), measured at the start.

    The incoming torsion picks up the second one pulled back through the
    inverse identification of the first: multiplicatively, the class
    tau_w * twist^{-1}(tau_{w2}); twists multiply.
    """
    _check_composable(w, w2)
    pulled = w2.torsion.twist(w.twist_inverse())
    return HCobordismSymbol(w.dim, w.torsion.times(pulled),
                            (w.twist * w2.twist) % w.order)


def reverse(w):
    """The same cobordism read backwards, measured from the far end.

    Duality: the reversed torsion is the (-1)^d-power of the pushforward
    of the conjugated class; the identification inverts.
    """
    conj = w.torsion.conj().twist(w.twist)
    if w.dim % 2 == 1:
        conj = conj.inverse_class()
    return HCobordismSymbol(w.dim, conj, w.twist_inverse())


def double(w):
    """The double: w followed by its reversal; lands in the doubles subgroup."""
    return compose(w, reverse(w))


def inertial_twist(w, i):
    """The inertial cobordism built from w and a self-identification t -> t^i:
    reverse w, cross back through the cylinder of the inverse
    identification, then through w again."""
    if gcd(i, w.order) != 1:
        raise ValueError("the automorphism index must be invertible")
    cylinder = HCobordismSymbol(
        w.dim, WhiteheadClass(GroupRingElement.one(w.order)),
        pow(i, -1, w.order))
    return compose(compose(reverse(w), cylinder), w)


def inertial_twist_torsion(u, i):
    """Closed multiplicative form of the inertial torsion for odd dimension:
    twist_i(u) * u^{-1}."""
    return u.twist(i).times(u.inverse_class())


class UnitClassValues:
    """Whitehead values realized by unit classes (multiplicative notation)."""

    def __init__(self, order, twist=1):
        self.order = order
        self.twist_index = twist % order

    def zero(self):
        return WhiteheadClass(GroupRingElement.one(self.order))

    def add(self, x, y):
        return x.times(y)

    def neg(self, x):
        return x.inverse_class()

    def conj(self, x):
        return x.conj()

    def twist(self, x):
        return x.twist(self.twist_index)


class ModuleValues:
    """Whitehead values in an abstract involutive abelian group.

    The stored matrix is read as the raw algebraic involution; the twist
    is an optional automorphism matrix, a sequence of int rows (identity
    when omitted).
    """

    def __init__(self, group: InvolutiveAbelianGroup, twist_matrix=None):
        self.group = group
        self.twist_matrix = twist_matrix

    def add(self, x, y):
        return self.group.reduce(tuple(a + b for a, b in zip(x, y)))

    def neg(self, x):
        return self.group.reduce(tuple(-a for a in x))

    def conj(self, x):
        return self.group.reduce(self.group.act(x))

    def twist(self, x):
        if self.twist_matrix is None:
            return self.group.reduce(x)
        return self.group.reduce(mat_vec(self.twist_matrix, x))


def basepoint_change_torsion(values, tau_w, tau_v, n, d):
    """Torsion after gluing a degree-n cycle across a connecting cobordism.

    Additively: h(tau_v) + (-1)^(n-1) * (h(tau_w) + (-1)^(d+n-1)
    conj(h(tau_w))); the correction term is a (d+n-1)-signed double, so
    the class downstairs in degree n-1 homology is the twist image of
    the class of tau_v.  Needs n >= 2, where the sphere factor carrying
    the Euler-characteristic coefficient is connected.
    """
    if n < 2:
        raise ValueError("the gluing formula requires cycle degree n >= 2")
    h_v = values.twist(tau_v)
    h_w = values.twist(tau_w)
    corr = h_w
    if (d + n - 1) % 2 == 0:
        corr = values.add(corr, values.conj(h_w))
    else:
        corr = values.add(corr, values.neg(values.conj(h_w)))
    if (n - 1) % 2 == 1:
        corr = values.neg(corr)
    return values.add(h_v, corr)
