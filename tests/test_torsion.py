"""h-cobordism symbol calculus: composition, duality, doubles, gluing."""

from __future__ import annotations

import random

import pytest

from whcalc.abelian import InvolutiveAbelianGroup, homology_c2
from whcalc.groupring import (GroupRingElement, WhiteheadClass, galois_twist,
                              invert_unit, involution, wh_class_equal)
from whcalc.lattice import Lattice, columns_of
from whcalc.torsion import (HCobordismSymbol, ModuleValues, UnitClassValues,
                            basepoint_change_torsion, compose, double,
                            inertial_twist, inertial_twist_torsion, reverse)

from _oracles import (cyclic, generator, identity, is_trivial_class,
                      mapping_cylinder, ring_element_from_dict,
                      symbol_class_equal, trivial_class, trivial_cylinder)

U7 = GroupRingElement(7, (2, 2, 0, -1, -1, -1, 0))
U5 = GroupRingElement(5, (1, -1, 0, 0, -1))


def random_units(order, count, seed):
    """Random unit classes: products of twists of the standard unit and
    trivial units."""
    base = U7 if order == 7 else U5
    rng = random.Random(seed)
    twists = [i for i in range(1, order)]
    out = []
    while len(out) < count:
        x = generator(order, rng.randrange(order), rng.choice((1, -1)))
        for _ in range(rng.randint(0, 2)):
            e = rng.choice((-1, 1))
            t = galois_twist(base, rng.choice(twists))
            t = t if e == 1 else invert_unit(t)
            x = x * t
        out.append(WhiteheadClass(x))
    return out


def random_symbols(order, count, seed):
    rng = random.Random(seed + 1)
    units = random_units(order, count, seed)
    return [HCobordismSymbol(rng.choice((10, 11, 12, 13)), u,
                             rng.choice([i for i in range(1, order)]))
            for u in units]


def test_compose_with_trivial_cylinder():
    w = HCobordismSymbol(11, WhiteheadClass(U7), 3)
    cyl = trivial_cylinder(11, 7)
    assert symbol_class_equal(compose(w, cyl), w)
    assert symbol_class_equal(compose(cyl, w), w)
    # another twist, dimension parity or torsion class is another class
    assert not symbol_class_equal(compose(w, mapping_cylinder(11, 7, 2)), w)
    assert not symbol_class_equal(HCobordismSymbol(12, WhiteheadClass(U7), 3), w)
    assert not symbol_class_equal(trivial_cylinder(11, 7), mapping_cylinder(11, 7, 3))
    assert not symbol_class_equal(mapping_cylinder(11, 7, 3), w)


def test_compose_numeric_example():
    # torsion u with twist 2, then another torsion-u piece: the second
    # factor enters through the inverse identification
    w = HCobordismSymbol(11, WhiteheadClass(U7), 2)
    w2 = HCobordismSymbol(11, WhiteheadClass(U7), 1)
    got = compose(w, w2)
    inv2 = pow(2, -1, 7)
    expected = WhiteheadClass(U7 * galois_twist(U7, inv2))
    assert wh_class_equal(got.torsion, expected)
    assert got.twist == 2


def test_compose_mismatch_errors():
    w7 = HCobordismSymbol(11, WhiteheadClass(U7), 1)
    w5 = HCobordismSymbol(11, WhiteheadClass(U5), 1)
    with pytest.raises(ValueError):
        compose(w7, w5)
    with pytest.raises(ValueError):
        compose(w7, HCobordismSymbol(10, WhiteheadClass(U7), 1))


def test_reverse_is_involutive():
    for w in random_symbols(7, 40, 5) + random_symbols(5, 40, 6):
        assert reverse(reverse(w)) == w


def test_reverse_trivial_cylinder():
    cyl = trivial_cylinder(12, 7)
    assert is_trivial_class(reverse(cyl).torsion)


def test_reverse_odd_dimension_formula():
    # d odd: the reversed torsion is the inverse class of the pushforward
    # of the conjugate
    w = HCobordismSymbol(11, WhiteheadClass(U7), 2)
    r = reverse(w)
    expected = WhiteheadClass(
        galois_twist(involution(U7), 2)).inverse_class()
    assert wh_class_equal(r.torsion, expected)
    assert r.twist == pow(2, -1, 7)


def test_double_of_reverse_is_reverse_direction_double():
    for w in random_symbols(7, 15, 9):
        lhs = double(reverse(w))
        rhs = compose(reverse(w), w)
        assert lhs == rhs


def test_associativity_randomized():
    rng = random.Random(2)
    for order in (5, 7):
        units = random_units(order, 60, 40 + order)
        twists = [i for i in range(1, order)]
        for _ in range(200):
            d = rng.choice((10, 11))
            w1, w2, w3 = (HCobordismSymbol(d, rng.choice(units),
                                           rng.choice(twists))
                          for _ in range(3))
            left = compose(compose(w1, w2), w3)
            right = compose(w1, compose(w2, w3))
            assert left == right


def test_doubles_land_in_double_subgroup():
    # tau(double) = sigma * conj(sigma)^(+-1) exactly, with sigma the
    # original torsion; built independently of the compose machinery
    for order in (5, 7):
        for w in random_symbols(order, 60, 70 + order):
            d = double(w)
            sigma = w.torsion.representative
            expected = sigma * involution(sigma) if w.dim % 2 == 0 \
                else sigma * invert_unit(involution(sigma))
            assert wh_class_equal(d.torsion, WhiteheadClass(expected))
            assert d.twist == 1
            if w.dim % 2 == 1:
                # odd dimension, trivial involution on classes: doubles die
                assert is_trivial_class(d.torsion) or wh_class_equal(
                    d.torsion, trivial_class(order))


def test_inertial_twist_examples():
    w = HCobordismSymbol(11, WhiteheadClass(U7), 1)
    assert is_trivial_class(inertial_twist(w, 1).torsion)
    assert is_trivial_class(inertial_twist(w, 6).torsion)
    assert not is_trivial_class(inertial_twist(w, 2).torsion)
    with pytest.raises(ValueError):
        inertial_twist(w, 7)


def test_inertial_twist_matches_closed_form():
    rng = random.Random(77)
    for w in random_symbols(7, 25, 12):
        if w.dim % 2 == 0:
            continue
        i = rng.choice([1, 2, 3, 4, 5, 6])
        via_chain = inertial_twist(w, i)
        closed = inertial_twist_torsion(w.torsion, i).twist(w.twist)
        assert wh_class_equal(via_chain.torsion, closed)


@pytest.mark.parametrize("op, products", [
    (lambda u: u.twist(3), 0),
    (lambda u: u.conj(), 0),
    (lambda u: u.inverse_class(), 0),
    (lambda u: u.times(u), 2),
    (lambda u: inertial_twist_torsion(u, 3), 2),
], ids=["twist", "conj", "inverse_class", "times", "inertial_twist_torsion"])
def test_class_algebra_multiplies_nothing_back(op, products, monkeypatch):
    # a class is checked once, when it is built from an element; its
    # algebra carries the inverse along, and a product multiplies only the
    # representatives and the inverses (re-checking every result made 1,
    # 1, 1, 3 and 5 products)
    u = WhiteheadClass(U7)
    mul = GroupRingElement.__mul__
    calls = []

    def count(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(GroupRingElement, "__mul__", count)
    v = op(u)
    assert len(calls) == products
    assert mul(v.representative, v.inverse) == GroupRingElement.one(7)


def test_mapping_cylinder_twist():
    c = mapping_cylinder(11, 7, 3)
    assert is_trivial_class(c.torsion) and c.twist == 3


# -- basepoint-change gluing formula ---------------------------------------


def test_gluing_trivial_connecting_torsion():
    vals = UnitClassValues(7, twist=2)
    tau_v = WhiteheadClass(U7)
    zero = vals.zero()
    out = basepoint_change_torsion(vals, zero, tau_v, 2, 11)
    assert wh_class_equal(out, tau_v.twist(2))


def test_gluing_requires_degree_two():
    vals = UnitClassValues(7)
    with pytest.raises(ValueError):
        basepoint_change_torsion(vals, vals.zero(), vals.zero(), 1, 11)


def test_gluing_correction_is_a_double_multiplicatively():
    # changing the connecting torsion changes the output by an element
    # sigma * conj(sigma)^((-1)^(d+n-1)), verified by explicit witness
    rng = random.Random(15)
    for w in random_units(7, 30, 21):
        n = rng.choice((2, 3))
        d = rng.choice((11, 13))
        vals = UnitClassValues(7, twist=rng.choice((1, 2, 3)))
        tau_v = rng.choice(random_units(7, 5, 22))
        base = basepoint_change_torsion(vals, vals.zero(), tau_v, n, d)
        shifted = basepoint_change_torsion(vals, w, tau_v, n, d)
        ratio = shifted.times(base.inverse_class())
        y = vals.twist(w)
        if (n - 1) % 2 == 1:
            y = y.inverse_class()
        eps_conj = vals.conj(y)
        witness = y.times(eps_conj) if (d + n - 1) % 2 == 0 \
            else y.times(eps_conj.inverse_class())
        assert wh_class_equal(ratio, witness)


def _h_denominator_lattice(group, full_action_sign, n):
    """Denominator of degree-(n-1) homology for the parity-twisted action."""
    g = group.generator_count
    t = group.involution
    eps = 1 if n % 2 == 0 else -1  # (-1)^n matches degree n-1 boundaries
    ident = identity(g)
    endo = [[ident[i][j] + eps * full_action_sign * t[i][j] for j in range(g)]
            for i in range(g)]
    gens = columns_of(endo) + columns_of(group.relations)
    return Lattice(gens, g)


def test_gluing_class_equals_twist_image_in_homology():
    # abstract-value form of the commuting square: for d odd and
    # n in {2, 3}, the output and the twist image of the input agree in
    # degree n-1 homology of the parity-twisted module
    rng = random.Random(99)
    free2 = InvolutiveAbelianGroup.free(2, 1)
    twist_mat = [[1, 1], [0, 1]]
    z8s = cyclic(8, -1)
    cases = [(free2, ModuleValues(free2, twist_mat)),
             (z8s, ModuleValues(z8s))]
    for group, vals in cases:
        g = group.generator_count
        for _ in range(250):
            n = rng.choice((2, 3))
            d = rng.choice((11, 13, 15))
            tau_w = tuple(rng.randrange(-8, 8) for _ in range(g))
            tau_v = tuple(rng.randrange(-8, 8) for _ in range(g))
            out = basepoint_change_torsion(vals, tau_w, tau_v, n, d)
            diff = tuple(a - b for a, b in zip(out, vals.twist(tau_v)))
            sign = 1 if (d - 1) % 2 == 0 else -1
            den = _h_denominator_lattice(group, sign, n)
            assert den.contains(list(diff)), (n, d, tau_w, tau_v)


def test_gluing_class_witness_vanishes_via_homology():
    # spec example: zero input torsion, n even, d odd, trivial involution:
    # the output is a double, hence zero in degree n-1 homology
    free2 = InvolutiveAbelianGroup.free(2, 1)
    vals = ModuleValues(free2)
    for tau_w in ((1, 0), (3, -2), (0, 5)):
        out = basepoint_change_torsion(vals, tau_w, (0, 0), 2, 11)
        full = free2.parity_action(11)
        den = _h_denominator_lattice(free2, 1, 2)
        assert den.contains(list(out))
        assert str(homology_c2(full, 1)) == "Z/2 x Z/2"


def test_serialization():
    w = HCobordismSymbol(11, WhiteheadClass(U7), 2)
    data = w.to_dict()
    assert data["d"] == 11 and data["twist"] == 2
    assert ring_element_from_dict(data["torsion"]) == U7
