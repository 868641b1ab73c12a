"""Group-ring arithmetic, involution, twists, units and classes."""

from __future__ import annotations

import json
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whcalc.groupring import (GroupRingElement, NotAUnitError,
                              WhiteheadClass, galois_twist, invert_unit,
                              involution, wh_class_equal)

from _oracles import (_cyclotomic_fold, bareiss_determinant, bass_unit,
                      cyclotomic_galois, cyclotomic_product, generator,
                      is_trivial_class, ring_element_from_dict, smith_solve,
                      sylvester_resultant, trivial_class, unit_class_equal)

U7 = GroupRingElement(7, (2, 2, 0, -1, -1, -1, 0))
U7_INV = GroupRingElement(7, (1, -2, 3, -3, 3, -2, 1))
U5 = GroupRingElement(5, (1, -1, 0, 0, -1))


def gen(n, k=1):
    return generator(n, k)


def test_addition_cancellation():
    one, t = GroupRingElement.one(2), gen(2)
    assert (one + t) + (one - t) == GroupRingElement(2, (2, 0))


def test_paper_unit_inverse():
    assert U7 * U7_INV == GroupRingElement.one(7)
    assert invert_unit(U7) == U7_INV


def test_exponent_reduction():
    assert gen(7, 3) * gen(7, 5) == gen(7, 1)


def test_order_mismatch():
    with pytest.raises(ValueError):
        gen(5) * gen(7)
    with pytest.raises(TypeError, match="expected a GroupRingElement"):
        gen(5) * 3


def test_involution_examples():
    assert involution(gen(7)) == gen(7, 6)
    assert involution(U7) == GroupRingElement(7, (2, 0, -1, -1, -1, 0, 2))
    # cross-check the frozen value by an independent route: conj agrees
    # with the degree-(n-1) twist for this particular unit
    assert involution(U7) == galois_twist(U7, 6)
    assert involution(gen(2)) == gen(2)
    assert involution(GroupRingElement(1, (5,))) == GroupRingElement(1, (5,))


@given(st.integers(2, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_involution_is_involutive(n, data):
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    x = GroupRingElement(n, tuple(coeffs))
    assert involution(involution(x)) == x
    # coefficient k moves to -k mod n
    assert all(involution(x).coeffs[-k % n] == c for k, c in enumerate(coeffs))


@given(st.integers(2, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_involution_antihomomorphism(n, data):
    xs = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    ys = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    x, y = GroupRingElement(n, tuple(xs)), GroupRingElement(n, tuple(ys))
    assert involution(x * y) == involution(y) * involution(x)
    assert involution(x * y) == involution(x) * involution(y)  # abelian


def test_galois_twist_examples():
    assert galois_twist(U7, 2) == GroupRingElement(7, (2, -1, 2, -1, 0, 0, -1))
    assert galois_twist(U7, 1) == U7
    # the degree-6 twist fixes the unit up to the trivial unit t:
    # (phi_6)u = conj(u) = t^6 * u, so (phi_6)u * t = u exactly
    assert galois_twist(U7, 6) * gen(7) == U7


def test_galois_twist_requires_coprime():
    with pytest.raises(ValueError):
        galois_twist(gen(6), 2)


@given(st.integers(2, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_galois_composition(n, data):
    units = [i for i in range(1, n) if __import__("math").gcd(i, n) == 1]
    i = data.draw(st.sampled_from(units))
    j = data.draw(st.sampled_from(units))
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    x = GroupRingElement(n, tuple(coeffs))
    assert galois_twist(galois_twist(x, j), i) == galois_twist(x, (i * j) % n)


def circulant(x):
    n = x.order
    return [[x.coeffs[(r - c) % n] for c in range(n)] for r in range(n)]


def test_invert_unit_examples():
    assert invert_unit(GroupRingElement.one(7)) == GroupRingElement.one(7)
    assert invert_unit(GroupRingElement(7, (1, 1, 0, 0, 0, 0, 0))) is None
    assert invert_unit(U5) == GroupRingElement(5, (1, 0, -1, -1, 0))


def test_invert_unit_iff_unimodular_circulant():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 7)
        x = GroupRingElement(
            n, tuple(rng.randint(-2, 2) for _ in range(n)))
        det = bareiss_determinant(circulant(x))
        inv = invert_unit(x)
        assert (inv is not None) == (abs(det) == 1)
        if inv is not None:
            assert x * inv == GroupRingElement.one(n)
            assert x.augmentation() in (1, -1)


def test_invert_unit_at_composite_orders():
    # twisted products of Bass-type units, and the same products plus 1,
    # against the circulant system's determinant and, up to n = 21, its
    # Smith-form solution (the oracle's full Smith form with transforms
    # takes over 6 s on one such unit at n = 35)
    rng = random.Random(44)
    verdicts, nontrivial = set(), set()
    for n in (4, 6, 8, 9, 10, 12, 15, 21, 35):
        prime = [k for k in range(1, n) if gcd(k, n) == 1]
        # k = -1 gives a trivial unit, the only choice at n = 4 and 6
        ks = (prime[1:-1] or prime[1:])[:4]
        one = GroupRingElement.one(n)
        for _ in range(3):
            x = one
            for _ in range(rng.randint(1, 2)):
                u = bass_unit(n, rng.choice(ks))
                x = x * galois_twist(u, rng.choice(prime))
            if x.class_key() != (-1,) + (0,) * (n - 1):
                nontrivial.add(n)
            for y in (x, x + one):
                rows = circulant(y)
                inv = invert_unit(y)
                assert (inv is None) == (abs(bareiss_determinant(rows)) != 1)
                if n <= 21:
                    ref = smith_solve(rows, [1] + [0] * (n - 1))
                    assert inv == (None if ref is None
                                   else GroupRingElement(n, ref)), y
                elif inv is not None:
                    assert y * inv == one
                verdicts.add((y == x, inv is None))
    # each product is a unit, and on this seed no product plus 1 is one
    assert verdicts == {(True, False), (False, True)}
    # Z[C_4] and Z[C_6] have only the trivial units (Higman 1940)
    assert nontrivial == {8, 9, 10, 12, 15, 21, 35}


def test_invert_unit_refuses_augmentation_off_unit_before_any_product():
    # the augmentation is a ring map to Z, so a unit has augmentation +-1;
    # a seeded dense element of order 400 with another augmentation is
    # refused at once (4.8 s through the twist product on 2 vCPUs)
    rng = random.Random(1)
    x = GroupRingElement(400, [rng.randint(-3, 3) for _ in range(400)])
    assert x.augmentation() not in (1, -1)
    t0 = time.perf_counter()
    assert invert_unit(x) is None
    assert time.perf_counter() - t0 < 0.1
    # a negated unit has augmentation -1 and is still inverted
    assert invert_unit(-U7) == -U7_INV


def test_invert_bass_units_past_seven():
    assert bass_unit(7) == gen(7) * U7
    t0 = time.perf_counter()
    for p in (11, 13, 17, 19, 23):
        u = bass_unit(p)
        assert u * invert_unit(u) == GroupRingElement.one(p)
    # about 0.03 s in all on 2 vCPUs; by dense Smith form with transforms
    # p = 19 alone took about 1 s and p = 23 over 100 s
    assert time.perf_counter() - t0 < 1.0


def test_wh_class_examples():
    u = WhiteheadClass(U7)
    assert wh_class_equal(u, u.twist(6))
    assert not wh_class_equal(u, u.twist(2))
    one = trivial_class(7)
    assert wh_class_equal(one, WhiteheadClass(-gen(7, 3)))
    with pytest.raises(ValueError, match="different group orders"):
        wh_class_equal(one, trivial_class(5))


def test_class_key_is_the_least_signed_rotation():
    shifts = [generator(7, k, s) for k in range(7) for s in (1, -1)]
    orbit = [(x * U7).coeffs for x in shifts]
    assert len(set(orbit)) == 14
    assert {(x * U7).class_key() for x in shifts} == {min(orbit)}
    assert U7.class_key() == (-U7).coeffs
    assert gen(7, 4).class_key() == (-1,) + (0,) * 6
    assert is_trivial_class(WhiteheadClass(-gen(7, 4)))
    assert not is_trivial_class(WhiteheadClass(U7))


def test_wh_class_equal_matches_the_inverse_product_oracle():
    # random units of Z[C_7] from the twists of U7 and their inverses,
    # each also times trivial units +-t^k
    rng = random.Random(37)
    u = WhiteheadClass(U7)
    factors = [u.twist(i) for i in range(1, 7)] + \
        [u.twist(i).inverse_class() for i in range(1, 7)]
    units = [trivial_class(7)]
    for _ in range(10):
        c = trivial_class(7)
        for _ in range(rng.randint(1, 3)):
            c = c.times(rng.choice(factors))
        units.append(c)
    sample = list(units)
    for c in units:
        for _ in range(2):
            shift = generator(7, rng.randrange(7), rng.choice((1, -1)))
            sample.append(c.times(WhiteheadClass(shift)))
    equal = 0
    for a in sample:
        for b in sample:
            same = unit_class_equal(a, b)
            assert wh_class_equal(a, b) == same
            equal += same
    assert len(sample) < equal < len(sample) ** 2


def test_wh_class_is_equivalence_relation():
    u = WhiteheadClass(U7)
    sample = [trivial_class(7), u, u.twist(2), u.twist(3),
              u.twist(6), u.conj(), WhiteheadClass(-gen(7, 2)),
              u.times(u), u.inverse_class()]
    for a in sample:
        assert wh_class_equal(a, a)
        for b in sample:
            assert wh_class_equal(a, b) == wh_class_equal(b, a)
            for c in sample:
                if wh_class_equal(a, b) and wh_class_equal(b, c):
                    assert wh_class_equal(a, c)


def test_not_a_unit_propagates():
    with pytest.raises(NotAUnitError):
        WhiteheadClass(GroupRingElement(7, (1, 1, 0, 0, 0, 0, 0)))


def test_invert_unit_against_augmentation_and_resultant():
    # oracle: Z[C_p] is the pullback of Z and Z[zeta_p] over F_p, so x is
    # a unit exactly when its augmentation is +-1 and so is the norm of
    # its projection, the resultant of the cyclotomic polynomial with the
    # representative polynomial
    rng = random.Random(13)
    verdicts = set()
    for p in (5, 7, 11, 13):
        one = GroupRingElement.one(p)
        sample = [gen(p) - one, gen(p, 2) + one + one, bass_unit(p),
                  GroupRingElement(p, [rng.randint(-3, 3) for _ in range(p)])]
        if p == 7:
            sample += [U7, GroupRingElement(7, (3, 1, 0, 0, 2, 0, 0))]
        for x in sample:
            z = _cyclotomic_fold(p, x.coeffs)
            unit = x.augmentation() in (1, -1) and \
                sylvester_resultant([1] * p, z) in (1, -1)
            inv = invert_unit(x)
            assert (inv is not None) == unit, x
            if unit:
                assert x * inv == one
            verdicts.add(unit)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 23])
def test_cyclotomic_product_and_galois_match_schoolbook_oracles(p):
    # the product and the twists of Z[C_p], folded into Z[zeta_p], against
    # the schoolbook product and the index map of the folded operands
    rng = random.Random(p)
    twists = [i for i in range(1 - 2 * p, 2 * p) if i % p]
    for _ in range(20):
        x = GroupRingElement(p, [rng.randint(-9, 9) for _ in range(p)])
        y = GroupRingElement(p, [rng.randint(-9, 9) for _ in range(p)])
        a, b = _cyclotomic_fold(p, x.coeffs), _cyclotomic_fold(p, y.coeffs)
        assert _cyclotomic_fold(p, (x * y).coeffs) == \
            cyclotomic_product(p, a, b)
        for i in twists:
            assert _cyclotomic_fold(p, galois_twist(x, i).coeffs) == \
                cyclotomic_galois(p, a, i)


def test_serialization_round_trip():
    blob = json.dumps(U7.to_dict())
    assert ring_element_from_dict(json.loads(blob)) == U7
    big = GroupRingElement(3, (10 ** 40, -(10 ** 41), 7))
    assert ring_element_from_dict(json.loads(json.dumps(big.to_dict()))) == big
