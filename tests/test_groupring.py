"""Group-ring arithmetic, involution, twists, units and classes."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whcalc.groupring import (CyclotomicElement, GroupRingElement,
                              NotAUnitError, OrientationCharacter,
                              WhiteheadClass, cyclotomic_project, galois_twist,
                              invert_unit, involution, wh_class_equal)

from _oracles import bareiss_determinant, sylvester_resultant

U7 = GroupRingElement(7, (2, 2, 0, -1, -1, -1, 0))
U7_INV = GroupRingElement(7, (1, -2, 3, -3, 3, -2, 1))
U5 = GroupRingElement(5, (1, -1, 0, 0, -1))


def gen(n, k=1):
    return GroupRingElement.generator(n, k)


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


def test_involution_examples():
    assert involution(gen(7)) == gen(7, 6)
    assert involution(U7) == GroupRingElement(7, (2, 0, -1, -1, -1, 0, 2))
    # cross-check the frozen value by an independent route: conj agrees
    # with the degree-(n-1) twist for this particular unit
    assert involution(U7) == galois_twist(U7, 6)
    assert involution(gen(2), OrientationCharacter(-1)) == -gen(2)


def test_sign_character_needs_even_order():
    with pytest.raises(ValueError):
        involution(gen(7), OrientationCharacter(-1))


@given(st.integers(2, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_involution_is_involutive(n, data):
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    x = GroupRingElement(n, tuple(coeffs))
    chars = [OrientationCharacter(1)]
    if n % 2 == 0:
        chars.append(OrientationCharacter(-1))
    for w in chars:
        assert involution(involution(x, w), w) == x


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


def bass_unit(p):
    """(1 + t)^m + ((1 - 2^m) / p) N in Z[C_p], m the order of 2 mod p and
    N the norm element: augmentation 1, a unit since 1 + zeta is one."""
    m = next(k for k in range(1, p) if pow(2, k, p) == 1)
    u = GroupRingElement.one(p)
    for _ in range(m):
        u = u * (GroupRingElement.one(p) + gen(p))
    return u + GroupRingElement(p, ((1 - 2 ** m) // p,) * p)


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
    one = WhiteheadClass.trivial(7)
    assert wh_class_equal(one, WhiteheadClass(-gen(7, 3)))


def test_wh_class_is_equivalence_relation():
    u = WhiteheadClass(U7)
    sample = [WhiteheadClass.trivial(7), u, u.twist(2), u.twist(3),
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
    # a given inverse is checked by multiplying it back
    with pytest.raises(NotAUnitError, match="does not invert"):
        WhiteheadClass(U7, U7)


def test_cyclotomic_projection():
    norm_elt = GroupRingElement(7, (1,) * 7)
    assert cyclotomic_project(norm_elt, 7).is_zero()
    assert cyclotomic_project(gen(7), 7) == CyclotomicElement.zeta(7)
    z = cyclotomic_project(U7, 7)
    assert [int(c) for c in z.coeffs] == [2, 2, 0, -1, -1, -1]
    assert z.norm() in (1, -1)


def test_cyclotomic_coefficients_are_integers():
    z = cyclotomic_project(U7, 7) * CyclotomicElement.zeta(7, 3)
    assert all(type(c) is int for c in z.coeffs)
    assert type(z.norm()) is int
    assert CyclotomicElement(5, (2.0, Fraction(3), 0, -1)).coeffs == (2, 3, 0, -1)
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError, match="integers"):
            CyclotomicElement(5, (1, bad, 0, 0))


def test_cyclotomic_norm_against_resultant():
    # oracle: norm = resultant of the cyclotomic polynomial with the
    # representative polynomial
    for x in (U7, gen(7) - GroupRingElement.one(7),
              GroupRingElement(7, (3, 1, 0, 0, 2, 0, 0))):
        z = cyclotomic_project(x, 7)
        poly = [c for c in z.coeffs]
        res = sylvester_resultant([1] * 7, poly)
        assert z.norm() == res


def test_cyclotomic_projection_is_ring_hom():
    rng = random.Random(5)
    for _ in range(30):
        x = GroupRingElement(7, tuple(rng.randint(-4, 4) for _ in range(7)))
        y = GroupRingElement(7, tuple(rng.randint(-4, 4) for _ in range(7)))
        assert cyclotomic_project(x * y, 7) == \
            cyclotomic_project(x, 7) * cyclotomic_project(y, 7)
        assert cyclotomic_project(x + y, 7) == \
            cyclotomic_project(x, 7) + cyclotomic_project(y, 7)


def test_cyclotomic_project_requires_matching_order():
    with pytest.raises(ValueError):
        cyclotomic_project(gen(6), 7)


def test_serialization_round_trip():
    blob = json.dumps(U7.to_dict())
    assert GroupRingElement.from_dict(json.loads(blob)) == U7
    big = GroupRingElement(3, (10 ** 40, -(10 ** 41), 7))
    assert GroupRingElement.from_dict(json.loads(json.dumps(big.to_dict()))) == big
