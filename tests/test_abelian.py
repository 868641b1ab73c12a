"""Homology of the order-two group: SNF path against closed-form oracles."""

from __future__ import annotations

import random
import re

import pytest

from whcalc.abelian import (FgAbGroup, InvolutiveAbelianGroup,
                            double_subgroup, homology_c2, tate_homology_c2)

from _oracles import cyclic_c2_homology, factored_chain


def test_fgab_normalization():
    assert FgAbGroup.from_factors([6, 9]).invariant_factors == (3, 18)
    assert FgAbGroup.from_factors([1, 1]).is_trivial()
    assert FgAbGroup.from_factors([0, 4, 2]).invariant_factors == (2, 4, 0)
    assert str(FgAbGroup.from_factors([2, 0])) == "Z/2 x Z"
    assert FgAbGroup.from_factors([4, 6]).order() == 24
    assert FgAbGroup.from_factors([0]).order() is None


def test_factor_chain_matches_factoring_oracle():
    # gcd/lcm normal form against trial-division factoring, on lists with
    # shared prime powers, units, zeros and signs
    rng = random.Random(16)
    for _ in range(3000):
        values = [rng.choice((-1, 1)) * rng.choice((0, 1, 2, 3, 4, 5, 6, 8, 9,
                                                     12, 25, 27, 36, 49, 60,
                                                     rng.randint(0, 400)))
                  for _ in range(rng.randint(0, 6))]
        assert FgAbGroup.from_factors(values).invariant_factors \
            == factored_chain(values), values


def test_fgab_rejects_bad_chain():
    with pytest.raises(ValueError):
        FgAbGroup((3, 4))
    with pytest.raises(ValueError):
        FgAbGroup((1,))
    with pytest.raises(ValueError, match="free factors must come last"):
        FgAbGroup([0, 2])


def test_involution_validation():
    with pytest.raises(ValueError):
        InvolutiveAbelianGroup(
            1, [[]], [[2]])
    # sign involution is fine on Z/5 because -1 squares to 1
    InvolutiveAbelianGroup.cyclic(5, -1)


def test_shape_errors_name_the_expected_shape():
    # a free group takes one empty relation row per generator, and the
    # message for the natural empty list says so
    swap = [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match=re.escape("[[]] * 2")):
        InvolutiveAbelianGroup(2, [], swap)
    with pytest.raises(ValueError, match="relations must be 2 rows"):
        InvolutiveAbelianGroup(2, [[2], []], swap)
    with pytest.raises(ValueError, match="involution must be a 2 x 2"):
        InvolutiveAbelianGroup(2, [[]] * 2, [[0, 1]])
    assert InvolutiveAbelianGroup(2, [[]] * 2, swap) == \
        InvolutiveAbelianGroup(2, [[], []], swap)


def test_golden_values():
    zt = InvolutiveAbelianGroup.free(1, 1)
    assert [str(homology_c2(zt, n)) for n in range(4)] == \
        ["Z", "Z/2", "0", "Z/2"]
    zs = InvolutiveAbelianGroup.free(1, -1)
    assert [str(homology_c2(zs, n)) for n in range(3)] == ["Z/2", "0", "Z/2"]
    z2t = InvolutiveAbelianGroup.free(2, 1)
    assert str(homology_c2(z2t, 1)) == "Z/2 x Z/2"


def test_cyclic_against_closed_form_oracle():
    for m in range(1, 13):
        for sign in (1, -1):
            a = InvolutiveAbelianGroup.cyclic(m, sign)
            for n in range(5):
                assert homology_c2(a, n) == cyclic_c2_homology(m, sign, n), \
                    (m, sign, n)


def test_free_against_closed_form_oracle():
    for sign in (1, -1):
        a = InvolutiveAbelianGroup.free(1, sign)
        for n in range(5):
            assert homology_c2(a, n) == cyclic_c2_homology(0, sign, n)


def test_two_periodicity():
    groups = [InvolutiveAbelianGroup.free(1, 1),
              InvolutiveAbelianGroup.free(2, -1),
              InvolutiveAbelianGroup.cyclic(8, 1),
              InvolutiveAbelianGroup.from_factors([2, 4], -1)]
    for a in groups:
        for n in range(1, 4):
            assert homology_c2(a, n) == homology_c2(a, n + 2)


def test_exponent_two_for_free_modules():
    for rank in (1, 2, 3):
        for sign in (1, -1):
            a = InvolutiveAbelianGroup.free(rank, sign)
            for n in range(1, 4):
                assert set(homology_c2(a, n).invariant_factors) <= {2}


def test_nontrivial_involution_matrix():
    # swap involution on Z^2: coinvariants Z, higher homology vanishes
    swap = [[0, 1], [1, 0]]
    a = InvolutiveAbelianGroup(2, [[], []], swap)
    assert str(homology_c2(a, 0)) == "Z"
    assert homology_c2(a, 1).is_trivial()
    assert homology_c2(a, 2).is_trivial()


def test_tate_examples():
    zt = InvolutiveAbelianGroup.free(1, 1)
    assert tate_homology_c2(zt, 0).is_trivial()  # {a = -a} inside Z
    z2 = InvolutiveAbelianGroup.cyclic(2, 1)
    for n in (-4, -3, -2, -1, 0, 1, 2, 3):
        assert str(tate_homology_c2(z2, n)) == "Z/2"
    zero = InvolutiveAbelianGroup.zero()
    for n in (-2, -1, 0, 1):
        assert tate_homology_c2(zero, n).is_trivial()


def test_tate_matches_homology_positively_and_periodicity():
    groups = [InvolutiveAbelianGroup.free(1, 1),
              InvolutiveAbelianGroup.cyclic(4, -1),
              InvolutiveAbelianGroup.from_factors([2, 6], 1)]
    for a in groups:
        for n in range(1, 4):
            assert tate_homology_c2(a, n) == homology_c2(a, n)
        for n in range(-3, 2):
            assert tate_homology_c2(a, n) == tate_homology_c2(a, n + 2)


def test_double_subgroup():
    zt = InvolutiveAbelianGroup.free(1, 1)
    assert double_subgroup(zt, 1).subgroup.is_trivial()
    even = double_subgroup(zt, 0)
    assert str(even.subgroup) == "Z" and str(even.quotient) == "Z/2"
    z6 = InvolutiveAbelianGroup.cyclic(6, 1)
    assert str(double_subgroup(z6, 0).subgroup) == "Z/3"
    zero = InvolutiveAbelianGroup.zero()
    assert double_subgroup(zero, 1).subgroup.is_trivial()
    # only the parity of the dimension matters
    assert double_subgroup(zt, 11).subgroup.is_trivial()


def test_double_quotient_matches_degree_zero_homology():
    # when the stored action matches the parity convention, A/D = H_0
    for m, sign in ((6, 1), (8, -1), (0, 1)):
        a = InvolutiveAbelianGroup.cyclic(m, sign) if m else \
            InvolutiveAbelianGroup.free(1, sign)
        for d in (10, 11):
            full = a.parity_action(d)
            dd = double_subgroup(a, d)
            assert dd.quotient == homology_c2(full, 0)


def test_randomized_presentations_against_enumeration():
    # small random presentations with involution = +-identity: compare
    # against the brute-force subquotient on enumerated elements
    rng = random.Random(23)
    for _ in range(40):
        g = rng.randint(1, 2)
        n_rel = rng.randint(1, 2)
        rel = [[rng.choice((2, 3, 4, 6)) if i == j else 0
                for j in range(n_rel)] for i in range(g)]
        sign = rng.choice((1, -1))
        inv = [[sign * (i == j) for j in range(g)] for i in range(g)]
        a = InvolutiveAbelianGroup(g, rel, inv)
        if a.order() is None:
            continue
        for n in range(3):
            got = homology_c2(a, n)
            expect = _brute_homology(a, n)
            assert got.order() == expect, (rel, sign, n)


def _brute_homology(a, n):
    """Order of the homology by raw element enumeration."""
    elems = list(a.elements())
    lat = a.relation_lattice()

    def act(v, eps):
        tv = a.act(v)
        return tuple(x + eps * y for x, y in zip(v, tv))

    if n == 0:
        image = {lat.reduce(act(v, -1)) for v in elems}
        sub = _span(image, a)
        return len(elems) // len(sub)
    eps = 1 if (n + 1) % 2 == 0 else -1
    kernel = [v for v in elems if a.is_zero_element(act(v, -eps))]
    image = _span({lat.reduce(act(v, eps)) for v in elems}, a)
    return len(kernel) // len(image)


def _span(gens, a):
    lat = a.relation_lattice()
    seen = {lat.reduce((0,) * a.generator_count)}
    frontier = set(gens)
    while frontier:
        new = set()
        for x in frontier:
            for g in gens:
                y = lat.reduce(tuple(p + q for p, q in zip(x, g)))
                if y not in seen:
                    seen.add(y)
                    new.add(y)
        frontier = new
    return seen


def test_serialization_round_trip():
    a = InvolutiveAbelianGroup.from_factors([2, 4], -1)
    assert InvolutiveAbelianGroup.from_dict(a.to_dict()) == a
    h = homology_c2(a, 1)
    assert FgAbGroup.from_dict(h.to_dict()) == h
