"""Enumeration lists each element of a finite group exactly once.

``lattice.span_elements`` keeps no set of the values it has seen: it
relies on the mixed-radix basis of ``lattice.quotient_with_generators``,
the numerator's echelon vectors with the pivots of the relations'
column echelon form as radices, whose digit vectors are the canonical
representatives of ``Lattice.reduce``.  Both enumerations rest on that,
the elements of an ``InvolutiveAbelianGroup``, whose digits are already
reduced, and those of ``FAlgGroup``, which reduce each sum once.
"""

from __future__ import annotations

from math import prod

import pytest

from whcalc import lattice
from whcalc.abelian import FgAbGroup, InvolutiveAbelianGroup
from whcalc.falg import falg_group, normalized_group

from _oracles import group_elements, group_order, identity, zero_group

FA = InvolutiveAbelianGroup.from_factors

ABELIAN_TARGETS = {
    "z2-trivial": FA([2], 1), "z2-sign": FA([2], -1),
    "z4-trivial": FA([4], 1), "z4-sign": FA([4], -1),
    "z2+z2-trivial": FA([2, 2], 1), "z2+z2-sign": FA([2, 2], -1),
    "z2+z4-sign": FA([2, 4], -1),
    "z3+z3-trivial": FA([3, 3], 1),
    "z2+z2-swap": InvolutiveAbelianGroup(2, [[2, 0], [0, 2]],
                                         [[0, 1], [1, 0]]),
    # relation columns (2, 0) and (1, 3): Z/6, generated by no unit vector
    "z6-skew": InvolutiveAbelianGroup(2, [[2, 1], [0, 3]], [[1, 0], [0, 1]]),
    "zero": zero_group(),
}

SWEEP_TARGETS = {f"{name}-{action}": FA(factors, sign)
                 for name, factors in (("z2", [2]), ("z3", [3]), ("z4", [4]),
                                       ("z2+z2", [2, 2]))
                 for action, sign in (("trivial", 1), ("sign", -1))}

FREE_TARGETS = {
    "z-trivial": InvolutiveAbelianGroup.free(1, 1),
    "z+z2-sign": FA([0, 2], -1),
    "z^2-swap": InvolutiveAbelianGroup(2, [[]] * 2, [[0, 1], [1, 0]]),
}


@pytest.mark.parametrize("name", ABELIAN_TARGETS)
def test_abelian_elements_once_each_and_reduced(name):
    a = ABELIAN_TARGETS[name]
    elems = list(group_elements(a))
    assert len(set(elems)) == len(elems) == group_order(a.isomorphism_type())
    assert all(a.reduce(v) == v for v in elems)


@pytest.mark.parametrize("name", ABELIAN_TARGETS)
def test_abelian_generators_have_their_exact_orders(name):
    # the radices size the group: their product is its order, their zeros
    # count its free rank, and the factors are those of the quotient
    a = ABELIAN_TARGETS[name]
    g = a.generator_count
    rel = a.relation_columns()
    factors, gens, radices = lattice.quotient_with_generators(
        identity(g), rel, g)
    assert len(gens) == len(radices)
    assert factors == lattice.quotient_factors(identity(g), rel)
    assert FgAbGroup.from_factors(factors) == a.isomorphism_type()
    assert prod(radices) == group_order(a.isomorphism_type())
    assert radices.count(0) == a.isomorphism_type().invariant_factors.count(0)


@pytest.mark.parametrize("build", [falg_group, normalized_group])
@pytest.mark.parametrize("name", SWEEP_TARGETS)
def test_falg_elements_once_each_and_reduced(name, build):
    target = SWEEP_TARGETS[name]
    for p in range(3):
        group = build(target, p)
        flats = [el.functor.flat for el in group.elements()]
        assert len(set(flats)) == len(flats) \
            == group_order(group.isomorphism_type), (name, p)
        assert all(target.reduce(v) == v for v in flats)


@pytest.mark.parametrize("name", FREE_TARGETS)
def test_free_targets_refuse_on_the_first_element(name):
    target = FREE_TARGETS[name]
    g = target.generator_count
    _factors, _gens, radices = lattice.quotient_with_generators(
        identity(g), target.relation_columns(), g)
    assert radices.count(0) \
        == target.isomorphism_type().invariant_factors.count(0)
    for elements in [group_elements(target)] + [
            build(target, p).elements()
            for build in (falg_group, normalized_group) for p in range(3)]:
        with pytest.raises(ValueError, match="infinite"):
            next(elements)
