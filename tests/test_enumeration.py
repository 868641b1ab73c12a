"""Enumeration lists each element of a finite group exactly once.

``lattice.span_elements`` keeps no set of the values it has seen: it
relies on the generators of ``lattice.quotient_with_generators`` being
independent, generator i of order exactly ``invariant_factors[i]``
modulo the relations.  Both enumerations rest on that, the elements of
an ``InvolutiveAbelianGroup`` and those of ``FAlgGroup``, which reduce
each sum once.
"""

from __future__ import annotations

import pytest

from whcalc import lattice
from whcalc.abelian import InvolutiveAbelianGroup
from whcalc.falg import falg_group, normalized_group

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
    "zero": InvolutiveAbelianGroup.zero(),
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


def exact_order(vec, is_zero, bound):
    """The least k in 1..bound with k * vec zero, else None."""
    for k in range(1, bound + 1):
        if is_zero([k * x for x in vec]):
            return k
    return None


def assert_independent(gens, factors, is_zero):
    assert len(gens) == len(factors)
    for gen, d in zip(gens, factors):
        assert exact_order(gen, is_zero, d) == d


@pytest.mark.parametrize("name", ABELIAN_TARGETS)
def test_abelian_elements_once_each_and_reduced(name):
    a = ABELIAN_TARGETS[name]
    elems = list(a.elements())
    assert len(set(elems)) == len(elems) == a.order()
    assert all(a.reduce(v) == v for v in elems)


@pytest.mark.parametrize("name", ABELIAN_TARGETS)
def test_abelian_generators_have_their_exact_orders(name):
    a = ABELIAN_TARGETS[name]
    g = a.generator_count
    factors, gens = lattice.quotient_with_generators(
        lattice.identity(g), a.relation_columns(), g)
    assert tuple(factors) == a.isomorphism_type().invariant_factors
    assert_independent(gens, factors, a.is_zero_element)


@pytest.mark.parametrize("build", [falg_group, normalized_group])
@pytest.mark.parametrize("name", SWEEP_TARGETS)
def test_falg_elements_once_each_and_reduced(name, build):
    target = SWEEP_TARGETS[name]
    for p in range(3):
        group = build(target, p)
        assert_independent(group.generator_vectors,
                           group.isomorphism_type.invariant_factors,
                           target.is_zero_element)
        flats = [el.functor.flat for el in group.elements()]
        assert len(set(flats)) == len(flats) == group.order, (name, p)
        assert all(target.reduce(v) == v for v in flats)


@pytest.mark.parametrize("name", FREE_TARGETS)
def test_free_targets_refuse_on_the_first_element(name):
    target = FREE_TARGETS[name]
    for elements in [target.elements()] + [
            build(target, p).elements()
            for build in (falg_group, normalized_group) for p in range(3)]:
        with pytest.raises(ValueError, match="infinite"):
            next(elements)
