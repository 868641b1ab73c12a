"""Random presentations as a standing differential test.

A target is a direct sum of one to three blocks -- Z or Z/d acted on by
+-1, the swap on (Z/d)^2, and Z/m twisted by a unit u with u^2 = 1 and
u != +-1 (mod m) -- conjugated by a random unimodular change of
generators U: relations U R and involution U T U^-1.  Such targets have
Smith left transforms other than the identity and echelon bases whose
radices differ from their invariant factors, which the hand-written
targets of the other tests seldom reach.  On each target the compiled
duality checks of ``whcalc.falg``, which read the Smith left transform,
are compared with the brute-force duality oracle.  ``hypothesis``
drives the generator derandomized, so a failure shrinks to a small
presentation and every run sees the same examples; the whole test
stays within a few seconds.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from whcalc.abelian import FgAbGroup, InvolutiveAbelianGroup, homology_c2
from whcalc.falg import (all_dualities_hold, falg_group,
                         generalized_duality_holds, iota_shriek,
                         moore_homotopy)
from whcalc.simplicial import face_dim

# (m, u) with u^2 = 1 and u != +-1 modulo m
TWISTS = [(8, 3), (8, 5), (12, 5), (12, 7), (15, 4), (15, 11)]

BLOCKS = st.one_of(
    st.tuples(st.just("cyclic"), st.sampled_from([0, 2, 3, 4, 5, 6]),
              st.sampled_from([1, -1])),
    st.tuples(st.just("swap"), st.sampled_from([0, 2, 3, 4])),
    st.tuples(st.just("twist"), st.sampled_from(TWISTS)),
)

# the falg groups at p <= 1 have up to |A|^2 elements; list those that
# have at most this many
FALG_ORDER_CAP = 150


def _block(block):
    """(relation columns, involution rows) of one block, on its own
    generators."""
    kind = block[0]
    if kind == "cyclic":
        _, d, sign = block
        return ([[d]] if d else []), [[sign]]
    if kind == "swap":
        d = block[1]
        return ([[d, 0], [0, d]] if d else []), [[0, 1], [1, 0]]
    m, u = block[1]
    return [[m]], [[u]]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _unimodular(rng, g):
    """A random unimodular U and its inverse, from elementary row moves."""
    u = [[int(i == j) for j in range(g)] for i in range(g)]
    inv = [row[:] for row in u]
    for _ in range(rng.randint(0, 4) if g > 1 else 0):
        i, j = rng.sample(range(g), 2)
        c = rng.choice([-2, -1, 1, 2])
        # U <- (1 + c e_ij) U and U^-1 <- U^-1 (1 - c e_ij)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    if rng.random() < 0.5:
        i = rng.randrange(g)
        u[i] = [-x for x in u[i]]
        for row in inv:
            row[i] = -row[i]
    return u, inv


def presentation(blocks, seed):
    """The conjugated direct sum of ``blocks``, as a group."""
    g = sum(len(_block(b)[1]) for b in blocks)
    cols, t = [], [[0] * g for _ in range(g)]
    at = 0
    for block in blocks:
        bcols, bt = _block(block)
        k = len(bt)
        for col in bcols:
            cols.append([0] * at + col + [0] * (g - at - k))
        for i in range(k):
            t[at + i][at:at + k] = bt[i]
        at += k
    u, inv = _unimodular(random.Random(seed), g)
    rel_cols = [[sum(x * y for x, y in zip(row, col)) for row in u]
                for col in cols]
    relations = [[col[i] for col in rel_cols] for i in range(g)]
    return InvolutiveAbelianGroup(g, relations, _matmul(_matmul(u, t), inv))


PRESENTATIONS = st.builds(presentation,
                          st.lists(BLOCKS, min_size=1, max_size=3),
                          st.integers(0, 2**16))


def smith_membership(target, vec):
    """Membership in the relation lattice read off ``smith_basis``: each
    coordinate of ``left @ vec`` is a multiple of its modulus."""
    moduli, left = target.smith_basis
    coords = [sum(x * y for x, y in zip(row, vec)) for row in left]
    return all(c % m == 0 if m else c == 0 for c, m in zip(coords, moduli))


def element_checks_match(target, rng):
    """The compiled duality checks of ``whcalc.falg`` against
    ``_oracles.duality_holds`` at ambient 1..3, on a member of the
    simplicial group, the same with one face value moved and random face
    values: ``all_dualities_hold`` against every single horn, and
    ``generalized_duality_holds`` at every face and proper index set.
    Returns the verdicts of each kind."""
    g = target.generator_count
    verdicts = {"horns": set(), "duality": set()}
    for p in (1, 2, 3):
        faces = range(1, (1 << (p + 1)) - 1)
        member = _oracles.psi_section(
            target, p - 1, [rng.randint(-9, 9) for _ in range(g)]).functor
        moved = member.values
        face, r = rng.choice(faces), rng.randrange(g)
        moved[face] = tuple(x + (i == r) for i, x in enumerate(moved[face]))
        rand = {f: tuple(rng.randint(-30, 30) for _ in range(g))
                for f in faces}
        for values in (member.values, moved, rand):
            tf = iota_shriek(values, p, target)
            held = all(_oracles.duality_holds(tf, sigma, (i,))
                       for sigma in range(1, 1 << (p + 1))
                       if face_dim(sigma) >= 1
                       for i in range(face_dim(sigma) + 1))
            assert all_dualities_hold(tf) is held, (p, values)
            verdicts["horns"].add(held)
            for sigma in range(1, 1 << (p + 1)):
                d = face_dim(sigma)
                for k in range(1, d + 1):
                    for idx in combinations(range(d + 1), k):
                        held = _oracles.duality_holds(tf, sigma, idx)
                        assert generalized_duality_holds(tf, sigma, idx) \
                            is held, (p, values, sigma, idx)
                        verdicts["duality"].add(held)
    return verdicts


def assert_lists_once(elements, order, reduce):
    seen = set()
    for v in elements:
        assert reduce(v) == v, v
        assert v not in seen, v
        seen.add(v)
    assert len(seen) == order


@settings(max_examples=100, deadline=None, derandomize=True)
@given(PRESENTATIONS, st.randoms(use_true_random=False))
def test_random_presentation(target, rng):
    g = target.generator_count
    rel_cols = target.relation_columns()
    divisors = _oracles.diagonal_divisors(target.relations)
    expect = FgAbGroup.from_factors(divisors + [0] * (g - len(divisors)))
    assert target.isomorphism_type() == expect

    order = _oracles.group_order(target.isomorphism_type())
    if order is None:
        with pytest.raises(ValueError, match="infinite"):
            next(iter(_oracles.group_elements(target)))
    else:
        assert_lists_once(_oracles.group_elements(target), order,
                          target.reduce)

    members = []
    for _ in range(8):
        coeffs = [rng.randint(-3, 3) for _ in rel_cols]
        members.append([sum(c * col[i] for c, col in zip(coeffs, rel_cols))
                        for i in range(g)])
    randoms = [[rng.randint(-30, 30) for _ in range(g)] for _ in range(8)]
    for vec in members:
        assert smith_membership(target, vec)
        assert target.is_zero_element(vec)
    for vec in randoms:
        assert smith_membership(target, vec) == target.is_zero_element(vec)

    for n in range(4):
        assert moore_homotopy(target, n) == homology_c2(target, n), n

    # a generator of its own, so that these draws do not feed the search
    checks = element_checks_match(target, random.Random(rng.getrandbits(32)))
    assert checks == {"horns": {True, False}, "duality": {True, False}}

    for p in range(2):
        group = falg_group(target, p)
        order = _oracles.group_order(group.isomorphism_type)
        if order is None:
            with pytest.raises(ValueError, match="infinite"):
                next(iter(group.elements()))
        elif order <= FALG_ORDER_CAP:
            assert_lists_once((el.functor.flat for el in group.elements()),
                              order, target.reduce)
