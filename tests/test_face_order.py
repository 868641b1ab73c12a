"""Faces have one order, their bitmask, from the constraint equations to
the flat layout of a torsion functor.

Block k of the face-block equations of ``falg._membership_rows``, and of
their full-coordinate oracle ``_oracles.membership_equations``, is the
proper face with mask k + 1, which is block k + 1 of
``TorsionFunctor.flat``: the solved generators need no permutation, and
``iota_shriek`` checks the faces in the order it lays them out.
"""

from __future__ import annotations

import pytest

from test_enumeration import FA, SWEEP_TARGETS
from whcalc import falg
from whcalc.falg import falg_group, iota_shriek

import _oracles


@pytest.mark.parametrize("name", SWEEP_TARGETS)
def test_generators_solve_the_equations_in_flat_block_order(name):
    # flat blocks 1..top-1 of every generator, read as the equations'
    # blocks 0..top-2, satisfy every equation modulo the relation blocks
    target = SWEEP_TARGETS[name]
    g = target.generator_count
    checked = 0
    for p in range(3):
        eqs, n_faces = _oracles.membership_equations(p + 1)
        rows = falg._expand(target, eqs)
        for gen in falg_group(target, p).mixed_radix[0]:
            blocks = gen[g:(n_faces + 1) * g]
            images = [sum(c * blocks[j] for j, c in row.items())
                      for row in rows]
            assert target.is_zero_element(images), (p, gen)
            checked += 1
    assert checked


def test_iota_shriek_names_the_least_missing_face():
    # faces 01 (mask 3) and 2 (mask 4) are both missing at ambient 2
    values = {f: (1,) for f in (0b001, 0b010, 0b101, 0b110)}
    with pytest.raises(ValueError, match="missing value on face 01$"):
        iota_shriek(values, 2, FA([2], 1))
