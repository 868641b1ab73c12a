"""The two paths of the homotopy check share nothing beyond the kernel.

``moore_homotopy`` solves the constraint systems of ``falg``;
``homology_c2`` takes cokernels and quotients of the target's own
matrices in ``abelian``.  Their agreement checks something only while a bug in one
cannot reach the other, so a call trace of both over the benchmark's
sweep targets lists the whcalc functions each runs, and every function
both run must be on ``SHARED``.

The element checks of ``falg`` (``check_square`` and the dualities) and
its constraint equations (``_membership_rows`` under ``falg_group``)
cross-check each other the same way, so they too may share only what
``ELEMENT_SHARED`` lists.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

import whcalc
from whcalc.abelian import InvolutiveAbelianGroup, homology_c2
from whcalc.falg import (TorsionFunctor, _proper_faces, _top_mask,
                         all_dualities_hold, check_square, falg_group,
                         generalized_duality_holds, iota_shriek,
                         moore_homotopy)

PACKAGE = Path(whcalc.__file__).resolve().parent

SWEEP_TARGETS = [InvolutiveAbelianGroup.from_factors(f, s)
                 for f in ([2], [3], [4], [2, 2])
                 for s in (1, -1)]

# (file in the package, qualified name, or None for every function of
# the file).  Besides the integer kernel, both paths build their answer
# as an FgAbGroup from a list of factors: a bug in ``_factor_chain``
# would make both wrong alike, so ``tests/_oracles.py`` checks it
# against factoring (``factored_chain``).
SHARED = {
    ("lattice.py", None),
    ("_snf/pure.py", None),
    ("_value.py", "Frozen._freeze"),
    ("abelian.py", "FgAbGroup.__init__"),
    ("abelian.py", "FgAbGroup.from_factors"),
    ("abelian.py", "_factor_chain"),
    ("abelian.py", "InvolutiveAbelianGroup.relation_columns"),
}


# The element checks and the constraint equations both enumerate the
# faces of the ambient simplex and sign terms by parity; they share
# nothing that turns faces into coefficients.
ELEMENT_SHARED = {
    # the integer kernel: the compiled check rows and the solution lattices
    ("lattice.py", None),
    ("_snf/pure.py", None),
    # the value base classes only store and compare fields
    ("_value.py", None),
    # face bitmasks: vertices, dimension, boundary faces and subfaces
    ("simplicial.py", "vertices_of"),
    ("simplicial.py", "face_dim"),
    ("simplicial.py", "face_boundary"),
    ("simplicial.py", "subfaces"),
    # the faces of the ambient simplex, its top face and (-1)^k
    ("falg.py", "_all_faces"),
    ("falg.py", "_proper_faces"),
    ("falg.py", "_top_mask"),
    ("falg.py", "_sign"),
}


def clear_caches():
    """Empty every whcalc lru cache, so a traced call runs in full."""
    for name, module in list(sys.modules.items()):
        if name == "whcalc" or name.startswith("whcalc."):
            for obj in list(vars(module).values()):
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def traced(run):
    """The (file, qualified name) of every whcalc function ``run()`` runs,
    from cold caches."""
    codes = set()

    def on_call(frame, event, arg):
        codes.add(frame.f_code)

    clear_caches()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    out = set()
    for code in codes:
        file = Path(code.co_filename).resolve()
        if PACKAGE in file.parents:
            out.add((file.relative_to(PACKAGE).as_posix(), code.co_qualname))
    return out


def sweep(path):
    """Run ``path`` on the sweep targets at n = 0..3."""
    def run():
        for target in SWEEP_TARGETS:
            for n in range(4):
                path(target, n)
    return run


def element_checks():
    """``check_square``, ``all_dualities_hold`` and every generalized
    duality of the top face, on the zero functor and a random one at
    ambient 1..3 over the sweep targets."""
    rng = random.Random(7)
    for target in SWEEP_TARGETS:
        g = target.generator_count
        for p in range(1, 4):
            values = {f: tuple(rng.randrange(4) for _ in range(g))
                      for f in _proper_faces(p)}
            for tf in (TorsionFunctor.zero(p, target),
                       iota_shriek(values, p, target)):
                check_square(tf)
                all_dualities_hold(tf)
                for r in range(1, p + 1):
                    for index_set in combinations(range(p + 1), r):
                        generalized_duality_holds(tf, _top_mask(p), index_set)


def constraint_groups():
    """``falg_group`` at p = 0..2, the ambients of ``element_checks``."""
    for target in SWEEP_TARGETS:
        for p in range(3):
            falg_group(target, p)


def not_allowed(shared, allow):
    return sorted(c for c in shared if not any(
        c[0] == f and (name is None or c[1] == name
                       or c[1].startswith(name + ".<locals>."))
        for f, name in allow))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="qualified code names need Python 3.11")
def test_homotopy_and_homology_share_only_the_allowed_functions():
    constraint = traced(sweep(moore_homotopy))
    homology = traced(sweep(homology_c2))
    assert ("falg.py", "moore_homotopy") in constraint
    assert ("abelian.py", "homology_c2") in homology
    shared = constraint & homology
    assert ("lattice.py", "_eliminate") in shared
    assert not not_allowed(shared, SHARED), not_allowed(shared, SHARED)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="qualified code names need Python 3.11")
def test_element_checks_and_constraint_rows_share_only_face_helpers():
    elements = traced(element_checks)
    constraint = traced(constraint_groups)
    assert {("falg.py", "check_square"), ("falg.py", "_duality_form"),
            ("falg.py", "_complex_form")} <= elements
    assert ("falg.py", "_membership_rows") in constraint
    shared = elements & constraint
    assert ("lattice.py", "_eliminate") not in shared
    assert not not_allowed(shared, ELEMENT_SHARED), \
        not_allowed(shared, ELEMENT_SHARED)
