"""The two paths of the homotopy check share nothing beyond the kernel.

``moore_homotopy`` solves the constraint systems of ``falg``;
``homology_c2`` takes Smith normal forms of the target's own matrices in
``abelian``.  Their agreement checks something only while a bug in one
cannot reach the other, so a call trace of both over the benchmark's
sweep targets lists the whcalc functions each runs, and every function
both run must be on ``SHARED``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import whcalc
from whcalc.abelian import InvolutiveAbelianGroup, homology_c2
from whcalc.falg import moore_homotopy

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


def clear_caches():
    """Empty every whcalc lru cache, so a traced call runs in full."""
    for name, module in list(sys.modules.items()):
        if name == "whcalc" or name.startswith("whcalc."):
            for obj in list(vars(module).values()):
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def traced(path):
    """The (file, qualified name) of every whcalc function ``path`` runs
    on the sweep targets at n = 0..3, from cold caches."""
    codes = set()

    def on_call(frame, event, arg):
        codes.add(frame.f_code)

    clear_caches()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for target in SWEEP_TARGETS:
            for n in range(4):
                path(target, n)
    finally:
        sys.settrace(previous)
    out = set()
    for code in codes:
        file = Path(code.co_filename).resolve()
        if PACKAGE in file.parents:
            out.add((file.relative_to(PACKAGE).as_posix(), code.co_qualname))
    return out


def allowed(file, qualname):
    return any(file == f and (name is None or qualname == name
                              or qualname.startswith(name + ".<locals>."))
               for f, name in SHARED)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="qualified code names need Python 3.11")
def test_homotopy_and_homology_share_only_the_allowed_functions():
    constraint = traced(moore_homotopy)
    homology = traced(homology_c2)
    assert ("falg.py", "moore_homotopy") in constraint
    assert ("abelian.py", "homology_c2") in homology
    shared = constraint & homology
    assert ("lattice.py", "_eliminate") in shared
    assert not [c for c in shared if not allowed(*c)], sorted(
        c for c in shared if not allowed(*c))
