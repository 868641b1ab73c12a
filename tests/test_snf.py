"""Smith normal form: the package's one mode, ``(diag, left)``, checked
against independent oracles, and the oracle ``smith_form`` that keeps
both transforms checked against its full contract."""

from __future__ import annotations

import random

from whcalc import _snf, lattice
from whcalc._snf import pure
from whcalc.abelian import FgAbGroup
from whcalc.groupring import GroupRingElement, invert_unit

from _oracles import (bareiss_determinant, bareiss_rank, diagonal_divisors,
                      factored_chain, mat_mul, mat_vec, smith_form,
                      smith_solve)


def check_contract(rows):
    """The package's ``(diag, left)`` for ``rows``, after checking it:
    positive entries, not necessarily a chain, with the invariant factors
    of ``diagonal_divisors``, one per unit of rank, and a unimodular
    ``left`` whose product with ``rows`` spans the lattice of the sum of
    the d_i Z e_i (0 past ``diag``)."""
    diag, left = pure.smith(rows)
    m = len(rows)
    assert all(d > 0 for d in diag)
    assert factored_chain(diag) == factored_chain(diagonal_divisors(rows))
    assert len(diag) == (bareiss_rank(rows) if rows and rows[0] else 0)
    if m:
        assert abs(bareiss_determinant(left)) == 1
    # every column of left @ rows lies in that diagonal lattice; both have
    # rank len(diag) and, as left is unimodular, the same invariant
    # factors, so the index is 1 and the spans are equal
    moduli = diag + [0] * (m - len(diag))
    for col in zip(*rows):
        assert all(x % d == 0 if d else x == 0
                   for x, d in zip(mat_vec(left, col), moduli))
    check_oracle_contract(rows)
    return diag


def check_oracle_contract(rows):
    """``smith_form`` of ``rows``: ``left @ rows @ right`` diagonal with
    the invariant factors of the package's ``diag``, both transforms
    unimodular."""
    diag, left, right = smith_form(rows)
    m, n = len(rows), len(rows[0]) if rows else 0
    prod = mat_mul(mat_mul(left, rows), right)
    for i in range(m):
        for j in range(n):
            assert prod[i][j] == (diag[i] if i == j and i < len(diag) else 0)
    if m:
        assert abs(bareiss_determinant(left)) == 1
    if n:
        assert abs(bareiss_determinant(right)) == 1
    assert factored_chain(diag) == factored_chain(pure.smith(rows)[0])


def test_identity():
    assert check_contract([[1, 0], [0, 1]]) == [1, 1]


def test_frozen_example():
    # independent oracle: rank 2 over Q, |det| = |2*8 - 4*6| = 8 = 2*4
    rows = [[2, 4], [6, 8]]
    assert abs(bareiss_determinant(rows)) == 8
    assert bareiss_rank(rows) == 2
    assert check_contract(rows) == [2, 4]


def test_zero_matrix():
    assert check_contract([[0, 0], [0, 0]]) == []


def test_empty_and_thin():
    assert pure.smith([]) == ([], [])
    assert smith_form([]) == ([], [], [])
    assert check_contract([[0], [3]]) == [3]
    assert check_contract([[5, 10, 15]]) == [5]


def test_divisibility_forcing():
    # diag(2, 3) need not become the chain (1, 6): its group is Z/6 either way
    diag = check_contract([[2, 0], [0, 3]])
    assert FgAbGroup.from_factors(diag) == FgAbGroup((6,))


def test_randomized_invariants():
    rng = random.Random(42)
    for _ in range(150):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        diag = check_contract(rows)
        # product of invariant factors = |det| for square nonsingular
        if m == n and len(diag) == n:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(bareiss_determinant(rows))


def test_dispatcher_handles_huge_intermediates():
    # determinant far beyond int64: must still be exact
    rng = random.Random(3)
    rows = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    diag, left = _snf.smith(rows)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(bareiss_determinant(rows))
    assert abs(bareiss_determinant(left)) == 1


def test_solver_and_kernel():
    a = [[2, 0, 4], [0, 3, 6]]
    x = lattice.Solver(a).solve([6, 9])
    assert x is not None and lattice.mat_vec(a, x) == [6, 9]
    assert lattice.Solver([[2]]).solve([3]) is None
    # one sparse column, zero-free with a positive leading entry
    (k,) = lattice.kernel_with_denominator(a, [], 3)
    assert all(k.values()) and k[min(k)] > 0
    assert lattice.mat_vec(a, [k.get(i, 0) for i in range(3)]) == [0, 0]


def random_system(rng, shape):
    """A matrix of the named shape and a right-hand side: A x0 for a
    random x0 half the time, else random (often unsolvable)."""
    n = rng.randint(1, 6)
    m = {"square": n, "singular": n + 1, "wide": rng.randint(1, n),
         "tall": n + rng.randint(1, 3)}[shape]
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    if shape == "singular":
        # a square system whose last column repeats a combination of the others
        k = rng.randint(-2, 2)
        rows = [r + [k * r[0] - r[-1]] for r in rows]
    if rng.random() < 0.5:
        x0 = [rng.randint(-4, 4) for _ in rows[0]]
        return rows, mat_vec(rows, x0)
    return rows, [rng.randint(-20, 20) for _ in rows]


def test_solve_matches_the_smith_route():
    rng = random.Random(30)
    for shape in ("square", "wide", "tall", "singular"):
        verdicts = set()
        for _ in range(150):
            rows, b = random_system(rng, shape)
            x, ref = lattice.Solver(rows).solve(b), smith_solve(rows, b)
            assert (x is None) == (ref is None), (rows, b)
            if x is not None:
                assert mat_vec(rows, x) == b
                assert mat_vec(rows, ref) == b
            verdicts.add(x is None)
        assert verdicts == {True, False}, shape
    # inconsistent over Q, and consistent over Q but not over Z
    assert lattice.Solver([[1, 2], [2, 4]]).solve([1, 3]) is None
    assert smith_solve([[1, 2], [2, 4]], [1, 3]) is None
    assert lattice.Solver([[2, 4], [6, 2]]).solve([1, 1]) is None
    assert smith_solve([[2, 4], [6, 2]], [1, 1]) is None
    assert lattice.Solver([[0, 0]]).solve([0]) == [0, 0]


def test_solve_and_invert_unit_take_no_smith_form(monkeypatch):
    calls = []
    smith = _snf.smith

    def counting(rows):
        calls.append(rows)
        return smith(rows)

    monkeypatch.setattr(_snf, "smith", counting)
    a = [[2, 0, 4], [0, 3, 6]]
    assert lattice.mat_vec(a, lattice.Solver(a).solve([6, 9])) == [6, 9]
    assert calls == []

    # the unit inverse is group-ring arithmetic: it reaches no elimination
    def refuse(*_args, **_kwargs):
        raise AssertionError("invert_unit reached lattice._eliminate")

    monkeypatch.setattr(lattice, "_eliminate", refuse)
    u = GroupRingElement(7, (2, 2, 0, -1, -1, -1, 0))
    assert invert_unit(u) == GroupRingElement(7, (1, -2, 3, -3, 3, -2, 1))


def test_lattice_reduction():
    lat = lattice.Lattice([[2, 0], [0, 4]], 2)
    assert lat.contains([4, 8])
    assert not lat.contains([1, 0])
    assert lat.reduce([5, 9]) == (1, 1)
    assert lat.reduce([5, 9]) == lat.reduce([3, 5])
