"""Smith normal form kernel: contract and randomized invariants."""

from __future__ import annotations

import random

from whcalc import _snf, lattice
from whcalc._snf import pure

from _oracles import bareiss_determinant, bareiss_rank


def check_contract(rows):
    diag, left, right = pure.smith(rows, True)
    m, n = len(rows), len(rows[0]) if rows else 0
    prod = lattice.mat_mul(lattice.mat_mul(left, rows), right)
    for i in range(m):
        for j in range(n):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expect
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    if m:
        assert abs(bareiss_determinant(left)) == 1
    if n:
        assert abs(bareiss_determinant(right)) == 1
    assert len(diag) == bareiss_rank(rows) if rows and rows[0] else True
    return diag


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
    assert pure.smith([], True)[0] == []
    assert check_contract([[0], [3]]) == [3]
    assert check_contract([[5, 10, 15]]) == [5]


def test_divisibility_forcing():
    # diag(2, 3) must become (1, 6)
    assert check_contract([[2, 0], [0, 3]]) == [1, 6]


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
    diag, left, right = _snf.smith(rows, True)
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(bareiss_determinant(rows))


def test_solver_and_kernel():
    a = [[2, 0, 4], [0, 3, 6]]
    x = lattice.solve(a, [6, 9])
    assert x is not None and lattice.mat_vec(a, x) == [6, 9]
    assert lattice.solve([[2]], [3]) is None
    # one sparse column, zero-free with a positive leading entry
    (k,) = lattice.kernel_with_denominator(a, [], 3)
    assert all(k.values()) and k[min(k)] > 0
    assert lattice.mat_vec(a, [k.get(i, 0) for i in range(3)]) == [0, 0]


def test_lattice_reduction():
    lat = lattice.Lattice([[2, 0], [0, 4]], 2)
    assert lat.contains([4, 8])
    assert not lat.contains([1, 0])
    assert lat.reduce([5, 9]) == (1, 1)
    assert lat.reduce([5, 9]) == lat.reduce([3, 5])
