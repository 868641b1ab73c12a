"""Sparse unimodular elimination: kernels, lattice bases, cokernels and
quotients checked against the oracles' full Smith form and diagonal
divisors on seeded random sparse systems."""

from __future__ import annotations

import ast
import inspect
import json
import os
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from whcalc import _snf, lattice
from whcalc.abelian import InvolutiveAbelianGroup
from whcalc.lattice import Lattice

from _oracles import (bareiss_determinant, bareiss_rank, diagonal_divisors,
                      factored_chain, group_elements, identity, mat_mul,
                      smith_form)

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "whcalc"


def sparse_matrix(rng, m, n):
    density = rng.choice((0.05, 0.1, 0.2, 0.35))
    return [[rng.randint(-3, 3) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def random_systems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 30), rng.randint(1, 40)
        yield rng, sparse_matrix(rng, m, n), m, n


def same_lattice(a, b, dim):
    la, lb = Lattice(a, dim), Lattice(b, dim)
    return all(lb.contains(v) for v in a) and all(la.contains(v) for v in b)


def smith_kernel(rows, n):
    """Integer kernel from the right transform of the oracle's Smith form."""
    diag, _left, right = smith_form(rows)
    return [[right[i][j] for i in range(n)] for j in range(len(diag), n)]


def dense_echelon(columns, n):
    """The sparse kernel columns as dense vectors, after checking their
    form: zero-free dicts, leading indices increasing, leading entries
    positive."""
    for col in columns:
        assert isinstance(col, dict) and all(col.values())
        assert col[min(col)] > 0
    leads = [min(col) for col in columns]
    assert leads == sorted(set(leads))
    return [[col.get(i, 0) for i in range(n)] for col in columns]


def test_plain_kernel_rank_and_lattice():
    for _rng, c, m, n in random_systems(11, 40):
        ker = dense_echelon(lattice.kernel_with_denominator(c, [], n), n)
        assert len(ker) == n - bareiss_rank(c)
        for v in ker:
            assert lattice.mat_vec(c, v) == [0] * m
        assert same_lattice(ker, smith_kernel(c, n), n)


def with_explicit_zeros(rng, vec):
    """``vec`` as an ``{index: value}`` dict that also holds some zeros."""
    return {i: x for i, x in enumerate(vec) if x or rng.random() < 0.3}


def test_kernel_with_denominator():
    zeros = random.Random(17)  # apart from the systems' own stream
    for rng, c, m, n in random_systems(12, 40):
        den = lattice.columns_of(sparse_matrix(rng, m, rng.randint(1, 8)))
        sparse = lattice.kernel_with_denominator(c, den, n)
        ker = dense_echelon(sparse, n)
        den_lat = Lattice(den, m)
        for v in ker:
            assert den_lat.contains(lattice.mat_vec(c, v))
        # {x : C x in span(den)} is the kernel of [C | den] projected
        aug = [list(r) + [d[i] for d in den] for i, r in enumerate(c)]
        expect = [v[:n] for v in smith_kernel(aug, n + len(den))]
        assert same_lattice(ker, expect, n)
        # the same system as sparse dicts with explicit zeros, which the
        # elimination must neither keep nor write back into
        c_dicts = [with_explicit_zeros(zeros, r) for r in c]
        den_dicts = [with_explicit_zeros(zeros, d) for d in den]
        before = repr((c_dicts, den_dicts))
        assert lattice.kernel_with_denominator(c_dicts, den_dicts, n) \
            == sparse
        assert repr((c_dicts, den_dicts)) == before


def test_lattice_basis_independent_and_same_span():
    rng = random.Random(13)
    for _ in range(40):
        dim, k = rng.randint(1, 30), rng.randint(0, 40)
        gens = lattice.columns_of(sparse_matrix(rng, dim, k))
        # column echelon form: zero-free dicts, strictly increasing
        # leading rows, positive there
        basis = dense_echelon(lattice.lattice_basis(gens, dim), dim)
        if basis:
            assert bareiss_rank(basis) == len(basis)
        assert len(basis) == (bareiss_rank(gens) if gens else 0)
        assert same_lattice(basis, gens, dim)


def oracle_cokernel(cols, dim):
    """Invariant factors of Z^dim / span(cols), by ``diagonal_divisors``."""
    divisors = diagonal_divisors([list(r) for r in zip(*cols)])
    return factored_chain(divisors + [0] * (dim - len(divisors)))


def check_factors(factors, dim, rank):
    """The raw form of ``cokernel_factors``: moduli above 1, then one 0
    per free summand."""
    torsion = [f for f in factors if f]
    assert factors == torsion + [0] * (dim - rank)
    assert all(f > 1 for f in torsion)


def unimodular(rng, k):
    """A random k x k unimodular matrix: a product of elementary ones."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def mixed_diagonal(rng, diag):
    """U D V for the diagonal matrix D of ``diag`` and random unimodular
    U and V: the cokernel of D, reached only through several passes."""
    k = len(diag)
    d = [[x if i == j else 0 for j in range(k)] for i, x in enumerate(diag)]
    return mat_mul(mat_mul(unimodular(rng, k), d), unimodular(rng, k))


def cokernel_cases(seed, count):
    """Relation columns in Z^dim: sparse random matrices, and diagonal
    matrices with moduli that form no divisibility chain, hidden by
    unimodular changes of basis on both sides."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            dim, k = rng.randint(1, 20), rng.randint(0, 20)
            yield lattice.columns_of(sparse_matrix(rng, dim, k)), dim
        else:
            diag = [rng.choice((0, 1, 2, 3, 4, 5, 6, 9, 10))
                    for _ in range(rng.randint(1, 6))]
            yield lattice.columns_of(mixed_diagonal(rng, diag)), len(diag)


def test_cokernel_factors_match_diagonal_divisors(monkeypatch):
    # every input a fresh process could meet: sparse, dense after a change
    # of basis, and with moduli like (2, 3) that no chain orders; count
    # the eliminations, so that some inputs need several passes
    passes = []
    eliminate = lattice._eliminate

    def counting(cols, keep=0):
        passes[-1] += 1
        return eliminate(cols, keep)

    monkeypatch.setattr(lattice, "_eliminate", counting)
    for cols, dim in cokernel_cases(84, 200):
        passes.append(0)
        factors = lattice.cokernel_factors(cols, dim)
        check_factors(factors, dim, bareiss_rank(cols) if cols else 0)
        assert factored_chain(factors) == oracle_cokernel(cols, dim), \
            (cols, dim)
    assert max(passes) >= 3 and 1 in passes
    # moduli are returned as the elimination leaves them, not as a chain
    assert lattice.cokernel_factors([[2, 0], [0, 3]], 2) == [2, 3]
    assert lattice.cokernel_factors([[0, 0]], 2) == [0, 0]


def test_quotient_factors_match_smith():
    # span(B) / span(B R) is Z^k / span(R) when B has independent columns,
    # also when the numerator lists dependent combinations of B besides
    rng = random.Random(14)
    checked = 0
    while checked < 60:
        dim, k = rng.randint(1, 30), rng.randint(1, 12)
        b = lattice.columns_of(sparse_matrix(rng, dim, k))
        if bareiss_rank(b) != k:
            continue
        r = lattice.columns_of(sparse_matrix(rng, k, rng.randint(0, 10)))
        if checked % 2:
            # a non-chain diagonal relation matrix, mixed by a unimodular
            diag = [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(k)]
            r = lattice.columns_of(mixed_diagonal(rng, diag))
        b_mat = lattice.from_columns(b, dim)
        den = [lattice.mat_vec(b_mat, col) for col in r]
        num = b + [lattice.mat_vec(b_mat, [rng.randint(-2, 2)
                                           for _ in range(k)])
                   for _ in range(rng.randint(0, 3))]
        rng.shuffle(num)
        expect = oracle_cokernel(r, k)
        raw = lattice.quotient_factors(num, den)
        check_factors(raw, k, bareiss_rank(r) if r else 0)
        assert factored_chain(raw) == expect
        factors, gens, radices = lattice.quotient_with_generators(
            num, den, dim)
        assert factored_chain(factors) == expect
        assert same_lattice(gens + den, b, dim)
        assert prod(radices) == prod(factors)
        assert radices.count(0) == factors.count(0)
        checked += 1


def test_quotient_rejects_denominator_outside_numerator():
    with pytest.raises(ValueError):
        lattice.quotient_factors([[2, 0], [0, 1]], [[1, 0]])
    with pytest.raises(ValueError):
        lattice.quotient_with_generators([[2, 0], [0, 1]], [[1, 0]], 2)


DIGEST_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_lattice as t
from whcalc import lattice
out = []
for rng, c, m, n in t.random_systems(15, 12):
    den = lattice.columns_of(t.sparse_matrix(rng, m, 3))
    ker = lattice.kernel_with_denominator(c, den, n)
    out.append([ker, lattice.lattice_basis(ker, n),
                lattice.quotient_factors(ker, [])])
print(json.dumps(out))
"""


def test_output_identical_across_processes():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    here = str(Path(__file__).resolve().parent)
    runs = [subprocess.run([sys.executable, "-c", DIGEST_SCRIPT, here],
                           capture_output=True, env=env, timeout=120, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])


def test_lattice_reduce_depends_only_on_the_lattice():
    # another spanning set: the generators shuffled, plus integer
    # combinations of them, must give the same coset representatives
    rng = random.Random(16)
    for _ in range(60):
        dim, k = rng.randint(1, 12), rng.randint(0, 10)
        gens = lattice.columns_of(sparse_matrix(rng, dim, k))
        gens2 = [list(g) for g in gens]
        rng.shuffle(gens2)
        for _ in range(rng.randint(0, 4)):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            gens2.append([sum(c * g[i] for c, g in zip(coeffs, gens))
                          for i in range(dim)])
        la, lb = Lattice(gens, dim), Lattice(gens2, dim)
        for _ in range(10):
            v = [rng.randint(-20, 20) for _ in range(dim)]
            rep = la.reduce(v)
            assert rep == lb.reduce(v)
            assert la.contains([x - y for x, y in zip(v, rep)])
            assert la.contains(tuple(v)) is not any(rep)
            assert all(0 <= rep[r] < col[r] for r, col in la.pivots)


def test_reduce_and_contains_act_blockwise():
    # a vector of k * dim coordinates is k vectors of Z^dim: one call
    # gives what k calls give, for single-entry pivots (one modulo) and
    # for columns with several entries alike
    rng = random.Random(23)
    for gens, dim in (([[6, 0], [0, 4]], 2), ([[2, 3, 1], [0, 5, 2]], 3),
                      ([[1, 2], [2, 2]], 2), ([[3]], 1), ([], 2)):
        lat = Lattice(gens, dim)
        for k in (1, 2, 5):
            v = [rng.randint(-30, 30) for _ in range(k * dim)]
            blocks = [v[i:i + dim] for i in range(0, len(v), dim)]
            assert lat.reduce(v) == sum(map(lat.reduce, blocks), ())
            assert lat.contains(v) is all(map(lat.contains, blocks))
            assert lat.contains([x - y for x, y in zip(v, lat.reduce(v))])
        if dim > 1:
            with pytest.raises(ValueError, match="blocks"):
                lat.reduce([0] * (dim + 1))
    empty = Lattice([], 0)
    assert empty.reduce(()) == () and empty.contains([])
    with pytest.raises(ValueError, match="blocks"):
        empty.contains([0])


def smith_member(basis, v):
    """Membership read off ``smith_basis``: every coordinate of left * v
    a multiple of its modulus, 0 where the modulus is 0."""
    moduli, left = basis
    return all(x % m == 0 if m else x == 0
               for m, x in zip(moduli, lattice.mat_vec(left, v)))


def test_smith_basis_membership_matches_lattice_contains():
    # random relation matrices, some with zero columns and some of lower
    # rank than their dimension (dependent or too few columns); members
    # are random combinations of the columns, other vectors are random
    rng = random.Random(83)
    verdicts = set()
    shapes = set()
    for _ in range(300):
        dim = rng.randint(0, 5)
        gens = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0
                 for _ in range(dim)] for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.3:
            gens.insert(rng.randint(0, len(gens)), [0] * dim)
        if len(gens) > 1 and rng.random() < 0.4:
            a, b = rng.sample(gens, 2)
            gens.append([2 * x - y for x, y in zip(a, b)])
        moduli, left = basis = lattice.smith_basis(gens, dim)
        assert len(moduli) == len(left) == dim
        assert all(len(row) == dim for row in left)
        assert abs(bareiss_determinant(left)) == 1
        assert all(m >= 0 for m in moduli)
        rank = bareiss_rank(gens)
        assert sum(1 for m in moduli if m) == rank
        shapes.add((rank < dim, [0] * dim in gens))
        lat = Lattice(gens, dim)
        for _ in range(20):
            if gens and rng.random() < 0.5:
                v = [0] * dim
                for g in gens:
                    c = rng.randint(-3, 3)
                    v = [x + c * y for x, y in zip(v, g)]
            else:
                v = [rng.randint(-6, 6) for _ in range(dim)]
            verdict = smith_member(basis, v)
            assert verdict is lat.contains(v), (gens, v)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert shapes == {(r, z) for r in (True, False) for z in (True, False)}


def test_relation_lattice_built_once_per_group():
    group = InvolutiveAbelianGroup.from_factors([2, 4], sign=-1)
    assert group.relation_lattice() is group.relation_lattice()
    assert group.reduce((3, 5)) == (1, 1)
    assert group.is_zero_element((2, -4))


def snf_uses(source):
    """Line numbers of the imports of ``_snf`` and the calls of a
    ``smith`` in Python source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            names += [getattr(node, "module", None) or ""]
            if any("_snf" in name.split(".") for name in names):
                out.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "smith":
                out.append(node.lineno)
    return out


def smith_callers(source):
    """Qualified names of the functions whose bodies call a ``smith``."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, prefix + child.name + ".")
            else:
                if isinstance(child, ast.Call) and getattr(
                        child.func, "id", getattr(child.func, "attr", None)) \
                        == "smith":
                    out.add(prefix.rstrip(".") or "<module>")
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def test_enumeration_and_sizing_take_no_transforms(monkeypatch):
    # cokernels, quotients, their radices and enumeration take no Smith
    # form at all; a group's isomorphism type reads the Smith basis that
    # was stored when the group was built
    calls = []
    smith = _snf.smith

    def counting(rows):
        calls.append(rows)
        return smith(rows)

    a = InvolutiveAbelianGroup(2, [[2, 1], [0, 3]], [[1, 0], [0, 1]])
    monkeypatch.setattr(_snf, "smith", counting)
    rel = a.relation_columns()
    assert lattice.quotient_with_generators(
        identity(2), rel, 2)[0] == [6]
    assert lattice.quotient_factors(identity(2), rel) == [6]
    assert lattice.cokernel_factors(rel, 2) == [6]
    assert len(set(group_elements(a))) == 6
    assert a.isomorphism_type().invariant_factors == (6,)
    assert calls == []
    InvolutiveAbelianGroup(2, [[2, 1], [0, 3]], [[1, 0], [0, 1]])
    assert len(calls) == 1


def test_only_lattice_reaches_smith_normal_form():
    # every Smith form is taken in lattice.smith_basis
    assert snf_uses("from . import _snf\n_snf.smith(a)") == [1, 2]
    assert snf_uses("from ._snf.pure import smith\nsmith(a)") == [1, 2]
    assert snf_uses("import whcalc._snf") == [1]
    assert smith_callers("def f():\n    _snf.smith(a)\nsmith(b)\n"
                         "class C:\n    def g(self):\n        smith(c)") \
        == {"f", "<module>", "C.g"}
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[0] == "_snf" or rel.name == "lattice.py":
            continue
        lines = snf_uses(path.read_text(encoding="utf-8"))
        if lines:
            found[str(rel)] = lines
    assert not found, found
    source = (PACKAGE / "lattice.py").read_text(encoding="utf-8")
    assert smith_callers(source) == {"smith_basis"}
    # in one mode: rows in, (diag, left) out, no flag and no right transform
    assert list(inspect.signature(_snf.smith).parameters) == ["rows"]
    diag, left = _snf.smith([[2, 4], [6, 8]])
    assert diag == [2, 4] and len(left) == 2
    assert not [path for path in PACKAGE.rglob("*.py")
                if "want_transforms" in path.read_text(encoding="utf-8")]
    # with no pivot search of its own: ``smith`` is the module's one
    # function, and it eliminates only through ``lattice._diagonal``
    pure = ast.parse((PACKAGE / "_snf" / "pure.py").read_text(
        encoding="utf-8"))
    assert [node.name for node in pure.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))] == ["smith"]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(pure) if isinstance(node, ast.Call)}
    assert "_diagonal" in called and "_eliminate" not in called


def test_one_diagonalisation_serves_smith_and_cokernels(monkeypatch):
    # ``_snf.smith`` and ``cokernel_factors`` both run ``_diagonal``; its
    # rows after the pivot rows are the ones that went to zero
    calls = []
    diagonal = lattice._diagonal

    def counting(vecs, n):
        calls.append(n)
        return diagonal(vecs, n)

    monkeypatch.setattr(lattice, "_diagonal", counting)
    assert _snf.smith([[2, 4], [6, 8], [1, 2]])[0] == [1, 4]
    assert lattice.cokernel_factors([[2, 4], [6, 8]], 2) == [2, 4]
    assert calls == [2, 2]
    diag, zero = diagonal([[0, 0, 1, 0], [3, 0, 0, 1]], 2)
    assert diag == [(3, {0: 3, 3: 1})] and zero == [{2: 1}]
