"""Torsion functors, dualities, the simplicial group and its homotopy."""

from __future__ import annotations

import random
from itertools import combinations, islice, product
from operator import add, mul, sub

import pytest

from whcalc import falg, lattice
from whcalc.abelian import FgAbGroup, InvolutiveAbelianGroup, homology_c2
from whcalc.falg import (FAlgElement, NotContractibleError, TorsionFunctor,
                         all_dualities_hold, check_square, falg_group,
                         generalized_duality_holds, iota_shriek,
                         mixed_duality_holds, moore_homotopy,
                         normalized_group, psi_is_bijective)
from whcalc.simplicial import (SubComplex, enumerate_subcomplexes, face_dim,
                               is_contractible, subfaces)

import _oracles
from _oracles import (boundary_face, check_face_horn_duality, closure,
                      cyclic, degeneracy, duality_criterion, group_elements,
                      group_order, group_to_dict, horn, maximal_faces,
                      moore_complex, psi, psi_bijective_by_enumeration,
                      psi_section, simplex_from_dict, simplex_to_dict,
                      zero_group)

Z2 = cyclic(2, 1)
Z4 = cyclic(4, 1)
Z4S = cyclic(4, -1)
Z6 = cyclic(6, 1)
SWAP22 = InvolutiveAbelianGroup(2, [[2, 0], [0, 2]], [[0, 1], [1, 0]])
# Z/8 acted on by 3 plus Z/2, and Z/15 acted on by 4 plus Z/3 with -1,
# after the change of generators P = [[1, 1], [0, 1]] (relations P R,
# action P T P^-1), so that their Smith left transform is not a signed
# permutation
TWISTED_TARGETS = [
    InvolutiveAbelianGroup(2, [[8, 2], [0, 2]], [[3, -2], [0, 1]]),
    InvolutiveAbelianGroup(2, [[15, 3], [0, 3]], [[4, -5], [0, -1]]),
]
PSI_SWEEP = [Z2, cyclic(3, 1), cyclic(3, -1), Z4, Z4S,
             InvolutiveAbelianGroup.from_factors([2, 2], 1),
             InvolutiveAbelianGroup.from_factors([2, 2], -1)]
SWAP_SQ = InvolutiveAbelianGroup(2, [[3, 0], [0, 3]], [[0, 1], [1, 0]])
MUL5 = InvolutiveAbelianGroup(1, [[12]], [[5]])


def functor_from(values, p, target):
    fv = {f: (0,) for f in falg._proper_faces(p)}
    fv.update(values)
    return iota_shriek(fv, p, target)


def tabulate(tf):
    """``tf`` as an oracle table: its value on every contractible
    subcomplex."""
    return _oracles.Table(tf.ambient, tf.target, {
        tuple(sorted(k)): tf.value_on(k)
        for k in _oracles.contractible_keys(tf.ambient)})


# -- extension by inclusion-exclusion -------------------------------------


def test_zero_functor_everywhere():
    tf = TorsionFunctor.zero(2, Z4)
    for k in _oracles.contractible_keys(2):
        assert tf.value_on(k) == (0,)
    # faces in mask order, each with its value
    assert repr(tf) == ("TorsionFunctor(p=2, {0:[0], 1:[0], 01:[0], 2:[0], "
                        "02:[0], 12:[0], 012:[0]})")


def test_horn_value_inclusion_exclusion():
    # values a, b on the two back faces and c on their shared vertex
    tf = functor_from({0b011: (1,), 0b101: (2,), 0b001: (3,)}, 2, Z4)
    assert tf.value_on(horn(2, 0)) == Z4.reduce((1 + 2 - 3,))
    # the 0-th horn of the top face: the union of the faces 02 and 01
    assert tf.value_on(closure(2, [0b101, 0b011])) == \
        Z4.reduce((0,))


def test_union_formula_matches_general_evaluator():
    rng = random.Random(31)
    for _ in range(25):
        fv = {f: (rng.randrange(4),) for f in falg._proper_faces(3)}
        tf = iota_shriek(fv, 3, Z4)
        top = falg._top_mask(3)
        for r in (2, 3):
            for idx in combinations(range(4), r):
                faces = [top & ~(1 << i) for i in idx]
                union = closure(3, faces)
                assert _oracles.inclusion_exclusion_value(tf, faces) == \
                    tf.value_on(union)


def test_non_contractible_evaluation_raises():
    tf = functor_from({0b01: (1,)}, 1, Z4)
    both_vertices = SubComplex(1, frozenset({0b01, 0b10}))
    with pytest.raises(NotContractibleError):
        tf.value_on(both_vertices)


def test_value_on_takes_the_closure_of_the_faces_given():
    # an unclosed set of faces is tested for contractibility and
    # evaluated as its closure, on face values and on an oracle table alike
    tf = functor_from({0b001: (3,), 0b010: (1,), 0b011: (1,), 0b100: (2,),
                       0b101: (2,)}, 2, Z4)
    table = _oracles.raw_degeneracy(
        functor_from({0b01: (1,), 0b10: (2,)}, 1, Z4), 0)
    horn_faces = [0b101, 0b011]
    for f in (tf, table):
        assert f.value_on([0b011, 0b001]) == f.value_on([0b011])
        assert f.value_on(horn_faces) == \
            f.value_on(closure(2, horn_faces))
        with pytest.raises(NotContractibleError):
            f.value_on([0b011, 0b101, 0b110])


def test_faces_outside_the_ambient_simplex_are_refused():
    # at ambient 1 the vertex 2 (mask 0b100) and the edge 12 are not faces,
    # nor is any mask below 1
    tf = functor_from({0b01: (1,), 0b10: (2,)}, 1, Z4)
    outside = "face outside the ambient simplex"
    for mask in (0, -1, -2):
        with pytest.raises(ValueError, match=outside):
            tf.value_on([mask])
    with pytest.raises(ValueError, match=outside):
        tf.value_on([0b100])
    with pytest.raises(ValueError, match=outside):
        tf.pair_value([0b001, 0b010, 0b011], [0b100])
    with pytest.raises(ValueError, match=outside):
        mixed_duality_holds(tf, [0b110], [0b100])
    with pytest.raises(ValueError, match=outside):
        _oracles.raw_degeneracy(tf, 0).value_on([0b1000])
    assert tf.value_on([0b001, 0b010, 0b011]) == (0,)


def test_dualities_refuse_faces_outside_the_ambient_simplex():
    # at ambient 1 the faces are the masks 1..3: 0 and -3 are no face of
    # any simplex, and 0b110, 0b111 and 0b10000 hold a vertex above 1
    tf = functor_from({0b01: (1,), 0b10: (2,)}, 1, Z4)
    outside = "face outside the ambient simplex"
    for mask in (0, -3, 0b110, 0b111, 0b10000):
        with pytest.raises(ValueError, match=outside):
            check_face_horn_duality(tf, mask)
        with pytest.raises(ValueError, match=outside):
            generalized_duality_holds(tf, mask, (0,))
    assert check_face_horn_duality(tf, 0b01) is True
    assert generalized_duality_holds(tf, 0b11, (0,)) in (True, False)


def test_functoriality_chain():
    rng = random.Random(13)
    fv = {f: (rng.randrange(4),) for f in falg._proper_faces(2)}
    tf = iota_shriek(fv, 2, Z4)
    keys = _oracles.contractible_keys(2)
    for small in keys:
        for mid in keys:
            if not small <= mid:
                continue
            for large in keys:
                if not mid <= large:
                    continue
                lhs = tf.pair_value(large, small)
                rhs = Z4.reduce(tuple(
                    x + y for x, y in zip(tf.pair_value(large, mid),
                                          tf.pair_value(mid, small))))
                assert lhs == rhs


def test_face_value_round_trip():
    # restriction to faces then re-extension is the identity both ways
    rng = random.Random(17)
    for _ in range(10):
        fv = {f: (rng.randrange(4),) for f in falg._proper_faces(2)}
        tf = iota_shriek(fv, 2, Z4)
        again = iota_shriek(tf.values, 2, Z4)
        for k in _oracles.contractible_keys(2):
            assert tf.value_on(k) == again.value_on(k)


def test_inconsistent_table_detected():
    # a corrupted full table breaks the square condition
    fv = {f: (0,) for f in falg._proper_faces(2)}
    broken = tabulate(iota_shriek(fv, 2, Z4))
    broken.table[tuple(sorted(horn(2, 0).faces))] = (1,)
    assert not _oracles.square_condition_holds(broken)


def test_attachment_order_independence_is_checked():
    # every admissible attachment of every complex agrees on good data:
    # the oracle raises when two of them differ
    rng = random.Random(19)
    fv = {f: (rng.randrange(4),) for f in falg._proper_faces(3)}
    tf = iota_shriek(fv, 3, Z4)
    memo = {}
    for k in _oracles.contractible_keys(3):
        assert tf.value_on(k) == _oracles.attached_value(tf, k, memo)


PROGRAM_TARGETS = [
    Z4S,
    InvolutiveAbelianGroup.from_factors([2, 2], -1),
    InvolutiveAbelianGroup(2, [[2, 0], [0, 2]], [[0, 1], [1, 0]]),
    InvolutiveAbelianGroup.free(1),
]


def random_contractible(rng, p, count):
    """``count`` distinct contractible complexes of the p-simplex, each
    the closure of a few random faces."""
    faces = list(falg._all_faces(p))
    out = set()
    while len(out) < count:
        k = falg._closure(rng.sample(faces, rng.randint(1, 4)))
        if is_contractible(SubComplex(p, k)):
            out.add(k)
    return sorted(out, key=sorted)


@pytest.mark.parametrize("target", PROGRAM_TARGETS)
def test_attachment_programs_match_the_recursive_evaluator(target):
    # value_on evaluates one form per complex: against the recursion it
    # replaced, at ambient 1..4
    rng = random.Random(71)
    g = target.generator_count
    for p in (1, 2, 3, 4):
        keys = _oracles.contractible_keys(p) if p < 4 \
            else random_contractible(rng, p, 40)
        for _ in range(3):
            fv = {f: tuple(rng.randrange(-5, 6) for _ in range(g))
                  for f in falg._proper_faces(p)}
            tf = iota_shriek(fv, p, target)
            memo = {}
            for key in keys:
                assert tf.value_on(key) == \
                    _oracles.attached_value(tf, key, memo), (p, sorted(key))


# -- square condition -------------------------------------------------------


def test_iota_shriek_output_satisfies_square():
    rng = random.Random(3)
    for p in (1, 2, 3):
        fv = {f: (rng.randrange(4),) for f in falg._proper_faces(p)}
        assert check_square(iota_shriek(fv, p, Z4))


def test_raw_degeneracy_fails_square():
    tf = iota_shriek({0b01: (0,), 0b10: (1,)}, 1, Z2)
    raw = _oracles.raw_degeneracy(tf, 0)
    assert not _oracles.square_condition_holds(raw)
    # the specific failing pushout: the 2-horn against its decomposition
    k0, k1 = boundary_face(2, 0), boundary_face(2, 1)
    k01, k = _oracles.intersection(k0, k1), _oracles.union(k0, k1)
    lhs = tuple(p - q for p, q in zip(raw.value_on(k01), raw.value_on(k1)))
    rhs = tuple(p - q for p, q in zip(raw.value_on(k0), raw.value_on(k)))
    assert Z2.reduce(lhs) != Z2.reduce(rhs)
    # the corrected degeneracy repairs exactly this
    fixed = _oracles.codegeneracy(tf, 0)
    assert check_square(fixed)
    assert _oracles.square_condition_holds(fixed)
    # onto ambient 3 some contractible complex collapses onto a circle
    with pytest.raises(NotContractibleError):
        _oracles.raw_degeneracy(fixed, 0)


def test_zero_functor_square():
    assert check_square(TorsionFunctor.zero(2, Z4))


# -- per-ambient plans against brute force ---------------------------------


def square_form(corners, signs, index):
    """The integer form sum of sign * v[corner] over the complexes of
    ``index``, as a dense vector."""
    vec = [0] * len(index)
    for corner, sign in zip(corners, signs):
        vec[index[corner]] += sign
    return vec


def test_pushout_squares_vanish_on_complex_forms():
    # v[K0 & K1] + v[K0 | K1] - v[K0] - v[K1] is 0 as an integer form in
    # the face values, so every square holds on every functor built from
    # face values, whatever its target
    counts = {}
    for p in (0, 1, 2, 3):
        squares = _oracles.pushout_squares(p)
        for square in squares:
            total = {}
            for corner, sign in zip(square, (1, 1, -1, -1)):
                for f, c in falg._complex_form(corner):
                    total[f] = total.get(f, 0) + sign * c
            assert not any(total.values()), [sorted(k) for k in square]
        counts[p] = len(squares)
    assert counts == {0: 0, 1: 2, 2: 33, 3: 1180}


def test_table_forms_span_the_square_lattice():
    # the forms v[K] less the sum of c_g(K) * v[closure of g] over the
    # form of each contractible K, and all the pushout squares, span one
    # lattice of integer forms over the contractible subcomplexes: a
    # table of values satisfies every square exactly when it is the
    # functor built from its face values, so face values represent every
    # functor that satisfies the square condition
    ranks = {}
    for p in (0, 1, 2, 3):
        keys = _oracles.contractible_keys(p)
        index = {k: i for i, k in enumerate(keys)}
        squares = [square_form(square, (1, 1, -1, -1), index)
                   for square in _oracles.pushout_squares(p)]
        tables = []
        for k in keys:
            form = falg._complex_form(k)
            corners = [k] + [frozenset(subfaces(g)) for g, _c in form]
            vec = square_form(corners, [1] + [-c for _g, c in form], index)
            if any(vec):
                tables.append(vec)
        every, table = (lattice.Lattice(forms, len(keys))
                        for forms in (squares, tables))
        assert all(map(table.contains, squares))
        assert all(map(every.contains, tables))
        assert len(every.pivots) == len(table.pivots)
        ranks[p] = len(table.pivots)
    assert ranks == {0: 0, 1: 0, 2: 3, 3: 50}


def test_complex_form_is_a_valuation():
    # F(K | L) + F(K & L) = F(K) + F(L) on seeded random pairs of the 7579
    # subcomplexes of the 4-simplex, contractible or not, with the empty
    # complex taking the zero form
    keys = [k.faces for k in enumerate_subcomplexes(4)]
    assert len(keys) == 7579
    assert falg._complex_form(frozenset()) == ()
    rng = random.Random(83)
    pairs = [rng.sample(keys, 2) for _ in range(300)]
    # pairs on disjoint vertex sets, which random pairs almost never are
    vertices = {k: sum(f for f in k if face_dim(f) == 0) for k in keys}
    for a in rng.sample(keys, 100):
        apart = [k for k in keys if not vertices[k] & vertices[a]]
        if apart:
            pairs.append((a, rng.choice(apart)))
    assert sum(not a & b for a, b in pairs) >= 10
    for a, b in pairs:
        total = {}
        for k, sign in ((a | b, 1), (a & b, 1), (a, -1), (b, -1)):
            for f, c in falg._complex_form(k):
                total[f] = total.get(f, 0) + sign * c
        assert not any(total.values()), (sorted(a), sorted(b))


def test_complex_form_of_a_face_closure_is_that_face():
    for p in range(6):
        for f in falg._all_faces(p):
            assert falg._complex_form(frozenset(subfaces(f))) == ((f, 1),)
    # the form of a set of faces is that of its closure
    for k in enumerate_subcomplexes(3):
        assert falg._complex_form(frozenset(maximal_faces(k.faces))) == \
            falg._complex_form(k.faces)


def test_complex_form_matches_the_face_by_face_sum():
    # the superset sum against the closed form summed over every pair of
    # faces, on seeded random face sets at ambient 0..7, closed or not
    rng = random.Random(275)
    for p in range(8):
        faces = list(falg._all_faces(p))
        for _ in range(40):
            k = frozenset(rng.sample(faces, rng.randint(1, min(6, len(faces)))))
            assert falg._complex_form(k) == _oracles.mobius_form(k), sorted(k)


def test_every_contractible_complex_at_ambient_4_has_a_form():
    # above the cap of the contractible enumeration: the form of each of the
    # 1466 contractible subcomplexes of the 4-simplex is the value that
    # the attachment oracle gives, every admissible attachment agreeing,
    # on the functor whose proper face f carries the generator e_f of a
    # free target, so that a value lists the coefficients of the proper
    # faces (the top face is the form of the full simplex alone)
    keys = [k.faces for k in enumerate_subcomplexes(4) if is_contractible(k)]
    assert len(keys) == 1466
    faces = falg._proper_faces(4)
    free = InvolutiveAbelianGroup.free(len(faces))
    tf = iota_shriek({f: tuple(int(f == h) for h in faces) for f in faces},
                     4, free)
    memo = {}
    for k in keys:
        coeffs = dict(falg._complex_form(k))
        assert _oracles.attached_value(tf, k, memo) == \
            tuple(coeffs.get(f, 0) for f in faces), sorted(k)


def random_table_functor(rng, p, target, corrupt):
    """A random functor and its oracle table, one entry corrupted."""
    fv = {f: target.reduce(tuple(rng.randrange(4) for _ in range(
        target.generator_count))) for f in falg._proper_faces(p)}
    tf = iota_shriek(fv, p, target)
    table = tabulate(tf)
    if corrupt:
        key = rng.choice(sorted(table.table))
        table.table[key] = tuple(x + 1 for x in table.table[key])
    return tf, table


def test_check_square_matches_oracle():
    # every element of F^alg_2(Z/2), then seeded face values at ambient
    # 1..3: check_square and the square-by-square oracle both hold; the
    # oracle tables of the same functors hold too, and fail once corrupted
    for el in falg_group(Z2, 2).elements():
        assert check_square(el.functor) is _oracles.square_condition_holds(
            el.functor) is True
    rng = random.Random(41)
    for target in (Z4S, InvolutiveAbelianGroup.from_factors([2, 2], -1),
                   *TWISTED_TARGETS):
        seen = set()
        for p in (1, 2, 3):
            squares = _oracles.pushout_squares(p)
            for trial in range(4):
                tf, table = random_table_functor(rng, p, target, trial > 0)
                assert check_square(tf) is _oracles.square_condition_holds(
                    tf, squares) is True
                verdict = _oracles.square_condition_holds(table, squares)
                if trial == 0:
                    assert verdict is True
                seen.add(verdict)
        assert seen == {True, False}, target


def outcome(check, *args):
    """A check's verdict, or the type and message of what it raised."""
    try:
        return check(*args)
    except Exception as exc:  # compared by the caller, never swallowed
        return type(exc), str(exc)


def assert_dualities_match(tf, verdicts):
    """Every generalized duality of ``tf``, valid index set or not, and
    every face-horn duality, against the brute-force oracle."""
    for sigma in falg._all_faces(tf.ambient):
        d = face_dim(sigma)
        valid = [idx for r in range(1, d + 1)
                 for idx in combinations(range(d + 1), r)]
        for idx in valid + [(), tuple(range(d + 1)), (-1,), (d + 1,)]:
            got = outcome(generalized_duality_holds, tf, sigma, idx)
            assert got == outcome(_oracles.duality_holds, tf, sigma, idx), \
                (tf, sigma, idx)
            verdicts.add(got if isinstance(got, bool) else got[0])
        if d >= 1:
            assert check_face_horn_duality(tf, sigma) == all(
                _oracles.duality_holds(tf, sigma, (i,)) for i in range(d + 1))


def test_plans_match_oracles_on_falg_elements():
    # every element of F^alg_2 for the square targets of the benchmark
    squares = _oracles.pushout_squares(3)
    verdicts = set()
    for target in (Z2, Z4S):
        for el in falg_group(target, 2).elements():
            tf = el.functor
            assert check_square(tf) is _oracles.square_condition_holds(
                tf, squares) is True
            assert_dualities_match(tf, verdicts)
    assert verdicts == {True, ValueError, IndexError}


def test_raw_degeneracies_hold_squares_exactly_when_face_built():
    # a raw degeneracy satisfies the square condition exactly when it is
    # the functor built from its own face values (its values on the
    # face closures), as test_table_forms_span_the_square_lattice says
    verdicts = set()
    for p in (0, 1):
        faces = falg._proper_faces(p)
        for combo in product(range(4), repeat=len(faces)):
            tf = iota_shriek({f: (c,) for f, c in zip(faces, combo)}, p, Z4S)
            for i in range(p + 1):
                raw = _oracles.raw_degeneracy(tf, i)
                built = iota_shriek({f: raw.value_on([f]) for f in
                                     falg._proper_faces(p + 1)}, p + 1, Z4S)
                verdict = _oracles.square_condition_holds(raw)
                assert verdict is all(
                    raw.value_on(k) == built.value_on(k)
                    for k in _oracles.contractible_keys(p + 1))
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_generalized_duality_matches_oracle_at_every_index_set():
    # ambients 1 to 3: elements of F^alg, the same with one face value
    # perturbed, and random face values; one target with a non-scalar
    # involution
    rng = random.Random(61)
    swap_sq = InvolutiveAbelianGroup(2, [[3, 0], [0, 3]], [[0, 1], [1, 0]])
    z2z2 = InvolutiveAbelianGroup.from_factors([2, 2], -1)
    verdicts = set()
    for target in (Z4S, z2z2, swap_sq):
        g = target.generator_count
        for p in (1, 2, 3):
            faces = falg._proper_faces(p)
            els = list(islice(falg_group(target, p - 1).elements(), 3))
            for el in els:
                fv = el.functor.values
                face = rng.choice(faces)
                fv[face] = tuple(x + 1 for x in fv[face])
                rand = {f: tuple(rng.randrange(6) for _ in range(g))
                        for f in faces}
                for tf in (el.functor, iota_shriek(fv, p, target),
                           iota_shriek(rand, p, target)):
                    assert_dualities_match(tf, verdicts)
    assert verdicts == {True, False, ValueError, IndexError}


def test_face_horn_duality_is_one_check_per_index(monkeypatch):
    # _duality_ok evaluates its own plan: routing it through
    # generalized_duality_holds would count each check twice in a trace
    def refuse(*args):
        raise AssertionError("generalized_duality_holds called")

    el = psi_section(Z4S, 2, (1,))
    monkeypatch.setattr(falg, "generalized_duality_holds", refuse)
    assert all_dualities_hold(el.functor)
    assert duality_criterion(el.functor)


def _union_minus_face(ambient, sigma, faces):
    """L or R of a generalized duality as ``{face: coefficient}``: one
    inclusion-exclusion term per nonempty subset of ``faces``, minus
    sigma, with no falg plan."""
    coeffs = {sigma: -1}
    for r in range(1, len(faces) + 1):
        for subset in combinations(faces, r):
            inter = (1 << (ambient + 1)) - 1
            for f in subset:
                inter &= f
            coeffs[inter] = coeffs.get(inter, 0) + (1 if r % 2 else -1)
    return coeffs


def test_duality_forms_match_plain_arithmetic():
    # each folded form against L(v) - sgn * T(R(v)) on random integer
    # face values, with L and R expanded here from the boundary faces of
    # the oracle and no membership test; one non-diagonal involution and
    # one sign involution
    rng = random.Random(67)
    swap_sq = InvolutiveAbelianGroup(2, [[3, 0], [0, 3]], [[0, 1], [1, 0]])
    z2z2 = InvolutiveAbelianGroup.from_factors([2, 2], -1)
    for target in (swap_sq, z2z2):
        t = target.involution
        g = target.generator_count
        for p in (1, 2, 3):
            for sigma in falg._all_faces(p):
                d = face_dim(sigma)
                for idx in (idx for r in range(1, d + 1)
                            for idx in combinations(range(d + 1), r)):
                    bounds = _oracles.boundary_faces(sigma)
                    lhs = _union_minus_face(p, sigma, [bounds[j] for j in idx])
                    rhs = _union_minus_face(p, sigma, [
                        b for j, b in enumerate(bounds) if j not in idx])
                    sgn = 1 if d % 2 == 0 else -1
                    block = falg._duality_form(t, p, sigma, idx)
                    keys = [k for k, _c in block]
                    assert all(c for _k, c in block)
                    assert keys == sorted(set(keys))
                    for _ in range(4):
                        v = {f: [rng.randrange(-50, 50) for _ in range(g)]
                             for f in falg._all_faces(p)}
                        flat = [0] * g + [x for f in falg._all_faces(p)
                                          for x in v[f]]
                        left = [sum(c * v[f][r] for f, c in lhs.items())
                                for r in range(g)]
                        right = [sum(c * v[f][r] for f, c in rhs.items())
                                 for r in range(g)]
                        want = [left[r] - sgn * sum(t[r][j] * right[j]
                                                    for j in range(g))
                                for r in range(g)]
                        got = [sum(c * flat[k // g] for k, c in block
                                   if k % g == r) for r in range(g)]
                        assert got == want, (target, p, sigma, idx)


def row_conditions(rows, n):
    """Compiled rows ``(getter, coefficients, modulus)`` over a flat
    vector of n coordinates, as ``{modulus: dense coefficient vectors}``;
    the getter, applied to ``range(n)``, names the indices it reads."""
    out = {}
    for get, coeffs, m in rows:
        vec = [0] * n
        for i, c in zip(get(range(n)), coeffs):
            vec[i] += c
        out.setdefault(m, []).append(vec)
    return out


def block_conditions(target, blocks):
    """Blocks of g dense forms, each block to lie in the relation
    lattice, as ``{modulus: forms}``: row i of left * block must take a
    multiple of moduli[i], for ``(moduli, left)`` the target's Smith
    basis."""
    moduli, left = target.smith_basis
    out = {}
    for block in blocks:
        for m, u in zip(moduli, left):
            out.setdefault(m, []).append(
                [sum(map(mul, u, col)) for col in zip(*block)])
    return out


def assert_same_conditions(got, want, n):
    """Two ``{modulus: forms}`` impose the same conditions on Z^n: per
    modulus m the forms span the same lattice together with m Z^n, and
    no compiled row has modulus 1."""
    assert 1 not in got
    for m in set(got) | set(want):
        extra = [[m * (i == j) for j in range(n)] for i in range(n)] if m \
            else []
        a, b = got.get(m, []) + extra, want.get(m, []) + extra
        la, lb = lattice.Lattice(a, n), lattice.Lattice(b, n)
        assert all(lb.contains(v) for v in a), m
        assert all(la.contains(v) for v in b), m


def dense_block(block, g, n):
    """A block of ``(key, coefficient)`` terms, key i*g + r for index i of
    form r, as g dense vectors of n coordinates."""
    out = [[0] * n for _ in range(g)]
    for k, c in block:
        out[k % g][k // g] += c
    return out


def plain_block(target, ambient, sigma, index_set):
    """The forms of ``_duality_form`` as g dense vectors over the flat
    face-value layout."""
    g = target.generator_count
    return dense_block(falg._duality_form(target.involution, ambient, sigma,
                                          index_set),
                       g, (falg._top_mask(ambient) + 1) * g)


def test_all_dualities_hold_checks_each_horn_once(monkeypatch):
    # one _duality_ok per horn, one horn per (face of dimension >= 1,
    # omitted index), and no membership test
    calls, tests = [], []
    duality_ok = falg._duality_ok
    is_zero = InvolutiveAbelianGroup.is_zero_element

    def counted_duality(tf, sigma, i):
        calls.append((sigma, i))
        return duality_ok(tf, sigma, i)

    def counted_tests(self, vec):
        tests.append(len(vec))
        return is_zero(self, vec)

    monkeypatch.setattr(falg, "_duality_ok", counted_duality)
    monkeypatch.setattr(InvolutiveAbelianGroup, "is_zero_element",
                        counted_tests)
    z2z2 = InvolutiveAbelianGroup.from_factors([2, 2], -1)
    for target in (Z4S, z2z2):
        g = target.generator_count
        for n in (0, 1, 2, 3):
            el = psi_section(target, n, (1,) * g)
            calls.clear()
            tests.clear()
            assert all_dualities_hold(el.functor)
            faces = [s for s in falg._all_faces(n + 1) if face_dim(s) >= 1]
            horns = [(s, i) for s in faces for i in range(face_dim(s) + 1)]
            assert sorted(falg._face_horns(n + 1)) == sorted(horns)
            assert calls == list(falg._face_horns(n + 1))
            assert tests == []


def test_targets_with_one_involution_share_duality_forms():
    # the forms depend on the target only through its involution, so
    # Z/2, Z/3, Z/4 and Z/6 share one cached form per horn; each target
    # compiles its own rows, modulo its own order
    targets = {Z2: 2, cyclic(3, 1): 3, Z4: 4, Z6: 6}
    zeros = [TorsionFunctor.zero(p, target)
             for p in (1, 2, 3) for target in targets]
    falg._duality_form.cache_clear()
    falg._compiled_duality.cache_clear()
    assert all(map(all_dualities_hold, zeros))
    horns = sum(len(falg._face_horns(p)) for p in (1, 2, 3))
    info = falg._duality_form.cache_info()
    assert (info.currsize, info.misses, info.hits) == (horns, horns,
                                                       3 * horns)
    assert falg._compiled_duality.cache_info().currsize == 4 * horns
    for target, m in targets.items():
        rows = [row for sigma, i in falg._face_horns(3)
                for row in falg._compiled_duality(target, 3, sigma, (i,))]
        assert rows and {row[2] for row in rows} == {m}


def plain_duality(tf, sigma, index_set):
    """The unreduced output of ``_duality_form`` on ``tf``'s face values,
    read from the ``{face: value}`` dict, not the flat tuple."""
    values, g = tf.values, tf.target.generator_count
    block = falg._duality_form(tf.target.involution, tf.ambient, sigma,
                               index_set)
    return [sum(c * values[k // g // g][k // g % g] for k, c in block
                if k % g == r) for r in range(g)]


def test_compiled_and_stacked_forms_match_plain_forms():
    # the compiled rows of each duality impose exactly the conditions of
    # its plain forms, and the verdicts of one duality and of every horn
    # at once equal membership of the plain outputs; on members of F^alg,
    # the same with one face value perturbed, and random values
    rng = random.Random(73)
    swap_sq = InvolutiveAbelianGroup(2, [[3, 0], [0, 3]], [[0, 1], [1, 0]])
    z2z2 = InvolutiveAbelianGroup.from_factors([2, 2], -1)
    verdicts = set()
    for target in (Z4S, z2z2, swap_sq):
        g = target.generator_count
        for p in (1, 2, 3):
            size = (falg._top_mask(p) + 1) * g
            index_sets = [(sigma, idx) for sigma in falg._all_faces(p)
                          for r in range(1, face_dim(sigma) + 1)
                          for idx in combinations(range(face_dim(sigma) + 1),
                                                  r)]
            for sigma, idx in index_sets:
                assert_same_conditions(
                    row_conditions(falg._compiled_duality(target, p, sigma,
                                                          idx), size),
                    block_conditions(target, [plain_block(target, p, sigma,
                                                          idx)]), size)
            faces = falg._proper_faces(p)
            for el in islice(falg_group(target, p - 1).elements(), 3):
                fv = el.functor.values
                face = rng.choice(faces)
                fv[face] = tuple(x + 1 for x in fv[face])
                rand = {f: tuple(rng.randrange(-6, 6) for _ in range(g))
                        for f in faces}
                for tf in (el.functor, iota_shriek(fv, p, target),
                           iota_shriek(rand, p, target)):
                    stacked = []
                    for sigma, i in falg._face_horns(p):
                        stacked += plain_duality(tf, sigma, (i,))
                    held = target.is_zero_element(stacked)
                    assert all_dualities_hold(tf) is held
                    verdicts.add(held)
                    for sigma, idx in index_sets:
                        assert generalized_duality_holds(tf, sigma, idx) is \
                            target.is_zero_element(
                                plain_duality(tf, sigma, idx))
    assert verdicts == {True, False}


ORACLE_TARGETS = [
    InvolutiveAbelianGroup.from_factors([2, 3]),
    InvolutiveAbelianGroup(2, [[3, 0], [0, 3]], [[0, 1], [1, 0]]),
    InvolutiveAbelianGroup(2, [[], []], [[0, 1], [1, 0]]),
    InvolutiveAbelianGroup.from_factors([0, 2], -1),
    zero_group(),
    *TWISTED_TARGETS,
]


def is_signed_permutation(mat):
    """Whether each row and each column of ``mat`` has one nonzero, +-1."""
    return all(sorted(map(abs, line)) == [0] * (len(line) - 1) + [1]
               for line in [*mat, *zip(*mat)])


def test_twisted_targets_have_a_nonidentity_smith_transform():
    # the left transform mixes generators, so the compiled checks are not
    # the plain coordinates of a relabelled group
    assert is_signed_permutation(((0, -1), (1, 0)))
    assert not is_signed_permutation(((1, 0), (1, -1)))
    for target in TWISTED_TARGETS:
        assert not is_signed_permutation(target.smith_basis[1])
    assert [group_order(t.isomorphism_type()) for t in TWISTED_TARGETS] \
        == [16, 45]


def test_compiled_checks_match_plain_membership():
    # every compiled check against ``is_zero_element`` of its plain forms,
    # on targets whose Smith moduli are 2 and 3, 3 and 3, 0 and 0, 2 and
    # 0, none, and 2 and 8 or 3 and 15 under a left transform other than
    # a signed permutation: members of F^alg, the same with one face value
    # perturbed and random face values, at ambient 1..3
    rng = random.Random(89)
    verdicts = {"duality": set(), "horns": set()}
    for target in ORACLE_TARGETS:
        g = target.generator_count
        for p in (1, 2, 3):
            faces = falg._proper_faces(p)
            functors = []
            for value in ((0,) * g, tuple(range(1, g + 1))):
                member = psi_section(target, p - 1, value).functor
                fv = member.values
                if g:
                    face = rng.choice(faces)
                    fv[face] = tuple(x + 1 for x in fv[face])
                rand = {f: tuple(rng.randrange(-6, 6) for _ in range(g))
                        for f in faces}
                functors += [member, iota_shriek(fv, p, target),
                             iota_shriek(rand, p, target)]
            for tf in functors:
                horns = [plain_duality(tf, sigma, (i,))
                         for sigma, i in falg._face_horns(p)]
                held = all(map(target.is_zero_element, horns))
                assert all_dualities_hold(tf) is held
                verdicts["horns"].add(held)
                for sigma in falg._all_faces(p):
                    d = face_dim(sigma)
                    for r in range(1, d + 1):
                        for idx in combinations(range(d + 1), r):
                            held = target.is_zero_element(
                                plain_duality(tf, sigma, idx))
                            assert generalized_duality_holds(
                                tf, sigma, idx) is held
                            verdicts["duality"].add(held)
    assert verdicts == {kind: {True, False} for kind in verdicts}


BENCHMARK_TARGETS = [InvolutiveAbelianGroup.from_factors(f, s)
                     for f in ([2], [3], [4], [2, 2]) for s in (1, -1)] + [Z6]


def test_horn_basis_checks_every_horn_of_its_action():
    # all_dualities_hold gives each target the verdict of every horn's
    # own rows and of membership of the plain forms: on members of F^alg,
    # the same with one face value perturbed and random face values, at
    # ambient 1..3, both verdicts occurring for every target
    rng = random.Random(97)
    targets = [*BENCHMARK_TARGETS, *TWISTED_TARGETS,
               InvolutiveAbelianGroup(2, [[], []], [[0, 1], [1, 0]]),
               InvolutiveAbelianGroup.from_factors([0, 2], -1)]
    for target in targets:
        g = target.generator_count
        verdicts = set()
        for p in (1, 2, 3):
            faces = falg._proper_faces(p)
            for value in ((0,) * g, tuple(range(1, g + 1))):
                member = psi_section(target, p - 1, value).functor
                fv = member.values
                face = rng.choice(faces)
                fv[face] = tuple(x + 1 for x in fv[face])
                rand = {f: tuple(rng.randrange(-6, 6) for _ in range(g))
                        for f in faces}
                for tf in (member, iota_shriek(fv, p, target),
                           iota_shriek(rand, p, target)):
                    held = all_dualities_hold(tf)
                    assert held is all(
                        generalized_duality_holds(tf, sigma, (i,))
                        for sigma, i in falg._face_horns(p))
                    assert held is all(
                        target.is_zero_element(plain_duality(tf, sigma, (i,)))
                        for sigma, i in falg._face_horns(p))
                    verdicts.add(held)
        assert verdicts == {True, False}, target


def test_zero_group_has_empty_blocks():
    # g = 0: the relation lattice has dim 0, so every flat vector and
    # stacked duality is empty and the block loops never step
    zero = zero_group()
    assert zero.relation_lattice().dim == 0
    for p in (1, 2, 3):
        tf = TorsionFunctor.zero(p, zero)
        assert tf.flat == () and tf.is_zero()
        assert all_dualities_hold(tf)
        assert check_square(tf)
        assert all(tf.value_on(k) == () for k in _oracles.contractible_keys(p))
    assert psi(FAlgElement.zero(zero, 2)) == ()


def test_value_on_face_unions_matches_inclusion_exclusion():
    # where an intersection of the faces is empty the union may still be
    # contractible, and then the attachment oracle gives its value
    rng = random.Random(47)
    z2z2 = InvolutiveAbelianGroup.from_factors([2, 2], -1)
    raised = 0
    for target in (Z4S, z2z2):
        for p in (1, 2, 3, 4):
            faces = falg._proper_faces(p)
            for _ in range(15):
                fv = {f: tuple(rng.randrange(4) for _ in
                               range(target.generator_count)) for f in faces}
                tf = iota_shriek(fv, p, target)
                face_list = rng.sample(faces, rng.randint(1, min(5, len(faces))))
                union = closure(p, face_list)
                want = _oracles.inclusion_exclusion_value(tf, face_list)
                if want is not None:
                    assert tf.value_on(union) == want
                elif is_contractible(union):
                    assert tf.value_on(union) == \
                        _oracles.attached_value(tf, union.faces)
                else:
                    raised += 1
                    with pytest.raises(NotContractibleError):
                        tf.value_on(union)
    assert raised
    tf = TorsionFunctor.zero(2, Z4)
    for disjoint in ([0b001, 0b010], [0b011, 0b100], [0b011, 0b101, 0b110]):
        with pytest.raises(NotContractibleError):
            tf.value_on(closure(2, disjoint))


# -- dualities ---------------------------------------------------------------


def cycle_functor(target, n, a):
    """Value a on every proper-face inclusion into the top simplex."""
    fv = {f: target.reduce(a) for f in falg._proper_faces(n + 1)}
    return iota_shriek(fv, n + 1, target)


def test_cycle_functor_duality():
    for n in (0, 1, 2):
        sign = 1 if (n + 1) % 2 == 0 else -1
        for araw in range(4):
            a = (araw,)
            ok = Z4S.is_zero_element(
                tuple(x - sign * y for x, y in zip(a, Z4S.act(a))))
            tf = cycle_functor(Z4S, n, a)
            top = falg._top_mask(n + 1)
            assert check_face_horn_duality(tf, top) == ok, (n, araw)


def test_cycle_functor_is_a_strong_cycle():
    # every face map kills the cycle functor: its restriction data is the
    # zero functor one level down
    tf = cycle_functor(Z4, 1, (3,))
    el = FAlgElement(tf)
    for i in range(2):
        img = el.face(i)
        assert img.is_zero()


def test_face_value_isomorphism_both_directions():
    # extension and restriction are mutually inverse: once on face data
    # (tested elsewhere) and once on a fully tabulated functor, restricted
    # to its face closures and extended again
    rng = random.Random(53)
    fv = {f: (rng.randrange(4),) for f in falg._proper_faces(2)}
    tabulated = tabulate(iota_shriek(fv, 2, Z4))
    re_extended = iota_shriek({f: tabulated.value_on([f])
                               for f in falg._proper_faces(2)}, 2, Z4)
    for k in _oracles.contractible_keys(2):
        assert re_extended.value_on(k) == tabulated.value_on(k)


def test_duality_violation_example():
    # a = 1 in Z/4 with the sign condition a = -a fails: 1 != -1 mod 4
    tf = cycle_functor(Z4S, 1, (1,))
    top = falg._top_mask(2)
    assert not check_face_horn_duality(tf, top)


def test_zero_functor_duality():
    tf = TorsionFunctor.zero(3, Z6)
    for sigma in falg._all_faces(3):
        assert check_face_horn_duality(tf, sigma)


def test_generalized_dualities_exhaustive_p2():
    # all 6^4 elements of the degree-2 group over Z/6, every face, every
    # proper index set
    g2 = falg_group(Z6, 2)
    checked = 0
    for el in g2.elements():
        tf = el.functor
        for sigma in falg._all_faces(3):
            d = face_dim(sigma)
            if d < 1:
                continue
            for r in range(1, d + 1):
                for idx in combinations(range(d + 1), r):
                    assert generalized_duality_holds(tf, sigma, idx)
                    checked += 1
    assert checked == 6 ** 4 * (6 * 2 + 4 * 6 + 14)


def test_enumeration_checks_every_generator_first():
    # the last generator, perturbed at vertex 0 (outside the 0-th face
    # region), breaks a horn: the enumeration refuses it before it yields
    # the zero element, whose digits are all 0
    group = falg_group(Z4S, 2)
    gens, radices = group.mixed_radix
    g = Z4S.generator_count
    bad = list(gens[-1])
    bad[g] += 1
    tf = TorsionFunctor(3, Z4S, bad)
    assert falg._z_condition_holds(tf) and not all_dualities_hold(tf)
    broken = falg.FAlgGroup(Z4S, 2, group.isomorphism_type,
                            ([*gens[:-1], bad], radices))
    with pytest.raises(ValueError, match="face-horn duality"):
        next(broken.elements())


def test_enumerated_elements_pass_every_check():
    # what the enumeration yields unchecked passes the z-condition and
    # every face-horn duality, for the benchmark's targets at degrees 0..2
    for target in BENCHMARK_TARGETS:
        for p in (0, 1, 2):
            group = falg_group(target, p)
            count = 0
            for el in group.elements():
                assert falg._z_condition_holds(el.functor)
                assert all_dualities_hold(el.functor)
                count += 1
            assert count == group_order(group.isomorphism_type), (target, p)


def test_faces_of_elements_are_elements():
    # FAlgElement.face builds unchecked; every face of every element the
    # enumeration yields passes the z-condition and every face-horn
    # duality, for the benchmark's targets at degrees 1 and 2
    for target in BENCHMARK_TARGETS:
        for p in (1, 2):
            for el in falg_group(target, p).elements():
                for i in range(p + 1):
                    face = el.face(i).functor
                    assert falg._z_condition_holds(face), (target, p, i)
                    assert all_dualities_hold(face), (target, p, i)


def test_generalized_duality_rejects_bad_index_sets():
    tf = TorsionFunctor.zero(3, Z4S)
    for idx in ([], [0, 1, 2, 3]):
        with pytest.raises(ValueError):
            generalized_duality_holds(tf, 0b1111, idx)
    for idx in ([-1], [4], [0, 5]):
        with pytest.raises(IndexError):
            generalized_duality_holds(tf, 0b1111, idx)


def test_mixed_duality_on_horns():
    # K = a 2-horn of the top face, Q = one of its edges
    g2 = falg_group(Z4S, 2)
    els = list(g2.elements())
    top = falg._top_mask(3)
    for el in els:
        tf = el.functor
        k_faces = [top & ~0b10, top & ~0b100]
        bfaces = falg._pure_boundary(k_faces)
        for q in bfaces:
            q_faces = [q]
            rest = [b for b in bfaces if b != q]
            if not falg._collapses_to_point(falg._closure(rest)):
                continue
            assert mixed_duality_holds(tf, k_faces, q_faces)
    tf = els[0].functor
    with pytest.raises(ValueError, match="K must be a union of faces of one "
                       "dimension"):
        mixed_duality_holds(tf, [0b0011, 0b0100], [0b0001])
    with pytest.raises(ValueError, match="Q must consist of boundary faces "
                       "of K"):
        mixed_duality_holds(tf, [0b0011], [0b0100])


def test_duality_criterion_zero_functor():
    assert duality_criterion(TorsionFunctor.zero(2, Z6))
    # at ambient 0 there is no horn to check
    assert duality_criterion(TorsionFunctor.zero(0, Z6))


def test_duality_criterion_hypothesis_failure_raises():
    tf = cycle_functor(Z4S, 1, (1,))
    fv = tf.values
    fv[0b001] = (3,)
    bad = iota_shriek(fv, 2, Z4S)
    if not all(check_face_horn_duality(bad, s)
               for s in falg._proper_faces(2) if face_dim(s) >= 1):
        with pytest.raises(ValueError):
            duality_criterion(bad)
    # an edge whose vertex values break its 0-th horn duality
    with pytest.raises(ValueError, match="hypothesis fails: 0-th face-horn "
                       "duality at the top"):
        duality_criterion(iota_shriek({0b01: (1,), 0b10: (2,)}, 1, Z4))


def hypothesis_solutions_z6_p2():
    """All functors on the 2-simplex over Z/6 satisfying the criterion's
    hypothesis, generated by an independent brute-force filter."""
    faces = falg._proper_faces(2)
    out = []
    for combo in product(range(6), repeat=len(faces)):
        fv = {f: (c,) for f, c in zip(faces, combo)}
        # edge dualities: f(i) + f(j) = 2 f(ij) mod 6 (trivial involution)
        ok = True
        for i, j in ((0, 1), (0, 2), (1, 2)):
            fi, fj, fij = 1 << i, 1 << j, (1 << i) | (1 << j)
            if (fv[fi][0] + fv[fj][0] - 2 * fv[fij][0]) % 6:
                ok = False
                break
        if not ok:
            continue
        # 0-th horn duality at the top: f(d0) = f(01) + f(02) - f(0)
        if (fv[0b110][0] - fv[0b011][0] - fv[0b101][0] + fv[0b001][0]) % 6:
            continue
        out.append(fv)
    return out


def test_duality_criterion_exhaustive_z6():
    sols = hypothesis_solutions_z6_p2()
    assert len(sols) == 216
    for fv in sols:
        assert duality_criterion(iota_shriek(fv, 2, Z6))


# -- the simplicial group ---------------------------------------------------


def test_falg_cardinalities():
    for p in (0, 1, 2):
        assert group_order(falg_group(Z2, p).isomorphism_type) == 2 ** (2 ** p)
    zero = zero_group()
    assert group_order(falg_group(zero, 1).isomorphism_type) == 1


def test_falg_degree_zero_is_target():
    # determined by the 0-vertex value with the other vertex forced
    g0 = falg_group(Z4S, 0)
    assert group_order(g0.isomorphism_type) == 4
    for el in g0.elements():
        b = el.functor.values[0b01]
        forced = el.functor.values[0b10]
        assert forced == Z4S.reduce(tuple(-x for x in Z4S.act(b)))


def test_simplicial_identities():
    # all five identity families on every element at low degrees
    els1 = list(falg_group(Z4, 1).elements())
    els2 = list(falg_group(Z2, 2).elements())
    for x in els2:
        # delta_i delta_j = delta_{j-1} delta_i for i < j
        for i in range(2):
            for j in range(i + 1, 3):
                assert x.face(j).face(i) == x.face(i).face(j - 1)
    for x in els1:
        # delta_i s_i = id = delta_{i+1} s_i
        for i in range(2):
            s = degeneracy(x, i)
            assert s.face(i) == x
            assert s.face(i + 1) == x
        # delta_i s_j = s_{j-1} delta_i for i < j (at degree 1: i=0, j=1)
        assert degeneracy(x, 1).face(0) == degeneracy(x.face(0), 0)
        # delta_i s_j = s_j delta_{i-1} for i > j + 1 (i=2, j=0)
        assert degeneracy(x, 0).face(2) == degeneracy(x.face(1), 0)
        # s_i s_j = s_{j+1} s_i for i <= j
        for i, j in ((0, 0), (0, 1), (1, 1)):
            assert degeneracy(degeneracy(x, j), i) == \
                degeneracy(degeneracy(x, i), j + 1)
    for x in falg_group(Z4, 0).elements():
        s = degeneracy(x, 0)
        assert s.face(0) == x and s.face(1) == x
        with pytest.raises(IndexError, match="0-simplices have no faces"):
            x.face(0)
        with pytest.raises(IndexError, match="degeneracy index out of range"):
            degeneracy(x, 1)
    for i in (-1, 2):
        with pytest.raises(IndexError, match="face index out of range"):
            els1[0].face(i)
        with pytest.raises(IndexError, match="degeneracy index out of range"):
            degeneracy(els1[0], i)


def _sum_values(x, y, sign, target):
    """The face values of x + sign * y, reduced face by face."""
    return {f: target.reduce(tuple(a + sign * b for a, b in zip(v, y.values[f])))
            for f, v in x.values.items()}


def test_group_law_of_falg():
    # the sum, difference and negative of simplices are simplices, with
    # the face values reduced coordinatewise, and the group axioms hold
    els = list(falg_group(Z4S, 1).elements())
    assert len(els) == 16
    members = {el.functor for el in els}
    zero = FAlgElement.zero(Z4S, 1)
    for x in els:
        assert (-x).functor in members
        assert x + (-x) == zero and x - x == zero
        assert (-x).functor.values == _sum_values(zero.functor, x.functor,
                                                  -1, Z4S)
        for y in els:
            total, diff = x + y, x - y
            assert total.functor in members and diff.functor in members
            assert total.functor.values == _sum_values(x.functor, y.functor,
                                                       1, Z4S)
            assert diff.functor.values == _sum_values(x.functor, y.functor,
                                                      -1, Z4S)
            assert total == y + x and diff + y == x


def test_face_and_degeneracy_maps_are_homomorphisms():
    els = list(falg_group(Z4S, 1).elements())
    for x, y in product(els, repeat=2):
        for i in range(2):
            assert (x + y).face(i) == x.face(i) + y.face(i)
            assert degeneracy(x + y, i) == degeneracy(x, i) + degeneracy(y, i)


def random_functor(rng, p, target):
    return iota_shriek({f: tuple(rng.randrange(-5, 6) for _ in range(
        target.generator_count)) for f in falg._proper_faces(p)}, p, target)


def test_structure_maps_match_the_dict_oracles():
    # the gathers over the flat vector against face-by-face dict maps, on
    # random functors
    rng = random.Random(67)
    for target in (Z4S, SWAP22):
        for p in range(4):
            for _ in range(3):
                a, b = random_functor(rng, p, target), \
                    random_functor(rng, p, target)
                assert a + b == _oracles.combine(a, b, add)
                assert a - b == _oracles.combine(a, b, sub)
                assert -a == _oracles.negate(a)
                for j in range(p + 1):
                    if p:
                        assert a.coface_restrict(j) == \
                            _oracles.coface_restrict(a, j)


def test_coface_restrict_refuses_ambient_zero():
    for target in (Z4S, SWAP22):
        with pytest.raises(IndexError, match="coface index"):
            TorsionFunctor.zero(0, target).coface_restrict(0)


def test_constructor_checks_the_flat_vector():
    # one block per mask from the empty face to the top, both left zero
    flat = [0] * 16
    TorsionFunctor(3, Z4S, flat)
    for i, match in ((15, "top face"), (0, "empty face")):
        bad = list(flat)
        bad[i] = 1
        with pytest.raises(ValueError, match=match):
            TorsionFunctor(3, Z4S, bad)
    bad = list(flat)
    bad[15] = 4
    assert TorsionFunctor(3, Z4S, bad) == TorsionFunctor.zero(3, Z4S)
    with pytest.raises(ValueError, match="length"):
        TorsionFunctor(3, Z4S, flat[1:])


def test_degeneracy_top_face_value_is_zero():
    # the 0-th corrected degeneracy sends the 0-th boundary face of the
    # new top simplex to the old top simplex, whose value is pinned at 0
    for x in falg_group(Z4, 1).elements():
        s = _oracles.codegeneracy(x.functor, 0)
        top = falg._top_mask(3)
        assert s.values[top & ~1] == (0,)
        assert x.functor.values[falg._top_mask(2)] == (0,)


def test_moore_homotopy_examples():
    assert [str(moore_homotopy(Z2, n)) for n in range(3)] == \
        ["Z/2", "Z/2", "Z/2"]
    z3s = cyclic(3, -1)
    assert moore_homotopy(z3s, 0).is_trivial()
    zero = zero_group()
    for n in range(3):
        assert moore_homotopy(zero, n).is_trivial()


def horn_equations(horns):
    """The horns of ``falg._membership_rows`` as full face-block
    equations ``{k: (a, b)}``, keyed in block order."""
    eqs = []
    for face, sigma, terms in horns:
        eq = {face: [1, 0]}
        if sigma is not None:
            eq[sigma] = [-1, 0]
        for tau, c in terms:
            eq.setdefault(tau, [0, 0])[1] += c
        eqs.append({k: tuple(ab) for k, ab in sorted(eq.items())})
    return eqs


@pytest.mark.parametrize("ambient", range(1, 7))
def test_membership_rows_match_inclusion_exclusion(ambient):
    # the closed-form face-horn coefficients against the subset loop,
    # beyond the ambient 4 that the degree cap lets the solvers reach:
    # the pairs and the horns written back as full equations
    pairs, horns, n_faces = falg._membership_rows(ambient)
    eqs = _oracles.pair_equations(pairs) + horn_equations(horns)
    assert (eqs, n_faces) == _oracles.membership_equations(ambient)


def cached_equations():
    return repr([falg._membership_rows(a) for a in range(1, 5)]
                + [falg._face_rows(d, i) for d in range(4)
                   for i in range(d + 1)]
                + [falg._presolve(d, system) for d in range(5)
                   for system in ("all", "normalized", "cycles")])


def test_moore_homotopy_leaves_cached_rows_intact():
    # every target shares one lru entry per set of equations, and the
    # presolve and the elimination must reach them only through copies:
    # run every solver on a scalar action and on a non-scalar one
    before = cached_equations()
    swap = InvolutiveAbelianGroup(2, [[]] * 2, [[0, 1], [1, 0]])
    for target in (InvolutiveAbelianGroup.from_factors([2, 2], -1), swap):
        for n in range(3):
            falg_group(target, n)
            normalized_group(target, n)
            moore_homotopy(target, n)
    assert cached_equations() == before


def presolve_targets():
    """The eight sweep targets, free targets under every action, and
    mixed torsion with the sign action."""
    factors = {"z2": [2], "z3": [3], "z4": [4], "z2xz2": [2, 2], "z": [0],
               "z^2": [0, 0]}
    out = {f"{name}-{action}": InvolutiveAbelianGroup.from_factors(f, s)
           for name, f in factors.items()
           for action, s in (("trivial", 1), ("sign", -1))}
    out["z+z2-sign"] = InvolutiveAbelianGroup.from_factors([0, 2], -1)
    out["z2+z4-sign"] = InvolutiveAbelianGroup.from_factors([2, 4], -1)
    out["z^2-swap"] = InvolutiveAbelianGroup(2, [[]] * 2, [[0, 1], [1, 0]])
    return out


def full_system(degree, system):
    """The unreduced equations of a system at a degree, with the number of
    face blocks: the oracle's membership equations, then the face pairs
    of the system written as equations."""
    eqs, n_faces = _oracles.membership_equations(degree + 1)
    if system != "all":
        eqs += _oracles.pair_equations(falg._normalization_rows(degree))
    if system == "cycles" and degree >= 1:
        eqs += _oracles.pair_equations(falg._delta0_rows(degree))
    return eqs, n_faces


def unreduced_kernel(target, eqs, n_faces):
    """The solution lattice of a set of equations expanded and eliminated
    as it stands, with one relation block per equation."""
    return lattice.kernel_with_denominator(
        falg._expand(target, eqs), falg._block_lattice_cols(target, len(eqs)),
        target.generator_count * n_faces)


def on_faces(target, degree, system):
    """The class lattice of a system copied from each class to the
    blocks of its faces, and the relation blocks L^F."""
    basis, _, cls = falg._class_lattice(target, degree, system)
    g = target.generator_count
    copies = [{k * g + r: x for k, c in enumerate(cls) for r in range(g)
               if (x := vec.get(c * g + r))} for vec in basis]
    return copies + falg._block_lattice_cols(target, len(cls))


def apply_rows(rows, vec):
    """The sparse ``rows`` times the sparse vector ``vec``, zero-free."""
    out = {}
    for i, row in enumerate(rows):
        if x := sum(c * vec.get(j, 0) for j, c in row.items()):
            out[i] = x
    return out


def same_span(a, b, dim):
    """Mutual containment of the spans of two lists of sparse vectors."""
    a, b = ([[v.get(i, 0) for i in range(dim)] for v in vs] for vs in (a, b))
    in_a, in_b = lattice.Lattice(a, dim), lattice.Lattice(b, dim)
    return all(map(in_b.contains, a)) and all(map(in_a.contains, b))


@pytest.mark.parametrize("name", sorted(presolve_targets()))
def test_presolve_matches_the_unreduced_systems(name):
    # each class lattice copied to the faces, plus the relation blocks,
    # solves to the same lattice as the full system, and moore_homotopy
    # on the face classes agrees with the quotient of the full systems
    target = presolve_targets()[name]
    g = target.generator_count
    for ambient in range(1, 5):
        eqs, n_faces = full_system(ambient - 1, "all")
        assert same_span(on_faces(target, ambient - 1, "all"),
                         unreduced_kernel(target, eqs, n_faces),
                         g * n_faces), ("membership", ambient)
    normalized = []
    for degree in range(5):
        eqs, n_faces = full_system(degree, "normalized")
        normalized.append(unreduced_kernel(target, eqs, n_faces))
        assert same_span(on_faces(target, degree, "normalized"),
                         normalized[-1], g * n_faces), ("normalized", degree)
    for n in range(4):
        eqs, n_faces = full_system(n, "cycles")
        cycles = unreduced_kernel(target, eqs, n_faces)
        delta0 = falg._expand(
            target, _oracles.pair_equations(falg._delta0_rows(n + 1)))
        den = [apply_rows(delta0, v) for v in normalized[n + 1]] \
            + falg._block_lattice_cols(target, n_faces)
        assert moore_homotopy(target, n) == FgAbGroup.from_factors(
            lattice.quotient_factors(cycles, den)), n


def cycle_coordinates(target, n):
    """C g, C the number of face classes of the degree-n cycle system."""
    cls, _reduced = falg._presolve(n, "cycles")
    return (max(cls) + 1) * target.generator_count


@pytest.mark.parametrize("spied, width, solve, most", [
    # the degree-3 normalized system of Z/2+Z/2 has 30 face blocks of 2
    # unknowns each; the identifications leave at most two blocks
    pytest.param("kernel_with_denominator", lambda rows, den, n: n,
                 lambda t: falg._class_lattice(t, 3, "normalized"),
                 lambda t: 4, id="z2xz2-trivial-normalized-3"),
    # the homotopy quotient holds no per-face relation blocks: its
    # vectors live on the face classes of the cycles
    pytest.param("quotient_factors",
                 lambda num, den: 1 + max(max(v) for v in num + den if v),
                 lambda t: moore_homotopy(t, 3),
                 lambda t: cycle_coordinates(t, 3),
                 id="z2xz2-trivial-homotopy-3"),
])
def test_presolve_collapses_the_face_blocks(monkeypatch, spied, width, solve,
                                            most):
    target = InvolutiveAbelianGroup.from_factors([2, 2], 1)
    widths = []
    original = getattr(lattice, spied)

    def spy(*args):
        widths.append(width(*args))
        return original(*args)

    monkeypatch.setattr(lattice, spied, spy)
    solve(target)
    assert widths and max(widths) <= most(target), widths


def test_sweep_targets_share_one_presolve_per_system():
    # the presolve is target-free: the eight sweep targets at n = 0..3
    # need the cycles at degrees 0..3 and the normalized simplices at
    # degrees 1..4, and presolve each of those eight systems once
    falg._presolve.cache_clear()
    targets = presolve_targets()
    for name in ("z2", "z3", "z4", "z2xz2"):
        for action in ("trivial", "sign"):
            for n in range(4):
                moore_homotopy(targets[f"{name}-{action}"], n)
    assert falg._presolve.cache_info().misses == 8, falg._presolve.cache_info()


@pytest.mark.parametrize("system", ["all", "normalized", "cycles"])
@pytest.mark.parametrize("degree", range(6))
def test_presolve_matches_the_merge_oracle(degree, system):
    # the same classes as the shape-based merge of the full equations,
    # and each of its distinct equations exactly once, in first-seen order
    cls, reduced = falg._presolve(degree, system)
    oracle_cls, oracle_reduced = _oracles.merge_identified_blocks(
        *full_system(degree, system))
    assert cls == oracle_cls
    keys = [tuple(sorted(eq.items())) for eq in reduced]
    assert keys == list(dict.fromkeys(
        tuple(sorted(eq.items())) for eq in oracle_reduced))


@pytest.mark.parametrize("degree", range(7))
def test_presolve_shape_as_observed(degree):
    # observations at d <= 6, which no code relies on: "all" has 2^(d+1)
    # face classes; from degree 1 the normalized system has two classes
    # and three distinct equations, the cycles one class and one equation
    counts = {}
    for system in ("all", "normalized", "cycles"):
        cls, reduced = falg._presolve(degree, system)
        counts[system] = (max(cls) + 1, len(reduced))
    assert counts["all"][0] == 2 ** (degree + 1)
    if degree >= 1:
        assert counts["normalized"] == (2, 3)
        assert counts["cycles"] == (1, 1)


def test_moore_homotopy_against_enumeration_oracle():
    # brute-force the homology of the normalized complex for Z/2 at low
    # degrees by enumerating simplices directly
    for n in (0, 1):
        cyc = [el for el in normalized_group(Z2, n).elements()
               if n == 0 or el.face(0).is_zero()]
        bnd = set()
        for up in normalized_group(Z2, n + 1).elements():
            img = up.face(0)
            bnd.add(tuple(sorted(img.functor.values.items())))
        order = len(cyc) // len(bnd)
        assert group_order(moore_homotopy(Z2, n)) == order


def test_boundary_squares_to_zero():
    for target in (Z2, Z4S):
        bases = moore_complex(target, 3)
        assert len(bases) == 4
        assert _oracles.boundary_squares_to_zero(target, bases)


def test_psi_examples():
    for n in range(3):
        for b in range(4):
            el = psi_section(Z4S, n, (b,))
            assert el.is_normalized()
            assert psi(el) == Z4S.reduce((b,))
    tf = cycle_functor(Z2, 1, (1,))
    el = FAlgElement(tf)
    assert psi(el) == (1,)  # psi(tau_a) = a


def test_psi_rejects_unnormalized():
    el = next(iter(falg_group(Z4, 1).elements()))
    if not el.is_normalized():
        with pytest.raises(ValueError):
            psi(el)


def test_psi_chain_map():
    # psi(delta_0 x) = b + (-1)^n b* where b = psi(x)
    for target in (Z2, Z4S, Z6):
        m = group_order(target.isomorphism_type())
        for n in (1, 2, 3):
            sgn = 1 if n % 2 == 0 else -1
            for braw in range(m):
                el = psi_section(target, n, (braw,))
                lhs = psi(el.face(0))
                b = psi(el)
                rhs = target.reduce(
                    tuple(x + sgn * y for x, y in zip(b, target.act(b))))
                assert target.reduce(lhs) == rhs


def test_psi_reconstruction_relation():
    # delta_0 of the psi-section is the cycle functor on a = b + (-1)^n b*
    for braw in range(4):
        n = 1
        el = psi_section(Z4S, n, (braw,))
        img = el.face(0)
        a = Z4S.reduce((braw - (-braw),))  # b + (-1)^1 b* with sign action
        expected = cycle_functor(Z4S, 0, a)
        assert img.functor.values == expected.values


def test_psi_bijective_full_sweep():
    # on generators, and on every element listed with the oracle's faces
    for target in [*PSI_SWEEP, SWAP_SQ, MUL5, *TWISTED_TARGETS]:
        for n in range(4):
            assert psi_is_bijective(target, n) \
                is psi_bijective_by_enumeration(target, n) is True, \
                (group_to_dict(target), n)


def test_psi_refuses_a_lost_generator(monkeypatch):
    # a normalized group missing one mixed-radix generator is no longer
    # onto the target: both paths say so
    solved = normalized_group

    def lossy(target, degree):
        group = solved(target, degree)
        gens, radices = group.mixed_radix
        return falg.FAlgGroup(target, degree, group.isomorphism_type,
                              (gens[1:], radices[1:]))

    monkeypatch.setattr(falg, "normalized_group", lossy)
    for target in (Z4S, SWAP_SQ, *TWISTED_TARGETS):
        for n in (1, 2):
            assert not psi_is_bijective(target, n), (group_to_dict(target), n)
            assert not psi_bijective_by_enumeration(target, n)


def test_psi_checks_each_generator_once(monkeypatch):
    # no element is listed, and each of the two generators of Z/2 + Z/2
    # at degree 3 runs its 75 horns once: a face of an element is not
    # checked again
    calls = []
    duality_ok = falg._duality_ok

    def counted_duality(tf, sigma, i):
        calls.append((sigma, i))
        return duality_ok(tf, sigma, i)

    def refuse(self):
        raise AssertionError("FAlgGroup.elements called")

    monkeypatch.setattr(falg, "_duality_ok", counted_duality)
    monkeypatch.setattr(falg.FAlgGroup, "elements", refuse)
    z2z2 = InvolutiveAbelianGroup.from_factors([2, 2], -1)
    assert len(normalized_group(z2z2, 3).mixed_radix[0]) == 2
    assert len(falg._face_horns(4)) == 75
    assert psi_is_bijective(z2z2, 3)
    assert len(calls) == 150
    for target in free_targets():
        assert psi_is_bijective(target, 2), group_to_dict(target)


def test_central_comparison_small():
    # moore homotopy against the independent homology path
    for target in (Z2, Z4S, Z6):
        for n in range(3):
            assert moore_homotopy(target, n) == homology_c2(target, n)


def test_central_comparison_nonscalar_involutions():
    assert [str(homology_c2(MUL5, n)) for n in range(3)] == \
        ["Z/4", "Z/2", "Z/2"]
    for target in (SWAP_SQ, MUL5):
        for n in range(3):
            assert moore_homotopy(target, n) == homology_c2(target, n)
        assert psi_is_bijective(target, 1)


def free_targets():
    """Free targets, and one with torsion, whose homotopy is checked on
    both paths; the last ones model Wh(C_p), free of rank (p-3)/2, at
    both parities of the dimension."""
    swap = InvolutiveAbelianGroup(2, [[], []], [[0, 1], [1, 0]])
    out = [InvolutiveAbelianGroup.free(rank, sign)
           for rank in (1, 2) for sign in (1, -1)]
    out += [InvolutiveAbelianGroup.from_factors([0, 2], -1), swap]
    out += [InvolutiveAbelianGroup.free((p - 3) // 2, 1).parity_action(d)
            for p in (5, 7, 11, 13, 17, 19, 23) for d in (10, 11)]
    return out


def test_free_targets_agree_on_both_paths():
    for target in free_targets():
        for n in range(4):
            assert moore_homotopy(target, n) == homology_c2(target, n), \
                (group_to_dict(target), n)
            assert psi_is_bijective(target, n), (group_to_dict(target), n)
    # enumeration, and only enumeration, refuses an infinite group
    z = InvolutiveAbelianGroup.free(1, 1)
    with pytest.raises(ValueError, match="infinite"):
        next(falg_group(z, 1).elements())
    with pytest.raises(ValueError, match="infinite"):
        next(group_elements(z))


@pytest.mark.parametrize("build", [falg_group, normalized_group,
                                   moore_complex, moore_homotopy],
                         ids=lambda build: build.__name__)
def test_negative_degrees_are_refused(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build(Z4S, -1)


def test_caps():
    with pytest.raises(ValueError):
        moore_homotopy(Z2, 4)
    with pytest.raises(ValueError):
        falg_group(Z2, 4)


def unchecked_element(functor):
    """An FAlgElement built without its constructor, whose duality checks take
    seconds at degree 8 and above."""
    el = object.__new__(FAlgElement)
    object.__setattr__(el, "functor", functor)
    return el


def test_element_serialization_caps_the_degree_at_eight():
    # degree 9 has vertex 10, whose key "10" no reader takes; degree 8,
    # the largest readable, round-trips with a distinct value per face
    with pytest.raises(ValueError, match="degree at 8"):
        simplex_to_dict(unchecked_element(TorsionFunctor.zero(10, Z2)))
    target = InvolutiveAbelianGroup.from_factors([7, 0])
    fv = {f: (f, -f) for f in falg._proper_faces(9)}
    el = unchecked_element(iota_shriek(fv, 9, target))
    assert FAlgElement.parse_dict(simplex_to_dict(el)) == (
        target, 8, {f: target.reduce(v) for f, v in fv.items()})


def test_element_serialization_round_trip():
    el = psi_section(Z4S, 2, (3,))
    data = simplex_to_dict(el)
    back = simplex_from_dict(data)
    assert back.functor.values == el.functor.values
