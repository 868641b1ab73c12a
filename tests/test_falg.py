"""Torsion functors, dualities, the simplicial group and its homotopy."""

from __future__ import annotations

import random
from itertools import combinations, islice, product

import pytest

from whcalc import falg
from whcalc.abelian import InvolutiveAbelianGroup, homology_c2
from whcalc.falg import (FAlgElement, InconsistentFunctorError,
                         NotContractibleError, TorsionFunctor,
                         all_dualities_hold, check_face_horn_duality,
                         check_square, duality_criterion, falg_group,
                         generalized_duality_holds, iota_shriek,
                         mixed_duality_holds, moore_complex, moore_homotopy,
                         normalized_group, psi, psi_is_bijective, psi_section,
                         raw_degeneracy)
from whcalc.simplicial import (SubComplex, boundary_face, face_dim, horn,
                               single_face)

import _oracles

Z2 = InvolutiveAbelianGroup.cyclic(2, 1)
Z4 = InvolutiveAbelianGroup.cyclic(4, 1)
Z4S = InvolutiveAbelianGroup.cyclic(4, -1)
Z6 = InvolutiveAbelianGroup.cyclic(6, 1)


def functor_from(values, p, target):
    fv = {f: (0,) for f in falg._proper_faces(p)}
    fv.update(values)
    return iota_shriek(fv, p, target)


# -- extension by inclusion-exclusion -------------------------------------


def test_zero_functor_everywhere():
    tf = TorsionFunctor.zero(2, Z4)
    for k in falg._contractible_keys(2):
        assert tf.value_on(k) == (0,)


def test_horn_value_inclusion_exclusion():
    # values a, b on the two back faces and c on their shared vertex
    tf = functor_from({0b011: (1,), 0b101: (2,), 0b001: (3,)}, 2, Z4)
    assert tf.value_on(horn(2, 0)) == Z4.reduce((1 + 2 - 3,))
    # the 0-th horn of the top face: the union of the faces 02 and 01
    assert tf.union_of_faces_value([0b101, 0b011]) == Z4.reduce((0,))


def test_union_formula_matches_general_evaluator():
    rng = random.Random(31)
    for _ in range(25):
        fv = {f: (rng.randrange(4),) for f in falg._proper_faces(3)}
        tf = iota_shriek(fv, 3, Z4)
        top = falg._top_mask(3)
        for r in (2, 3):
            for idx in combinations(range(4), r):
                faces = [boundary_face(3, i).maximal_faces()[0] for i in idx]
                union = SubComplex.closure(3, faces)
                assert tf.union_of_faces_value(faces) == tf.value_on(union)


def test_non_contractible_evaluation_raises():
    tf = functor_from({0b01: (1,)}, 1, Z4)
    both_vertices = SubComplex(1, frozenset({0b01, 0b10}))
    with pytest.raises(NotContractibleError):
        tf.value_on(both_vertices)


def test_functoriality_chain():
    rng = random.Random(13)
    fv = {f: (rng.randrange(4),) for f in falg._proper_faces(2)}
    tf = iota_shriek(fv, 2, Z4)
    keys = falg._contractible_keys(2)
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
        again = iota_shriek(tf.face_values_copy(), 2, Z4)
        for k in falg._contractible_keys(2):
            assert tf.value_on(k) == again.value_on(k)


def test_inconsistent_table_detected():
    # a corrupted full table disagrees between attachment orders
    fv = {f: (0,) for f in falg._proper_faces(2)}
    tf = iota_shriek(fv, 2, Z4)
    table = {tuple(sorted(k)): tf.value_on(k)
             for k in falg._contractible_keys(2)}
    horn_key = tuple(sorted(horn(2, 0).faces))
    table[horn_key] = (1,)
    broken = TorsionFunctor(2, Z4, fv, table)
    assert not check_square(broken)


def test_attachment_order_independence_is_checked():
    # good data passes through both orders silently
    rng = random.Random(19)
    fv = {f: (rng.randrange(4),) for f in falg._proper_faces(3)}
    tf = iota_shriek(fv, 3, Z4)
    for k in falg._contractible_keys(3):
        tf.value_on(k)  # would raise InconsistentFunctorError on failure


def test_attachment_order_disagreement_fires():
    # white box: corrupt one memoized intermediate value so the two
    # attachment orders of the horn disagree, and check the guard trips
    tf = functor_from({0b011: (1,), 0b101: (2,), 0b001: (3,)}, 2, Z4)
    edge = frozenset({0b001, 0b100, 0b101})  # closure of the face 02
    assert tf.value_on(edge) == (2,)
    tf._memo[edge] = (0,)  # malformed state
    with pytest.raises(InconsistentFunctorError):
        tf.value_on(horn(2, 0))


# -- square condition -------------------------------------------------------


def test_iota_shriek_output_satisfies_square():
    rng = random.Random(3)
    for p in (1, 2, 3):
        fv = {f: (rng.randrange(4),) for f in falg._proper_faces(p)}
        assert check_square(iota_shriek(fv, p, Z4))


def test_raw_degeneracy_fails_square():
    tf = iota_shriek({0b01: (0,), 0b10: (1,)}, 1, Z2)
    raw = raw_degeneracy(tf, 0)
    assert not check_square(raw)
    # the specific failing pushout: the 2-horn against its decomposition
    k0, k1 = boundary_face(2, 0), boundary_face(2, 1)
    k01, k = k0.intersection(k1), k0.union(k1)
    lhs = tuple(p - q for p, q in zip(raw.value_on(k01), raw.value_on(k1)))
    rhs = tuple(p - q for p, q in zip(raw.value_on(k0), raw.value_on(k)))
    assert Z2.reduce(lhs) != Z2.reduce(rhs)
    # the corrected degeneracy repairs exactly this
    assert check_square(tf.codegeneracy(0))
    with pytest.raises(ValueError):
        raw_degeneracy(tf.codegeneracy(0), 0)


def test_zero_functor_square():
    assert check_square(TorsionFunctor.zero(2, Z4))


# -- per-ambient plans against brute force ---------------------------------


def test_squares_plan_matches_pair_scan():
    counts = {}
    for p in (0, 1, 2, 3):
        keys = falg._contractible_keys(p)
        plan = [tuple(keys[k] for k in square) for square in falg._squares(p)]
        assert plan == _oracles.pushout_squares(p)
        counts[p] = len(plan)
    assert counts == {0: 0, 1: 2, 2: 33, 3: 1180}


def random_table_functor(rng, p, target, corrupt):
    """A table-backed copy of a random functor, one entry corrupted."""
    fv = {f: target.reduce(tuple(rng.randrange(4) for _ in range(
        target.generator_count))) for f in falg._proper_faces(p)}
    tf = iota_shriek(fv, p, target)
    table = {tuple(sorted(k)): tf.value_on(k) for k in falg._contractible_keys(p)}
    if corrupt:
        key = rng.choice(sorted(table))
        table[key] = tuple(x + 1 for x in table[key])
    return tf, TorsionFunctor(p, target, fv, table)


def test_check_square_matches_oracle():
    # every element of F^alg_2(Z/2), then seeded face values and corrupted
    # tables at ambient 1..3, including the table of
    # test_inconsistent_table_detected
    for el in falg_group(Z2, 2).elements():
        assert check_square(el.functor) is _oracles.square_condition_holds(
            el.functor) is True
    rng = random.Random(41)
    verdicts = set()
    for target in (Z4S, InvolutiveAbelianGroup.from_factors([2, 2], -1)):
        for p in (1, 2, 3):
            for trial in range(4):
                tf, table_tf = random_table_functor(rng, p, target, trial > 0)
                for f in (tf, table_tf):
                    verdict = check_square(f)
                    assert verdict == _oracles.square_condition_holds(f)
                    verdicts.add(verdict)
    fv = {f: (0,) for f in falg._proper_faces(2)}
    table = {tuple(sorted(k)): (0,) for k in falg._contractible_keys(2)}
    table[tuple(sorted(horn(2, 0).faces))] = (1,)
    broken = TorsionFunctor(2, Z4, fv, table)
    assert check_square(broken) is _oracles.square_condition_holds(broken) \
        is False
    assert verdicts == {True, False}


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


def test_check_square_matches_oracle_on_raw_degeneracies():
    verdicts = set()
    for p in (0, 1):
        faces = falg._proper_faces(p)
        for combo in product(range(4), repeat=len(faces)):
            tf = iota_shriek({f: (c,) for f, c in zip(faces, combo)}, p, Z4S)
            for i in range(p + 1):
                raw = raw_degeneracy(tf, i)
                verdict = check_square(raw)
                assert verdict is _oracles.square_condition_holds(raw)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_check_square_on_partial_tables_matches_first_failure_scan():
    # a table missing one complex makes value_on raise partway through;
    # check_square returns False exactly when a square the scan reaches
    # first fails, and otherwise raises what value_on raised
    rng = random.Random(59)
    seen = set()
    for p in (2, 3):
        squares = _oracles.pushout_squares(p)
        for trial in range(8):
            tf, table_tf = random_table_functor(rng, p, Z4S, trial % 2)
            table = dict(table_tf.table)
            del table[rng.choice(sorted(table))]
            partial = TorsionFunctor(p, Z4S, tf.face_values_copy(), table)
            got = outcome(check_square, partial)
            assert got == outcome(_oracles.square_condition_holds, partial,
                                  squares)
            seen.add(got if isinstance(got, bool) else got[0])
    assert seen == {False, NotContractibleError}


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
                fv = el.functor.face_values_copy()
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
                    forms = falg._duality_form(t, p, sigma, idx)
                    assert len(forms) == g
                    for form in forms:
                        assert all(c for _f, _j, c in form)
                        assert len({(f, j) for f, j, _c in form}) == len(form)
                    for _ in range(4):
                        v = {f: [rng.randrange(-50, 50) for _ in range(g)]
                             for f in falg._all_faces(p)}
                        left = [sum(c * v[f][r] for f, c in lhs.items())
                                for r in range(g)]
                        right = [sum(c * v[f][r] for f, c in rhs.items())
                                 for r in range(g)]
                        want = [left[r] - sgn * sum(t[r][j] * right[j]
                                                    for j in range(g))
                                for r in range(g)]
                        got = [sum(c * v[f][j] for f, j, c in form)
                               for form in forms]
                        assert got == want, (target, p, sigma, idx)


def test_all_dualities_hold_checks_each_horn_once(monkeypatch):
    # one _duality_ok per (face of dimension >= 1, omitted index), so a
    # trace counts every face-horn check exactly once
    calls = []
    original = falg._duality_ok

    def counted(tf, sigma, i):
        calls.append((sigma, i))
        return original(tf, sigma, i)

    monkeypatch.setattr(falg, "_duality_ok", counted)
    for n in (0, 1, 2, 3):
        el = psi_section(Z4S, n, (1,))
        calls.clear()
        assert all_dualities_hold(el.functor)
        faces = [s for s in falg._all_faces(n + 1) if face_dim(s) >= 1]
        assert len(calls) == sum(face_dim(s) + 1 for s in faces)
        assert sorted(calls) == sorted((s, i) for s in faces
                                       for i in range(face_dim(s) + 1))


def test_targets_with_one_involution_share_duality_forms():
    # the forms depend on the target only through its involution
    falg._duality_form.cache_clear()
    for target in (Z2, Z4, Z6):
        assert all_dualities_hold(TorsionFunctor.zero(3, target))
    assert falg._duality_form.cache_info().currsize == len(
        falg._face_horns(3))


def test_square_basis_plan():
    # first-need order covers every key a square uses; ranks per ambient
    ranks = {}
    for p in (0, 1, 2, 3):
        order, first, basis = falg._square_basis(p)
        squares = falg._squares(p)
        assert len(order) == len(set(order)) == len(first)
        assert set(order) == {k for square in squares for k in square}
        for k, s in zip(order, first):
            assert k in squares[s]
            assert all(k not in squares[t] for t in range(s))
        ranks[p] = len(basis)
    assert ranks == {0: 0, 1: 0, 2: 3, 3: 50}


class CountingFunctor(TorsionFunctor):
    __slots__ = ("calls",)

    def value_on(self, complex_or_faces):
        self.calls.append(frozenset(complex_or_faces))
        return super().value_on(complex_or_faces)


def test_check_square_evaluates_each_key_once():
    rng = random.Random(43)
    for p in (1, 2, 3):
        fv = {f: (rng.randrange(4),) for f in falg._proper_faces(p)}
        tf = CountingFunctor(p, Z4S, fv)
        tf.calls = []
        assert check_square(tf)
        assert sorted(tf.calls, key=sorted) == \
            sorted(falg._contractible_keys(p), key=sorted)


def test_union_of_faces_value_matches_inclusion_exclusion():
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
                want = _oracles.union_of_faces_value(tf, face_list)
                if want is None:
                    raised += 1
                    with pytest.raises(ValueError, match="face poset"):
                        tf.union_of_faces_value(face_list)
                else:
                    assert tf.union_of_faces_value(face_list) == want
    assert raised
    tf = TorsionFunctor.zero(2, Z4)
    for disjoint in ([0b001, 0b010], [0b011, 0b100], [0b011, 0b101, 0b110]):
        with pytest.raises(ValueError, match="face poset"):
            tf.union_of_faces_value(disjoint)


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
    # (tested elsewhere) and once on a fully tabulated functor
    rng = random.Random(53)
    fv = {f: (rng.randrange(4),) for f in falg._proper_faces(2)}
    tf = iota_shriek(fv, 2, Z4)
    table = {tuple(sorted(k)): tf.value_on(k)
             for k in falg._contractible_keys(2)}
    tabulated = TorsionFunctor(2, Z4, fv, table)
    re_extended = iota_shriek(tabulated.face_values_copy(), 2, Z4)
    for k in falg._contractible_keys(2):
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
        k_faces = [boundary_face(3, 1).maximal_faces()[0],
                   boundary_face(3, 2).maximal_faces()[0]]
        bfaces = falg._pure_boundary(k_faces)
        for q in bfaces:
            q_faces = [q]
            rest = [b for b in bfaces if b != q]
            if not falg._collapses_to_point(falg._closure(rest)):
                continue
            assert mixed_duality_holds(tf, k_faces, q_faces)


def test_duality_criterion_zero_functor():
    assert duality_criterion(TorsionFunctor.zero(2, Z6))


def test_duality_criterion_hypothesis_failure_raises():
    tf = cycle_functor(Z4S, 1, (1,))
    fv = tf.face_values_copy()
    fv[0b001] = (3,)
    bad = iota_shriek(fv, 2, Z4S)
    if not all(check_face_horn_duality(bad, s)
               for s in falg._proper_faces(2) if face_dim(s) >= 1):
        with pytest.raises(ValueError):
            duality_criterion(bad)


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
        assert falg_group(Z2, p).order == 2 ** (2 ** p)
    zero = InvolutiveAbelianGroup.zero()
    assert falg_group(zero, 1).order == 1


def test_falg_degree_zero_is_target():
    # determined by the 0-vertex value with the other vertex forced
    g0 = falg_group(Z4S, 0)
    assert g0.order == 4
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
            s = x.degeneracy(i)
            assert s.face(i) == x
            assert s.face(i + 1) == x
        # delta_i s_j = s_{j-1} delta_i for i < j (at degree 1: i=0, j=1)
        assert x.degeneracy(1).face(0) == x.face(0).degeneracy(0)
        # delta_i s_j = s_j delta_{i-1} for i > j + 1 (i=2, j=0)
        assert x.degeneracy(0).face(2) == x.face(1).degeneracy(0)
        # s_i s_j = s_{j+1} s_i for i <= j
        assert x.degeneracy(0).degeneracy(0) == x.degeneracy(0).degeneracy(1)
        assert x.degeneracy(1).degeneracy(0) == x.degeneracy(0).degeneracy(2)
        assert x.degeneracy(1).degeneracy(1) == x.degeneracy(1).degeneracy(2)
    for x in falg_group(Z4, 0).elements():
        s = x.degeneracy(0)
        assert s.face(0) == x and s.face(1) == x


def test_degeneracy_top_face_value_is_zero():
    # the 0-th corrected degeneracy sends the 0-th boundary face of the
    # new top simplex to the old top simplex, whose value is pinned at 0
    for x in falg_group(Z4, 1).elements():
        s = x.functor.codegeneracy(0)
        top = falg._top_mask(3)
        assert s.values[top & ~1] == (0,)
        assert x.functor.values[falg._top_mask(2)] == (0,)


def test_moore_homotopy_examples():
    assert [str(moore_homotopy(Z2, n)) for n in range(3)] == \
        ["Z/2", "Z/2", "Z/2"]
    z3s = InvolutiveAbelianGroup.cyclic(3, -1)
    assert moore_homotopy(z3s, 0).is_trivial()
    zero = InvolutiveAbelianGroup.zero()
    for n in range(3):
        assert moore_homotopy(zero, n).is_trivial()


def test_moore_homotopy_leaves_cached_rows_intact():
    # the elimination consumes its columns, so the lru-cached membership
    # rows must reach it only as copies
    target = InvolutiveAbelianGroup.from_factors([2, 2], -1)
    before = [repr(falg._membership_rows(target, a)) for a in range(1, 5)]
    for n in range(3):
        moore_homotopy(target, n)
    assert [repr(falg._membership_rows(target, a))
            for a in range(1, 5)] == before


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
        assert moore_homotopy(Z2, n).order() == order


def test_boundary_squares_to_zero():
    for target in (Z2, Z4S):
        mc = moore_complex(target, 3)
        assert mc.boundary_squares_to_zero()


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
        m = target.order()
        for n in (1, 2, 3):
            sgn = 1 if n % 2 == 0 else -1
            for braw in range(m):
                el = psi_section(target, n, (braw,))
                lhs = el.face(0).psi_value()
                b = el.psi_value()
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
    targets = [Z2, InvolutiveAbelianGroup.cyclic(3, 1),
               InvolutiveAbelianGroup.cyclic(3, -1), Z4, Z4S,
               InvolutiveAbelianGroup.from_factors([2, 2], 1),
               InvolutiveAbelianGroup.from_factors([2, 2], -1)]
    for a in targets:
        for n in range(3):
            assert psi_is_bijective(a, n), (str(a.to_dict()), n)


def test_central_comparison_small():
    # moore homotopy against the independent homology path
    for target in (Z2, Z4S, Z6):
        for n in range(3):
            assert moore_homotopy(target, n) == homology_c2(target, n)


def test_central_comparison_nonscalar_involutions():
    swap_sq = InvolutiveAbelianGroup(2, [[3, 0], [0, 3]], [[0, 1], [1, 0]])
    mul5 = InvolutiveAbelianGroup(1, [[12]], [[5]])
    assert [str(homology_c2(mul5, n)) for n in range(3)] == \
        ["Z/4", "Z/2", "Z/2"]
    for target in (swap_sq, mul5):
        for n in range(3):
            assert moore_homotopy(target, n) == homology_c2(target, n)
        assert psi_is_bijective(target, 1)


def test_falg_requires_finite_target():
    free = InvolutiveAbelianGroup.free(1, 1)
    with pytest.raises(ValueError):
        falg_group(free, 1)
    with pytest.raises(ValueError):
        moore_homotopy(free, 1)


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
        unchecked_element(TorsionFunctor.zero(10, Z2)).to_dict()
    target = InvolutiveAbelianGroup.from_factors([7, 0])
    fv = {f: (f, -f) for f in falg._proper_faces(9)}
    el = unchecked_element(TorsionFunctor(9, target, fv))
    assert FAlgElement.parse_dict(el.to_dict()) == (
        target, 8, {f: target.reduce(v) for f, v in fv.items()})


def test_element_serialization_round_trip():
    el = psi_section(Z4S, 2, (3,))
    data = el.to_dict()
    back = FAlgElement.from_dict(data)
    assert back.functor.values == el.functor.values
