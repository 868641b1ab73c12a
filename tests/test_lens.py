"""Lens spaces: torsion classification, simpleness, inertia, the report."""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement

import pytest

from whcalc import groupring, lens
from whcalc.groupring import (GroupRingElement, WhiteheadClass, galois_twist,
                              wh_class_equal)
from whcalc.lens import (K_MAX, LensSpace, balanced_lens_space,
                         discrepancy_report, homotopy_auto_image, inertia_set,
                         reidemeister_torsion, simple_degrees,
                         standard_inertia_unit)
from whcalc.torsion import inertial_twist_torsion

from _oracles import (_cyclotomic_fold, bass_unit, cyclotomic_product,
                      generator, is_trivial_class, report_from_dict,
                      root_multiple_by_search, trivial_class, unit_class_equal)
from test_cold_caches import _fresh_interpreter


def gen(p, k=1):
    return generator(p, k)


def one(p):
    return GroupRingElement.one(p)


def fold(x):
    """The image of x in Z[zeta_p], in the basis 1, zeta, ..., zeta^{p-2}."""
    return _cyclotomic_fold(x.order, x.coeffs)


def field_factor(p, w):
    """zeta^w - 1 in the basis 1, zeta, ..., zeta^{p-2}."""
    return _cyclotomic_fold(p, [(k == w) - (k == 0) for k in range(p)])


def field_product(p, weights):
    prod = _cyclotomic_fold(p, [k == 0 for k in range(p)])
    for w in weights:
        prod = cyclotomic_product(p, prod, field_factor(p, w))
    return prod


def same_class(x, y):
    """Torsion equivalence, x = +-t^k * y, as the lens module decides it:
    by equal class keys."""
    return x.class_key() == y.class_key()


def test_lens_space_validation():
    with pytest.raises(ValueError):
        LensSpace(4, (1,))
    with pytest.raises(ValueError):
        LensSpace(7, (7,))
    space = LensSpace(7, (1, 9))
    assert space.weights == (1, 2) and space.dim == 3


# each torsion has augmentation 0, and its image in Z[zeta_p] is the
# schoolbook product of the factors zeta^w - 1


def test_r_torsion_single_weight():
    delta = reidemeister_torsion(LensSpace(7, (1,)))
    assert delta == gen(7) - one(7)
    assert delta.augmentation() == 0
    assert fold(delta) == field_factor(7, 1)


def test_r_torsion_two_weights_exact():
    delta = reidemeister_torsion(LensSpace(7, (1, 2)))
    assert delta.augmentation() == 0
    assert fold(delta) == cyclotomic_product(7, field_factor(7, 1),
                                             field_factor(7, 2))


def test_r_torsion_balanced_product_form():
    for k in (1, 2):
        delta = reidemeister_torsion(balanced_lens_space(7, k))
        assert delta.augmentation() == 0
        assert fold(delta) == field_product(
            7, [j for j in range(1, 7) for _ in range(k)])


def test_r_torsion_weight_permutation_invariance():
    rng = random.Random(4)
    ws = [1, 2, 2, 5, 6]
    base = reidemeister_torsion(LensSpace(7, tuple(ws)))
    assert base.augmentation() == 0
    assert fold(base) == field_product(7, ws)
    for _ in range(5):
        rng.shuffle(ws)
        assert reidemeister_torsion(LensSpace(7, tuple(ws))) == base


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_r_torsion_is_the_augmentation_zero_preimage_of_its_image(p):
    # an element of Z[zeta_p] has one preimage of augmentation 0 in
    # Z[C_p], as preimages differ by multiples of N and aug(N) = p; the
    # twist sigma_i of Delta is that of the product of (zeta^(iw) - 1)
    for n in (1, 2, 3):
        for ws in combinations_with_replacement(range(1, p), n):
            delta = reidemeister_torsion(LensSpace(p, ws))
            for i in range(1, p):
                twist = galois_twist(delta, i)
                assert twist.augmentation() == 0
                assert fold(twist) == field_product(
                    p, [w * i % p for w in ws])


def test_rt_equivalence():
    space = balanced_lens_space(7, 1)
    delta = reidemeister_torsion(space)
    assert same_class(delta, delta)
    scaled = -(delta * gen(7, 3))
    assert same_class(delta, scaled)
    x = gen(7) - one(7)
    y = gen(7, 2) - one(7)
    assert not same_class(x, y)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_r_torsion_is_nonzero_and_equivalent_to_itself(p):
    # each factor zeta^w - 1 with w prime to p is nonzero and Z[zeta_p] is
    # a domain, so the image of the product never vanishes, whatever the
    # weights
    rng = random.Random(p)
    for _ in range(10):
        ws = tuple(rng.randrange(1, p) for _ in range(rng.randrange(1, 7)))
        delta = reidemeister_torsion(LensSpace(p, ws))
        assert isinstance(delta, GroupRingElement) and delta.order == p
        assert delta.augmentation() == 0
        assert fold(delta) == field_product(p, ws)
        assert any(fold(delta))
        assert same_class(delta, delta)
        assert same_class(delta, -(delta * gen(p, ws[0])))


def test_rt_equivalence_is_equivalence_relation():
    vals = [gen(7) - one(7),
            -(gen(7) - one(7)) * gen(7, 2),
            gen(7, 3) - one(7),
            (gen(7) - one(7)) * (gen(7) - one(7))]
    for a in vals:
        assert same_class(a, a)
        for b in vals:
            assert same_class(a, b) == same_class(b, a)
            for c in vals:
                if same_class(a, b) and same_class(b, c):
                    assert same_class(a, c)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_rt_equivalent_matches_the_search_oracle(p):
    # pairs of augmentation 0 in Z[C_p], where the class key decides
    # x = +-t^k * y and the oracle searches x = +-zeta^k * y in Z[zeta_p]:
    # +-t^k multiples (always equivalent), Galois images of random
    # elements and of lens torsions (equivalent for some degrees), and
    # random pairs with entries mostly in [-1, 1] (equivalent when they
    # collide)
    rng = random.Random(p)

    def element(bound):
        c = [rng.randint(-bound, bound) for _ in range(p)]
        c[0] -= sum(c)
        return GroupRingElement(p, c)

    pairs = []
    for _ in range(40):
        x = element(4)
        k, sign = rng.randrange(p), rng.choice((1, -1))
        y = x * gen(p, k)
        pairs.append((x, y if sign == 1 else -y))
        i = rng.randrange(1, p)
        pairs.append((x, galois_twist(x, i)))
        pairs.append((element(1), element(1)))
        if p > 2:
            ws = tuple(rng.randrange(1, p) for _ in range(rng.randrange(1, 4)))
            delta = reidemeister_torsion(LensSpace(p, ws))
            pairs.append((galois_twist(delta, i), delta))
    assert all(x.augmentation() == y.augmentation() == 0 for x, y in pairs)
    verdicts = [root_multiple_by_search(x, y) for x, y in pairs]
    assert [same_class(x, y) for x, y in pairs] == verdicts
    assert set(verdicts) == {True, False}


def test_rt_equivalent_multiplies_nothing(monkeypatch):
    delta = reidemeister_torsion(balanced_lens_space(7, 1))
    scaled = -(delta * gen(7, 3))
    x, y = gen(7) - one(7), gen(7, 2) - one(7)

    def refuse(self, other):
        raise AssertionError("the class key comparison multiplied")

    monkeypatch.setattr(GroupRingElement, "__mul__", refuse)
    assert same_class(delta, scaled)
    assert not same_class(x, y)


def test_homotopy_auto_image():
    for k in (1, 2):
        image = homotopy_auto_image(balanced_lens_space(7, k))
        assert sorted(image) == [1, 2, 3, 4, 5, 6]
        assert all(sign == 1 for sign in image.values())
    image5 = homotopy_auto_image(LensSpace(5, (1, 1)))
    assert image5 == {1: 1, 2: -1, 3: -1, 4: 1}
    assert 1 in homotopy_auto_image(LensSpace(7, (1, 1, 1)))


def test_simple_degrees_balanced():
    space = balanced_lens_space(7, 1)
    assert simple_degrees(space) == (1, 2, 3, 4, 5, 6)


def test_simple_degrees_unbalanced_counterexample():
    # (zeta^2-1)(zeta^4-1) vs (zeta-1)^2: not equivalent, so the degree-2
    # twist does not preserve the torsion of the (1:1)-space; that degree
    # is not realizable, so ``simple_degrees`` never asks and the
    # torsions are compared directly
    space = LensSpace(7, (1, 1))
    assert sorted(homotopy_auto_image(space)) == [1, 6]
    assert simple_degrees(space) == (1, 6)
    delta = reidemeister_torsion(space)
    assert not same_class(galois_twist(delta, 2), delta)


def _simple_degrees_by_search(space):
    delta = reidemeister_torsion(space)
    return tuple(i for i in sorted(homotopy_auto_image(space))
                 if root_multiple_by_search(galois_twist(delta, i), delta))


@pytest.mark.parametrize("p, n, spaces, not_all_simple",
                         [(7, 3, 56, 48), (11, 3, 220, 0)])
def test_simple_degrees_match_the_search_oracle(p, n, spaces,
                                                not_all_simple):
    # every weight multiset, with the 2p candidates +-zeta^k * Delta
    # searched for each realizable degree, no class key involved; at
    # p = 11 only +-1 are realizable, and both are always simple
    lenses = [LensSpace(p, ws)
              for ws in combinations_with_replacement(range(1, p), n)]
    got = [simple_degrees(space) for space in lenses]
    assert got == [_simple_degrees_by_search(space) for space in lenses]
    assert len(lenses) == spaces
    assert sum(len(d) < len(homotopy_auto_image(space))
               for d, space in zip(got, lenses)) == not_all_simple


def test_inertia_paper_case():
    space = balanced_lens_space(7, 1)
    unit = WhiteheadClass(standard_inertia_unit(7))
    iner = inertia_set(space, unit)
    assert iner.cardinality == 3
    assert iner.witnesses == ((1, 6), (2, 5), (3, 4))
    # witnesses: trivial class, twist-2 class, twist-3 class
    assert is_trivial_class(iner.classes[0])
    expected2 = unit.twist(2).times(unit.inverse_class())
    expected3 = unit.twist(3).times(unit.inverse_class())
    assert wh_class_equal(iner.classes[1], expected2)
    assert wh_class_equal(iner.classes[2], expected3)
    # pairwise distinct
    for a in range(3):
        for b in range(a + 1, 3):
            assert not wh_class_equal(iner.classes[a], iner.classes[b])


def test_inertia_skips_degrees_that_are_not_simple():
    # on L^5_7(1:1:2) every degree is realizable, but only +-1 preserve
    # the torsion, and degree 6 fixes the class of the standard unit
    space = LensSpace(7, (1, 1, 2))
    assert sorted(homotopy_auto_image(space)) == [1, 2, 3, 4, 5, 6]
    assert simple_degrees(space) == (1, 6) == _simple_degrees_by_search(space)
    iner = inertia_set(space, WhiteheadClass(standard_inertia_unit(7)))
    assert iner.witnesses == ((1, 6),)
    assert iner.classes == (trivial_class(7),)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_inertia_partition_matches_pairwise_oracle(p):
    # group the simple degrees by comparing each class with the first of
    # every group through the inverse product
    space = balanced_lens_space(p, 1)
    unit = WhiteheadClass(bass_unit(p))
    groups = []
    for i in simple_degrees(space):
        cls = unit.twist(i).times(unit.inverse_class())
        for first, degrees in groups:
            if unit_class_equal(cls, first):
                degrees.append(i)
                break
        else:
            groups.append((cls, [i]))
    iner = inertia_set(space, unit)
    assert iner.classes == tuple(first for first, _ in groups)
    assert iner.witnesses == tuple(tuple(d) for _, d in groups)
    assert iner.cardinality == (p - 1) // 2


def test_inertia_set_compares_no_inverse_products(monkeypatch):
    def refuse(x, y):
        raise AssertionError("inertia_set called wh_class_equal")

    monkeypatch.setattr(groupring, "wh_class_equal", refuse)
    monkeypatch.setattr(lens, "wh_class_equal", refuse)
    iner = inertia_set(balanced_lens_space(7, 1),
                       WhiteheadClass(standard_inertia_unit(7)))
    assert iner.witnesses == ((1, 6), (2, 5), (3, 4))


def test_inertia_set_forms_one_class_per_group(monkeypatch):
    # the Bass unit at p = 13: 12 simple degrees in 6 classes, and the
    # twisted-difference class is formed only for the first of each
    calls = []

    def spy(unit, i):
        calls.append(i)
        return inertial_twist_torsion(unit, i)

    monkeypatch.setattr(lens, "inertial_twist_torsion", spy)
    space = balanced_lens_space(13, 1)
    iner = inertia_set(space, WhiteheadClass(bass_unit(13)))
    assert simple_degrees(space) == tuple(range(1, 13))
    assert iner.cardinality == 6
    assert calls == [w[0] for w in iner.witnesses] == [1, 2, 3, 4, 5, 6]


def test_inertia_trivial_unit():
    space = balanced_lens_space(7, 1)
    iner = inertia_set(space, trivial_class(7))
    assert iner.cardinality == 1


def test_inertia_p5_case():
    space = balanced_lens_space(5, 1)
    iner = inertia_set(space, WhiteheadClass(standard_inertia_unit(5)))
    assert iner.cardinality == 2


def test_inertia_invariance_under_trivial_unit_shift():
    space = balanced_lens_space(7, 1)
    u = standard_inertia_unit(7)
    for shift in (generator(7, 3), generator(7, 5, -1)):
        iner = inertia_set(space, WhiteheadClass(u * shift))
        assert iner.cardinality == 3


def test_inertia_invariance_under_relabeling():
    space = balanced_lens_space(7, 1)
    u = standard_inertia_unit(7)
    for j in range(1, 7):
        iner = inertia_set(space, WhiteheadClass(galois_twist(u, j)))
        assert iner.cardinality == 3


def test_inertia_rejects_wrong_order():
    with pytest.raises(ValueError):
        inertia_set(balanced_lens_space(7, 1),
                    WhiteheadClass(standard_inertia_unit(5)))


def test_inertia_rejects_non_unit():
    # only a WhiteheadClass is known to be a unit: a bare group-ring
    # element is refused as such, a unit or not, before any twist
    space = balanced_lens_space(7, 1)
    for element in (GroupRingElement(7, (1, 1, 0, 0, 0, 0, 0)),
                    standard_inertia_unit(7)):
        with pytest.raises(ValueError, match="must be a WhiteheadClass"):
            inertia_set(space, element)


def test_report_k1_and_k2():
    for k in (1, 2):
        doc = discrepancy_report(k)
        assert doc.exit_code() == 0
        stages = {s.name: s for s in doc.stages}
        assert stages["inertia-mod-doubles"].status == "verified"
        assert stages["inertia-mod-doubles"].witness["cardinality"] == 3
        assert stages["cardinality-ratio"].witness["factor"] == 3
        assert stages["double-subgroup-trivial"].status == "verified"
        assert stages["h1-of-whitehead-group"].witness["group"] == "Z/2 x Z/2"
        assert stages["top-twist-fixes-unit"].status == "verified"
        assert all(s.citation for s in doc.assumptions())
        assert doc.params["dimension"] == 12 * k - 1


def test_report_p5_uses_rank_one():
    # Wh(C_5) is free abelian of rank (5-3)/2 = 1, so H_1 is Z/2
    doc = discrepancy_report(1, p=5)
    assert doc.exit_code() == 0
    stages = {s.name: s for s in doc.stages}
    rank = stages["whitehead-group-rank"]
    assert rank.status == "assumed"
    assert rank.witness["statement"] == "Wh(C_5) is free abelian of rank 1"
    assert rank.citation.endswith("Wh(C_5) is free abelian of rank 1")
    assert stages["double-subgroup-trivial"].status == "verified"
    h1 = stages["h1-of-whitehead-group"]
    assert h1.status == "verified" and h1.witness["group"] == "Z/2"
    assert stages["inertia-mod-doubles"].witness["cardinality"] == 2
    assert doc.params["dimension"] == 7


def test_report_decides_each_degree_once(monkeypatch):
    # at p = 13 with the Bass unit: one torsion, and 27 class keys, for
    # Delta, its 12 twists, the 12 twists of the unit that ``inertia_set``
    # groups and the 2 classes ``wh_class_equal`` compares; the realizable
    # degrees are computed by the report and by ``simple_degrees``;
    # deciding every degree twice made 48 torsion keys and 26 images
    keys, torsions, images = [], [], []
    class_key = GroupRingElement.class_key
    torsion = lens.reidemeister_torsion
    image = lens.homotopy_auto_image

    def count_key(self):
        keys.append(self)
        return class_key(self)

    def count_torsion(space):
        torsions.append(space)
        return torsion(space)

    def count_image(space):
        images.append(space)
        return image(space)

    monkeypatch.setattr(GroupRingElement, "class_key", count_key)
    monkeypatch.setattr(lens, "reidemeister_torsion", count_torsion)
    monkeypatch.setattr(lens, "homotopy_auto_image", count_image)
    lens.simple_degrees.cache_clear()
    doc = discrepancy_report(1, 13, unit_coeffs=bass_unit(13).coeffs)
    assert doc.exit_code() == 0
    assert len(keys) <= 27
    assert len(torsions) == 1
    assert len(images) <= 2


def test_report_multiplies_each_inverse_once(monkeypatch):
    # at p = 13 with the Bass unit: 14 products invert the unit, 1 is the
    # report's own check of that inverse, 12 form the torsion and each of
    # the 6 inertia classes takes 2; re-checking the inverse of every
    # class the algebra builds made 58
    coeffs = bass_unit(13).coeffs
    mul = GroupRingElement.__mul__
    calls = []

    def count(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(GroupRingElement, "__mul__", count)
    lens.simple_degrees.cache_clear()
    doc = discrepancy_report(1, 13, unit_coeffs=coeffs)
    assert doc.exit_code() == 0
    assert len(calls) == 39


def test_report_fails_a_wrong_inverse(monkeypatch):
    # the report multiplies its unit-inverse witness back itself, apart
    # from the test inside ``invert_unit``
    monkeypatch.setattr(groupring, "invert_unit", lambda x: x)
    doc = discrepancy_report(1)
    assert doc.exit_code() == 1
    assert [(s.name, s.status) for s in doc.stages] == \
        [("unit-inverse", "failed")]


@pytest.mark.parametrize("p", [5, 11, 13, 17, 19, 23])
def test_report_across_primes_with_the_bass_unit(p):
    doc = discrepancy_report(1, p, unit_coeffs=bass_unit(p).coeffs)
    stages = {s.name: s for s in doc.stages}
    assert not doc.failed()
    assert stages["simpleness-r-torsion"].witness["simple_degrees"] == \
        list(range(1, p))
    assert stages["cardinality-ratio"].witness["factor"] == (p - 1) // 2


def test_report_without_standard_unit_is_value_error():
    # a clear ValueError, which the CLI maps to exit 2, not a bare KeyError
    with pytest.raises(ValueError, match="no standard unit recorded for p = 11"):
        discrepancy_report(1, p=11)


def test_report_degenerate_unit_halts():
    doc = discrepancy_report(1, unit_coeffs=(1, 0, 0, 0, 0, 0, 0))
    assert doc.exit_code() == 1
    failed = [s.name for s in doc.failed()]
    assert failed == ["inertia-classes-distinct"]
    names = [s.name for s in doc.stages]
    assert "cardinality-ratio" not in names


def test_report_non_unit_fails_first_stage():
    doc = discrepancy_report(1, unit_coeffs=(1, 1, 0, 0, 0, 0, 0))
    assert doc.exit_code() == 1
    assert doc.stages[0].name == "unit-inverse"
    assert doc.stages[0].status == "failed"


def test_report_round_trip():
    doc = discrepancy_report(1)
    again = report_from_dict(json.loads(doc.to_json()))
    assert again.to_json() == doc.to_json()


def test_balanced_lens_space_caps_k():
    # refused before any of the (p - 1) * k weights is built
    assert balanced_lens_space(7, K_MAX).n == 6 * K_MAX
    with pytest.raises(ValueError, match=f"capped at {K_MAX}"):
        balanced_lens_space(7, K_MAX + 1)
    with pytest.raises(ValueError, match=f"capped at {K_MAX}"):
        balanced_lens_space(7, 10**12)


REPORT_97_SCRIPT = """
import json, sys, time
from whcalc.lens import discrepancy_report
coeffs = json.loads(sys.argv[1])
start = time.perf_counter()
doc = discrepancy_report(1, 97, unit_coeffs=coeffs)
print(json.dumps({"seconds": time.perf_counter() - start,
                  "statuses": [s.status for s in doc.stages]}))
"""


def test_report_at_97_with_the_bass_unit_is_fast():
    # budget 2 s for the report alone, in a fresh process: 0.41-0.77 s on
    # 2 vCPUs (Python 3.11.7, ten runs); multiplying back the inverse of
    # every class took it to 0.65-1.19 s, searching the 2p multiples of
    # zeta for each simple degree to 1.33-1.49 s, and inverting the unit
    # by a circulant solve to 3.0-3.2 s
    result = _fresh_interpreter(REPORT_97_SCRIPT,
                                json.dumps(bass_unit(97).coeffs))
    assert set(result["statuses"]) <= {"verified", "derived", "assumed"}
    assert result["seconds"] < 2.0, result["seconds"]
