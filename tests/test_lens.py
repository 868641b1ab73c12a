"""Lens spaces: torsion classification, simpleness, inertia, the report."""

from __future__ import annotations

import json
import random

import pytest

from whcalc import groupring, lens
from whcalc.groupring import (CyclotomicElement, GroupRingElement,
                              WhiteheadClass, galois_twist, wh_class_equal)
from whcalc.lens import (K_MAX, LensSpace, balanced_lens_space,
                         discrepancy_report, homotopy_auto_image, inertia_set,
                         is_simple_auto, reidemeister_torsion, rt_equivalent,
                         standard_inertia_unit)

from _oracles import bass_unit, report_from_dict, unit_class_equal


def zeta(p, k=1):
    return CyclotomicElement.zeta(p, k)


def one(p):
    return CyclotomicElement.one(p)


def test_lens_space_validation():
    with pytest.raises(ValueError):
        LensSpace(4, (1,))
    with pytest.raises(ValueError):
        LensSpace(7, (7,))
    space = LensSpace(7, (1, 9))
    assert space.weights == (1, 2) and space.dim == 3


def test_r_torsion_single_weight():
    space = LensSpace(7, (1,))
    assert reidemeister_torsion(space) == zeta(7) - one(7)


def test_r_torsion_two_weights_exact():
    space = LensSpace(7, (1, 2))
    expected = (zeta(7) - one(7)) * (zeta(7, 2) - one(7))
    assert reidemeister_torsion(space) == expected


def test_r_torsion_balanced_product_form():
    for k in (1, 2):
        space = balanced_lens_space(7, k)
        prod = one(7)
        for j in range(1, 7):
            factor = zeta(7, j) - one(7)
            for _ in range(k):
                prod = prod * factor
        assert reidemeister_torsion(space) == prod


def test_r_torsion_weight_permutation_invariance():
    rng = random.Random(4)
    ws = [1, 2, 2, 5, 6]
    base = reidemeister_torsion(LensSpace(7, tuple(ws)))
    for _ in range(5):
        rng.shuffle(ws)
        assert reidemeister_torsion(LensSpace(7, tuple(ws))) == base


def test_rt_equivalence():
    space = balanced_lens_space(7, 1)
    delta = reidemeister_torsion(space)
    assert rt_equivalent(delta, delta)
    scaled = -(delta * zeta(7, 3))
    assert rt_equivalent(delta, scaled)
    x = zeta(7) - one(7)
    y = zeta(7, 2) - one(7)
    assert not rt_equivalent(x, y)
    # refused before any product, which would refuse with its own message
    with pytest.raises(ValueError, match="torsions live over different"):
        rt_equivalent(zeta(5) - one(5), x)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_r_torsion_is_nonzero_and_equivalent_to_itself(p):
    # each factor zeta^w - 1 with w prime to p is nonzero and Z[zeta_p] is
    # a domain, so the product never vanishes, whatever the weights
    rng = random.Random(p)
    for _ in range(10):
        ws = tuple(rng.randrange(1, p) for _ in range(rng.randrange(1, 7)))
        delta = reidemeister_torsion(LensSpace(p, ws))
        assert isinstance(delta, CyclotomicElement) and delta.p == p
        assert not delta.is_zero()
        assert rt_equivalent(delta, delta)
        assert rt_equivalent(delta, -(delta * zeta(p, ws[0])))


def test_rt_equivalence_is_equivalence_relation():
    vals = [zeta(7) - one(7),
            -(zeta(7) - one(7)) * zeta(7, 2),
            zeta(7, 3) - one(7),
            (zeta(7) - one(7)) * (zeta(7) - one(7))]
    for a in vals:
        assert rt_equivalent(a, a)
        for b in vals:
            assert rt_equivalent(a, b) == rt_equivalent(b, a)
            for c in vals:
                if rt_equivalent(a, b) and rt_equivalent(b, c):
                    assert rt_equivalent(a, c)


def test_homotopy_auto_image():
    for k in (1, 2):
        image = homotopy_auto_image(balanced_lens_space(7, k))
        assert sorted(image) == [1, 2, 3, 4, 5, 6]
        assert all(sign == 1 for sign in image.values())
    image5 = homotopy_auto_image(LensSpace(5, (1, 1)))
    assert image5 == {1: 1, 2: -1, 3: -1, 4: 1}
    assert 1 in homotopy_auto_image(LensSpace(7, (1, 1, 1)))


def test_is_simple_auto_balanced():
    space = balanced_lens_space(7, 1)
    for i in range(1, 7):
        assert is_simple_auto(space, i)


def test_is_simple_auto_unbalanced_counterexample():
    # (zeta^2-1)(zeta^4-1) vs (zeta-1)^2: not equivalent, so the degree-2
    # twist does not preserve the torsion of the (1:1)-space; that degree
    # is not realizable, so ``is_simple_auto`` refuses it and the torsions
    # are compared directly
    space = LensSpace(7, (1, 1))
    assert sorted(homotopy_auto_image(space)) == [1, 6]
    with pytest.raises(ValueError, match="not realized"):
        is_simple_auto(space, 2)
    delta = reidemeister_torsion(space)
    assert not rt_equivalent(delta.galois(2), delta)
    assert is_simple_auto(space, 1)


def test_inertia_paper_case():
    space = balanced_lens_space(7, 1)
    unit = WhiteheadClass(standard_inertia_unit(7))
    iner = inertia_set(space, unit)
    assert iner.cardinality == 3
    assert iner.witnesses == ((1, 6), (2, 5), (3, 4))
    # witnesses: trivial class, twist-2 class, twist-3 class
    assert iner.classes[0].is_trivial()
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
    assert [i for i in range(1, 7) if is_simple_auto(space, i)] == [1, 6]
    iner = inertia_set(space, standard_inertia_unit(7))
    assert iner.witnesses == ((1, 6),)
    assert iner.classes == (WhiteheadClass.trivial(7),)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_inertia_partition_matches_pairwise_oracle(p):
    # group the simple degrees by comparing each class with the first of
    # every group through the inverse product
    space = balanced_lens_space(p, 1)
    unit = WhiteheadClass(bass_unit(p))
    groups = []
    for i in sorted(homotopy_auto_image(space)):
        if not is_simple_auto(space, i):
            continue
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
    iner = inertia_set(balanced_lens_space(7, 1), standard_inertia_unit(7))
    assert iner.witnesses == ((1, 6), (2, 5), (3, 4))


def test_inertia_trivial_unit():
    space = balanced_lens_space(7, 1)
    iner = inertia_set(space, WhiteheadClass.trivial(7))
    assert iner.cardinality == 1


def test_inertia_p5_case():
    space = balanced_lens_space(5, 1)
    iner = inertia_set(space, WhiteheadClass(standard_inertia_unit(5)))
    assert iner.cardinality == 2


def test_inertia_invariance_under_trivial_unit_shift():
    space = balanced_lens_space(7, 1)
    u = standard_inertia_unit(7)
    for shift in (GroupRingElement.generator(7, 3),
                  GroupRingElement.generator(7, 5, -1)):
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
    with pytest.raises(ValueError):
        inertia_set(balanced_lens_space(7, 1),
                    GroupRingElement(7, (1, 1, 0, 0, 0, 0, 0)))


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
