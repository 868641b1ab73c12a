"""Value semantics of whcalc's immutable and mutable record classes.

Each class compares by its fields and only with its own class; the
immutable ones hash by their fields and refuse assignment, the mutable
ones are unhashable.  Every sample is built twice, from scratch, so
equality never rests on identity.
"""

from __future__ import annotations

import pytest

from whcalc import falg
from whcalc.abelian import (DoubleSubgroup, FgAbGroup, InvolutiveAbelianGroup,
                            double_subgroup)
from whcalc.falg import (FAlgElement, FAlgGroup, MooreComplex, falg_group,
                         moore_complex)
from whcalc.groupring import (TRIVIAL_CHARACTER, CyclotomicElement,
                              GroupRingElement, OrientationCharacter,
                              WhiteheadClass, invert_unit)
from whcalc.ktheory import LocalizedGroup, localize
from whcalc.lens import InertiaSet, LensSpace, RTorsion
from whcalc.report import ReportDocument, Stage
from whcalc.simplicial import SubComplex, full_simplex
from whcalc.torsion import HCobordismSymbol

UNIT7 = (2, 2, 0, -1, -1, -1, 0)


def _z2():
    return InvolutiveAbelianGroup.cyclic(2, 1)


def _unit():
    return WhiteheadClass(GroupRingElement(7, UNIT7))


# (class, sample factory, field names in constructor order)
FROZEN = [
    (FgAbGroup, lambda: FgAbGroup((2, 0)), ("invariant_factors",)),
    (InvolutiveAbelianGroup,
     lambda: InvolutiveAbelianGroup.from_factors([2, 4], -1),
     ("generator_count", "relations", "involution")),
    (DoubleSubgroup, lambda: double_subgroup(_z2(), "even"),
     ("generators", "subgroup", "quotient")),
    (FAlgElement, lambda: FAlgElement.zero(_z2(), 1), ("functor",)),
    (SubComplex, lambda: full_simplex(2), ("p", "faces")),
    (GroupRingElement, lambda: GroupRingElement(7, UNIT7),
     ("order", "coeffs")),
    (OrientationCharacter, lambda: OrientationCharacter(-1),
     ("sign_of_generator",)),
    (WhiteheadClass, _unit, ("representative", "inverse")),
    (CyclotomicElement, lambda: CyclotomicElement(5, (1, 2, 0, 1)),
     ("p", "coeffs")),
    (LensSpace, lambda: LensSpace(7, (1, 2, 3)), ("p", "weights")),
    (RTorsion, lambda: RTorsion(7, CyclotomicElement(7, (1, 0, 3, 0, 0, 1))),
     ("p", "value")),
    (InertiaSet, lambda: InertiaSet((_unit(),), ((1, 6),)),
     ("classes", "witnesses")),
    (HCobordismSymbol, lambda: HCobordismSymbol(11, _unit(), 9),
     ("dim", "torsion", "twist")),
    (LocalizedGroup, lambda: localize(FgAbGroup((2, 12)), 2),
     ("base", "prime", "localized")),
]

MUTABLE = [
    (Stage, lambda: Stage("unit-inverse", "verified", {"k": [1]}),
     ("name", "status", "witness", "citation")),
    (ReportDocument,
     lambda: ReportDocument("whcalc", "0.1.0", "lens", {"k": 1},
                            [Stage("s", "derived")]),
     ("tool", "version", "command", "params", "stages")),
    (FAlgGroup, lambda: falg_group(_z2(), 1),
     ("target", "degree", "isomorphism_type", "generator_vectors", "faces")),
    (MooreComplex, lambda: moore_complex(_z2(), 1),
     ("target", "max_degree", "bases")),
]

ALL = FROZEN + MUTABLE


def _ids(table):
    return [cls.__name__ for cls, _, _ in table]


@pytest.mark.parametrize("cls, make, fields", ALL, ids=_ids(ALL))
def test_equal_fields_give_equal_objects(cls, make, fields):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    # the constructor takes the fields in this order, positionally or
    # by keyword, and rebuilds an equal object from them
    values = [getattr(a, name) for name in fields]
    assert cls(*values) == a
    assert cls(**dict(zip(fields, values))) == a


@pytest.mark.parametrize("cls, make, fields", FROZEN, ids=_ids(FROZEN))
def test_frozen_hash_by_value_and_refuse_assignment(cls, make, fields):
    a, b = make(), make()
    # the hash of the field tuple, so sets iterate in a stable order
    values = tuple(getattr(a, name) for name in fields)
    assert hash(a) == hash(b) == hash(values)
    assert len({a, b}) == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("cls, make, fields", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_classes_are_unhashable(cls, make, fields):
    a, b = make(), make()
    with pytest.raises(TypeError):
        hash(a)
    setattr(b, fields[0], None)
    assert a != b


def test_different_classes_are_never_equal():
    samples = [make() for _, make, _ in ALL]
    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            assert (x == y) == (i == j)
    # equal field tuples, equal hashes, different classes
    lens = LensSpace(5, (1, 2, 3, 4))
    cyclo = CyclotomicElement(5, (1, 2, 3, 4))
    assert hash(lens) == hash(cyclo) and lens != cyclo
    assert FgAbGroup((2,)) != ((2,),) and ((2,),) != FgAbGroup((2,))


def test_defaults():
    stage = Stage("s", "verified")
    assert stage.witness is None and stage.citation is None
    with pytest.raises(ValueError, match="citation"):
        Stage("s", "assumed")
    assert OrientationCharacter() == OrientationCharacter(1) \
        == TRIVIAL_CHARACTER
    unit = GroupRingElement(7, UNIT7)
    cls = WhiteheadClass(unit)
    assert cls.inverse == invert_unit(unit)
    assert WhiteheadClass(representative=unit) == WhiteheadClass(
        unit, cls.inverse)


def test_report_documents_share_no_params_or_stages():
    a = ReportDocument("whcalc", "0.1.0", "x")
    b = ReportDocument("whcalc", "0.1.0", "x")
    assert a.params == {} and a.stages == [] and a == b
    assert a.params is not b.params and a.stages is not b.stages
    a.params["k"] = 1
    a.add("s", "verified")
    assert b.params == {} and b.stages == []


def test_equal_targets_share_one_cache_entry():
    a = InvolutiveAbelianGroup.cyclic(5, -1)
    b = InvolutiveAbelianGroup(1, [[5]], [[-1]])
    assert a is not b and a == b and hash(a) == hash(b)
    rows = falg._membership_rows(a, 2)
    before = falg._membership_rows.cache_info()
    assert falg._membership_rows(b, 2) is rows
    after = falg._membership_rows.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize
