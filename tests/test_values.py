"""Value semantics of whcalc's immutable and mutable record classes.

Each class compares by its fields and only with its own class; the
immutable ones hash by their fields and refuse assignment, the mutable
ones are unhashable.  Every sample is built twice, from scratch, so
equality never rests on identity.
"""

from __future__ import annotations

import pytest

import whcalc
from whcalc import abelian
from whcalc.abelian import (DoubleSubgroup, FgAbGroup, InvolutiveAbelianGroup,
                            double_subgroup)
from whcalc.falg import FAlgElement, FAlgGroup, falg_group
from whcalc.groupring import (CyclotomicElement, GroupRingElement,
                              WhiteheadClass, invert_unit)
from whcalc.lens import InertiaSet, LensSpace
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
    (DoubleSubgroup, lambda: double_subgroup(_z2(), 0),
     ("subgroup", "quotient")),
    (FAlgElement, lambda: FAlgElement.zero(_z2(), 1), ("functor",)),
    (SubComplex, lambda: full_simplex(2), ("p", "faces")),
    (GroupRingElement, lambda: GroupRingElement(7, UNIT7),
     ("order", "coeffs")),
    (WhiteheadClass, _unit, ("representative", "inverse")),
    (CyclotomicElement, lambda: CyclotomicElement(5, (1, 2, 0, 1)),
     ("p", "coeffs")),
    (LensSpace, lambda: LensSpace(7, (1, 2, 3)), ("p", "weights")),
    (InertiaSet, lambda: InertiaSet((_unit(),), ((1, 6),)),
     ("classes", "witnesses")),
    (HCobordismSymbol, lambda: HCobordismSymbol(11, _unit(), 9),
     ("dim", "torsion", "twist")),
]

MUTABLE = [
    (Stage, lambda: Stage("unit-inverse", "verified", {"k": [1]}),
     ("name", "status", "witness", "citation")),
    (ReportDocument, lambda: ReportDocument("lens", {"k": 1}),
     ("command", "params")),
    (FAlgGroup, lambda: falg_group(_z2(), 1),
     ("target", "degree", "isomorphism_type", "mixed_radix")),
]

ALL = FROZEN + MUTABLE


def _ids(table):
    return [cls.__name__ for cls, _, _ in table]


@pytest.mark.parametrize("cls, make, fields", ALL, ids=_ids(ALL))
def test_equal_fields_give_equal_objects(cls, make, fields):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    # the repr names the class, then its fields from the first
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{cls.__name__}({fields[0]}=")
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
    with pytest.raises(ValueError, match="unknown stage status 'done'"):
        Stage("s", "done")
    unit = GroupRingElement(7, UNIT7)
    cls = WhiteheadClass(unit)
    assert cls.inverse == invert_unit(unit)
    assert WhiteheadClass(representative=unit) == WhiteheadClass(
        unit, cls.inverse)
    # a report names the tool and its version without being told them
    data = ReportDocument("x", {"k": 1}).to_dict()
    assert list(data)[:4] == ["tool", "version", "command", "params"]
    assert (data["tool"], data["version"]) == ("whcalc", whcalc.__version__)


def test_report_documents_share_no_params_or_stages():
    a = ReportDocument("x")
    b = ReportDocument("x")
    assert a.params == {} and a.stages == [] and a == b
    assert a.params is not b.params and a.stages is not b.stages
    # the stages a document adds are a field: they decide its equality
    a.add("s", "verified")
    assert a != b and b.stages == []
    b.add("s", "verified")
    assert a == b
    a.params["k"] = 1
    assert b.params == {} and a != b


def test_equal_targets_share_one_cache_entry():
    a = InvolutiveAbelianGroup.cyclic(5, -1)
    b = InvolutiveAbelianGroup(1, [[5]], [[-1]])
    assert a is not b and a == b and hash(a) == hash(b)
    group = abelian._norm_subquotient(a, 1)
    before = abelian._norm_subquotient.cache_info()
    assert abelian._norm_subquotient(b, 1) is group
    after = abelian._norm_subquotient.cache_info()
    assert after.hits == before.hits + 1
    assert after.currsize == before.currsize
