"""Lens spaces: Reidemeister torsion, simple self-equivalences, inertia.

The classification data of a lens space with odd prime fundamental group
is carried by the product of (zeta^r - 1) over its weights, compared up
to sign and a root-of-unity factor.  Combining this with the unit
calculus gives the set of inertia torsion classes and, for the balanced
weight family, the cardinality discrepancy report.

Completeness of the inertia computation rests on two literature inputs
that are cited, never recomputed: linear lens spaces admit no nontrivial
inertial h-cobordisms, and every simple homotopy self-equivalence class
is realized by a diffeomorphism.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ._value import Frozen
from .abelian import (FgAbGroup, InvolutiveAbelianGroup, double_subgroup,
                      homology_c2)
from .groupring import (CyclotomicElement, GroupRingElement, WhiteheadClass,
                        wh_class_equal)
from .lattice import _is_prime
from .report import ASSUMED, DERIVED, FAILED, VERIFIED, ReportDocument
from .torsion import inertial_twist_torsion

__all__ = [
    "LensSpace",
    "InertiaSet",
    "reidemeister_torsion",
    "rt_equivalent",
    "homotopy_auto_image",
    "is_simple_auto",
    "inertia_set",
    "balanced_lens_space",
    "standard_inertia_unit",
    "discrepancy_report",
    "K_MAX",
]


# Largest repetition count ``balanced_lens_space`` accepts: a report's
# cost grows linearly in k, about 1 ms per step at p = 7 with the torsion
# computed once per lens space (k = 20: 0.02 to 0.03 s, k = 100: 0.08 to
# 0.14 s in fresh processes on 2 vCPUs), and the weights are built before
# any other check can refuse them.
K_MAX = 100


class LensSpace(Frozen):
    """Quotient of the (2n-1)-sphere by the weighted rotation action."""

    _fields = ("p", "weights")

    def __init__(self, p, weights):
        if not _is_prime(p) or p == 2:
            raise ValueError("the order must be an odd prime")
        ws = tuple(int(w) % p for w in weights)
        if not ws:
            raise ValueError("at least one weight is required")
        if any(w == 0 for w in ws):
            raise ValueError("weights must be prime to p")
        self._freeze(p, ws)

    @property
    def n(self):
        return len(self.weights)

    @property
    def dim(self):
        return 2 * len(self.weights) - 1

    def __str__(self):
        w = ":".join(str(r) for r in self.weights)
        return f"L^{self.dim}_{self.p}({w})"


@lru_cache(maxsize=None)
def reidemeister_torsion(lens):
    """Product of (zeta^w - 1) over the weights, exactly in Z[zeta_p].

    Never zero: no factor is, as every weight is prime to p, and
    Z[zeta_p] is a domain.  Cached per lens space: ``is_simple_auto`` compares against
    it once for every realizable degree, and a report asks for every
    degree twice, directly and through ``inertia_set``.
    """
    p = lens.p
    prod = CyclotomicElement.one(p)
    for w in lens.weights:
        prod = prod * (CyclotomicElement.zeta(p, w) - CyclotomicElement.one(p))
    return prod


def rt_equivalent(x, y):
    """Equality of two elements of Z[zeta_p] up to +-zeta^k: a finite
    check of 2p exact candidates, stopping at the first match."""
    if x.p != y.p:
        raise ValueError("torsions live over different primes")
    p = x.p
    for k in range(p):
        scaled = y * CyclotomicElement.zeta(p, k)
        if (x - scaled).is_zero() or (x + scaled).is_zero():
            return True
    return False


def homotopy_auto_image(lens):
    """Realizable degrees of self-equivalences on the fundamental group.

    Returns {i: sign} over units i mod p with i^n = +-1; the sign picks
    the orientation-preserving (+1) or orientation-reversing (-1) branch.
    """
    p, n = lens.p, lens.n
    out = {}
    for i in range(1, p):
        power = pow(i, n, p)
        if power == 1 % p:
            out[i] = 1
        elif power == (p - 1) % p:
            out[i] = -1
    return out


def is_simple_auto(lens, i):
    """Whether the degree-i self-equivalence preserves the torsion class.

    The criterion is exact equality of the twisted and original torsions
    up to +-zeta^k.  The index must lie in ``homotopy_auto_image``.
    """
    if gcd(i, lens.p) != 1:
        raise ValueError("the degree must be prime to p")
    if i % lens.p not in homotopy_auto_image(lens):
        raise ValueError(f"degree {i} is not realized by a self-equivalence")
    delta = reidemeister_torsion(lens)
    return rt_equivalent(delta.galois(i), delta)


class InertiaSet(Frozen):
    """Distinct inertia torsion classes with their witnessing degrees:
    one WhiteheadClass per distinct class in ``classes``, and in
    ``witnesses[k]`` the sorted degrees i giving ``classes[k]``."""

    _fields = ("classes", "witnesses")

    def __init__(self, classes, witnesses):
        self._freeze(classes, witnesses)

    @property
    def cardinality(self):
        return len(self.classes)


def inertia_set(lens, unit):
    """Inertia torsion classes of the h-cobordant partner defined by ``unit``.

    For each realizable simple degree i the twisted-difference class
    twist_i(u) * u^{-1} is formed and grouped by the class key of its
    representative; the first class met stands for its group, and the
    witnesses come in increasing degree.  Completeness is a cited input,
    not a computation.
    """
    if not isinstance(unit, WhiteheadClass):
        unit = WhiteheadClass(unit)
    if unit.order != lens.p:
        raise ValueError("the unit must live over Z[C_p]")
    groups = {}
    for i in sorted(homotopy_auto_image(lens)):
        if is_simple_auto(lens, i):
            cls = inertial_twist_torsion(unit, i)
            key = cls.representative.class_key()
            groups.setdefault(key, (cls, []))[1].append(i)
    return InertiaSet(tuple(c for c, _ in groups.values()),
                      tuple(tuple(w) for _, w in groups.values()))


def balanced_lens_space(p, k):
    """The family with each residue 1..p-1 repeated k times as weights.

    Capped at ``K_MAX``, checked before any weight is built.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > K_MAX:
        raise ValueError(f"k is capped at {K_MAX}")
    weights = tuple(r for r in range(1, p) for _ in range(k))
    return LensSpace(p, weights)


_KNOWN_UNITS = {
    5: (1, -1, 0, 0, -1),
    7: (2, 2, 0, -1, -1, -1, 0),
}


def standard_inertia_unit(p):
    """The standard nontrivial unit of Z[C_p] driving the inertia examples."""
    if p not in _KNOWN_UNITS:
        raise ValueError(f"no standard unit recorded for p = {p}")
    return GroupRingElement(p, _KNOWN_UNITS[p])


_CITE_INERTIA_VANISHES = (
    "Milnor, Whitehead torsion, Bull. AMS 72 (1966), Cor. 12.12: "
    "linear lens spaces admit no nontrivial inertial h-cobordism")
_CITE_SURJECTIVITY = (
    "Hsiang-Jahren: pi_0 Diff(L) -> pi_0 sAut(L) is surjective for "
    "fake lens spaces of dimension >= 5")
_CITE_WH_RANK = "Bass, K-theory and stable algebra / Stein: "
_CITE_INVOLUTION = (
    "Bass, Prop. 4.2: the standard involution on Wh of a finite abelian "
    "group is trivial")
_CITE_FINITE_MCG = (
    "Hsiang-Jahren (surgery extension) with Bak's vanishing of odd "
    "simple L-groups: the block mapping class group of L is finite")
_CITE_KWASIK = (
    "Kwasik: published claim that fake lens spaces admit no nontrivial "
    "inertial h-cobordisms")


def discrepancy_report(k, p=7, unit_coeffs=None):
    """Full pipeline for the balanced (2(p-1)k-1)-dimensional example.

    Verifies the unit, the realizable degrees, simpleness, the fixed top
    twist, distinct class keys, the doubles subgroup, and the
    degree-one homology of the symmetry on Wh(C_p), free abelian of rank
    (p-3)/2; assembles them into the cardinality-ratio conclusion with
    every literature input surfaced as an assumption.
    """
    doc = ReportDocument("lens report-theorem-a", {"k": k, "p": p})
    if k < 1:
        raise ValueError("k must be positive")
    # the unit refuses an unknown or mismatched p before the lens space
    # builds (p - 1) * k weights
    element = GroupRingElement(p, tuple(unit_coeffs)) \
        if unit_coeffs is not None else standard_inertia_unit(p)
    lens = balanced_lens_space(p, k)
    d = lens.dim
    doc.params["lens_space"] = str(lens)
    doc.params["dimension"] = d

    try:
        unit = WhiteheadClass(element)
    except ValueError:
        doc.add("unit-inverse", FAILED,
                {"element": element.to_dict(), "reason": "not a unit"})
        return doc
    doc.add("unit-inverse", VERIFIED,
            {"unit": element.to_dict(), "inverse": unit.inverse.to_dict()})

    rank = (p - 3) // 2
    rank_statement = f"Wh(C_{p}) is free abelian of rank {rank}"
    doc.add("whitehead-group-rank", ASSUMED,
            {"statement": rank_statement},
            citation=_CITE_WH_RANK + rank_statement)
    doc.add("involution-triviality", ASSUMED,
            {"statement": "the algebraic involution on Wh(C_p) is trivial"},
            citation=_CITE_INVOLUTION)

    image = homotopy_auto_image(lens)
    doc.add("homotopy-self-equivalences", VERIFIED,
            {"degrees": sorted(image),
             "orientation": {str(i): s for i, s in sorted(image.items())}})

    simple = {i: is_simple_auto(lens, i) for i in sorted(image)}
    all_simple = all(simple.values())
    doc.add("simpleness-r-torsion",
            VERIFIED if all_simple else DERIVED,
            {"simple_degrees": [i for i, s in sorted(simple.items()) if s]})

    fixed = wh_class_equal(unit.twist(p - 1), unit)
    doc.add("top-twist-fixes-unit", VERIFIED if fixed else FAILED,
            {"degree": p - 1, "fixed": fixed})

    iner = inertia_set(lens, unit)
    witness = [{"degrees": list(w),
                "class": c.representative.to_dict()}
               for c, w in zip(iner.classes, iner.witnesses)]
    expected = {7: 3, 5: 2}.get(p)
    distinct_ok = iner.cardinality > 1
    doc.add("inertia-classes-distinct",
            VERIFIED if distinct_ok else FAILED,
            {"cardinality": iner.cardinality, "classes": witness})
    if not distinct_ok:
        return doc

    # doubles vanish: odd dimension, trivial involution
    wh = InvolutiveAbelianGroup.free(rank, 1)
    doubles = double_subgroup(wh, d)
    doubles_trivial = doubles.subgroup.is_trivial()
    doc.add("double-subgroup-trivial",
            VERIFIED if doubles_trivial else FAILED,
            {"dimension_parity": "odd" if d % 2 else "even",
             "subgroup": str(doubles.subgroup)})

    doc.add("inertia-mod-doubles",
            VERIFIED if expected is None or iner.cardinality == expected
            else FAILED,
            {"cardinality": iner.cardinality})

    # the involution is trivial and d is odd, so H_1 = (Z/2)^rank
    h1 = homology_c2(wh.parity_action(d), 1)
    doc.add("h1-of-whitehead-group",
            VERIFIED if h1 == FgAbGroup.from_factors([2] * rank) else FAILED,
            {"group": str(h1)})

    doc.add("inertia-set-completeness", ASSUMED,
            {"statement": "every inertial h-cobordism arises from a "
                          "self-identification twist"},
            citation=_CITE_INERTIA_VANISHES + "; " + _CITE_SURJECTIVITY)
    doc.add("mapping-class-finiteness", ASSUMED,
            {"statement": "the block mapping class group of L is finite"},
            citation=_CITE_FINITE_MCG)

    n_factor = iner.cardinality
    doc.add("cardinality-ratio", DERIVED,
            {"statement": f"|pi_1 B(block diffeos of L)| = "
                          f"{n_factor} * |pi_1 B(block diffeos of M)|",
             "factor": n_factor, "dimension": d})
    doc.add("prior-literature-conflict", DERIVED,
            {"statement": "the computed inertia cardinality exceeds 1, "
                          "contradicting the published triviality claim "
                          "for fake lens spaces; the algebraic side is "
                          "direct evidence",
             "cardinality": iner.cardinality},
            citation=_CITE_KWASIK)
    return doc
