"""Periodic-resolution homology, divisibility reports, localization."""

from __future__ import annotations

import pytest

from whcalc.abelian import FgAbGroup
from whcalc.ktheory import (away_part, k3_divisibility, load_facts, localize,
                            tor_pi_r)


def test_tor_values():
    assert str(tor_pi_r(7, 0)) == "Z/7"
    assert tor_pi_r(7, 1).is_trivial()
    assert str(tor_pi_r(3, 2)) == "Z/3"
    for p in (3, 5, 7):
        for i in range(5):
            expected = f"Z/{p}" if i % 2 == 0 else "0"
            assert str(tor_pi_r(p, i)) == expected


def test_tor_two_periodicity():
    for p in (3, 5, 7, 11):
        for i in range(3):
            assert tor_pi_r(p, i) == tor_pi_r(p, i + 2)


def test_tor_degree_zero_is_cyclotomic_cokernel():
    # hand check: the cyclotomic integers modulo (zeta - 1) have order p
    from whcalc.ktheory import _mult_zeta_minus_one
    from whcalc.lattice import cokernel_factors
    for p in (3, 5, 7):
        facs = cokernel_factors(_mult_zeta_minus_one(p), p - 1)
        assert FgAbGroup.from_factors(facs) == tor_pi_r(p, 0)


def test_tor_rejects_bad_input():
    with pytest.raises(ValueError):
        tor_pi_r(4, 0)
    with pytest.raises(ValueError):
        tor_pi_r(7, -1)
    with pytest.raises(ValueError, match="capped"):
        tor_pi_r(1009, 1)  # the first prime above the cap


def test_k3_divisibility():
    rep = k3_divisibility(7)
    assert rep["k3_fp_order"] == 48
    assert rep["three_divides"] and rep["injective_at_3"]
    assert rep["valuation_3"] == 1
    assert k3_divisibility(5)["k3_fp_order"] == 24
    assert k3_divisibility(2)["k3_fp_order"] == 3
    assert not k3_divisibility(3)["injective_at_3"]
    with pytest.raises(ValueError):
        k3_divisibility(6)


def test_localize_examples():
    assert str(localize(FgAbGroup.from_factors([48]), 3)) == "Z/3"
    assert localize(FgAbGroup.from_factors([2]), 3).is_trivial()
    mixed = FgAbGroup.from_factors([6, 9])
    assert str(localize(mixed, 3)) == "Z/3 x Z/9"
    assert str(away_part(mixed, 3)) == "Z/2"
    assert str(away_part(FgAbGroup.from_factors([48]), 2)) == "Z/3"
    for part in (localize, away_part):
        with pytest.raises(ValueError, match="finite group"):
            part(FgAbGroup.from_factors([0]), 3)


@pytest.mark.parametrize("ell", [4, 6, 1, 0, -1])
def test_both_parts_refuse_a_non_prime(ell):
    # dividing out a composite l leaves a nonzero part of order "prime
    # to l" (Z/2 of Z/8 at 4, of Z/12 at 6); l = 1 or -1 never stops
    # dividing, and l = 0 divides by zero
    for group in (FgAbGroup.from_factors([8]), FgAbGroup.from_factors([12])):
        for part in (localize, away_part):
            with pytest.raises(ValueError,
                               match="the localization prime must be prime"):
                part(group, ell)


def test_localize_reconstruction():
    samples = [FgAbGroup.from_factors(f)
               for f in ([48], [6, 9], [2, 4, 8], [30], [])]
    for g in samples:
        for ell in (2, 3, 5):
            local = localize(g, ell)
            away = away_part(g, ell)
            combined = FgAbGroup.from_factors(
                list(local.invariant_factors) + list(away.invariant_factors))
            assert combined == g


def test_facts_table():
    # the two cited inputs of ``kapp k3``, in the order the report adds them
    facts = load_facts()
    assert [f["id"] for f in facts] == ["k3-of-integers", "k3-of-prime-field"]
    assert all(f["statement"] and f["citation"] for f in facts)
