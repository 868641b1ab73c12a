"""Desk-scale K-theory bookkeeping around the cyclic group ring.

The one real computation: homology of the two-periodic free resolution
of Z over Z[C_p] tensored into the cyclotomic integers, which is Z/p in
even degrees and zero in odd ones.  The divisibility arithmetic behind
the degree-three injectivity statement is elementary, and so are the
localization helpers, which return the l-primary and the prime-to-l
parts of a finite group as plain groups.  The two deep inputs of the
degree-three report, K_3 of Z and of a prime field, are quoted with
their citations by ``load_facts``, never recomputed.
"""

from __future__ import annotations

from . import lattice
from .abelian import FgAbGroup
from .lattice import _is_prime

__all__ = [
    "tor_pi_r",
    "k3_divisibility",
    "localize",
    "away_part",
    "load_facts",
    "TOR_MAX_P",
]


# Largest p ``tor_pi_r`` and ``k3_divisibility`` accept: the boundaries of
# ``tor_pi_r`` are sparse (p-1) x (p-1) matrices with under 3p nonzeros,
# so cost grows about as p (p = 997: 0.008-0.018 s and 16 MiB peak in a
# fresh process on 2 vCPUs), and both test primality by trial division,
# which takes seconds from about 16 digits on.
TOR_MAX_P = 1000


def load_facts():
    """The cited literature inputs of the degree-three report, in report
    order, each an ``id``, a ``statement`` and its ``citation``."""
    return [
        {"id": "k3-of-integers",
         "statement": "K_3(Z) = Z/48",
         "citation": "Lee-Szczarba, The group K_3(Z) is cyclic of order "
                     "forty-eight"},
        {"id": "k3-of-prime-field",
         "statement": "K_3(Z/p) = Z/(p^2 - 1)",
         "citation": "Quillen, On the cohomology and K-theory of the "
                     "general linear groups over a finite field, Thm. 8"},
    ]


def _mult_zeta_minus_one(p):
    """Multiplication by (zeta - 1) on Z[zeta_p] in the power basis, as
    the list of its columns (the images of the basis vectors), zero-free
    ``{index: value}`` dicts."""
    dim = p - 1
    # (zeta - 1) * zeta^k = zeta^(k+1) - zeta^k, and for k = p - 2
    # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    cols = [{k: -1, k + 1: 1} for k in range(dim - 1)]
    cols.append({j: -1 for j in range(dim - 1)} | {dim - 1: -2})
    return cols


def tor_pi_r(p, i):
    """Homology of the standard periodic resolution against Z[zeta_p].

    Alternating multiplication by (t - 1) and the norm element, tensored
    over Z[C_p] into the cyclotomic integers viewed as Z^(p-1); homology
    as a lattice cokernel or quotient.  Two-periodic: Z/p in even
    degrees, else 0.  Capped at ``TOR_MAX_P``.
    """
    if p > TOR_MAX_P:
        raise ValueError(f"p is capped at {TOR_MAX_P}")
    if not _is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if i < 0:
        raise ValueError("degree must be nonnegative")
    dim = p - 1
    zeta_minus_one = _mult_zeta_minus_one(p)
    # the norm element 1 + zeta + ... + zeta^(p-1) is zero in Z[zeta_p]
    norm = [{} for _ in range(dim)]
    # boundary entering degree i and boundary leaving degree i; the image
    # of the entering one is spanned by its columns
    d_in = zeta_minus_one if i % 2 == 0 else norm      # d_{i+1}
    if i == 0:
        return FgAbGroup.from_factors(lattice.cokernel_factors(d_in, dim))
    d_out = norm if i % 2 == 0 else zeta_minus_one
    cycles = lattice.kernel_with_denominator(
        lattice._sparse_columns(d_out, dim), [], dim)
    return FgAbGroup.from_factors(lattice.quotient_factors(cycles, d_in))


def _v3(n):
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def k3_divisibility(p):
    """Divisibility report in degree three: p^2 - 1, its 3-adic valuation,
    and whether the cited injectivity conclusion applies (p != 3): Im J
    localized at an odd prime maps isomorphically to K_3(Z/p) localized
    there (Quillen, letter to Milnor on Im J and the K-theory of finite
    fields).  Capped at ``TOR_MAX_P``, checked before the primality
    test."""
    if p > TOR_MAX_P:
        raise ValueError(f"p is capped at {TOR_MAX_P}")
    if not _is_prime(p):
        raise ValueError("p must be prime")
    order = p * p - 1
    return {
        "p": p,
        "k3_fp_order": order,
        "three_divides": order % 3 == 0,
        "valuation_3": _v3(order),
        "k3_z_order": 48,
        "injective_at_3": p != 3,
    }


def _split(group, ell):
    """The invariant factors of a finite group split into their l-power
    and their prime-to-l parts, each without the factors 1."""
    if not _is_prime(ell):
        raise ValueError("the localization prime must be prime")
    if 0 in group.invariant_factors:
        raise ValueError("localization requires a finite group")
    local, away = [], []
    for f in group.invariant_factors:
        q = 1
        while f % ell == 0:
            f //= ell
            q *= ell
        if q > 1:
            local.append(q)
        if f > 1:
            away.append(f)
    return local, away


def localize(group, ell):
    """l-primary part of a finite group by invariant factors.

    Free summands are rejected: localization bookkeeping here is for
    torsion only.
    """
    return FgAbGroup.from_factors(_split(group, ell)[0])


def away_part(group, ell):
    """Complementary part: everything of order prime to l, with the same
    refusals as ``localize``."""
    return FgAbGroup.from_factors(_split(group, ell)[1])
