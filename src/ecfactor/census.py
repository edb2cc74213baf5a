"""Empirical verification of the counting lemmas behind the reduction.

phi(p, D) counts 1 <= a <= 2*sqrt(p) with gcd(a, p+1) <= D. It is
computed two ways (direct count, Moebius divisor sum) that must agree
exactly, and bounded below by two closed-form expressions. The class
census enumerates isomorphism classes of curves over F_p and counts
those whose trace has small gcd with p+1; the non-residue search
measures how far one must go for a d that is a non-residue mod p but a
residue mod m.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import arith
from .arith import (
    divisors,
    euler_phi,
    is_probable_prime,
    isqrt,
    jacobi,
    odd_part,
    omega,
    primes_up_to,
    tau,
)
from .counting import count_points_prime


def phi_direct(p: int, D: int) -> int:
    """#{a : 1 <= a <= floor(2*sqrt(p)), gcd(a, p+1) <= D} by enumeration."""
    bound = isqrt(4 * p)
    m = p + 1
    return sum(1 for a in range(1, bound + 1) if gcd(a, m) <= D)


def phi_mobius(p: int, D: int) -> int:
    """Same count via the Moebius divisor sum, exact integer arithmetic.

    Sums mu(k) * floor(bound / (k*d)) over divisors d <= D of p+1 and
    squarefree k | (p+1)/d; the k and their signs are built from the primes
    of p+1, factored once.
    """
    bound = isqrt(4 * p)
    m = p + 1
    primes = [q for q, _ in arith.factor_small(m).factors]
    total = 0
    for d in divisors(m):
        if d > D:
            break
        terms = [(1, 1)]  # (k, mu(k))
        for q in primes:
            if m // d % q == 0:
                terms += [(k * q, -mu) for k, mu in terms]
        total += sum(mu * (bound // (k * d)) for k, mu in terms)
    return total


def lower_bounds(p: int, D: int) -> tuple[float, float]:
    """The two closed-form lower bounds for phi(p, D).

    First: 2*sqrt(p) - (2*sqrt(p)/D)*tau(p+1) - tau((p+1)^2).
    Second: sqrt(p)*phi(P)/P - 2^omega(P), with P the odd part of p+1.
    """
    sp = math.sqrt(p)
    b22 = 2 * sp - (2 * sp / D) * tau(p + 1) - tau((p + 1) ** 2)
    P = odd_part(p + 1)
    b23 = sp * euler_phi(P) / P - 2 ** omega(P)
    return b22, b23


@dataclass(frozen=True)
class CensusRow:
    p: int
    D: int
    phi_direct: int
    phi_mobius: int
    bound_22: float
    bound_23: float
    s_classes: int | None = None
    total_classes: int | None = None


_CLASS_ENUM_LIMIT = 1000


def _coset_representatives(p: int, k: int) -> list[int]:
    """g^0, ..., g^(k-1): one element of each coset of (F_p*)^k, for k | p - 1.

    F_p*/(F_p*)^k is cyclic of order k, and the least g with
    g^((p-1)/q) != 1 for each prime q | k generates it (k divides 4 or 6 here).
    """
    g = next(
        g for g in range(2, p)
        if all(pow(g, (p - 1) // q, p) != 1 for q in (2, 3) if k % q == 0)
    )
    return [pow(g, i, p) for i in range(k)]


@lru_cache(maxsize=512)
def isomorphism_class_traces(p: int) -> tuple[int, ...]:
    """Traces of all F_p-isomorphism classes of smooth curves over F_p.

    Classes are orbits of (A, B) under (A, B) -> (l^4 A, l^6 B), l in F_p*,
    and are enumerated by j-invariant (Silverman, AEC III.1 and X.5):
    - j != 0, 1728: y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2 has invariant j
      and Aut = {+-1}, so j has two classes, this curve and its quadratic
      twist, with traces a and -a;
    - j = 0: one class y^2 = x^3 + B per coset of B in F_p*/(F_p*)^6;
    - j = 1728: one class y^2 = x^3 + Ax per coset of A in F_p*/(F_p*)^4.
    That is 2(p-2) + gcd(6, p-1) + gcd(4, p-1) classes, with one count
    per j != 0, 1728 and one per class at j = 0 and 1728. The traces come in
    increasing order of gcd(a, p+1), so a census row counts those <= D by
    bisection.
    """
    if not 5 <= p <= _CLASS_ENUM_LIMIT:
        raise ValueError(f"class enumeration restricted to 5 <= p <= {_CLASS_ENUM_LIMIT}")
    traces = []
    for j in range(1, p):
        k = (1728 - j) % p
        if k == 0:
            continue
        a = count_points_prime(p, 3 * j * k, 2 * j * k * k).trace
        traces += (a, -a)
    traces += [count_points_prime(p, 0, B).trace for B in _coset_representatives(p, gcd(6, p - 1))]
    traces += [count_points_prime(p, A, 0).trace for A in _coset_representatives(p, gcd(4, p - 1))]
    return tuple(sorted(traces, key=lambda a: gcd(a, p + 1)))


def census_row(p: int, D: int, with_classes: bool) -> CensusRow:
    """Census row for (p, D); isomorphism-class counts only if with_classes."""
    s = total = None
    if with_classes:
        traces = isomorphism_class_traces(p)
        s, total = bisect_right(traces, D, key=lambda a: gcd(a, p + 1)), len(traces)
    b22, b23 = lower_bounds(p, D)
    return CensusRow(p, D, phi_direct(p, D), phi_mobius(p, D), b22, b23, s, total)


def class_census(p: int, D: int) -> CensusRow:
    """Full census row for (p, D), including isomorphism-class counts."""
    return census_row(p, D, True)


def census_sweep(
    pmin: int, pmax: int, d_list: list[int], classes_max: int = 1000
) -> list[CensusRow]:
    """Rows for every prime in [pmin, pmax] x every D, ordered by (p, D).

    D = 0 in d_list stands for 'p + 1' (the everything-admitted column).
    Both contracts are checked before any row is computed.
    """
    if any(D < 0 for D in d_list):
        raise ValueError(f"census_sweep: D must be >= 0, got {min(d_list)}")
    primes = [p for p in primes_up_to(pmax) if p >= max(pmin, 5)]
    top = max((p for p in primes if p <= classes_max), default=0)
    if top > _CLASS_ENUM_LIMIT:
        raise ValueError(
            f"census_sweep: classes_max covers p = {top} > {_CLASS_ENUM_LIMIT}"
        )
    rows = []
    for p in primes:
        for D in d_list:
            rows.append(census_row(p, p + 1 if D == 0 else D, p <= classes_max))
    return rows


CSV_HEADER = "p,D,phi_direct,phi_mobius,bound22,bound23,s_classes,total_classes"


def rows_to_csv(rows: list[CensusRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        s = "" if r.s_classes is None else str(r.s_classes)
        t = "" if r.total_classes is None else str(r.total_classes)
        lines.append(
            f"{r.p},{r.D},{r.phi_direct},{r.phi_mobius},"
            f"{r.bound_22:.6g},{r.bound_23:.6g},{s},{t}"
        )
    return "\n".join(lines) + "\n"


class NonResidueNotFound(Exception):
    """No admissible d below the search cap; the cap was too small."""


@dataclass(frozen=True)
class NonResidueRecord:
    p: int
    m: int
    d_min: int
    ratio: float  # d_min / (ln(p*m))^2


def nonresidue_search(p: int, m: int, cap: int = 10 ** 4) -> NonResidueRecord:
    """Least d <= cap that is a non-residue mod p and a residue mod m.

    m = 1 is allowed (the mod-1 symbol is +1 by convention).
    """
    if p < 3 or not is_probable_prime(p) or m < 1 or m % 2 == 0 or gcd(p, m) != 1:
        raise ValueError("nonresidue_search: need odd prime p, odd m, gcd(p, m) = 1")
    if cap < 1:
        raise ValueError(f"nonresidue_search: cap must be >= 1, got {cap}")
    for d in range(1, cap + 1):
        if jacobi(d, p) == -1 and gcd(d, m) == 1 and jacobi(d, m) == 1:
            return NonResidueRecord(p, m, d, d / math.log(p * m) ** 2)
    raise NonResidueNotFound(f"no admissible d <= {cap} for (p, m) = ({p}, {m})")


def primorial_check(l: int) -> bool:
    """Exact check that the product of the first l primes is >= l^l."""
    if not 1 <= l <= 64:
        raise ValueError("primorial_check: need 1 <= l <= 64")
    primes = primes_up_to(400)  # 64th prime is 311
    prod = 1
    for q in primes[:l]:
        prod *= q
    return prod >= l ** l


def phi_lower_check(x: int) -> bool:
    """Check phi(x) > x / (4 ln x)."""
    if x < 3:
        raise ValueError("phi_lower_check: need x >= 3")
    return euler_phi(x) > x / (4 * math.log(x))
