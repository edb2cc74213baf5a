"""Empirical verification of the counting lemmas behind the reduction.

phi(p, D) counts 1 <= a <= 2*sqrt(p) with gcd(a, p+1) <= D. It is
computed two ways (direct count, Moebius divisor sum) that must agree
exactly, and bounded below by two closed-form expressions. Each of
them does its per-prime work once per p and answers every D from it:
phi_direct bisects the sorted gcd(a, p+1), phi_mobius the running sum of
its divisor terms, and the bounds read the one cached factorisation of p+1.

The class census enumerates isomorphism classes of curves over F_p and
counts those whose trace has small gcd with p+1. Every curve with AB != 0
is isomorphic, or a quadratic twist, to E_t: y^2 = x^3 + t x + t with
t = A^3/B^2, and t -> j = 6912t/(4t + 27) maps F_p minus {0, -27/4} onto
F_p minus {0, 1728}. For x != -1, x^3 + t(x + 1) = (x + 1)(t + x^3/(x + 1)),
so

    a(t) = -chi(-1) - sum_s w(s) chi(t + s),
    w(s) = sum of chi(x + 1) over the x != -1 with x^3/(x + 1) = s,

and all p - 2 traces come from one cyclic correlation of two int64 arrays
of length p: O(p^2) multiply-adds in C and O(p) memory, in place of about
p point counts. The curves with j = 0 (A = 0) or j = 1728 (B = 0) can
have automorphisms beyond +-1, and then their classes are sextic or
quartic twists of each other, not quadratic ones: gcd(6, p-1) classes at
j = 0 and gcd(4, p-1) at j = 1728, each counted on its own.

The non-residue search measures how far one must go for a d that is a
non-residue mod p but a residue mod m.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import arith
from .arith import divisors, is_probable_prime, isqrt, jacobi, odd_part, primes_between
from .counting import _legendre_table, count_points_prime


@lru_cache(maxsize=8)  # a sweep visits each p once, for every D in turn
def _sorted_gcds(p: int) -> tuple[int, ...]:
    """gcd(a, p+1) for 1 <= a <= floor(2*sqrt(p)), sorted increasing."""
    a = np.arange(1, isqrt(4 * p) + 1, dtype=np.int64)
    return tuple(np.sort(np.gcd(a, p + 1)).tolist())


def phi_direct(p: int, D: int) -> int:
    """#{a : 1 <= a <= floor(2*sqrt(p)), gcd(a, p+1) <= D} by enumeration."""
    return bisect_right(_sorted_gcds(p), D)


@lru_cache(maxsize=8)  # a sweep visits each p once, for every D in turn
def _mobius_prefix(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The divisors d <= floor(2*sqrt(p)) of p+1, increasing, and the running
    totals of their terms sum_k mu(k) * floor(bound / (k*d)).

    Only squarefree k | (p+1)/d with k*d <= bound are expanded: a larger k*d
    gives floor(bound / (k*d)) = 0, and so does every multiple of it.
    """
    bound = isqrt(4 * p)
    m = p + 1
    primes = [q for q, _ in arith.factor_small(m)]
    ds, totals = [], [0]
    for d in divisors(m):
        if d > bound:
            break
        terms = [(d, 1)]  # (k*d, mu(k))
        for q in primes:
            if m // d % q == 0:
                terms += [(kd * q, -mu) for kd, mu in terms if kd * q <= bound]
        ds.append(d)
        totals.append(totals[-1] + sum(mu * (bound // kd) for kd, mu in terms))
    return tuple(ds), tuple(totals)


def phi_mobius(p: int, D: int) -> int:
    """Same count via the Moebius divisor sum, exact integer arithmetic.

    Sums mu(k) * floor(bound / (k*d)) over divisors d <= D of p+1 and
    squarefree k | (p+1)/d; the k and their signs are built from the primes
    of p+1, factored once, and the sum is expanded once per p for every D.
    """
    ds, totals = _mobius_prefix(p)
    return totals[bisect_right(ds, D)]


def lower_bounds(p: int, D: int) -> tuple[float, float]:
    """The two closed-form lower bounds for phi(p, D).

    First: 2*sqrt(p) - (2*sqrt(p)/D)*tau(p+1) - tau((p+1)^2).
    Second: sqrt(p)*phi(P)/P - 2^omega(P), with P the odd part of p+1.
    Every divisor function comes from the one factorisation of p+1:
    tau((p+1)^2) is the product of 2e+1, and phi(P) and omega(P) come from
    its odd primes.
    """
    tau1 = tau2 = 1
    P = phi_P = odd_part(p + 1)
    omega_P = 0
    for q, e in arith.factor_small(p + 1):
        tau1 *= e + 1
        tau2 *= 2 * e + 1
        if q > 2:
            phi_P = phi_P // q * (q - 1)
            omega_P += 1
    sp = math.sqrt(p)
    b22 = 2 * sp - (2 * sp / D) * tau1 - tau2
    b23 = sp * phi_P / P - 2 ** omega_P
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
_SWEEP_WIDTH = 10 ** 6  # widest [max(pmin, 5), pmax] one sweep takes


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


def _inverses(u: np.ndarray, p: int) -> np.ndarray:
    """u^(p-2) mod p elementwise: the inverses of units, by square-and-multiply."""
    out = np.ones_like(u)
    e = p - 2
    while e:
        if e & 1:
            out = out * u % p
        u = u * u % p
        e >>= 1
    return out


def _generic_traces(p: int) -> np.ndarray:
    """a(t) for t != 0, -27/4 in F_p, increasing t: the traces of
    E_t: y^2 = x^3 + t x + t, by the correlation in the module docstring."""
    chi = _legendre_table(p).astype(np.int64)
    u = np.arange(1, p, dtype=np.int64)  # u = x + 1 for x != -1
    x = u - 1
    s = x * x % p * x % p * _inverses(u, p) % p
    w = np.bincount(s, weights=chi[u], minlength=p).astype(np.int64)
    # corr[t] = sum_s w(s) chi((t + s) mod p) for 0 <= t < p
    corr = np.correlate(np.concatenate((chi, chi[:-1])), w, "valid")
    a = -chi[p - 1] - corr
    return np.delete(a, [0, -27 * pow(4, -1, p) % p])


@lru_cache(maxsize=512)
def isomorphism_class_traces(p: int) -> tuple[int, ...]:
    """Traces of all F_p-isomorphism classes of smooth curves over F_p.

    Classes are orbits of (A, B) under (A, B) -> (l^4 A, l^6 B), l in F_p*,
    and are enumerated by j-invariant (Silverman, AEC III.1 and X.5):
    - j != 0, 1728: Aut = {+-1}, so j has two classes, E_t with
      j = 6912t/(4t + 27) and its quadratic twist, with traces a(t) and
      -a(t); every a(t) comes from one correlation (`_generic_traces`);
    - j = 0: one class y^2 = x^3 + B per coset of B in F_p*/(F_p*)^6;
    - j = 1728: one class y^2 = x^3 + Ax per coset of A in F_p*/(F_p*)^4;
      these classes are counted one at a time.
    That is 2(p-2) + gcd(6, p-1) + gcd(4, p-1) classes. The traces come in
    increasing order of gcd(a, p+1), so a census row counts those <= D by
    bisection.
    """
    if not 5 <= p <= _CLASS_ENUM_LIMIT:
        raise ValueError(f"class enumeration restricted to 5 <= p <= {_CLASS_ENUM_LIMIT}")
    a = _generic_traces(p)
    special = [(0, B) for B in _coset_representatives(p, gcd(6, p - 1))]
    special += [(A, 0) for A in _coset_representatives(p, gcd(4, p - 1))]
    traces = np.concatenate((a, -a, [p + 1 - count_points_prime(p, A, B) for A, B in special]))
    return tuple(traces[np.argsort(np.gcd(traces, p + 1), kind="stable")].tolist())


def census_row(p: int, D: int, with_classes: bool) -> CensusRow:
    """Census row for (p, D); isomorphism-class counts only if with_classes."""
    s = total = None
    if with_classes:
        traces = isomorphism_class_traces(p)
        s, total = bisect_right(traces, D, key=lambda a: gcd(a, p + 1)), len(traces)
    b22, b23 = lower_bounds(p, D)
    return CensusRow(p, D, phi_direct(p, D), phi_mobius(p, D), b22, b23, s, total)


def census_sweep(
    pmin: int, pmax: int, d_list: list[int], classes_max: int = 1000
) -> list[CensusRow]:
    """Rows for every prime in [pmin, pmax] x every D, ordered by (p, D).

    D = 0 in d_list stands for 'p + 1' (the everything-admitted column).
    Every contract is checked before any row is computed, the width before the sieve.
    """
    if pmin > pmax:
        raise ValueError(f"census_sweep: pmin must be <= pmax, got [{pmin}, {pmax}]")
    if any(D < 0 for D in d_list):
        raise ValueError(f"census_sweep: D must be >= 0, got {min(d_list)}")
    if pmax - max(pmin, 5) > _SWEEP_WIDTH:
        raise ValueError(f"census_sweep: [{pmin}, {pmax}] is wider than {_SWEEP_WIDTH}")
    primes = primes_between(max(pmin, 5), pmax)
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
