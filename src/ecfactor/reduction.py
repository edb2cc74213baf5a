"""Factoring a squarefree n by driving a point-counting oracle.

One round: sample a smooth curve, query its count N, then walk twists
E^d for d = 2, 3, ... and query twisted counts N_d. When d is a
non-residue mod exactly one prime p | n, the reduced ratio N/N_d is
(p+1-a_p)/(p+1+a_p) divided by their common factor, so scaling the
reduced terms by small multipliers and summing recovers 2(p+1), hence p.
Fresh curves are drawn until one has a trace whose gcd with p+1 is small
enough for the multiplier search to hit.

The walk queries only squarefree d with (d|n) = -1; each skip is exact
for its own reason. For squarefree n, (d|n) = (-1)^|S| with S the primes
at which d is a non-residue, so a d that isolates one prime has
(d|n) = -1. A d = d0*m^2 with d0 < d squarefree has the count of the
twist by d0 (E^d is isomorphic to E^d0 by u = m), and d0 has the same
symbol, so the walk has already queried d0 on this curve and its
recovery would fail again.

The walk takes (d|n) as the product of (q|n) over the primes q of d, read
off the cached `factor_small(d)`; each (q|n) is taken once per split, and a
d that is not squarefree reads 0 before any symbol is taken. At a 0, d is
not squarefree or shares a prime with n, and gcd(d, n) ends the split
unless it is 1 or n. So the walk ends at the same d, and queries the same
d before it, as a walk that takes gcd(d, n) and the Jacobi symbol (d|n) at
every d.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .arith import factor_small, is_probable_prime, jacobi
from .curves import CurveSupplyExhausted, FactorFound, sample_curve, twist


# Largest accepted D. A recovery succeeds when gcd(a_p, p+1) <= D, and that
# gcd is at most |a_p| <= 2*sqrt(p) unless a_p = 0, so D = 10^4 already covers
# every such curve at primes below 2.5e7. A failed recovery at the cap scans
# 2*10^4 multipliers, 3.6-5.5 ms for a 13- or 26-digit n on a 2-core x86 host
# with Python 3.11, so recovery adds at most that much per query.
D_MAX = 10 ** 4

# Largest accepted max_d. A walk on a curve that never splits n visits every d
# up to max_d, about 15 us each on the same host, so the cap bounds such a walk
# near 15 s. The default 4*ceil(ln(n)^2) stays within it for n < e^500.
MAX_D_LIMIT = 10 ** 6


@dataclass(frozen=True)
class ReductionConfig:
    """All budgets of the algorithm; None means 'scale with n'."""

    D: int = 12
    max_d: int | None = None
    max_curves: int | None = None  # 0 is valid: a budget spent before it starts
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("D", 1), ("max_d", 2), ("max_curves", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"ReductionConfig: {name} must be >= {low}, got {value}")
        if self.D > D_MAX:
            raise ValueError(f"ReductionConfig: D must be <= {D_MAX}, got {self.D}")
        if self.max_d is not None and self.max_d > MAX_D_LIMIT:
            raise ValueError(
                f"ReductionConfig: max_d must be <= {MAX_D_LIMIT}, got {self.max_d}"
            )

    def resolved_max_d(self, n: int) -> int:
        if self.max_d is not None:
            return self.max_d
        return 4 * math.ceil(math.log(n) ** 2)

    def resolved_max_curves(self, n: int) -> int:
        if self.max_curves is not None:
            return self.max_curves
        return math.ceil(8 * math.log(n) ** 2)


@dataclass(frozen=True)
class Recovery:
    factor: int
    multiplier: int


@dataclass(frozen=True)
class SplitOutcome:
    factor: int | None
    source: str  # one of the six exits that `split` names
    curves_tried: int


def recover_from_ratio(N: int, Nd: int, D: int, n: int) -> Recovery | None:
    """Try to read a prime factor of n off the reduced ratio N/Nd.

    The common factor of p+1-a_p and p+1+a_p divides 2*gcd(p+1, a_p), so
    multipliers up to 2D suffice whenever gcd(a_p, p+1) <= D. Candidates
    are accepted only on exact divisibility, so over-enumeration is safe.
    A candidate g*s/2 - 1 needs g*s even, so for odd s only even g are
    tried; over the tried g the candidates are an arithmetic progression,
    taken by one addition each. Candidates grow with g, so the scan stops
    at the first one >= n, after at most 2(n+1)/s multipliers.
    """
    if N < 1 or Nd < 1:
        raise ValueError("recover_from_ratio: counts must be >= 1")
    s = (N + Nd) // math.gcd(N, Nd)  # numerator + denominator of N/Nd
    step = 1 + s % 2
    h = step * s // 2  # the candidates g*s/2 - 1 step by h as g steps by step
    cand = -1
    for g in range(step, 2 * D + 1, step):
        cand += h
        if cand >= n:
            break
        if cand > 1 and n % cand == 0:
            return Recovery(cand, g)
    return None


def _twist_symbol(d: int, n: int, symbols: dict[int, int]) -> int:
    """(d|n) for a squarefree d >= 2, as the product of (q|n) over the primes
    q of d, and 0 for a d that is not squarefree. `symbols` caches (q|n) for
    one n, so each prime's Jacobi symbol is taken once."""
    sign = 1
    for q, e in factor_small(d):
        if e > 1:
            return 0
        s = symbols.get(q)
        if s is None:
            s = symbols[q] = jacobi(q, n)
        sign *= s
    return sign


def split(n: int, oracle, cfg: ReductionConfig) -> SplitOutcome:
    """Find one nontrivial factor of squarefree composite n, gcd(n, 6) = 1.

    The outcome's `source` names the exit. A factor comes from "ratio" (a
    recovery from N/N_d), "d_gcd" (a proper gcd(d, n)), or "screen_gcd" or
    "iso_gcd" (a gcd met while sampling a curve). `factor` is None after
    "curves_exhausted" (`max_curves` curves failed) or "supply_exhausted"
    (`sample_curve` found no fresh curve). The queries it made are read off
    the oracle's counter.
    """
    if n < 2 or math.gcd(n, 6) != 1:
        raise ValueError("split: n must be a squarefree composite coprime to 6")
    rng = random.Random(cfg.seed)
    max_d = cfg.resolved_max_d(n)
    max_curves = cfg.resolved_max_curves(n)
    used: list[tuple[int, int]] = []
    symbols: dict[int, int] = {}  # prime q -> (q|n), for _twist_symbol

    def outcome(factor, source) -> SplitOutcome:
        return SplitOutcome(factor, source, len(used))

    try:
        for _ in range(max_curves):
            A, B = sample_curve(n, rng, used)
            used.append((A, B))
            N = oracle.query(n, A, B)
            for d in range(2, max_d + 1):
                sign = _twist_symbol(d, n, symbols)
                if sign == 0:  # d is not squarefree, or shares a prime with n
                    g = math.gcd(d, n)
                    if 1 < g < n:
                        return outcome(g, "d_gcd")
                elif sign == -1:
                    Nd = oracle.query(n, *twist(n, A, B, d))
                    rec = recover_from_ratio(N, Nd, cfg.D, n)
                    if rec is not None:
                        return outcome(rec.factor, "ratio")
    except FactorFound as ff:
        return outcome(ff.factor, ff.source)
    except CurveSupplyExhausted:
        return outcome(None, "supply_exhausted")
    return outcome(None, "curves_exhausted")


@dataclass(frozen=True)
class FactorizationResult:
    n: int
    factors: tuple[int, ...]
    queries: int  # the oracle's counter difference over the run
    curves_used: int
    failed_cofactor: int | None = None

    @property
    def success(self) -> bool:
        return self.failed_cofactor is None


def _child_seed(seed: int, m: int) -> int:
    return (seed * 1000003 + m) & (2 ** 64 - 1)


def factor_completely(n: int, oracle, cfg: ReductionConfig) -> FactorizationResult:
    """Complete factorization of squarefree n >= 2 via repeated splitting.

    Factors 2 and 3 are stripped first (the curve model needs p >= 5), so
    n divisible by 4 or 9 is refused here. Any other square is refused by
    the oracle when a query's modulus holds it, or here at the end when a
    prime repeats: a screening gcd can split p off p^2*m before the oracle
    sees the square, and the parts of a squarefree n never share a prime.
    The rest is a work list of cofactors, split recursively. A stuck
    cofactor is reported rather than guessed at.
    """
    if n < 2:
        raise ValueError("factor_completely: n must be >= 2")
    primes: list[int] = []
    m = n
    for q in (2, 3):
        if m % (q * q) == 0:
            raise ValueError(f"factor_completely: {n} is not squarefree ({q}^2 divides it)")
        if m % q == 0:
            primes.append(q)
            m //= q
    before = oracle.queries
    work = [m] if m > 1 else []
    curves_used = 0
    failed = None
    while work:
        m = work.pop()
        if is_probable_prime(m):
            primes.append(m)
            continue
        outcome = split(m, oracle, replace(cfg, seed=_child_seed(cfg.seed, m)))
        curves_used += outcome.curves_tried
        if outcome.factor is None:
            failed = m
            break
        work.append(outcome.factor)
        work.append(m // outcome.factor)
    primes.sort()
    for p, q in zip(primes, primes[1:]):
        if p == q:
            raise ValueError(f"factor_completely: {n} is not squarefree ({p}^2 divides it)")
    return FactorizationResult(n, tuple(primes), oracle.queries - before, curves_used, failed)
