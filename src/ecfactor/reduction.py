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

The walk reads the squarefree d off one sieve of flags, `_squarefree(hi)`,
over [2, hi) for hi the least power of two above max_d, cached with one
entry per power of two and shared by every split: a walk to `MAX_D_LIMIT`
caches one entry of 2^20 - 2 bytes, and all sizes together stay under 2^21.
It takes (d|n) by one `jacobi` per squarefree d. The walk goes up from 2,
so the first d with (d|n) = 0 is n's least prime: any other squarefree d
sharing a prime with n is above that prime. It ends the split with no gcd,
and d < n keeps a prime n whole, as gcd(d, n) = n would. So the walk ends
at the same d, and queries the same d before it, as a walk taking
gcd(d, n) and (d|n) at every d.

The walk over one curve is `twist_walk`, a method: it takes the modulus,
the oracle, the curve, its count N and the config, and returns parts of
the modulus or None. `split` keeps what does not depend on the method: the
curve sampling, the budgets, the exits and the outcome. A split's parts are
pairwise coprime integers > 1 whose product is n, and `factor_completely`
pushes every part.

Each curve keeps the set of N_d whose recovery failed. A twist whose N_d is
in it is still queried, but not recovered: the same ratio N/N_d gives the
same None. For n = pq a twist with (d|n) = -1 is a non-residue at one prime
alone, and N_d takes one of two values, so a curve runs recovery at most
twice however far its walk goes: on `ecfactor factor 1077272742627746153
--seed 419625122`, whose first curve walks every admissible d up to
max_d, recovery runs 3 times in its 2086 queries over 2 curves. max_d
still bounds d, not the number of queries.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, replace

from .arith import is_probable_prime, jacobi, primes_between
# twist is unused here but kept: bench/tracer.py wraps it by this name.
from .curves import CurveSupplyExhausted, FactorFound, sample_curve, twist


# Largest accepted D. A recovery succeeds when gcd(a_p, p+1) <= D, and that
# gcd is at most |a_p| <= 2*sqrt(p) unless a_p = 0, so D = 10^4 already covers
# every such curve at primes below 2.5e7. A failed recovery at the cap scans
# 2*10^4 multipliers, 3.6-5.5 ms for a 13- or 26-digit n on a 2-core x86 host
# with Python 3.11, so recovery adds at most that much per query.
D_MAX = 10 ** 4

# Largest accepted max_d. A walk on a curve that never splits n visits every d
# up to max_d, about 2.4 us each on the same host (one run in four read 4.0 us),
# so the cap bounds such a walk near 2.5 s, at about 30 MB peak RSS: `factor
# 1077272742627746153 --seed 419625122 --max-d 1000000`, whose first curve never
# splits n, took 2.4-4.0 s and 29 MB over four runs. The default
# 4*ceil(ln(n)^2) is cut at it, which it reaches from n ~ e^500 (722 bits) on.
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
        return min(4 * math.ceil(math.log(n) ** 2), MAX_D_LIMIT)

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
    source: str  # one of the six exits that `split` names
    curves_tried: int
    parts: tuple[int, ...]  # pairwise coprime, each > 1, product n; (n,) if no factor

    @property
    def factor(self) -> int | None:
        """parts[0], or None when no factor was found."""
        return self.parts[0] if len(self.parts) > 1 else None


def recover_from_ratio(N: int, Nd: int, D: int, n: int) -> Recovery | None:
    """Try to read a prime factor of n off the reduced ratio N/Nd.

    The common factor of p+1-a_p and p+1+a_p divides 2*gcd(p+1, a_p), so
    multipliers up to 2D suffice whenever gcd(a_p, p+1) <= D. Candidates
    are accepted only on exact divisibility, so over-enumeration is safe.
    A candidate g*s/2 - 1 needs g*s even, so for odd s only even g are
    tried. The tried g are step, 2*step, ..., so the candidates are the one
    range h-1, 2h-1, ... with h = step*s/2, cut at the last g <= 2D and at
    n, and a hit's multiplier is (cand+1)/h * step.
    """
    if N < 1 or Nd < 1:
        raise ValueError("recover_from_ratio: counts must be >= 1")
    s = (N + Nd) // math.gcd(N, Nd)  # numerator + denominator of N/Nd
    step = 1 + s % 2
    h = step * s // 2
    # the range starts at its first candidate above 1: h - 1 for h >= 3,
    # 3 for h = 2 and 2 for h = 1
    for cand in range((2 // h + 1) * h - 1, min(2 * D // step * h, n), h):
        if n % cand == 0:
            return Recovery(cand, (cand + 1) // h * step)
    return None


@functools.cache
def _squarefree(hi: int) -> bytes:
    """One flag per d in [2, hi): 1 where d is squarefree, 0 where the
    square of a prime q <= sqrt(hi) divides it."""
    flags = bytearray(b"\x01") * hi
    for q in primes_between(2, math.isqrt(hi - 1)):
        flags[::q * q] = bytes(len(range(0, hi, q * q)))
    return bytes(flags[2:])


def _twists(max_d: int):
    """The squarefree 2 <= d <= max_d, ascending, off the cached flags below
    the least power of two above max_d."""
    return itertools.compress(
        range(2, max_d + 1), memoryview(_squarefree(1 << max_d.bit_length()))[:max_d - 1]
    )


def twist_walk(
    n: int, oracle, curve: tuple[int, int], N: int, cfg: ReductionConfig
) -> tuple[int, int] | None:
    """The twist walk on one curve of count N: the parts (f, n // f) of a
    recovery from N/N_d, or None when the walk reaches max_d. Reaching n's
    least prime raises `FactorFound` with source "d_gcd"."""
    A, B = curve
    failed: set[int] = set()  # the N_d whose recovery failed on this curve
    for d in _twists(cfg.resolved_max_d(n)):
        sign = jacobi(d, n)
        if sign == 0 and d < n:  # d is n's least prime
            raise FactorFound(d, "d_gcd")
        elif sign == -1:
            Nd = oracle.query(n, A, B, d)
            if Nd not in failed:
                rec = recover_from_ratio(N, Nd, cfg.D, n)
                if rec is not None:
                    return rec.factor, n // rec.factor
                failed.add(Nd)
    return None


def split(n: int, oracle, cfg: ReductionConfig) -> SplitOutcome:
    """Find one nontrivial factor of squarefree composite n, gcd(n, 6) = 1.

    The outcome's `source` names the exit. A factor comes from "ratio" (a
    recovery from N/N_d), "d_gcd" (the walk reached n's least prime), or
    "screen_gcd" or "iso_gcd" (a gcd met while sampling a curve). `factor`
    is None after "curves_exhausted" (`max_curves` curves failed) or
    "supply_exhausted" (`sample_curve` found no fresh curve). The queries it
    made are read off the oracle's counter.
    """
    if n < 2 or math.gcd(n, 6) != 1:
        raise ValueError("split: n must be a squarefree composite coprime to 6")
    rng = random.Random(cfg.seed)
    max_curves = cfg.resolved_max_curves(n)
    used: list[tuple[int, int]] = []

    def outcome(source: str, parts: tuple[int, ...] = (n,)) -> SplitOutcome:
        return SplitOutcome(source, len(used), parts)

    try:
        for _ in range(max_curves):
            curve = sample_curve(n, rng, used)
            used.append(curve)
            parts = twist_walk(n, oracle, curve, oracle.query(n, *curve), cfg)
            if parts is not None:
                return outcome("ratio", parts)
    except FactorFound as ff:
        return outcome(ff.source, (ff.factor, n // ff.factor))
    except CurveSupplyExhausted:
        return outcome("supply_exhausted")
    return outcome("curves_exhausted")


@dataclass(frozen=True)
class FactorizationResult:
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
        if outcome.parts == (m,):
            failed = m
            break
        work.extend(outcome.parts)
    primes.sort()
    for p, q in zip(primes, primes[1:]):
        if p == q:
            raise ValueError(f"factor_completely: {n} is not squarefree ({p}^2 divides it)")
    return FactorizationResult(tuple(primes), oracle.queries - before, curves_used, failed)
