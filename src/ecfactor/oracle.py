"""Point-counting oracles.

The reduction only ever sees `query(m, A, B, d) -> |E^d_m|`, the
count of the quadratic twist E^d: y^2 = x^3 + A*d^2*x + B*d^3 of
E: y^2 = x^3 + Ax + B, for a d coprime to m; d = 1, the default, asks for E
itself. Two implementations are provided: one that knows the prime
factorization (the simulated black box the reduction is measured against)
and one that factors m with `factor_small` and brute-forces each prime, a
cross-check. Both go through the one `Oracle.query`, which admits every
modulus by one rule: m >= 2, and the distinct primes the implementation's
`_factor(m)` finds in m are each >= 5 and multiply to m, so m is
squarefree. It keeps an admitted modulus's primes for the oracle's life (so
`DirectOracle` factors each modulus once); a refused modulus keeps nothing,
so it is refused again on every query. The implementation then answers from
its record if it can. Any query the record does not answer is twisted by
`curves.twist`, which refuses a d sharing a prime with m, screened, and
counted as the product of per-prime counts at m's primes. Every answered
query is tallied, from the record or not, so the query count does not
depend on the record.

`FactoredOracle` answers a twist of the last curve it counted without
counting. A smooth curve and its quadratic twist by a non-square
have n_p + n'_p = 2(p + 1) at every prime p, j = 0 and 1728 included, and
a twist by a square is isomorphic to the curve, so with c_p the curve's
count at p, E^d has c_p points when (d|p) = 1 and 2p + 2 - c_p when
(d|p) = -1. Its record is one tuple (m, A, B, rows): the last curve counted,
with its modulus and the (A, B) it was counted as, and a row
(p, chi, counts) per prime of m with counts = (0, c_p, 2p + 2 - c_p). Here
chi is `counting.symbol(p)`, the callable x -> (x|p) for 0 <= x < p. A
query of that m and (A, B) multiplies counts[s] with s = chi(d mod p) over
the rows, one inline loop with no branch, no count and no screen: s = 1
reads c_p, s = -1 the last entry, and s = 0, when p divides d, reads 0. A
zero product sends the query the other way, where `curves.twist` refuses
it. No screen is needed: E^d's discriminant is d^6
times E's, so E^d is smooth exactly when E is, and E was screened when it
became the record. The oracle admits each of its primes and takes its chi
once, at construction. Any other query is counted prime by prime through
`counting.count_points_prime`, which reduces A and B itself, and the curve
counted, E^d, becomes the new record. One record serves the reduction: it
asks each twist of the last curve counted on its modulus, and it is done
with a modulus before it asks another. On `factor-twist` seed 1, batch 0,
every one of the 2472 twist queries is answered from the record, and
`count_points_prime` runs 1394 times for 2752 queries.
"""

from __future__ import annotations

import math

from . import counting, curves
from .arith import factor_small
from .counting import BRUTEFORCE_LIMIT, count_affine_bruteforce


class SingularCurveError(ValueError):
    """Query on a curve with gcd(discriminant, m) != 1."""


class UnsupportedModulusError(ValueError):
    """Query modulus outside the oracle's admissible set."""


class Oracle:
    """The one query path: admit m, answer from the record or twist, screen
    and count, tally the query.

    `queries` is the number of answered queries over the oracle's life; a
    refused query is not counted, and a run's cost is the difference across
    it. Subclasses supply two hooks: `_factor(m)` returns the distinct
    primes of m >= 2 the oracle counts at, or raises
    UnsupportedModulusError, and `_count(m, primes, A, B)` returns |E_m| for
    a smooth curve on an admitted m with those primes. One that keeps a
    record also supplies `_recorded(m, A, B, d)`, |E^d_m| from what it
    records, or None, the default. The modulus rule, `curves.twist` and the
    screen are applied here, so the modulus, d and smoothness contracts are
    checked in this one place for every oracle.
    """

    def __init__(self) -> None:
        self.queries = 0
        self._admitted: dict = {}  # admitted modulus -> its primes; none for a refused one

    def query(self, m: int, A: int, B: int, d: int = 1) -> int:
        primes = self._admitted.get(m)
        if primes is None:
            if m < 2:
                raise UnsupportedModulusError(f"modulus {m} must be >= 2")
            primes = self._factor(m)
            if math.prod(primes) != m or min(primes) < 5:
                raise UnsupportedModulusError(
                    f"modulus {m} must be a squarefree product of the oracle's primes, each >= 5"
                )
            self._admitted[m] = primes
        N = self._recorded(m, A, B, d)
        if N is None:
            if d != 1:
                A, B = curves.twist(m, A, B, d)  # a ValueError unless gcd(d, m) = 1
            g = curves.screen(m, A, B)  # a module lookup, so bench/tracer.py sees it
            if g != 1:
                raise SingularCurveError(f"gcd(disc, {m}) = {g}; oracle requires smooth curves")
            N = self._count(m, primes, A, B)
        self.queries += 1
        return N

    def _recorded(self, m: int, A: int, B: int, d: int) -> int | None:
        """None: an oracle that keeps no record counts every query."""
        return None


class FactoredOracle(Oracle):
    """Oracle backed by hidden knowledge of the prime factorization.

    Admissible moduli are squarefree products of any subset of the
    configured primes; that covers the cofactors the recursion asks about.
    Each configured prime must be a prime in [5, 2^60), and is refused at
    construction otherwise. A query of the last curve counted, on its
    modulus, is answered off the record, the product of counts[(d|p)] over
    its rows.
    """

    def __init__(self, primes: list[int]):
        super().__init__()
        primes = sorted(primes)
        if len(set(primes)) != len(primes):
            raise ValueError("FactoredOracle: primes must be distinct")
        self._chi = {p: counting.symbol(p) for p in primes}  # admits p: a prime in [5, 2^60)
        self._record = (None, None, None, ())  # (m, A, B, rows); no curve counted yet

    def _factor(self, m: int) -> list[int]:
        return [p for p in self._chi if m % p == 0]

    def _recorded(self, m: int, A: int, B: int, d: int) -> int | None:
        m0, A0, B0, rows = self._record
        if m != m0 or A != A0 or B != B0:
            return None
        N = 1
        for p, chi, counts in rows:
            N *= counts[chi(d % p)]
        return N or None  # 0: some p | d, left to curves.twist, which refuses it

    def _count(self, m: int, primes: list[int], A: int, B: int) -> int:
        # counting.count_points_prime is a module lookup, not a copied name,
        # so bench/tracer.py can wrap it
        rows = []
        N = 1
        for p in primes:
            c = counting.count_points_prime(p, A, B)
            rows.append((p, self._chi[p], (0, c, 2 * p + 2 - c)))  # n_p + n'_p = 2(p + 1)
            N *= c
        self._record = (m, A, B, tuple(rows))
        return N


class DirectOracle(Oracle):
    """Oracle that factors m itself and counts each prime by brute force."""

    def __init__(self, _unused: int | None = None):
        # No modulus cap: factor_small's 2^64 contract and the brute-force
        # prime limit bound the work. bench/workloads.py calls DirectOracle(m).
        super().__init__()

    def _factor(self, m: int) -> list[int]:
        """Primes of m from `factor_small`, each at most the brute-force limit."""
        try:
            facts = factor_small(m)
        except ValueError as exc:  # m > 2^64 with a composite cofactor; names m
            raise UnsupportedModulusError(str(exc)) from None
        if (big := facts[-1][0]) > BRUTEFORCE_LIMIT:
            raise UnsupportedModulusError(
                f"modulus {m} has a factor {big} above the brute-force limit "
                f"{BRUTEFORCE_LIMIT}"
            )
        return [p for p, _ in facts]

    def _count(self, m: int, primes: list[int], A: int, B: int) -> int:
        # + 1 at each prime for the point at infinity
        return math.prod(count_affine_bruteforce(p, A, B) + 1 for p in primes)
